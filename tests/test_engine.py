from esbsim.engine import ticks_to_us, us_to_ticks


def test_tick_conversion_is_exact_on_the_grid():
    assert us_to_ticks(486.3) == 4863
    assert us_to_ticks(0.1) == 1
    assert ticks_to_us(4863) == 486.3
    for ticks in (0, 1, 7, 4350, 8700, 60000):
        assert us_to_ticks(ticks_to_us(ticks)) == ticks
