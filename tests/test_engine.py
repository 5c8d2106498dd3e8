from esbsim import engine
from esbsim.engine import ticks_to_us, us_to_ticks


def test_tick_conversion_is_exact_on_the_grid():
    assert us_to_ticks(486.3) == 4863
    assert us_to_ticks(0.1) == 1
    assert ticks_to_us(4863) == 486.3
    for ticks in (0, 1, 7, 4350, 8700, 60000):
        assert us_to_ticks(ticks_to_us(ticks)) == ticks


def test_draw_purposes_are_pinned():
    # output files record only the seed, so a purpose's number is part of
    # every result: a retired purpose leaves a gap, and none is renumbered
    purposes = {name: value for name, value in vars(engine).items() if name.startswith("PURPOSE_")}
    assert purposes == {
        "PURPOSE_LOSS": 1,
        "PURPOSE_CORRUPT": 2,
        "PURPOSE_JITTER": 3,
        "PURPOSE_ESCAPE": 4,
    }
    assert len(set(purposes.values())) == len(purposes)
