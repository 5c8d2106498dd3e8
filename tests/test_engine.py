import pytest

from esbsim.engine import (
    PURPOSE_JITTER,
    PURPOSE_LOSS,
    RngStream,
    ticks_to_us,
    us_to_ticks,
)


def test_tick_conversion_is_exact_on_the_grid():
    assert us_to_ticks(486.3) == 4863
    assert us_to_ticks(0.1) == 1
    assert ticks_to_us(4863) == 486.3
    for ticks in (0, 1, 7, 4350, 8700, 60000):
        assert us_to_ticks(ticks_to_us(ticks)) == ticks


class TestRngStream:
    def test_same_seed_and_id_reproduce_draws(self):
        a = RngStream(99, (1, 2, PURPOSE_LOSS))
        b = RngStream(99, (1, 2, PURPOSE_LOSS))
        assert list(a.uniform(0, 1, 8)) == list(b.uniform(0, 1, 8))

    def test_distinct_ids_give_distinct_sequences(self):
        base = list(RngStream(99, (1, 2, PURPOSE_LOSS)).uniform(0, 1, 8))
        assert list(RngStream(99, (1, 2, PURPOSE_JITTER)).uniform(0, 1, 8)) != base
        assert list(RngStream(99, (1, 3, PURPOSE_LOSS)).uniform(0, 1, 8)) != base
        assert list(RngStream(99, (2, 2, PURPOSE_LOSS)).uniform(0, 1, 8)) != base
        assert list(RngStream(98, (1, 2, PURPOSE_LOSS)).uniform(0, 1, 8)) != base

    def test_namespace_selects_an_independent_stream(self):
        plain = list(RngStream(99, (0, 0, 1)).uniform(0, 1, 4))
        spaced = list(RngStream(99, (0, 0, 1), namespace=(3,)).uniform(0, 1, 4))
        assert plain != spaced

    def test_rekey_matches_fresh_construction(self):
        fresh = RngStream(7, (4, 5, PURPOSE_JITTER))
        reused = RngStream(7, (0, 0, 0))
        reused.uniform(0, 1, 5)  # consume something first
        reused.rekey((4, 5, PURPOSE_JITTER))
        assert list(fresh.uniform(0, 1, 6)) == list(reused.uniform(0, 1, 6))

    def test_bernoulli_degenerate_probabilities(self):
        rng = RngStream(1)
        assert not any(rng.bernoulli(0.0, 1000))
        assert all(rng.bernoulli(1.0, 1000))

    def test_bernoulli_empirical_mean(self):
        # law of large numbers: 3 sigma = 3*sqrt(p(1-p)/n) ~ 0.0042 at n=1e5
        rng = RngStream(12345)
        draws = rng.bernoulli(0.266, 100_000)
        assert abs(draws.mean() - 0.266) < 0.01

    def test_uniform_bounds(self):
        rng = RngStream(2)
        draws = rng.uniform(3.0, 4.5, 1000)
        assert (draws >= 3.0).all() and (draws < 4.5).all()
        with pytest.raises(ValueError):
            rng.uniform(2.0, 1.0)

    def test_invalid_stream_ids_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1, (1, 2, 3, 4))
        with pytest.raises(ValueError):
            RngStream(1, (-1, 0, 0))
