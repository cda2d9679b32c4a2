"""repro.core.rng: bulk-seeded streams equal one-off streams exactly."""

import numpy as np
import pytest

from repro.core.rng import RngFactory, _pcg64_states

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_seeding_equals_default_rng(seed):
    state = np.random.default_rng(seed).bit_generator.state["state"]
    assert _pcg64_states([seed]) == [(state["state"], state["inc"])]


def test_seeding_is_per_seed_in_a_batch():
    # a seed's state does not depend on its neighbours in the batch
    assert _pcg64_states(EDGE_SEEDS) == [
        _pcg64_states([seed])[0] for seed in EDGE_SEEDS]


def test_streams_equal_stream_on_draws_and_state():
    factory = RngFactory(7)
    keys = [(f"lifecycle.link.{link}.{kind}", k)
            for link in range(200) for kind in ("event", "repair")
            for k in range(5)] + [("x", None), ("x", 0)]
    assert len(keys) >= 2000
    for (name, index), bulk in zip(keys, factory.streams(keys)):
        one = factory.stream(name, index)
        assert bulk.random() == one.random()
        assert bulk.exponential(3.0) == one.exponential(3.0)
        assert bulk.integers(1 << 40) == one.integers(1 << 40)
        assert bulk.bit_generator.state == one.bit_generator.state


def test_streams_reuse_one_generator_restated_per_key():
    factory = RngFactory(3)
    keys = [("a", 0), ("a", 1)]
    it = factory.streams(keys)
    first = next(it)
    first_draw = first.random()
    second = next(it)
    # the generator kept past the next key is that key's, not its own
    assert second is first
    assert first.bit_generator.state == (
        factory.stream("a", 1).bit_generator.state)
    assert second.random() == factory.stream("a", 1).random()
    assert first_draw == factory.stream("a", 0).random()


def test_streams_of_no_keys_yield_nothing():
    assert list(RngFactory(1).streams([])) == []
