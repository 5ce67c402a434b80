"""The trainer's stream and uniform tables against numpy's own
SeedSequence and PCG64.

seed_states re-implements SeedSequence's hash over whole arrays, so every
row must equal the state numpy derives for the same key, the pool keys
[seed, _S_POOL, i] too, whose three words numpy fills out with a hashed
zero; stream_table is its RL form.  uniform_table re-implements PCG64's
seeding and draws over uint64 arrays, so each of its rows must be the
doubles default_rng(seq).random(n) gives, and no uint64 wrap-around may
warn.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mskd.train import _S_POOL, _S_ROLL, seed_states, stream_table, uniform_table

_SEEDS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**96),
)
_COUNTS = st.integers(0, 10**6)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_SEEDS, _COUNTS, _COUNTS)
@example(0, 0, 0)
@example(1, 0, 0)
@example(2**32 - 1, 29, 59)
@example(2**32, 1, 2)  # two seed words, the low one zero
@example(2**64 + 3, 10**6, 10**6)  # three seed words
@example(2**70, 10**6, 0)
def test_row_matches_seed_sequence(seed, epoch, i):
    rows = stream_table(seed, np.array(epoch), np.array(i))
    assert rows.shape == (2, 4) and rows.dtype == np.uint64
    for j, row in enumerate(rows):
        seq = np.random.SeedSequence([seed, _S_ROLL, epoch, i], spawn_key=(j,))
        assert row.tobytes() == seq.generate_state(4, np.uint64).tobytes()


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_SEEDS, _COUNTS, _COUNTS, st.integers(1, 64))
@example(0, 0, 0, 1)
@example(5, 29, 59, 8)
@example(2**32 - 1, 0, 0, 64)
@example(2**33 + 7, 3, 4, 8)
@example(2**64, 10**6, 10**6, 1)
def test_uniform_rows_are_the_generators_draws(seed, epoch, i, n):
    uniforms = uniform_table(stream_table(seed, np.array(epoch), np.array(i)), n)
    assert uniforms.shape == (2, n) and uniforms.dtype == np.float64
    for j, row in enumerate(uniforms):
        seq = np.random.SeedSequence([seed, _S_ROLL, epoch, i], spawn_key=(j,))
        assert row.tobytes() == np.random.default_rng(seq).random(n).tobytes()


def test_rows_are_the_children_of_spawn():
    table = stream_table(7, np.arange(3)[:, None], np.arange(5))
    assert table.shape == (3, 5, 2, 4) and table.flags.c_contiguous
    for epoch in range(3):
        for i in range(5):
            children = np.random.SeedSequence([7, _S_ROLL, epoch, i]).spawn(2)
            want = np.stack([c.generate_state(4, np.uint64) for c in children])
            assert table[epoch, i].tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error")
def test_uniform_table_covers_a_whole_run():
    table = stream_table(2**40 + 1, np.arange(4)[:, None], np.arange(6))
    uniforms = uniform_table(table, 5)
    assert uniforms.shape == (4, 6, 2, 5)
    for epoch in range(4):
        for i in range(6):
            children = np.random.SeedSequence([2**40 + 1, _S_ROLL, epoch, i]).spawn(2)
            want = np.stack([np.random.default_rng(c).random(5) for c in children])
            assert uniforms[epoch, i].tobytes() == want.tobytes()


_INDICES = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6)


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_SEEDS, _INDICES, st.integers(1, 8))
@example(0, [0], 1)  # one seed word: three words of entropy, the fourth a hashed zero
@example(5, [0, 1, 59], 4)
@example(2**32 - 1, [2**32 - 1], 8)
@example(2**32, [7, 0], 4)  # two seed words, the low one zero: four words, no fill
@example(2**64 + 3, [1], 4)  # three seed words
def test_pool_rows_are_the_per_example_generators(seed, indices, k):
    # make_pools' table: example i's pool reads the first 2k doubles of
    # default_rng(SeedSequence([seed, _S_POOL, i]))
    states = seed_states(seed, _S_POOL, np.array(indices))
    uniforms = uniform_table(states, 2 * k)
    assert states.shape == (len(indices), 4) and uniforms.shape == (len(indices), 2 * k)
    for row, i in enumerate(indices):
        seq = np.random.SeedSequence([seed, _S_POOL, i])
        assert states[row].tobytes() == seq.generate_state(4, np.uint64).tobytes()
        assert uniforms[row].tobytes() == np.random.default_rng(seq).random(2 * k).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 3, 2**32 - 1, 2**32, 2**64 + 1])
@pytest.mark.parametrize("keys", [(), (1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)])
@pytest.mark.parametrize("spawn", [None, 0, 5])
def test_states_of_every_entropy_length_and_scalar_keys(seed, keys, spawn):
    # one to seven words of entropy, with and without a spawn key, which
    # follows the zero fill; scalar keys give one (4,) row
    got = seed_states(seed, *keys, spawn=spawn)
    seq = np.random.SeedSequence([seed, *keys], spawn_key=() if spawn is None else (spawn,))
    assert got.shape == (4,) and got.tobytes() == seq.generate_state(4, np.uint64).tobytes()
