"""The trainer's RL stream table against numpy's own SeedSequence.

stream_table re-implements SeedSequence's hash over whole arrays, so every
row must equal the state numpy derives for the same key, and the generator
built from a row must be the one default_rng builds from the sequence.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mskd.train import _S_ROLL, stream_generator, stream_table

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
        got, want = stream_generator(row), np.random.default_rng(seq)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random(8).tobytes() == want.random(8).tobytes()


def test_rows_are_the_children_of_spawn():
    table = stream_table(7, np.arange(3)[:, None], np.arange(5))
    assert table.shape == (3, 5, 2, 4) and table.flags.c_contiguous
    for epoch in range(3):
        for i in range(5):
            children = np.random.SeedSequence([7, _S_ROLL, epoch, i]).spawn(2)
            want = np.stack([c.generate_state(4, np.uint64) for c in children])
            assert table[epoch, i].tobytes() == want.tobytes()
