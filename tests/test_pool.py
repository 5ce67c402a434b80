"""Teacher pools: quality scoring, filtering, matching distributions,
supervised-target selection, and the cache file format."""

import json
import warnings

import numpy as np
import pytest

from conftest import mk_mcq, mk_open, mk_temporal
from mskd.corpus import CorpusError
from mskd.pool import (
    MatchingDistribution,
    apply_filter,
    build_pool,
    matching_distribution,
    read_pool_cache,
    sample_matches,
    select_sft_target,
    write_pool_cache,
)
from mskd.tasks import TemporalSegment, render_payload

GOOD = "<answer>B</answer>"
WRONG = "<answer>C</answer>"
BROKEN = "<answer>B"  # no closing tag


def test_build_pool_scores_closed():
    ex = mk_mcq(gt="B")
    pool = build_pool(ex, [GOOD, WRONG, BROKEN, GOOD])
    assert pool.k == 4
    assert pool.qualities == (1.0, 0.0, 0.0, 1.0)
    assert pool.tau_applied is None
    assert [r.outer_valid for r in pool.responses] == [True, True, False, True]


def test_build_pool_open_has_no_qualities():
    ex = mk_open()
    pool = build_pool(ex, ["<answer>a scene</answer>"] * 3)
    assert pool.qualities is None


def test_build_pool_rejects_empty():
    with pytest.raises(ValueError, match="^example mcq-0: empty response list$"):
        build_pool(mk_mcq(), [])


def test_apply_filter_zeroes_below_tau():
    ex = mk_temporal(gt=(0.2, 0.6))
    raws = [render_payload(p) for p in ex.answer_space]
    pool = build_pool(ex, raws)
    filtered = apply_filter(pool, 0.5)
    assert filtered.tau_applied == 0.5
    for q, fq in zip(pool.qualities, filtered.qualities):
        assert fq == (q if q >= 0.5 else 0.0)
    # original pool untouched
    assert pool.tau_applied is None


def test_apply_filter_boundary_keeps_exact_tau():
    ex = mk_mcq(gt="B")
    pool = build_pool(ex, [GOOD, WRONG])
    filtered = apply_filter(pool, 1.0)
    assert filtered.qualities == (1.0, 0.0)


def test_apply_filter_passes_open_ended_through():
    pool = build_pool(mk_open(), ["<answer>x</answer>"] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert apply_filter(pool, 0.5) is pool
    closed = apply_filter(build_pool(mk_mcq(gt="B"), [GOOD, WRONG, BROKEN]), 0.5)
    assert (closed.qualities, closed.tau_applied) == ((1.0, 0.0, 0.0), 0.5)


def test_apply_filter_rejects_bad_tau():
    pool = build_pool(mk_mcq(), [GOOD])
    with pytest.raises(ValueError):
        apply_filter(pool, -0.1)
    with pytest.raises(ValueError):
        apply_filter(pool, 1.5)


def test_matching_distribution_quality_mode():
    ex = mk_temporal(gt=(0.2, 0.6))
    raws = [render_payload(p) for p in ex.answer_space]
    pool = apply_filter(build_pool(ex, raws), 0.3)
    dist = matching_distribution(pool, "quality")
    q = np.array(pool.qualities)
    np.testing.assert_allclose(np.array(dist.probs), q / q.sum(), atol=1e-15)


def test_matching_distribution_uniform_before_filter_covers_all():
    ex = mk_mcq(gt="B")
    pool = build_pool(ex, [GOOD, WRONG, BROKEN, GOOD])
    for p in (pool, apply_filter(pool, 0.0)):
        dist = matching_distribution(p, "uniform")
        assert dist.probs == (0.25, 0.25, 0.25, 0.25)


def test_matching_distribution_uniform_after_filter_covers_survivors():
    ex = mk_mcq(gt="B")
    pool = apply_filter(build_pool(ex, [GOOD, WRONG, BROKEN, GOOD]), 0.5)
    dist = matching_distribution(pool, "uniform")
    assert dist.probs == (0.5, 0.0, 0.0, 0.5)


def test_matching_distribution_open_is_uniform():
    pool = build_pool(mk_open(), ["<answer>x</answer>"] * 5)
    for mode in ("quality", "uniform"):
        assert matching_distribution(pool, mode).probs == (0.2,) * 5


def test_matching_distribution_degenerate():
    ex = mk_mcq(gt="B")
    pool = apply_filter(build_pool(ex, [WRONG, BROKEN]), 0.3)
    assert matching_distribution(pool, "quality") is None
    assert matching_distribution(pool, "uniform") is None


def test_matching_distribution_validates_probs():
    with pytest.raises(ValueError):
        MatchingDistribution((0.5, 0.6))
    with pytest.raises(ValueError):
        MatchingDistribution((-0.1, 1.1))
    with pytest.raises(ValueError, match="finite"):
        MatchingDistribution((float("nan"), 1.0))
    with pytest.raises(ValueError, match="finite"):
        MatchingDistribution((float("inf"), 0.0))


def test_sample_matches_frequencies(rng):
    dist = MatchingDistribution((0.5, 0.3, 0.2, 0.0))
    draws = sample_matches([dist], rng.random((1, 100_000)))[0]
    freqs = np.bincount(draws, minlength=4) / draws.size
    assert np.abs(freqs - np.array(dist.probs)).max() < 0.01
    assert freqs[3] == 0.0  # zero-probability entry never drawn
    # a uniform equal to a CDF value draws past a zero-mass slot, as choice does
    gap = MatchingDistribution((0.5, 0.0, 0.5))
    assert sample_matches([gap], np.array([[0.0, 0.25, 0.5, 0.75]])).tolist() == [[0, 0, 2, 2]]


@pytest.mark.parametrize(
    "probs", [(0.7, 0.3), (0.5, 0.3, 0.2, 0.0), (0.0, 0.25, 0.0, 0.75), (0.1,) * 10, (1.0,)]
)
@pytest.mark.parametrize("seed", range(3))
def test_sample_matches_is_generator_choice(probs, seed):
    dist = MatchingDistribution(probs)
    n = 1000
    want = np.random.default_rng(seed).choice(len(probs), size=n, p=np.asarray(probs))
    got = sample_matches([dist], np.random.default_rng(seed).random((1, n)))[0]
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # any shape per distribution: a run's (epochs, n_rollouts) rows, or none at all
    u = np.random.default_rng(seed).random((40, 25))
    assert np.array_equal(sample_matches([dist], u[None]), sample_matches([dist], u.reshape(1, -1)).reshape(1, 40, 25))
    assert sample_matches([dist], np.empty((1, 0, 8))).shape == (1, 0, 8)


def test_select_sft_target_argmax_lowest_index_ties():
    ex = mk_mcq(gt="B")
    pool = build_pool(ex, [WRONG, GOOD, GOOD])
    assert select_sft_target(pool, np.random.default_rng(0)) == 1


def test_select_sft_target_no_valid():
    ex = mk_mcq(gt="B")
    pool = build_pool(ex, [WRONG, BROKEN])
    assert select_sft_target(pool, np.random.default_rng(0)) is None


def test_select_sft_target_open_seeded():
    pool = build_pool(mk_open(), ["<answer>x</answer>"] * 4)
    picks = {select_sft_target(pool, np.random.default_rng(seed)) for seed in range(40)}
    assert picks <= {0, 1, 2, 3}
    assert len(picks) > 1  # actually random across seeds
    assert select_sft_target(pool, np.random.default_rng(7)) == select_sft_target(
        pool, np.random.default_rng(7)
    )


def test_pool_cache_round_trip(tmp_path):
    ex_closed = mk_temporal(gt=(0.2, 0.6))
    raws = [render_payload(p) for p in ex_closed.answer_space]
    pool_closed = apply_filter(build_pool(ex_closed, raws), 0.3)
    pool_open = build_pool(mk_open(), ["<answer>cap</answer>", "<answer>tion</answer>"])
    path = tmp_path / "pools.jsonl"
    write_pool_cache([pool_closed, pool_open], path)
    loaded = {p.example_id: p for p in read_pool_cache(path)}
    got = loaded[ex_closed.id]
    assert got.qualities == pool_closed.qualities
    assert got.tau_applied == 0.3
    assert [r.payload for r in got.responses] == [r.payload for r in pool_closed.responses]
    assert loaded["open-0"].qualities is None


def _cache_line(q=1.0, **fields):
    """One well-formed cache line for an MCQ pool of GOOD, with fields and
    the first response's q replaced."""
    obj = {
        "example_id": "mcq-1",
        "task": "multiple_choice",
        "responses": [{"text": GOOD, "outer_valid": True, "task_valid": True, "q": q}],
        "tau_applied": None,
    }
    return json.dumps(dict(obj, **fields))


def test_pool_cache_line_helper_reads_back(tmp_path):
    # the filter keeps q >= tau and zeroes the rest, so q == tau and q == 0 load
    path = tmp_path / "pools.jsonl"
    lines = [
        _cache_line(),
        _cache_line(tau_applied=0, q=0, example_id="mcq-2"),
        _cache_line(tau_applied=0.5, q=0.5, example_id="mcq-3"),
        _cache_line(tau_applied=0.5, q=0.0, example_id="mcq-4"),
        _cache_line(task="open_ended", q=None, example_id="open-1"),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got = [(p.example_id, p.qualities, p.tau_applied) for p in read_pool_cache(path)]
    assert got == [
        ("mcq-1", (1.0,), None),
        ("mcq-2", (0.0,), 0),
        ("mcq-3", (0.5,), 0.5),
        ("mcq-4", (0.0,), 0.5),
        ("open-1", None, None),
    ]


def test_pool_cache_duplicate_example_id_names_both_lines(tmp_path):
    path = tmp_path / "pools.jsonl"
    lines = [_cache_line(), _cache_line(example_id="mcq-2"), _cache_line(q=0.0)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"pools.jsonl:3: duplicate example_id 'mcq-1' \(first on line 1\)"):
        read_pool_cache(path)


@pytest.mark.parametrize(
    "bad_line",
    [
        '{"example_id": "mcq-0", "task": "multiple_choice", "respo',
        '{"example_id": "mcq-0"}',
        "[1, 2]",
        '{"example_id": "mcq-0", "task": "multiple_choice", "responses": [{"text": 5, "q": 1.0}]}',
        _cache_line(tau_applied="0.3"),
        _cache_line(tau_applied=1.5),
        _cache_line(tau_applied=float("nan")),
        _cache_line(tau_applied=True),
        _cache_line(q="1.0"),
        _cache_line(q=True),
        _cache_line(q=float("inf")),
        _cache_line(example_id=5),
        _cache_line(q=None),
        _cache_line(q=7.5),
        _cache_line(q=-0.25),
        _cache_line(q=float("nan")),
        _cache_line(task="open_ended", q=0.5),
        _cache_line(task="open_ended", q=0),
        _cache_line(responses=[]),
        _cache_line(q=0.3, tau_applied=0.5),
        _cache_line(task="open_ended", q=None, tau_applied=0.5),
    ],
    ids=["truncated", "missing_keys", "not_an_object", "text_not_a_string", "tau_string",
         "tau_above_one", "tau_nan", "tau_bool", "q_string", "q_bool", "q_inf", "example_id_int",
         "closed_q_null", "q_above_one", "q_negative", "q_nan", "open_q_number", "open_q_zero",
         "no_responses", "q_below_tau", "open_tau_set"],
)
def test_pool_cache_malformed_line_names_file_and_line(tmp_path, bad_line):
    ex = mk_mcq(gt="B")
    path = tmp_path / "pools.jsonl"
    write_pool_cache([build_pool(ex, [GOOD, WRONG])], path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(bad_line + "\n")
    with pytest.raises(CorpusError, match="pools.jsonl:2: bad pool record"):
        read_pool_cache(path)


@pytest.mark.parametrize("text", [5, 2.5, None, True, ["<answer>B</answer>"], {"t": 1}])
def test_pool_cache_non_string_text_names_the_field_and_type(tmp_path, text):
    # it used to surface as the AttributeError of a str method on the value
    good = {"text": GOOD, "outer_valid": True, "task_valid": True, "q": 1.0}
    path = tmp_path / "pools.jsonl"
    path.write_text(_cache_line(responses=[good, dict(good, text=text)]) + "\n", encoding="utf-8")
    want = f"response 1 needs a string 'text', got {text!r}"
    with pytest.raises(CorpusError, match="pools.jsonl:1: bad pool record") as info:
        read_pool_cache(path)
    assert want in str(info.value) and "AttributeError" not in str(info.value)


def test_pool_cache_text_checks_keep_each_lines_first_error(tmp_path):
    # texts are checked response by response: the first bad one names the error
    good = {"text": GOOD, "outer_valid": True, "task_valid": True, "q": 1.0}
    no_text = {k: v for k, v in good.items() if k != "text"}
    path = tmp_path / "pools.jsonl"
    for responses, want in (
        ([dict(good, text=5), no_text], "response 0 needs a string 'text', got 5"),
        ([no_text, dict(good, text=5)], "KeyError('text')"),
        ([dict(good, text=5, q="x", outer_valid=None)], "response 0 needs a string 'text'"),
    ):
        path.write_text(_cache_line(responses=responses) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="pools.jsonl:1: bad pool record") as info:
            read_pool_cache(path)
        assert want in str(info.value)


@pytest.mark.parametrize(
    "flag, stored",
    [("outer_valid", False), ("task_valid", False), ("outer_valid", "yes")],
    ids=["outer_valid", "task_valid", "not_a_bool"],
)
def test_pool_cache_stored_flags_must_match_reparse(tmp_path, flag, stored):
    ex = mk_mcq(gt="B")
    path = tmp_path / "pools.jsonl"
    write_pool_cache([build_pool(ex, [GOOD, WRONG])], path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["responses"][1][flag] = stored
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(obj) + "\n")
    with pytest.raises(CorpusError, match=r"pools.jsonl:2: response 1 stores \(outer_valid, task_valid\)"):
        read_pool_cache(path)
