"""Composite reward: exact weighted sum, weight validation, components.

The batched composite_reward is checked against the per-response statement
in tests/oracles.py; the trainer reads its format and content terms off a
slot's feature row (columns 0, 1 and 3 of build_caches); a weights object
that is not RewardWeights is TrainConfig's InvalidWeightsError
(tests/test_trainer.py)."""

import numpy as np
import pytest

from conftest import mk_mcq, mk_open
from oracles import composite_reward as oracle_reward
from mskd.discriminator import Featurizer, _sigmoid as sigmoid
from mskd.metrics import MetricConfig, quality_score
from mskd.rewards import (
    DEFAULT_WEIGHTS,
    InvalidWeightsError,
    RewardWeights,
    composite_reward,
)
from mskd.tasks import SupervisionExample, TaskType, Text, parse_response, render_payload
from mskd.train import build_caches, slot_parses


def test_default_weights():
    w = DEFAULT_WEIGHTS
    assert (w.alpha, w.beta, w.eta, w.delta) == (0.4, 0.1, 0.1, 0.4)


def test_weights_must_sum_to_one():
    RewardWeights(0.25, 0.25, 0.25, 0.25)
    with pytest.raises(InvalidWeightsError):
        RewardWeights(0.4, 0.1, 0.1, 0.5)
    with pytest.raises(InvalidWeightsError):
        RewardWeights(-0.1, 0.5, 0.3, 0.3)
    with pytest.raises(InvalidWeightsError):
        RewardWeights(float("nan"), 0.4, 0.1, 0.5)


def test_format_terms_are_the_parsed_flags():
    # the flag is the reward: build_caches' columns 0 and 1 are each slot's
    # outer and task flags; a blank text is task-invalid, and one holding
    # the closing tag breaks the envelope
    space = (Text("stop"), Text(""), Text("x</answer>y"))
    ex = SupervisionExample(id="ocr-0", task=TaskType.OCR, question="read it", ground_truth=Text("stop"),
                            answer_space=space)
    feats = build_caches([ex], Featurizer(3), slot_parses([ex], MetricConfig()))[ex.id]
    assert feats[:, :2].tolist() == [[1.0, 1.0], [1.0, 0.0], [0.0, 0.0]]
    parsed = [parse_response(render_payload(p), ex.task) for p in space]
    assert feats[:, :2].tolist() == [[r.outer_valid, r.task_valid] for r in parsed]


def test_content_is_gated_quality_closed_and_zero_open():
    # the trainer's content term is build_caches' per-slot quality
    ex = mk_mcq(gt="B")
    exs = [ex, mk_open()]
    caches = build_caches(exs, Featurizer(4), slot_parses(exs, MetricConfig()))
    assert caches[ex.id][:, 3].tolist() == [0.0, 1.0, 0.0, 0.0]
    assert caches[mk_open().id][:, 3].tolist() == [0.0] * 4
    only_content = RewardWeights(0.0, 0.0, 0.0, 1.0)
    for resp, want in (("<answer>B</answer>", 1.0), ("<answer>C</answer>", 0.0)):
        assert oracle_reward(0.5, parse_response(resp, ex.task), ex, only_content) == want
    free = parse_response("<answer>free text</answer>", mk_open().task)
    assert oracle_reward(0.5, free, mk_open(), only_content) == 0.0


def test_composite_reward_is_the_scalar_sum_bit_for_bit(rng):
    # one batched call over (examples, rollouts) arrays, as rl_step makes it
    ex = mk_mcq(gt="B")
    resps = [parse_response(raw, ex.task) for raw in ("<answer>B</answer>", "<answer>C</answer>", "<answer>Q")]
    outer = np.array([[r.outer_valid for r in resps]], dtype=float)
    task = np.array([[r.task_valid for r in resps]], dtype=float)
    content = np.array([[1.0, 0.0, 0.0]])
    for _ in range(1000):
        raw = rng.uniform(0, 1, 4)
        w = RewardWeights(*(raw / raw.sum()))
        disc = rng.uniform(0, 1, (2, 3))
        got = composite_reward(w, disc, outer, task, content)
        want = [[oracle_reward(float(d), r, ex, w) for d, r in zip(row, resps)] for row in disc]
        assert got.tolist() == want  # bit-exact: same expression shape
        assert composite_reward(w, float(disc[0, 0]), 1, 1, 1.0) == want[0][0]


def test_composite_reward_gates_content_on_validity():
    ex = mk_mcq(gt="B")
    resp = parse_response("<answer>B</answer>" * 2, ex.task)  # duplicated span
    assert (resp.outer_valid, resp.task_valid, quality_score(resp, ex)) == (False, False, 0.0)
    got = oracle_reward(0.7, resp, ex, DEFAULT_WEIGHTS)
    assert got == composite_reward(DEFAULT_WEIGHTS, 0.7, 0, 0, 0.0)
    assert got == pytest.approx(0.4 * 0.7, abs=1e-15)


def test_sigmoid_basics():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(50.0) == pytest.approx(1.0, abs=1e-12)
    assert sigmoid(-50.0) == pytest.approx(0.0, abs=1e-12)
    # no overflow at extremes
    assert sigmoid(1e4) == 1.0
    assert sigmoid(-1e4) == 0.0
    for x in np.linspace(-20, 20, 101):
        assert sigmoid(float(x)) + sigmoid(float(-x)) == pytest.approx(1.0, abs=1e-12)
