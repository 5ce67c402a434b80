"""Composite reward: exact weighted sum, weight validation, components."""

import numpy as np
import pytest

from conftest import mk_mcq, mk_open
from mskd.discriminator import _sigmoid as sigmoid
from mskd.rewards import (
    DEFAULT_WEIGHTS,
    InvalidWeightsError,
    RewardWeights,
    composite_reward,
    content_reward,
    outer_reward,
    task_reward,
)
from mskd.tasks import OptionLetter, ParsedResponse, parse_response


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


def test_format_rewards_follow_flags():
    good = parse_response("<answer>B</answer>", mk_mcq().task)
    assert outer_reward(good) == 1 and task_reward(good) == 1
    half = parse_response("<answer>not a letter</answer>", mk_mcq().task)
    assert outer_reward(half) == 1 and task_reward(half) == 0
    bad = parse_response("no tags", mk_mcq().task)
    assert outer_reward(bad) == 0 and task_reward(bad) == 0


def test_content_reward_closed_is_quality():
    ex = mk_mcq(gt="B")
    r = parse_response("<answer>B</answer>", ex.task)
    assert content_reward(r, ex) == 1.0
    r = parse_response("<answer>C</answer>", ex.task)
    assert content_reward(r, ex) == 0.0


def test_content_reward_open_is_zero():
    ex = mk_open()
    r = parse_response("<answer>free text</answer>", ex.task)
    assert content_reward(r, ex) == 0.0


def test_composite_reward_exact_weighted_sum(rng):
    ex = mk_mcq(gt="B")
    resp = parse_response("<answer>B</answer>", ex.task)
    for _ in range(1000):
        raw = rng.uniform(0, 1, 4)
        w = RewardWeights(*(raw / raw.sum()))
        disc = float(rng.uniform(0, 1))
        b = composite_reward(disc, resp, ex, w)
        want = w.alpha * disc + w.beta * 1.0 + w.eta * 1.0 + w.delta * 1.0
        assert b.composite == want  # bit-exact: same expression shape
        assert (b.outer, b.task, b.content) == (1.0, 1.0, 1.0)
        assert b.disc == disc


def test_composite_reward_gates_content_on_validity():
    ex = mk_mcq(gt="B")
    resp = parse_response("<answer>B</answer>" * 2, ex.task)  # duplicated span
    b = composite_reward(0.7, resp, ex, DEFAULT_WEIGHTS)
    assert (b.outer, b.task, b.content) == (0.0, 0.0, 0.0)
    assert b.composite == pytest.approx(0.4 * 0.7, abs=1e-15)


def test_composite_reward_rejects_bad_weights_type():
    ex = mk_mcq(gt="B")
    resp = parse_response("<answer>B</answer>", ex.task)
    with pytest.raises(InvalidWeightsError):
        composite_reward(0.5, resp, ex, (0.4, 0.1, 0.1, 0.4))


def test_sigmoid_basics():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(50.0) == pytest.approx(1.0, abs=1e-12)
    assert sigmoid(-50.0) == pytest.approx(0.0, abs=1e-12)
    # no overflow at extremes
    assert sigmoid(1e4) == 1.0
    assert sigmoid(-1e4) == 0.0
    for x in np.linspace(-20, 20, 101):
        assert sigmoid(float(x)) + sigmoid(float(-x)) == pytest.approx(1.0, abs=1e-12)
