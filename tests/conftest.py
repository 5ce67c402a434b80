from dataclasses import replace

import numpy as np
import pytest

from mskd.policy import softmax
from mskd.tasks import (
    Binary,
    OptionLetter,
    SupervisionExample,
    TaskType,
    TemporalSegment,
    Text,
    option_letters,
)
from mskd.train import _pick, _sft_epoch, rl_inputs, rl_step, score_groups


def mk_mcq(idx=0, gt="B", n_options=4):
    letters = option_letters(n_options)
    return SupervisionExample(
        id=f"mcq-{idx}",
        task=TaskType.MULTIPLE_CHOICE,
        question=f"question {idx}",
        ground_truth=OptionLetter(gt),
        option_count=n_options,
        answer_space=tuple(OptionLetter(c) for c in letters),
    )


def mk_binary(idx=0, gt=True):
    return SupervisionExample(
        id=f"bin-{idx}",
        task=TaskType.BINARY_QA,
        question=f"question {idx}",
        ground_truth=Binary(gt),
        answer_space=(Binary(True), Binary(False)),
    )


def mk_temporal(idx=0, gt=(0.2, 0.6), space=None):
    if space is None:
        space = (
            TemporalSegment(0.0, 0.4),
            TemporalSegment(0.2, 0.6),
            TemporalSegment(0.4, 0.8),
            TemporalSegment(0.6, 1.0),
        )
    return SupervisionExample(
        id=f"tg-{idx}",
        task=TaskType.TEMPORAL_GROUNDING,
        question=f"question {idx}",
        ground_truth=TemporalSegment(*gt),
        answer_space=space,
    )


def mk_open(idx=0, n_slots=4):
    return SupervisionExample(
        id=f"open-{idx}",
        task=TaskType.OPEN_ENDED,
        question=f"question {idx}",
        answer_space=tuple(Text(f"caption {idx}-{j}") for j in range(n_slots)),
    )


def stack_student(examples, student):
    """The layout Plan.run trains on, for a dict of logits by id: each
    answer-space size's example indices in score_groups order and its
    logits stack.  student's values become the stacks' rows, so they see
    every update."""
    groups = score_groups(examples, [student[ex.id] for ex in examples])
    for ids, _, logits in groups:
        student.update(zip(ids, logits))
    return [np.array(rows) for _, rows, _ in groups], [logits for _, _, logits in groups]


def rl_epoch_on(student, ref_probs, disc, examples, cfg, uniforms, matches, slot_rows, pool_rows):
    """train.rl_step over per-example inputs, laid out by train.rl_inputs
    as Plan.run lays them out: logits and reference probabilities by id,
    each example's rollout uniforms and its matched pool rows (None: nothing
    to match), its build_caches rows stacked in slot_rows and its (K, dim)
    pool rows stacked in pool_rows."""
    layout, stacks = stack_student(examples, student)
    refs = [np.array([ref_probs[examples[i].id] for i in rows]) for rows in layout]
    starts = np.cumsum([0] + [len(ex.answer_space) for ex in examples])[:-1]
    closed = np.array([ex.task.is_closed for ex in examples], dtype=bool)
    _, k, dim = pool_rows.shape
    one_epoch = [None if m is None else np.asarray(m)[None] for m in matches]
    groups, u, picks, slot_at, weighted = rl_inputs(
        layout, refs, one_epoch, np.asarray(uniforms)[None, :, None], starts, closed,
        replace(cfg, k=k, epochs_stage2=1),
    )
    probs = [softmax(logits) for logits in stacks]
    return rl_step(
        groups, stacks, probs, disc, cfg, u[0], picks[0], slot_at, weighted, slot_rows, pool_rows.reshape(-1, dim)
    )


def sft_epoch_on(student, examples, targets, lr):
    """train._sft_epoch over a dict of logits by id and targets by id, laid
    out as Plan.run lays them out."""
    layout, stacks = stack_student(examples, student)
    slots = np.array([targets.get(ex.id, -1) for ex in examples])
    taught = [(g, sel, slots[rows]) for g, sel, rows in _pick(layout, slots >= 0)]
    _sft_epoch(taught, stacks, [softmax(logits) for logits in stacks], lr)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
