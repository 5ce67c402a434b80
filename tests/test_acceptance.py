"""Release gate: every numbered requirement at its stated tolerance.

Each test prints exactly one `[criterion NN] name: PASS/FAIL` line (visible
via -rA) and then asserts, so a failing requirement is both visible in the
summary and fatal to the suite.
"""

import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import mk_binary, mk_mcq, mk_temporal, rl_epoch_on
from oracles import composite_reward as oracle_reward, kl_divergence, pairwise_loss
from mskd.analysis import analyze_variance, make_variance_corpus
from mskd.discriminator import (
    DiscriminatorParams,
    Featurizer,
    _hidden_grad,
    _linear_grad,
    _linear_scratch,
    _theta,
    batch_update,
    init_params,
)
from mskd.harness import make_closed_benchmark, run_ablation, run_sensitivity
from mskd.metrics import (
    MetricConfig,
    epsilon_accuracy,
    ocr_similarity,
    quality_score,
    temporal_iou,
    spatial_iou,
)
from mskd.pool import apply_filter, build_pool, matching_distribution, sample_matches
from mskd.policy import softmax
from mskd.rewards import InvalidWeightsError, RewardWeights, composite_reward
from mskd.tasks import (
    Binary,
    Number,
    OptionLetter,
    SpatialBox,
    SupervisionExample,
    TaskType,
    TemporalSegment,
    Text,
    option_letters,
    parse_response,
    render_payload,
)
from mskd.train import (
    TrainConfig, build_caches, pool_features, run_pipeline, pass_at_k_eval,
    slot_parses, stream_table, uniform_table,
)

SEEDS20 = tuple(range(20))


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="session")
def bench():
    return make_closed_benchmark()


@pytest.fixture(scope="session")
def ablation(bench):
    t0 = time.perf_counter()
    summary, artifacts = run_ablation(
        TrainConfig(), seeds=SEEDS20, benchmark=bench
    )
    return summary, artifacts, time.perf_counter() - t0


@pytest.fixture(scope="session")
def tau_sweep(bench):
    return run_sensitivity(
        TrainConfig(),
        k_grid=(4,),
        tau_grid=(0.0, 0.2, 0.3, 0.5),
        seeds=SEEDS20,
        benchmark=bench,
    )


# --- criterion 1 --------------------------------------------------------------


def _interval_iou_oracle(a0, a1, b0, b1) -> float:
    A0, A1, B0, B1 = (Fraction(v) for v in (a0, a1, b0, b1))
    inter = max(Fraction(0), min(A1, B1) - max(A0, B0))
    union = (A1 - A0) + (B1 - B0) - inter
    if union == 0:
        return 1.0 if A0 == B0 else 0.0
    return float(inter / union)


def _box_iou_oracle(a, b) -> float:
    ax1, ay1, ax2, ay2 = (Fraction(v) for v in a)
    bx1, by1, bx2, by2 = (Fraction(v) for v in b)
    iw = max(Fraction(0), min(ax2, bx2) - max(ax1, bx1))
    ih = max(Fraction(0), min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union == 0:
        return 1.0 if (ax1, ay1) == (bx1, by1) else 0.0
    return float(inter / union)


def _edit_distance_oracle(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
    return prev[len(b)]


def test_criterion_01_metric_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n = 10_000

    worst_t = 0.0
    for _ in range(n):
        a0, a1 = sorted(rng.uniform(0, 1, 2))
        b0, b1 = sorted(rng.uniform(0, 1, 2))
        got = temporal_iou(TemporalSegment(a0, a1), TemporalSegment(b0, b1))
        worst_t = max(worst_t, abs(got - _interval_iou_oracle(a0, a1, b0, b1)))

    worst_s = 0.0
    for _ in range(n):
        ax = sorted(rng.uniform(0, 1, 2))
        ay = sorted(rng.uniform(0, 1, 2))
        bx = sorted(rng.uniform(0, 1, 2))
        by = sorted(rng.uniform(0, 1, 2))
        a = (ax[0], ay[0], ax[1], ay[1])
        b = (bx[0], by[0], bx[1], by[1])
        got = spatial_iou(SpatialBox(*a), SpatialBox(*b))
        worst_s = max(worst_s, abs(got - _box_iou_oracle(a, b)))

    worst_e = 0.0
    for i in range(n):
        gt = float(rng.normal(0, 10 ** rng.uniform(-1, 3)))
        pred = gt if i % 7 == 0 else gt + float(rng.normal(0, 0.1 * max(abs(gt), 1.0)))
        got = epsilon_accuracy(Number(pred), Number(gt), 0.05)
        want = int(Fraction(abs(pred - gt)) <= Fraction(0.05) * max(Fraction(abs(gt)), 1))
        worst_e = max(worst_e, abs(got - want))

    alphabet = list("abcdefgh XYZ0123é中")
    worst_o = 0.0
    for _ in range(n):
        a = "".join(rng.choice(alphabet, size=int(rng.integers(0, 18))))
        b = "".join(rng.choice(alphabet, size=int(rng.integers(0, 18))))
        got = ocr_similarity(Text(a), Text(b))
        ca, cb = a.strip().casefold(), b.strip().casefold()
        if not ca and not cb:
            want = 1.0
        else:
            want = 1.0 - _edit_distance_oracle(ca, cb) / max(len(ca), len(cb))
        worst_o = max(worst_o, abs(got - want))

    elapsed = time.perf_counter() - t0
    ok = worst_t < 1e-9 and worst_s < 1e-9 and worst_e < 1e-9 and worst_o < 1e-6 and elapsed < 10
    report(
        1, "metric oracles", ok,
        f"max|err| temporal={worst_t:.2e} spatial={worst_s:.2e} "
        f"numeric={worst_e:.2e} edit={worst_o:.2e} in {elapsed:.1f}s",
    )


# --- criterion 2 --------------------------------------------------------------


def _fuzz_payload(task, rng):
    if task is TaskType.MULTIPLE_CHOICE:
        return OptionLetter("ABCDEF"[int(rng.integers(6))])
    if task is TaskType.BINARY_QA:
        return Binary(bool(rng.integers(2)))
    if task is TaskType.TEMPORAL_GROUNDING:
        a, b = sorted(rng.uniform(0, 1, 2))
        return TemporalSegment(float(a), float(b))
    if task is TaskType.SPATIAL_GROUNDING:
        x = sorted(rng.uniform(0, 1, 2))
        y = sorted(rng.uniform(0, 1, 2))
        return SpatialBox(float(x[0]), float(y[0]), float(x[1]), float(y[1]))
    if task is TaskType.NUMERICAL:
        return Number(float(rng.normal(0, 50)))
    return Text("".join(rng.choice(list("abc def"), size=int(rng.integers(1, 10)))))


def test_criterion_02_validity_gate():
    rng = np.random.default_rng(202)
    examples = [
        mk_mcq(0, gt="B"),
        mk_binary(1),
        mk_temporal(2),
        SupervisionExample(
            id="sg-3", task=TaskType.SPATIAL_GROUNDING, question="where",
            ground_truth=SpatialBox(0.1, 0.1, 0.6, 0.8),
        ),
        SupervisionExample(
            id="num-4", task=TaskType.NUMERICAL, question="how many",
            ground_truth=Number(42.0),
        ),
        SupervisionExample(
            id="ocr-5", task=TaskType.OCR, question="read it",
            ground_truth=Text("stop sign"),
        ),
    ]
    corruptions = (
        lambda raw: raw.replace("</answer>", ""),
        lambda raw: raw.replace("<answer>", "<ANSWER>"),
        lambda raw: raw + "<answer>extra</answer>",
        lambda raw: raw + "<think>too late</think>",
        lambda raw: "free text with no envelope",
        lambda raw: "<answer>[0.9, 0.1]</answer>",  # reversed interval
        lambda raw: "<answer></answer>",
    )
    violations = 0
    invalid_seen = 0
    for i in range(10_000):
        ex = examples[i % len(examples)]
        raw = render_payload(_fuzz_payload(ex.task, rng))
        if rng.random() < 0.3:
            raw = f"<think>because</think>\n{raw}"
        if rng.random() < 0.5:
            raw = corruptions[int(rng.integers(len(corruptions)))](raw)
        parsed = parse_response(raw, ex.task)
        q = quality_score(parsed, ex, MetricConfig())
        if not (parsed.outer_valid and parsed.task_valid):
            invalid_seen += 1
            if q != 0.0:
                violations += 1
    ok = violations == 0 and invalid_seen > 2_000
    report(
        2, "validity gate", ok,
        f"violations={violations} over 10000 responses ({invalid_seen} invalid)",
    )


# --- criterion 3 --------------------------------------------------------------


def test_criterion_03_matching_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    max_dev = 0.0
    zero_prob_draws = 0
    n_draws, n_rollouts = 100_000, 8
    for pool_i in range(100):
        k = int(rng.integers(2, 9))
        ex = mk_mcq(pool_i, gt="B")
        raws = ["<answer>B</answer>"]  # guarantee one response above any tau
        for _ in range(k - 1):
            if rng.random() < 0.2:
                raws.append("no envelope here")
            else:
                raws.append(f"<answer>{'ABCD'[int(rng.integers(4))]}</answer>")
        pool = apply_filter(build_pool(ex, raws), float(rng.choice((0.0, 0.2, 0.5))))
        mode = "quality" if pool_i % 2 == 0 else "uniform"
        dist = matching_distribution(pool, mode)

        q = np.asarray(pool.qualities)
        if mode == "quality":
            expected = q / q.sum()
        elif pool.tau_applied:
            support = (q > 0).astype(float)
            expected = support / support.sum()
        else:
            expected = np.full(k, 1.0 / k)
        np.testing.assert_allclose(dist.probs, expected, atol=1e-12)

        # the trainer's matching uniforms: epoch e's n_rollouts draws of
        # example pool_i's matching stream
        table = stream_table(1000, np.arange(n_draws // n_rollouts), pool_i)
        draws = sample_matches([dist], uniform_table(table, n_rollouts)[None, :, 1])[0].ravel()
        freq = np.bincount(draws, minlength=k) / n_draws
        max_dev = max(max_dev, float(np.abs(freq - expected).max()))
        zero_prob_draws += int(np.bincount(draws, minlength=k)[expected == 0.0].sum())
    elapsed = time.perf_counter() - t0
    ok = max_dev < 0.01 and zero_prob_draws == 0 and elapsed < 30
    report(
        3, "matching fidelity", ok,
        f"max|freq-p|={max_dev:.5f}, filtered draws={zero_prob_draws}, {elapsed:.1f}s",
    )


# --- criterion 4 --------------------------------------------------------------


def _invalid_payload(task, rng):
    """A payload that renders in a well-formed envelope but fails the task's
    grammar."""
    a, b = sorted(rng.uniform(0, 1, 2))
    if task is TaskType.TEMPORAL_GROUNDING:
        return TemporalSegment(float(b), float(a))  # reversed
    if task is TaskType.SPATIAL_GROUNDING:
        return SpatialBox(float(b), 0.1, float(a), 0.9)  # x1 > x2
    if task is TaskType.MULTIPLE_CHOICE:
        return OptionLetter("AB"[int(rng.integers(2))] * 2)  # two letters
    if task is TaskType.BINARY_QA:
        return Text("maybe")  # every Binary renders valid
    if task is TaskType.NUMERICAL:
        return Number(float("nan"))
    return Text(" " * int(rng.integers(1, 4)))  # blank


def test_criterion_04_composite_reward_exactness():
    # The trainer's rewards: composite_reward over the outer, task and
    # content columns (0, 1 and 3) of build_caches' slot feature rows,
    # against the per-response oracle sum, on answer spaces of fuzzed
    # payloads with task-invalid ones among them.  A slot always renders a
    # well-formed envelope, so the trainer cannot reach an outer-invalid
    # response; those fuzz cases are checked on the oracle and the parsed
    # flags alone.
    rng = np.random.default_rng(404)
    bases = [
        mk_mcq(0, gt="B"), mk_binary(1), mk_temporal(2),
        SupervisionExample(
            id="sg-3", task=TaskType.SPATIAL_GROUNDING, question="where",
            ground_truth=SpatialBox(0.1, 0.1, 0.6, 0.8),
        ),
        SupervisionExample(id="num-4", task=TaskType.NUMERICAL, question="how many", ground_truth=Number(42.0)),
        SupervisionExample(id="ocr-5", task=TaskType.OCR, question="read it", ground_truth=Text("stop sign")),
        SupervisionExample(id="open-6", task=TaskType.OPEN_ENDED, question="describe"),
    ]
    examples = []
    for j in range(140):
        base = bases[j % len(bases)]
        space = dict.fromkeys([] if base.ground_truth is None else [base.ground_truth])
        for _ in range(int(rng.integers(2, 12))):
            invalid = rng.random() < 0.3
            space[_invalid_payload(base.task, rng) if invalid else _fuzz_payload(base.task, rng)] = None
        examples.append(replace(base, id=f"{base.id}-{j}", answer_space=tuple(space)))
    featurizer = Featurizer(max(len(ex.answer_space) for ex in examples))
    caches = build_caches(examples, featurizer, slot_parses(examples, MetricConfig()))
    worst = 0.0
    slots = task_invalid = 0
    for ex in examples:
        feats = caches[ex.id]
        w = RewardWeights(*(float(v) for v in rng.dirichlet(np.ones(4))))
        d = rng.uniform(size=len(ex.answer_space))
        got = composite_reward(w, d, feats[:, 0], feats[:, 1], feats[:, 3])
        for j, payload in enumerate(ex.answer_space):
            parsed = parse_response(render_payload(payload), ex.task)
            worst = max(worst, abs(got[j] - oracle_reward(float(d[j]), parsed, ex, w, MetricConfig())))
            slots += 1
            task_invalid += not parsed.task_valid
            broken = parse_response(render_payload(payload).replace("</answer>", ""), ex.task)
            assert not broken.outer_valid and not broken.task_valid
            hand = w.alpha * float(d[j])  # no format or content credit
            worst = max(worst, abs(oracle_reward(float(d[j]), broken, ex, w, MetricConfig()) - hand))
    rejected = 0
    for bad in ((0.4, 0.1, 0.1, 0.3), (0.5, 0.5, 0.5, 0.5), (1.0, 0.0, 0.0, 0.1)):
        try:
            RewardWeights(*bad)
        except InvalidWeightsError:
            rejected += 1
    ok = worst <= 1e-12 and rejected == 3 and task_invalid > 100
    report(
        4, "composite reward exactness", ok,
        f"max|err|={worst:.2e} over {slots} slots ({task_invalid} task-invalid), each also with its "
        f"closing tag cut, bad sums rejected={rejected}/3",
    )


# --- criterion 5 --------------------------------------------------------------


def _flatten(p: DiscriminatorParams) -> np.ndarray:
    parts = [np.atleast_1d(p.weights)]
    if not p.is_linear:
        parts += [p.hidden_w.ravel(), p.hidden_b]
    return np.concatenate([np.asarray(x, dtype=float) for x in parts])


def _unflatten(vec: np.ndarray, like: DiscriminatorParams) -> DiscriminatorParams:
    d = like.weights.shape[0]
    w = vec[:d]
    if like.is_linear:
        return DiscriminatorParams(weights=w)
    hw = vec[d : d + like.hidden_w.size].reshape(like.hidden_w.shape)
    return DiscriminatorParams(weights=w, hidden_w=hw, hidden_b=vec[d + like.hidden_w.size :])


def _pair_gradient(p, ft, fs, q) -> DiscriminatorParams:
    """The trainer's analytic gradient for a batch of one pair."""
    ft, fs, q = ft[None, :], fs[None, :], np.array([q])
    if p.is_linear:
        scratch = _linear_scratch(*fs.shape)
        return DiscriminatorParams(_linear_grad(p.weights, fs - ft, q, np.empty(len(fs)), scratch))
    return DiscriminatorParams(*_hidden_grad(_theta(p), ft, fs, q)[2])


def test_criterion_05_gradient_check():
    rng = np.random.default_rng(505)
    eps = 1e-6
    worst = 0.0
    for arch in ("linear", "hidden"):
        for _ in range(1_000):
            d = int(rng.integers(2, 7))
            if arch == "linear":
                p = DiscriminatorParams(weights=rng.normal(0, 1, d))
            else:
                h = int(rng.integers(2, 4))
                p = DiscriminatorParams(
                    weights=rng.normal(0, 1, h),
                    hidden_w=rng.normal(0, 1, (h, d)), hidden_b=rng.normal(0, 1, h),
                )
            ft, fs = rng.normal(0, 1, d), rng.normal(0, 1, d)
            q = float(rng.uniform(0.1, 1.0))
            got = _flatten(_pair_gradient(p, ft, fs, q))
            base = _flatten(p)
            fd = np.zeros_like(base)
            for j in range(base.size):
                up, dn = base.copy(), base.copy()
                up[j] += eps
                dn[j] -= eps
                fd[j] = (
                    pairwise_loss(_unflatten(up, p), ft, fs, q)
                    - pairwise_loss(_unflatten(dn, p), ft, fs, q)
                ) / (2 * eps)
            rel = float(np.abs(got - fd).max() / max(np.abs(fd).max(), 1e-8))
            worst = max(worst, rel)

    zero_ok = True
    for hidden in (0, 3):
        p = init_params(5, hidden, seed=1)
        ft, fs = rng.normal(0, 1, 5), rng.normal(0, 1, 5)
        zero_ok &= bool(np.all(_flatten(_pair_gradient(p, ft, fs, 0.0)) == 0.0))
        updated, _ = batch_update(p, ft[None, :], fs[None, :], np.array([0.0]), lr=0.7)
        zero_ok &= bool(np.array_equal(_flatten(updated), _flatten(p)))

    ok = worst < 1e-5 and zero_ok
    report(5, "pairwise-loss gradient check", ok, f"worst rel err={worst:.2e}, q=0 exact-zero={zero_ok}")


# --- criterion 6 --------------------------------------------------------------


def test_criterion_06_policy_update_and_kl():
    t0 = time.perf_counter()
    # (a) empirical expected update vs enumeration-exact value
    ex = mk_binary(0, gt=True)
    w = RewardWeights(0.0, 0.1, 0.1, 0.8)  # discriminator off: rewards enumerable
    cfg = TrainConfig(
        k=2, n_rollouts=8, tau=0.0, weights=w, gamma=0.0, lr_student=0.3,
        matching="uniform",
    )
    pool = build_pool(ex, [render_payload(Binary(True)), render_payload(Binary(False))])
    featurizer = Featurizer(2)
    cache = build_caches([ex], featurizer, slot_parses([ex], MetricConfig()))[ex.id]
    pool_feats = pool_features([pool], [ex], cache, [0], featurizer)
    match_dist = matching_distribution(pool, cfg.matching)
    disc = init_params(featurizer.dim, 0, seed=0)
    theta = np.array([0.3, -0.2])
    steps = 1_250  # steps * n_rollouts = 10^4 rollouts
    total = 0.0
    for i in range(steps):
        student = {ex.id: theta.copy()}
        children = np.random.SeedSequence([606, i]).spawn(2)
        uniforms = np.stack([np.random.default_rng(c).random(cfg.n_rollouts) for c in children])
        # a one-example epoch: the step's rollout and match rows
        matches = sample_matches([match_dist], uniforms[None, 1])[0]
        disc, _ = rl_epoch_on(
            student, {ex.id: softmax(theta)}, disc, [ex], cfg, uniforms[None, 0], [matches],
            cache, pool_feats[None],
        )
        total += (student[ex.id][0] - theta[0]) / cfg.lr_student
    mean_update = total / steps
    pi0 = float(np.exp(0.3) / (np.exp(0.3) + np.exp(-0.2)))
    delta = 1.0 - 0.2  # reward gap between the two answer slots
    n = cfg.n_rollouts
    exact = delta * (n - 1) / n * pi0 * (1.0 - pi0)
    rel_err = abs(mean_update - exact) / exact

    # (b) anchoring strength: final divergence from the stage-1 policy is
    # weakly decreasing in the penalty coefficient
    exs = [mk_binary(i, gt=bool(i % 2)) for i in range(6)]
    from mskd.synthetic import SyntheticTeacher

    probs = {
        e.id: (np.array([0.8, 0.2]) if e.ground_truth.value else np.array([0.2, 0.8]))
        for e in exs
    }
    teacher = SyntheticTeacher(probs=probs, violation_rate={e.id: 0.0 for e in exs})
    gammas = (0.0, 0.01, 0.1, 1.0)
    cfgs = [TrainConfig(k=4, n_rollouts=8, tau=0.0, epochs_stage1=6, epochs_stage2=20, seed=s) for s in range(10)]
    # Stage 1 does not read gamma: one Stage-1 cell per seed is every
    # gamma's reference
    refs = [run_pipeline(exs, replace(cfg_s, epochs_stage2=0), teacher=teacher).student for cfg_s in cfgs]
    kl_means = []
    for g in gammas:
        vals = []
        for cfg_s, ref in zip(cfgs, refs):
            art = run_pipeline(exs, replace(cfg_s, gamma=g), teacher=teacher)
            vals.append(np.mean([kl_divergence(softmax(art.student[e.id]), softmax(ref[e.id])) for e in exs]))
        kl_means.append(float(np.mean(vals)))
    monotone = all(b <= a + 1e-12 for a, b in zip(kl_means, kl_means[1:]))
    elapsed = time.perf_counter() - t0
    ok = rel_err < 0.05 and monotone and elapsed < 300
    report(
        6, "policy update and anchoring", ok,
        f"update rel err={rel_err:.4f} (exact={exact:.5f}); "
        f"KL by gamma={[round(v, 5) for v in kl_means]} monotone={monotone}; {elapsed:.0f}s",
    )


# --- criterion 7 --------------------------------------------------------------


def test_criterion_07_ablation_ordering(bench, ablation):
    summary, _, elapsed = ablation
    means = {r.setting: r.mean_acc for r in summary.results}
    ordered = means["D"] >= means["C"] >= means["B"] >= means["A"]
    p = summary.p_value_ad
    ok = ordered and p is not None and p < 0.05 and elapsed < 900
    report(
        7, "ablation ordering", ok,
        f"A={means['A']:.4f} B={means['B']:.4f} C={means['C']:.4f} D={means['D']:.4f}, "
        f"p(A vs D)={p:.2e}, teacher spread knob={bench.meta['spread']} "
        f"(realized {bench.meta['realized_mu_std']:.3f}), {elapsed:.0f}s",
    )


# --- criterion 8 --------------------------------------------------------------


def test_criterion_08_tau_sensitivity(tau_sweep):
    cells = {c.value: c for c in tau_sweep.tau_table}
    retentions = [cells[t].retention for t in (0.0, 0.2, 0.3, 0.5)]
    monotone = all(b <= a + 1e-12 for a, b in zip(retentions, retentions[1:]))
    full_at_zero = retentions[0] == 1.0
    mid = max(cells[0.2].mean_acc, cells[0.3].mean_acc)
    inverted_u = mid >= cells[0.0].mean_acc and mid >= cells[0.5].mean_acc
    ok = monotone and full_at_zero and inverted_u
    report(
        8, "tau sensitivity", ok,
        f"retention={[round(r, 4) for r in retentions]}, "
        f"acc tau0={cells[0.0].mean_acc:.4f} mid={mid:.4f} tau.5={cells[0.5].mean_acc:.4f}",
    )


# --- criterion 9 --------------------------------------------------------------


def test_criterion_09_pass_at_k(bench, ablation):
    # closed-form oracle: uniform policy over 4 options
    rng = np.random.default_rng(np.random.SeedSequence([0, 41]))
    letters = option_letters(4)
    exs = [
        SupervisionExample(
            id=f"u-{i:05d}", task=TaskType.MULTIPLE_CHOICE, question=f"q{i}",
            ground_truth=OptionLetter(letters[int(rng.integers(4))]),
            option_count=4, answer_space=tuple(OptionLetter(c) for c in letters),
        )
        for i in range(10_000)
    ]
    uniform = {ex.id: np.zeros(4) for ex in exs}
    curve = pass_at_k_eval(uniform, exs, [1, 4], temperature=1.0, top_p=1.0)
    err1 = abs(curve[0][1] - 0.25)
    err4 = abs(curve[1][1] - (1.0 - 0.75**4))

    # trained students: mean curves over the ablation artifacts
    _, artifacts, _ = ablation
    ks = [1, 2, 4, 8, 16, 32, 64, 128]
    thr = {TaskType.TEMPORAL_GROUNDING: 0.5}

    def mean_curve(label):
        curves = np.array(
            [
                [r for _, r in pass_at_k_eval(art.student, bench.examples, ks, success_threshold=thr)]
                for art in artifacts[label]
            ]
        )
        return curves.mean(axis=0)

    a_curve, d_curve = mean_curve("A"), mean_curve("D")
    monotone = bool(
        np.all(np.diff(a_curve) >= 0) and np.all(np.diff(d_curve) >= 0)
    )
    low_k_gap = d_curve[0] - a_curve[0]
    high_k_gap = abs(d_curve[-1] - a_curve[-1])
    ok = err1 < 0.01 and err4 < 0.01 and monotone and low_k_gap > 0 and high_k_gap < 0.02
    report(
        9, "pass@k", ok,
        f"uniform err@1={err1:.4f} err@4={err4:.4f}; pass@1 D-A={low_k_gap:+.4f}, "
        f"|pass@128 D-A|={high_k_gap:.4f}, monotone={monotone}",
    )


# --- criterion 10 -------------------------------------------------------------


def test_criterion_10_variance_recovery():
    exs, rows, injected = make_variance_corpus(
        n_questions=200, k=4, sampling_std=0.10, violation_rate=0.01, seed=0
    )
    rep = analyze_variance(exs, rows)
    tv = rep.per_task[TaskType.TEMPORAL_GROUNDING]
    rel_viol = abs(rep.overall_violation_rate - 0.01) / 0.01
    rel_samp = abs(tv.sampling_std - 0.10) / 0.10
    ok = rel_viol <= 0.10 and rel_samp <= 0.10
    report(
        10, "variance recovery", ok,
        f"violation={rep.overall_violation_rate:.4f} (rel err {rel_viol:.3f}), "
        f"sampling std={tv.sampling_std:.4f} (rel err {rel_samp:.3f})",
    )


# --- criterion 11 -------------------------------------------------------------


def test_criterion_11_determinism(tmp_path):
    from mskd.cli import main

    bench = make_closed_benchmark(n_mcq=3, n_temporal=3, retention_target=None)
    cfg = TrainConfig(k=3, n_rollouts=4, epochs_stage1=3, epochs_stage2=4, seed=7)
    run_pipeline(bench.examples, cfg, teacher=bench.teacher).save(tmp_path / "a")
    run_pipeline(bench.examples, cfg, teacher=bench.teacher).save(tmp_path / "b")
    lib_same = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("metrics.csv", "disc.json", "student.json")
    )

    import json

    cfg_path = tmp_path / "ablate.json"
    cfg_path.write_text(json.dumps({
        "train": {"k": 2, "n_rollouts": 4, "epochs_stage1": 2, "epochs_stage2": 2},
        "seeds": [0, 1],
        "settings": ["A", "D"],
        "benchmark": {"n_mcq": 2, "n_temporal": 2, "retention_target": None},
    }), encoding="utf-8")
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["ablate", "--config", str(cfg_path), "--out", str(r1)]) == 0
    assert main(["ablate", "--config", str(cfg_path), "--out", str(r2)]) == 0
    cli_same = r1.read_bytes() == r2.read_bytes()

    ok = lib_same and cli_same
    report(11, "determinism", ok, f"pipeline artifacts identical={lib_same}, report rerun identical={cli_same}")
