"""Command-line front end.

Subcommands: analyze, ablate, sweep, adaptive, passk, train, pool build.
Every subcommand takes --config and --out.  Those that draw at random
(ablate, sweep, adaptive, passk, train) take --seed: train and passk train
at --seed when it is given, else at the config's seed (0 by default);
ablate, sweep and adaptive run the config's seeds or, without them, --seed
and the 7 seeds after it (0..7 by default), and reject --seed together
with seeds, and a train block's seed, which each cell's seed replaces.
Those that write a report (analyze and the four harnesses) take --format.
Config files are JSON objects whose top-level keys are checked against the
ones each command understands.  Each block is handed to the type it
configures (TrainConfig, MetricConfig, RewardWeights,
make_closed_benchmark, make_open_benchmark), and passk's top-level
k_values, temperature, top_p and success_threshold to the check
pass_at_k_eval runs, and train's examples to train.Plan and its cached
pools to Plan.run (train.InputError); these reject what they do not
accept, and the CLI only turns those errors into exit code 2.  Unreadable
input files exit 2 as well, and so does an --out that cannot be written,
before any work.

Exit codes: 0 success, 2 configuration/usage error, 3 degenerate data.
Exit 3 comes only from DegenerateDataError: analyze without teacher rows,
pool build where no example has a teacher row, train with an empty
examples file, and train with nothing to learn (after filtering no example
has an SFT target, nor, when Stage 2 runs, a teacher match); train then
writes no artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from mskd.analysis import analyze_variance
from mskd.corpus import (
    CorpusError,
    read_examples,
    read_responses,
    teacher_samples,
)
from mskd.harness import (
    ABLATION_LABELS,
    _check_seeds,
    ablation_cells,
    ablation_table,
    adaptive_table,
    emit_report,
    make_closed_benchmark,
    make_open_benchmark,
    passk_table,
    run_ablation,
    run_sensitivity,
    run_task_adaptive_check,
    sensitivity_tables,
    setting_config,
)
from mskd.metrics import MetricConfig, _is_finite, _is_int
from mskd.pool import apply_filter, build_pool, read_pool_cache, write_pool_cache
from mskd.rewards import RewardWeights
from mskd.train import InputError, Plan, TrainConfig, _passk_settings, pass_at_k_eval, run_pipeline

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


class ConfigError(ValueError):
    """Bad config file, bad flag combination, or inconsistent inputs."""


class DegenerateDataError(ValueError):
    """Inputs are structurally fine but empty or unusable."""


_TRAIN_KEYS = frozenset(f.name for f in fields(TrainConfig))
# ablate, sweep and adaptive run this many seeds when the config names none
_DEFAULT_SEEDS = 8


def _load_config(path: str | None, allowed: frozenset) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"config: unknown keys {unknown}")
    return cfg


def _list_field(cfg: dict, key: str, default, ok, what: str) -> tuple:
    """cfg[key], or default, as a tuple: a non-empty JSON list whose every
    entry passes ok."""
    value = cfg.get(key, default)
    if not isinstance(value, (list, tuple)) or not value or not all(ok(v) for v in value):
        raise ConfigError(f"{key} must be a non-empty list of {what}, got {value!r}")
    return tuple(value)


def _number_field(cfg: dict, key: str, default: float) -> float:
    value = cfg.get(key, default)
    if not _is_finite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _build(make, block, where: str):
    """make(**block) for a JSON object block.  make checks the keys, types
    and ranges; its TypeError (an unknown key among them) or ValueError
    becomes a ConfigError that names where."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    try:
        return make(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _metric_only_config(path: str | None) -> MetricConfig:
    """The metric of a config file whose only key is ``metric``."""
    cfg = _load_config(path, frozenset({"metric"}))
    return _build(MetricConfig, cfg.get("metric", {}), "metric config")


def _train_config(block, seed_override: int | None) -> TrainConfig:
    """A train block's TrainConfig; weights are a JSON list of 4 and metric
    an object."""
    if not isinstance(block, dict):
        raise ConfigError("train config must be an object")
    kwargs = dict(block)
    if "weights" in kwargs:
        w = kwargs["weights"]
        if not isinstance(w, list) or len(w) != 4:
            raise ConfigError(f"weights must be a list of 4 numbers, got {w!r}")
        names = (f.name for f in fields(RewardWeights))
        kwargs["weights"] = _build(RewardWeights, dict(zip(names, w)), "weights")
    if "metric" in kwargs:
        kwargs["metric"] = _build(MetricConfig, kwargs["metric"], "metric config")
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return _build(TrainConfig, kwargs, "train config")


def _format_for(args) -> str:
    if args.format:
        return args.format
    return "json" if str(args.out).endswith(".json") else "csv"


def _seeds_from(cfg: dict, base_seed: int | None, what: str) -> tuple[int, ...]:
    """The config's seeds, which _check_seeds accepts, else base_seed (0 if
    None) and the seeds after it; what names the run in _check_seeds'
    message.  Each cell runs at one of these seeds, so --seed with seeds, or
    a train block's seed, is a ConfigError."""
    if "seed" in cfg.get("train", {}):
        raise ConfigError(f"train.seed: each {what} cell runs at one of its seeds; give seeds or --seed")
    if "seeds" in cfg:
        if base_seed is not None:
            raise ConfigError(f"--seed and the config's seeds both set the {what} seeds; give one")
        seeds = _list_field(cfg, "seeds", None, lambda s: _is_int(s) and s >= 0, "integers >= 0")
        try:
            _check_seeds(seeds, what)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return seeds
    base_seed = base_seed or 0
    if base_seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {base_seed}")
    return tuple(base_seed + i for i in range(_DEFAULT_SEEDS))


# --- subcommands ------------------------------------------------------------


def cmd_analyze(args) -> int:
    metric = _metric_only_config(args.config)
    examples = read_examples(args.examples)
    rows = read_responses(args.responses)
    if not any(r.source == "teacher" for r in rows):
        raise DegenerateDataError("no teacher responses to analyze")
    try:
        report = analyze_variance(examples, rows, metric)
    except ValueError as exc:
        raise ConfigError(f"corpus inconsistent: {exc}") from exc
    emit_report(report, _format_for(args), args.out)
    print(f"analyzed {len(rows)} responses over {len(examples)} examples -> {args.out}")
    return EXIT_OK


def cmd_pool_build(args) -> int:
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    if not 0.0 <= args.tau <= 1.0:
        raise ConfigError(f"--tau must be in [0,1], got {args.tau}")
    metric = _metric_only_config(args.config)
    examples = read_examples(args.examples)
    rows = read_responses(args.responses)
    try:
        by_example = teacher_samples(examples, rows)
    except ValueError as exc:
        raise ConfigError(f"{args.responses}: {exc}") from exc
    pools = []
    for ex in [ex for ex in examples if ex.id in by_example]:
        samples = by_example[ex.id]
        if len(samples) < args.k:
            raise ConfigError(f"example {ex.id}: {len(samples)} teacher responses, --k is {args.k}")
        raws = [samples[i] for i in sorted(samples)[: args.k]]
        pools.append(apply_filter(build_pool(ex, raws, metric), args.tau))
    if not pools:
        raise DegenerateDataError("no example has teacher responses")
    write_pool_cache(pools, args.out)
    print(f"built {len(pools)} pools (k={args.k}, tau={args.tau}) -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args.config, _TRAIN_KEYS | {"benchmark"})
    # real examples and their cached pools replace the synthetic benchmark together
    if (args.examples is None) != (args.pool_cache is None):
        raise ConfigError("--examples and --pool-cache must be given together")
    if args.examples is not None and "benchmark" in cfg:
        raise ConfigError("a benchmark block configures the synthetic benchmark, which --examples replaces")
    bench_block = cfg.pop("benchmark", {})
    tc = _train_config(cfg, args.seed)
    if args.examples is not None:
        examples = read_examples(args.examples)
        if not examples:
            raise DegenerateDataError("examples file is empty")
        try:  # the examples rule first, so its errors name the examples file
            plan = Plan(examples, tc.metric)
        except InputError as exc:
            raise ConfigError(f"{args.examples}: {exc}") from exc
        cache = {p.example_id: p for p in read_pool_cache(args.pool_cache)}
        # a cache may hold pools of other examples; Plan.run takes one per example
        pools = {ex.id: cache[ex.id] for ex in examples if ex.id in cache}
        try:
            artifacts = plan.run(tc, pools)
        except InputError as exc:
            raise ConfigError(f"pool cache: {exc}") from exc
    else:
        bench = _build(make_closed_benchmark, bench_block, "benchmark config")
        examples = bench.examples
        artifacts = run_pipeline(examples, tc, teacher=bench.teacher)
    n = len(examples)
    if len(artifacts.skipped_sft) == n and (tc.epochs_stage2 == 0 or len(artifacts.skipped_rl) == n):
        raise DegenerateDataError("nothing to learn: no example has an SFT target, and Stage 2 has no teacher match")
    artifacts.save(args.out)
    acc = artifacts.final_accuracy
    print(f"trained: final_accuracy={'n/a' if acc is None else repr(acc)}")
    print(f"skipped_sft={len(artifacts.skipped_sft)} skipped_rl={len(artifacts.skipped_rl)}")
    print(f"artifacts -> {args.out}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = _load_config(args.config, frozenset({"train", "seeds", "settings", "benchmark"}))
    tc = _train_config(cfg.get("train", {}), None)
    seeds = _seeds_from(cfg, args.seed, "ablation")
    settings = _list_field(cfg, "settings", ABLATION_LABELS, lambda s: isinstance(s, str), "labels")
    try:
        ablation_cells(settings, seeds, tc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    bench = _build(make_closed_benchmark, cfg.get("benchmark", {}), "benchmark config")
    summary, _ = run_ablation(tc, settings, seeds, bench)
    emit_report(ablation_table(summary), _format_for(args), args.out)
    for r in summary.results:
        print(f"{r.setting}: mean_acc={r.mean_acc:.4f} std={r.std_acc:.4f}")
    if summary.p_value_ad is not None:
        print(f"paired permutation p (A vs D): {summary.p_value_ad:.6f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config, frozenset({"train", "seeds", "k_grid", "tau_grid", "benchmark"}))
    tc = _train_config(cfg.get("train", {}), None)
    seeds = _seeds_from(cfg, args.seed, "sweep")
    k_grid = _list_field(cfg, "k_grid", (2, 4, 8), lambda k: _is_int(k) and k >= 1, "integers >= 1")
    taus = _list_field(
        cfg, "tau_grid", (0.0, 0.2, 0.3, 0.5), lambda t: _is_finite(t) and 0 <= t <= 1, "numbers in [0, 1]"
    )
    tau_grid = tuple(float(t) for t in taus)
    bench = _build(make_closed_benchmark, cfg.get("benchmark", {}), "benchmark config")
    result = run_sensitivity(tc, k_grid, tau_grid, seeds, bench)
    emit_report(list(sensitivity_tables(result)), _format_for(args), args.out)
    for cell in result.tau_table:
        print(f"tau={cell.value}: mean_acc={cell.mean_acc:.4f} retention={cell.retention:.4f}")
    return EXIT_OK


def cmd_adaptive(args) -> int:
    cfg = _load_config(
        args.config,
        frozenset({"train", "seeds", "mislead", "proxy_noise", "benchmark", "open_benchmark"}),
    )
    tc = _train_config(cfg.get("train", {}), None)
    seeds = _seeds_from(cfg, args.seed, "adaptive")
    mislead = _number_field(cfg, "mislead", 0.85)
    proxy_noise = _number_field(cfg, "proxy_noise", 0.05)
    bench = _build(make_closed_benchmark, cfg.get("benchmark", {}), "benchmark config")
    open_bench = _build(make_open_benchmark, cfg.get("open_benchmark", {}), "open_benchmark config")
    result = run_task_adaptive_check(
        tc,
        seeds,
        closed_benchmark=bench,
        open_benchmark=open_bench,
        mislead=mislead,
        proxy_noise=proxy_noise,
    )
    emit_report(adaptive_table(result), _format_for(args), args.out)
    print(f"closed: gt={result.closed_gt[0]:.4f} uniform={result.closed_uniform[0]:.4f}")
    print(f"open:   proxy={result.open_proxy[0]:.4f} uniform={result.open_uniform[0]:.4f}")
    print(f"crossover: {result.crossover}")
    return EXIT_OK


def cmd_passk(args) -> int:
    # pass@k's settings, at their defaults until the config names them
    passk = dict(k_values=(1, 2, 4, 8, 16, 32, 64, 128), temperature=1.0, top_p=0.9, success_threshold=1.0)
    cfg = _load_config(args.config, frozenset({"train", "setting", "benchmark", *passk}))
    tc = _train_config(cfg.get("train", {}), args.seed)
    passk.update((key, cfg[key]) for key in passk if key in cfg)
    _build(_passk_settings, passk, "passk config")
    try:
        cfg_setting = setting_config(cfg.get("setting", "D"), tc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    bench = _build(make_closed_benchmark, cfg.get("benchmark", {}), "benchmark config")
    artifacts = run_pipeline(bench.examples, cfg_setting, teacher=bench.teacher)
    curve = pass_at_k_eval(artifacts.student, bench.examples, metric_cfg=tc.metric, **passk)
    emit_report(passk_table(curve), _format_for(args), args.out)
    for k, rate in curve:
        print(f"pass@{k}: {rate:.4f}")
    return EXIT_OK


# --- parser -----------------------------------------------------------------


def _add_common(
    p: argparse.ArgumentParser, out_help: str, seeded: bool = True, report: bool = True
) -> None:
    p.add_argument("--config", default=None, help="JSON config file")
    if seeded:
        p.add_argument("--seed", type=int, default=None, help="the cell's seed, or a harness's first of 8")
    p.add_argument("--out", required=True, help=out_help)
    if report:
        p.add_argument("--format", choices=("csv", "json"), default=None, help="report format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mskd", description="multi-sample distillation supervision toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="teacher-variance report from a response corpus")
    _add_common(p, "report path", seeded=False)
    p.add_argument("--examples", required=True)
    p.add_argument("--responses", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ablate", help="run ablation settings A-D")
    _add_common(p, "report path")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="K and tau sensitivity tables")
    _add_common(p, "report path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("adaptive", help="closed/open matching-strategy check")
    _add_common(p, "report path")
    p.set_defaults(func=cmd_adaptive)

    p = sub.add_parser("passk", help="pass@k curve for a trained setting")
    _add_common(p, "report path")
    p.set_defaults(func=cmd_passk)

    p = sub.add_parser("train", help="two-stage pipeline; writes metrics + checkpoints")
    _add_common(p, "output directory", report=False)
    p.add_argument("--examples", default=None, help="examples JSONL (else synthetic benchmark)")
    p.add_argument("--pool-cache", default=None, help="pool cache JSONL from `pool build`")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("pool", help="pool utilities")
    pool_sub = p.add_subparsers(dest="pool_command", required=True)
    pb = pool_sub.add_parser("build", help="assemble pools from a response corpus")
    _add_common(pb, "pool cache path", seeded=False, report=False)
    pb.add_argument("--examples", required=True)
    pb.add_argument("--responses", required=True)
    pb.add_argument("--k", type=int, required=True)
    pb.add_argument("--tau", type=float, required=True)
    pb.set_defaults(func=cmd_pool_build)

    return parser


def _check_out(args) -> None:
    """--out's rule, run before any command's work: train's output directory
    may be missing, but its nearest existing ancestor must be a directory; a
    report or pool cache must be a file in an existing directory."""
    out = Path(args.out)
    if args.func is cmd_train:
        blocker = next(p for p in (out, *out.parents) if p.exists())
        if not blocker.is_dir():
            raise ConfigError(f"--out {out}: {blocker} exists and is not a directory")
    elif out.is_dir() or not out.parent.is_dir():
        raise ConfigError(f"--out {out} must name a file in an existing directory")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateDataError as exc:
        print(f"degenerate data: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
