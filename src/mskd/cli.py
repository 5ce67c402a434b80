"""Command-line front end.

Subcommands: analyze, ablate, sweep, adaptive, passk, train, pool build.
Every subcommand takes --config/--seed/--out; --seed overrides any seed in
the config file.  Config files are JSON objects validated against the keys
each command understands — unknown keys are rejected rather than ignored.

Exit codes: 0 success, 2 configuration/usage error, 3 degenerate data
(empty corpus, nothing survives filtering, empty report).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from mskd.analysis import analyze_variance
from mskd.corpus import (
    CorpusError,
    read_examples,
    read_responses,
)
from mskd.harness import (
    ABLATION_LABELS,
    EmptyReportError,
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
from mskd.metrics import MetricConfig
from mskd.pool import (
    DegeneratePoolError,
    InvalidPoolError,
    NoValidTargetError,
    apply_filter,
    build_pool,
    read_pool_cache,
    write_pool_cache,
)
from mskd.rewards import InvalidWeightsError, RewardWeights
from mskd.tasks import TaskType
from mskd.train import TrainConfig, pass_at_k_eval, run_pipeline

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


class ConfigError(ValueError):
    """Bad config file, bad flag combination, or inconsistent inputs."""


class DegenerateDataError(ValueError):
    """Inputs are structurally fine but empty or unusable."""


_TRAIN_KEYS = frozenset(
    {
        "k",
        "n_rollouts",
        "tau",
        "weights",
        "gamma",
        "lr_student",
        "lr_disc",
        "epochs_stage1",
        "epochs_stage2",
        "seed",
        "matching",
        "disc_weighting",
        "baseline",
        "hidden_dim",
        "temperature",
        "top_p",
        "metric",
    }
)
_METRIC_KEYS = frozenset({"eps_rel", "ocr_mode"})
_BENCH_KEYS = frozenset(
    {
        "n_mcq",
        "n_temporal",
        "seed",
        "spread",
        "retention_target",
        "retention_tau",
        "mu_center",
        "violation_mcq",
        "violation_temporal",
        "temperature",
        "top_p",
        "option_count",
    }
)
_OPEN_BENCH_KEYS = frozenset(
    {"n_examples", "space_size", "seed", "mu_center", "spread", "violation", "temperature", "top_p"}
)


def _check_keys(cfg: dict, allowed: frozenset, where: str) -> None:
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def _load_config(path: str | None, allowed: frozenset, where: str = "config") -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, allowed, where)
    return cfg


def _metric_config(block) -> MetricConfig:
    if not isinstance(block, dict):
        raise ConfigError("metric must be an object")
    _check_keys(block, _METRIC_KEYS, "metric config")
    try:
        return MetricConfig(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid metric config: {exc}") from exc


def _train_config(block: dict, seed_override: int | None) -> TrainConfig:
    _check_keys(block, _TRAIN_KEYS, "train config")
    kwargs = dict(block)
    if "weights" in kwargs:
        w = kwargs["weights"]
        if not isinstance(w, (list, tuple)) or len(w) != 4:
            raise ConfigError("weights must be a 4-element list")
        kwargs["weights"] = RewardWeights(*[float(v) for v in w])
    if "metric" in kwargs:
        kwargs["metric"] = _metric_config(kwargs["metric"])
    if seed_override is not None:
        kwargs["seed"] = seed_override
    try:
        return TrainConfig(**kwargs)
    except (TypeError, ValueError, InvalidWeightsError) as exc:
        raise ConfigError(f"invalid train config: {exc}") from exc


def _build_benchmark(make, block: dict, allowed: frozenset, where: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    _check_keys(block, allowed, where)
    try:
        return make(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _benchmark(block: dict):
    return _build_benchmark(make_closed_benchmark, block, _BENCH_KEYS, "benchmark config")


def _open_benchmark(block: dict):
    return _build_benchmark(make_open_benchmark, block, _OPEN_BENCH_KEYS, "open_benchmark config")


def _format_for(args) -> str:
    if getattr(args, "format", None):
        return args.format
    return "json" if str(args.out).endswith(".json") else "csv"


def _seeds_from(cfg: dict, base_seed: int, default_n: int = 8) -> tuple[int, ...]:
    if "seeds" in cfg:
        seeds = cfg["seeds"]
        if not isinstance(seeds, list) or not all(isinstance(s, int) for s in seeds):
            raise ConfigError("seeds must be a list of integers")
        if len(seeds) < 2:
            raise ConfigError("need at least 2 seeds")
        return tuple(seeds)
    return tuple(base_seed + i for i in range(default_n))


# --- subcommands ------------------------------------------------------------


def cmd_analyze(args) -> int:
    cfg = _load_config(args.config, frozenset({"metric"}))
    metric = _metric_config(cfg["metric"]) if "metric" in cfg else MetricConfig()
    examples = read_examples(args.examples)
    rows = read_responses(args.responses)
    if not examples or not any(r.source == "teacher" for r in rows):
        raise DegenerateDataError("no teacher responses to analyze")
    try:
        report = analyze_variance(examples, rows, metric)
    except ValueError as exc:
        raise ConfigError(f"corpus inconsistent: {exc}") from exc
    emit_report(report, _format_for(args), args.out)
    print(f"analyzed {len(rows)} responses over {len(examples)} examples -> {args.out}")
    return EXIT_OK


def cmd_pool_build(args) -> int:
    examples = read_examples(args.examples)
    rows = read_responses(args.responses)
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    if not 0.0 <= args.tau <= 1.0:
        raise ConfigError(f"--tau must be in [0,1], got {args.tau}")
    by_example: dict[str, list[str]] = {}
    for row in rows:
        if row.source == "teacher":
            by_example.setdefault(row.example_id, []).append(row.text)
    pools = []
    for ex in examples:
        raws = by_example.get(ex.id, [])
        if not raws:
            continue
        if len(raws) < args.k:
            raise ConfigError(f"example {ex.id}: {len(raws)} teacher responses, --k is {args.k}")
        pool = build_pool(ex, raws[: args.k])
        if pool.qualities is not None:
            pool = apply_filter(pool, args.tau)
        pools.append(pool)
    if not pools:
        raise DegenerateDataError("no example has teacher responses")
    write_pool_cache(pools, args.out)
    print(f"built {len(pools)} pools (k={args.k}, tau={args.tau}) -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args.config, _TRAIN_KEYS | {"benchmark"})
    bench_block = cfg.pop("benchmark", None)
    tc = _train_config(cfg, args.seed)
    if args.examples is not None:
        examples = read_examples(args.examples)
        if not examples:
            raise DegenerateDataError("examples file is empty")
        no_space = [ex.id for ex in examples if ex.answer_space is None]
        if no_space:
            raise ConfigError(f"examples without answer_space cannot be trained: {no_space[:5]}")
        if args.pool_cache is None:
            raise ConfigError("--examples requires --pool-cache (no synthetic teacher to sample)")
        pools = {p.example_id: p for p in read_pool_cache(args.pool_cache)}
        missing = [ex.id for ex in examples if ex.id not in pools]
        if missing:
            raise ConfigError(f"pool cache missing examples: {missing[:5]}")
        artifacts = run_pipeline(examples, tc, pools=pools)
    else:
        bench = _benchmark(bench_block or {})
        artifacts = run_pipeline(bench.examples, tc, teacher=bench.teacher)
    artifacts.save(args.out)
    acc = artifacts.final_accuracy
    print(f"trained: final_accuracy={'n/a' if acc is None else repr(acc)}")
    print(f"skipped_sft={len(artifacts.skipped_sft)} skipped_rl={len(artifacts.skipped_rl)}")
    print(f"artifacts -> {args.out}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = _load_config(args.config, frozenset({"train", "seeds", "settings", "benchmark"}))
    tc = _train_config(cfg.get("train", {}), None)
    seeds = _seeds_from(cfg, args.seed)
    settings = tuple(cfg.get("settings", ABLATION_LABELS))
    for label in settings:
        try:
            setting_config(label, tc)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    bench = _benchmark(cfg.get("benchmark", {}))
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
    seeds = _seeds_from(cfg, args.seed)
    k_grid = tuple(int(k) for k in cfg.get("k_grid", (2, 4, 8)))
    tau_grid = tuple(float(t) for t in cfg.get("tau_grid", (0.0, 0.2, 0.3, 0.5)))
    if not k_grid or not tau_grid:
        raise ConfigError("k_grid and tau_grid must be non-empty")
    bench = _benchmark(cfg.get("benchmark", {}))
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
    seeds = _seeds_from(cfg, args.seed)
    bench = _benchmark(cfg.get("benchmark", {}))
    open_bench = _open_benchmark(cfg.get("open_benchmark", {}))
    result = run_task_adaptive_check(
        tc,
        seeds,
        closed_benchmark=bench,
        open_benchmark=open_bench,
        mislead=float(cfg.get("mislead", 0.85)),
        proxy_noise=float(cfg.get("proxy_noise", 0.05)),
    )
    emit_report(adaptive_table(result), _format_for(args), args.out)
    print(f"closed: gt={result.closed_gt[0]:.4f} uniform={result.closed_uniform[0]:.4f}")
    print(f"open:   proxy={result.open_proxy[0]:.4f} uniform={result.open_uniform[0]:.4f}")
    print(f"crossover: {result.crossover}")
    return EXIT_OK


def cmd_passk(args) -> int:
    cfg = _load_config(
        args.config,
        frozenset({"train", "setting", "k_values", "success_threshold", "benchmark"}),
    )
    tc = _train_config(cfg.get("train", {}), args.seed)
    label = cfg.get("setting", "D")
    k_values = [int(k) for k in cfg.get("k_values", (1, 2, 4, 8, 16, 32, 64, 128))]
    thr = cfg.get("success_threshold", 1.0)
    if isinstance(thr, dict):
        try:
            thr = {TaskType(name): float(v) for name, v in thr.items()}
        except ValueError as exc:
            raise ConfigError(f"bad success_threshold task name: {exc}") from exc
    bench = _benchmark(cfg.get("benchmark", {}))
    try:
        cfg_setting = setting_config(label, tc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    artifacts = run_pipeline(bench.examples, cfg_setting, teacher=bench.teacher)
    curve = pass_at_k_eval(
        artifacts.student,
        bench.examples,
        k_values,
        temperature=tc.temperature,
        top_p=tc.top_p,
        seed=tc.seed,
        success_threshold=thr,
        metric_cfg=tc.metric,
    )
    emit_report(passk_table(curve), _format_for(args), args.out)
    for k, rate in curve:
        print(f"pass@{k}: {rate:.4f}")
    return EXIT_OK


# --- parser -----------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, out_help: str) -> None:
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=0, help="base seed (overrides config)")
    p.add_argument("--out", required=True, help=out_help)
    p.add_argument("--format", choices=("csv", "json"), default=None, help="report format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mskd", description="multi-sample distillation supervision toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="teacher-variance report from a response corpus")
    _add_common(p, "report path")
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
    _add_common(p, "output directory")
    p.add_argument("--examples", default=None, help="examples JSONL (else synthetic benchmark)")
    p.add_argument("--pool-cache", default=None, help="pool cache JSONL from `pool build`")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("pool", help="pool utilities")
    pool_sub = p.add_subparsers(dest="pool_command", required=True)
    pb = pool_sub.add_parser("build", help="assemble pools from a response corpus")
    pb.add_argument("--examples", required=True)
    pb.add_argument("--responses", required=True)
    pb.add_argument("--k", type=int, required=True)
    pb.add_argument("--tau", type=float, required=True)
    pb.add_argument("--out", required=True)
    pb.add_argument("--config", default=None)
    pb.add_argument("--seed", type=int, default=0)
    pb.set_defaults(func=cmd_pool_build)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        DegenerateDataError,
        DegeneratePoolError,
        InvalidPoolError,
        NoValidTargetError,
        EmptyReportError,
    ) as exc:
        print(f"degenerate data: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
