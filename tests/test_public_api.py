"""The public surface of mskd, pinned name by name.

Each concept has one public path; a name added to or dropped from
mskd.__all__ has to be added to or dropped from this list as well.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import mskd
import mskd.analysis
import mskd.cli
import mskd.corpus
import mskd.discriminator
import mskd.harness
import mskd.policy
import mskd.pool
import mskd.rewards
import mskd.synthetic
import mskd.tasks
import mskd.train

PUBLIC = (
    "BACKEND",
    "AblationResult",
    "AblationSummary",
    "AdaptiveCheckResult",
    "AnswerPayload",
    "Benchmark",
    "Binary",
    "CorpusError",
    "DEFAULT_METRICS",
    "DEFAULT_WEIGHTS",
    "DiscriminatorParams",
    "Featurizer",
    "InjectedStats",
    "InvalidWeightsError",
    "MatchingDistribution",
    "MetricConfig",
    "Number",
    "OptionLetter",
    "ParsedResponse",
    "ReportTable",
    "ResponseRow",
    "RewardWeights",
    "SensitivityResult",
    "SpatialBox",
    "SupervisionExample",
    "SyntheticTeacher",
    "TaskType",
    "TaskVariance",
    "TeacherPool",
    "TemporalSegment",
    "Text",
    "TrainConfig",
    "TrainedArtifacts",
    "VarianceReport",
    "analyze_variance",
    "apply_filter",
    "batch_update",
    "build_pool",
    "calibrate_concentration",
    "composite_reward",
    "emit_report",
    "epsilon_accuracy",
    "exact_match",
    "init_params",
    "load_params",
    "make_closed_benchmark",
    "make_open_benchmark",
    "make_pools",
    "make_variance_corpus",
    "matching_distribution",
    "ocr_similarity",
    "paired_permutation_pvalue",
    "parse_response",
    "pass_at_k_eval",
    "quality_score",
    "read_examples",
    "read_pool_cache",
    "read_responses",
    "render_payload",
    "run_ablation",
    "run_pipeline",
    "run_sensitivity",
    "run_task_adaptive_check",
    "sample_matches",
    "sample_teacher_pool",
    "save_params",
    "select_sft_target",
    "select_sft_targets",
    "spatial_iou",
    "temporal_iou",
    "write_examples",
    "write_pool_cache",
    "write_responses",
)


def test_all_is_pinned():
    assert len(PUBLIC) == 73
    assert list(mskd.__all__) == list(PUBLIC)
    assert all(hasattr(mskd, name) for name in PUBLIC)


def test_scalar_twins_stay_out_of_the_package():
    # the batched path of each is score_batch, _linear_grad and _hidden_grad,
    # batch_update, discriminator._sigmoid, kl_gradient_logits and run_pipeline
    gone = {
        mskd.discriminator: ("score", "pairwise_loss", "loss_gradient", "update_step", "_batch_loss_and_grad"),
        mskd.rewards: ("sigmoid",),
        mskd.policy: ("kl_divergence",),
        mskd.train: ("kl_penalty", "sft_stage"),
    }
    for module, names in gone.items():
        assert [n for n in names if hasattr(module, n)] == [], module.__name__


def test_single_path_removals_stay_out_of_the_package():
    # each concept has one path: apply_filter passes open-ended pools
    # through, parse_response carries both validity flags, TaskType.is_closed
    # is the task family, and a pool with nothing to match or no SFT target
    # is a None from matching_distribution or select_sft_target
    gone = {
        # a bad pool-cache line is a CorpusError, and an empty pool or report a ValueError
        mskd.pool: (
            "filter_closed", "DegeneratePoolError", "NoValidTargetError", "InvalidPoolError", "PoolCacheError"
        ),
        mskd.tasks: ("TaskFamily", "validate_outer", "validate_task_format"),
        mskd.tasks.TaskType: ("family",),
        mskd.train.TrainedArtifacts: ("write_metrics",),
        # pool_features featurizes every pool of a cell in one featurize_all call, and
        # pass_at_k_eval's settings check serves mskd passk too
        mskd.discriminator.Featurizer: ("featurize",),
        mskd.cli: (
            "_success_threshold", "TaskType", "DegeneratePoolError", "NoValidTargetError", "InvalidPoolError",
            "EmptyReportError",
        ),
        # the trainer's batched composite_reward is the one reward sum; the
        # scalar statement is tests/oracles.py's reference; a validity flag
        # is its own format reward
        mskd.rewards: ("weighted_reward", "RewardBreakdown", "content_reward", "outer_reward", "task_reward"),
        # the student is its logits, a dict keyed by example id, and every
        # draw inverts a table of uniforms (_invert_rows), not a generator
        mskd.policy: ("StudentPolicy", "init_student", "categorical_draw"),
        # rl_step leaves an example with no matches untouched, a slot's
        # build_caches feature row is its one record, the student is its
        # logits, a pair's weight is its teacher row's quality column, and
        # Plan.run calls matching_distribution itself
        mskd.train: (
            "SkippedExample", "ExampleCache", "StudentPolicy", "init_student", "pair_weights", "matching_for"
        ),
        # the open-ended accuracy is eval_accuracy over the latent ratings,
        # and the closed benchmark's temporal space is one module constant
        mskd.harness: ("open_accuracy", "_temporal_space", "EmptyReportError"),
        # chain_update is the one descent step, batch_update its one-batch
        # case, and _linear_grad and _hidden_grad each scorer's one pair
        # loss gradient
        mskd.discriminator: ("apply_gradient", "_batch_loss_and_grad", "_pair_grad"),
        # rl_step's inputs come only from Plan.run's layout (train.rl_inputs)
        mskd: ("rl_step",),
    }
    for owner, names in gone.items():
        assert [n for n in names if hasattr(owner, n)] == [], owner.__name__
    # fields no caller read, and knobs with one value in use
    dead_fields = {
        # temperature and top_p are pass@k settings, and matching="quality"
        # weights the discriminator pairs too
        mskd.train.TrainConfig: ("baseline", "temperature", "top_p", "disc_weighting"),
        mskd.train.TrainedArtifacts: ("pools",),
        # run_ablation wrote it, and nothing read it
        mskd.harness.AblationResult: ("seeds",),
        mskd.harness.Benchmark: ("mu_targets",),
        mskd.synthetic.SyntheticTeacher: ("temperature", "top_p"),
        # the clamped coordinates are the payload's; nothing read the flag
        mskd.tasks.ParsedResponse: ("clamped",),
    }
    for cls, names in dead_fields.items():
        have = {f.name for f in dataclasses.fields(cls)}
        assert [n for n in names if n in have] == [], cls.__name__
    assert "keep_students" not in inspect.signature(mskd.run_ablation).parameters
    # every corpus and pool-cache file error is a CorpusError
    assert "error" not in inspect.signature(mskd.corpus._json_lines).parameters
    # each pool's feature rows carry its pair weights
    assert "pair_q" not in inspect.signature(mskd.train.rl_step).parameters
    # matches are drawn from the run's uniform table, and the permutation
    # test is exact
    assert "rng" not in inspect.signature(mskd.sample_matches).parameters
    assert "rng" not in inspect.signature(mskd.sample_teacher_pool).parameters
    assert {"n_perm", "seed"}.isdisjoint(inspect.signature(mskd.paired_permutation_pvalue).parameters)
    # featurize_all leaves the quality column at 0, and its callers write it
    assert "quality" not in inspect.signature(mskd.Featurizer.featurize_all).parameters
    # knobs that only tests set are module constants, and the harness always
    # passes misleading_proxy its seeded generator and its two settings
    fixed = {
        mskd.calibrate_concentration: ("lo", "hi", "iters"),
        mskd.synthetic.BisectionPaths: ("lo", "hi", "iters"),
        mskd.init_params: ("scale",),
        mskd.make_variance_corpus: ("mu_low", "mu_high"),
        mskd.cli._seeds_from: ("default_n",),
    }
    for fn, names in fixed.items():
        assert set(names).isdisjoint(inspect.signature(fn).parameters), fn.__name__
    proxy = inspect.signature(mskd.harness.misleading_proxy).parameters
    assert [proxy[name].default for name in ("rng", "mislead", "noise")] == [inspect.Parameter.empty] * 3


def test_each_exception_type_is_caught_by_name():
    # an exception type exists only where some handler in the package catches
    # it by name; InvalidWeightsError stays for acceptance criterion 4, which does
    package = Path(mskd.__file__).parent
    defined, caught = set(), set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = importlib.import_module(f"mskd.{path.stem}") if path.stem != "__init__" else mskd
        defined |= {
            node.name
            for node in tree.body
            if isinstance(node, ast.ClassDef) and issubclass(getattr(module, node.name), BaseException)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {ast.unparse(t).rsplit(".", 1)[-1] for t in types}
    assert defined - caught == {"InvalidWeightsError"}


def test_task_metrics_are_used_only_through_quality_score():
    # the closed benchmark scored its slots with float(s == gt.letter) and
    # temporal_iou, a second statement of the metrics quality_score dispatches to
    metrics = {"temporal_iou", "spatial_iou", "exact_match", "epsilon_accuracy", "ocr_similarity"}
    package = Path(mskd.__file__).parent
    uses = []
    for path in sorted(package.glob("*.py")):
        if path.name == "metrics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name in metrics:
                uses.append(f"{path.name}:{node.lineno} {name}")
    assert uses == []


def test_slots_are_scored_in_one_place():
    # the closed benchmark and pass@k each scored every slot in a loop of
    # their own; slot_parses is the one pass that build_caches shares with them
    package = Path(mskd.__file__).parent
    users = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            name = child.id if isinstance(child, ast.Name) else child.attr if isinstance(child, ast.Attribute) else None
            if name == "quality_score":
                users.add(where)
            scoped = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{where}.{child.name}" if scoped else where)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert users == {"train.slot_parses", "pool.build_pool", "analysis.analyze_variance"}


def test_score_groups_has_one_home():
    # the trainer, the teacher's stacks and the variance report group rows by
    # length through the one function, so stack g of each holds the same examples
    assert mskd.train.score_groups is mskd.policy.score_groups
    for module in (mskd.synthetic, mskd.analysis, mskd.harness):
        assert module.score_groups is mskd.policy.score_groups, module.__name__


def test_a_cell_has_one_door():
    # run_pipeline took pools, sft_targets and match_overrides as well, a
    # second door into a cell beside Plan.run
    assert list(inspect.signature(mskd.run_pipeline).parameters) == ["examples", "cfg", "teacher"]
    package = Path(mskd.__file__).parent
    owners = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.arg) and child.arg in ("sft_targets", "match_overrides"):
                owners.add(where)
            scoped = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{where}.{child.name}" if scoped else where)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert owners == {"train.Plan.run", "train._check_inputs"}


def test_run_pipeline_requires_a_teacher(monkeypatch):
    # a call without a teacher fails before any plan is built
    assert inspect.signature(mskd.run_pipeline).parameters["teacher"].default is inspect.Parameter.empty

    def no_plan(*args):
        raise AssertionError("built a plan without a teacher")

    monkeypatch.setattr(mskd.train, "build_caches", no_plan)
    with pytest.raises(TypeError, match="teacher"):
        mskd.run_pipeline([], mskd.TrainConfig())


def _names(module) -> set[str]:
    """Every name and attribute a module's source mentions."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return {
        getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }


def test_a_drawn_pool_reads_the_plans_slot_parses():
    # the teacher draws slots, not text, and the trainer builds a drawn pool
    # from the plan's slot_parses: build_pool is the corpus path alone
    assert "build_pool" not in _names(mskd.train)
    assert "render_payload" not in _names(mskd.synthetic)
