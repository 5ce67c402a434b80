"""Multi-sample distillation supervision: pools, rewards, desk-scale trainer.

The library turns K teacher samples per question into supervision signals:
structured-answer parsing with a strict validity gate, task-specific
quality scoring, quality-filtered pools with quality-proportional
teacher-student matching, a composite reward with a learned pairwise
discriminator, and a two-stage (supervised fit, then policy-gradient)
trainer over explicit categorical policies — small enough that every
quantity has a checkable closed form.
"""

from mskd.analysis import (
    InjectedStats,
    TaskVariance,
    VarianceReport,
    analyze_variance,
    make_variance_corpus,
)
from mskd.corpus import (
    CorpusError,
    ResponseRow,
    read_examples,
    read_responses,
    write_examples,
    write_responses,
)
from mskd.discriminator import (
    DiscriminatorParams,
    Featurizer,
    batch_update,
    init_params,
    load_params,
    save_params,
)
from mskd.harness import (
    AblationResult,
    AblationSummary,
    AdaptiveCheckResult,
    Benchmark,
    ReportTable,
    SensitivityResult,
    emit_report,
    make_closed_benchmark,
    make_open_benchmark,
    paired_permutation_pvalue,
    run_ablation,
    run_sensitivity,
    run_task_adaptive_check,
)
from mskd.kernels import BACKEND
from mskd.metrics import (
    DEFAULT_METRICS,
    MetricConfig,
    epsilon_accuracy,
    exact_match,
    ocr_similarity,
    quality_score,
    spatial_iou,
    temporal_iou,
)
from mskd.pool import (
    MatchingDistribution,
    TeacherPool,
    apply_filter,
    build_pool,
    matching_distribution,
    read_pool_cache,
    sample_matches,
    select_sft_target,
    write_pool_cache,
)
from mskd.rewards import (
    DEFAULT_WEIGHTS,
    InvalidWeightsError,
    RewardWeights,
    composite_reward,
)
from mskd.synthetic import SyntheticTeacher, calibrate_concentration, sample_teacher_pool
from mskd.tasks import (
    AnswerPayload,
    Binary,
    Number,
    OptionLetter,
    ParsedResponse,
    SpatialBox,
    SupervisionExample,
    TaskType,
    TemporalSegment,
    Text,
    parse_response,
    render_payload,
)
from mskd.train import (
    TrainConfig,
    TrainedArtifacts,
    make_pools,
    pass_at_k_eval,
    run_pipeline,
    select_sft_targets,
)

__version__ = "0.1.0"

__all__ = [
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
]
