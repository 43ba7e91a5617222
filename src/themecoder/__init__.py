"""Theme classification of social media posts with LLM backends.

The package splits into corpus ingestion, codebook management, prompt
construction, completion backends, output parsing, evaluation, and run
orchestration. Start with ``load_posts`` and ``load_codebook``, or drive
everything through the ``themecoder`` CLI.
"""

from .backends import (
    BackendConfig,
    ResponseCache,
    RetryPolicy,
    cache_key,
    classify_with_retry,
    complete,
    make_backend,
)
from .codebook import (
    Codebook,
    Exemplar,
    LabelMatrix,
    ThemeDef,
    lint_null_conflict,
    load_codebook,
    load_gold,
    validate_codebook,
)
from .corpus import (
    Corpus,
    CorpusIds,
    KeywordSet,
    Post,
    SamplingSpec,
    Term,
    dedup_clean,
    keyword_filter,
    load_keywords,
    load_post_ids,
    load_posts,
    sample_random,
    temporal_split,
    write_posts,
)
from .errors import BackendError, ConfigError, DataError, ThemecoderError
from .evaluation import (
    ConfusionMatrix,
    DistributionDelta,
    EvalReport,
    IntervalEstimate,
    MetricSet,
    ModelRanking,
    RunStats,
    ThemeDistribution,
    apply_failure_policy,
    avg_rank,
    bootstrap_ci,
    confusion_per_theme,
    distribution_delta,
    evaluate_predictions,
    f1_score,
    metrics,
    run_stats,
    theme_distribution,
    wald_ci,
)
from .parsing import (
    FAILURE_REASONS,
    PARSE_MODES,
    ParseFailure,
    ParseOutcome,
    assemble_per_theme,
    parse_single_answer,
    parse_single_line,
)
from .pipeline import (
    ResultsStore,
    RunConfig,
    cmd_classify,
    cmd_distribute,
    cmd_evaluate,
    cmd_ingest,
    cmd_rank,
    load_config,
    read_results,
)
from .prompting import (
    PromptTemplate,
    RenderedPrompt,
    ShotPolicy,
    canonical_line,
    load_template,
    prompt_renderer,
    render_prompt,
    select_exemplars,
)

__version__ = "0.1.0"
