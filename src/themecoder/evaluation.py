"""Measurement suite for theme classification runs.

Per-theme confusion matrices, micro and macro precision/recall/F1,
micro accuracy over all post-by-theme decisions, Wald and percentile
bootstrap intervals, mean and sample SD across repeat runs,
fractional-tie average-rank leaderboards, theme distributions, and
gold-versus-model distribution deltas.

Aggregation conventions: accuracy is always micro over every
(post, theme) binary decision; precision/recall/F1 headline numbers are
micro over pooled counts, with a macro (mean per-theme) variant also
available. Zero-denominator precision or recall is defined as 0, and
F1 of (0, 0) is 0; themes that trigger the rule are flagged in reports.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .codebook import Codebook, LabelMatrix
from .errors import ConfigError, DataError
from .jsonl import write_json, write_table

if TYPE_CHECKING:  # numpy loads on first use, so ingest and classify never load it
    import numpy as np

METRIC_NAMES = ("precision", "recall", "f1", "accuracy")
AGGREGATIONS = ("per-theme", "micro", "macro")
FAILURE_POLICIES = ("exclude-and-report", "score-all-zero", "score-as-wrong")

# z for the 95% Wald interval, pinned rather than recomputed
Z_95 = 1.95996

# resample indices drawn per bootstrap chunk (int64, so 2 MiB); bounds the
# bootstrap's memory at O(chunk × n) instead of O(resamples × n)
BOOTSTRAP_INDEX_BUDGET = 2**18


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be >= 0")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn, self.tn + other.tn
        )


@dataclass(frozen=True)
class MetricSet:
    precision: float
    recall: float
    f1: float
    accuracy: float
    aggregation: str
    n_decisions: int

    def __post_init__(self) -> None:
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        for name in METRIC_NAMES:
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0,1], got {value}")
        if self.n_decisions < 0:
            raise ValueError("n_decisions must be >= 0")

    def value(self, metric: str) -> float:
        if metric not in METRIC_NAMES:
            raise ConfigError(f"unknown metric {metric!r}; known: {', '.join(METRIC_NAMES)}")
        return getattr(self, metric)


@dataclass(frozen=True)
class IntervalEstimate:
    point: float
    lower: float
    upper: float
    method: str  # wald | bootstrap
    confidence: float = 0.95
    n: int = 0  # decisions (wald) or resamples (bootstrap)
    seed: int | None = None

    def __post_init__(self) -> None:
        if not (self.lower <= self.point <= self.upper):
            raise ValueError(
                f"interval must bracket the point: {self.lower} <= {self.point} <= {self.upper}"
            )


@dataclass(frozen=True)
class RunStats:
    """Mean and sample SD per metric across R repeat runs; SD is absent
    (None) when R = 1."""

    mean: Mapping[str, float]
    sd: Mapping[str, float] | None
    r: int


@dataclass(frozen=True)
class RankedRow:
    label: str
    metrics: MetricSet
    ranks: Mapping[str, float]
    avg_rank: float


@dataclass(frozen=True)
class ModelRanking:
    rows: tuple[RankedRow, ...]  # ascending by avg_rank, ties broken by label

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def rank_of(self, label: str) -> float:
        for row in self.rows:
            if row.label == label:
                return row.avg_rank
        raise KeyError(label)


@dataclass(frozen=True)
class ThemeDistribution:
    counts: Mapping[str, int]
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("denominator must be >= 1")
        for code, count in self.counts.items():
            if not (0 <= count <= self.n):
                raise ValueError(f"count for {code} outside [0, n]")

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(self.counts)

    def percentage(self, code: str) -> float:
        return 100.0 * self.counts[code] / self.n

    def to_dict(self) -> dict:
        return {"n": self.n, "counts": dict(self.counts), "percentages": {c: self.percentage(c) for c in self.codes}}


@dataclass(frozen=True)
class DistributionDelta:
    deltas: Mapping[str, float]  # model percentage minus gold percentage
    max_abs: float


def _require_codes(labels: LabelMatrix, codes: Sequence[str]) -> LabelMatrix:
    """``labels``, once its columns are checked to be ``codes`` in order."""
    if labels.codes != tuple(codes):
        raise DataError(
            f"label matrix columns ({', '.join(labels.codes)}) are not the codebook's ({', '.join(codes)})"
        )
    return labels


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, 0 where den is not positive."""
    import numpy as np

    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def _f1(precision: np.ndarray, recall: np.ndarray) -> np.ndarray:
    return _ratio(2.0 * precision * recall, precision + recall)


def _metric_values(tp, fp, fn, tn) -> dict[str, np.ndarray]:
    """The four metrics from confusion counts, scalars or arrays alike.

    The one statement of the formulas: per-theme scores, pooled micro
    scores and every bootstrap resample read their values from here.
    """
    import numpy as np

    tp, fp, fn, tn = (np.asarray(c, dtype=np.float64) for c in (tp, fp, fn, tn))
    precision, recall = _ratio(tp, tp + fp), _ratio(tp, tp + fn)
    return {
        "precision": precision,
        "recall": recall,
        "f1": _f1(precision, recall),
        "accuracy": _ratio(tp + tn, tp + fp + fn + tn),
    }


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean, 0 when both terms are 0."""
    import numpy as np

    return float(_f1(np.float64(precision), np.float64(recall)))


def _paired_rows(gold: LabelMatrix, pred: LabelMatrix, codes: Sequence[str]):
    """The (n_posts × n_codes) value arrays of gold and predictions, both
    over ``codes`` and matching post ids, rows in sorted id order."""
    gold, pred = _require_codes(gold, codes), _require_codes(pred, codes)
    if gold.ids != pred.ids:
        raise DataError(
            "gold and predictions cover different posts; symmetric difference: "
            + ", ".join(sorted(set(gold.ids) ^ set(pred.ids)))
        )
    return gold.values, pred.values


def _confusions(g: np.ndarray, p: np.ndarray, codes: Sequence[str]) -> dict[str, ConfusionMatrix]:
    """Per-code confusion counts from column sums of the label matrices."""
    sums = zip((g & p).sum(axis=0).tolist(), g.sum(axis=0).tolist(), p.sum(axis=0).tolist())
    return {
        code: ConfusionMatrix(tp, pred_pos - tp, gold_pos - tp, len(g) - gold_pos - pred_pos + tp)
        for code, (tp, gold_pos, pred_pos) in zip(codes, sums)
    }


def confusion_per_theme(gold: LabelMatrix, pred: LabelMatrix, code: str) -> ConfusionMatrix:
    """Count tp/fp/fn/tn for one of gold's codes over matching post id sets."""
    return _confusions(*_paired_rows(gold, pred, gold.codes), gold.codes)[code]


def all_confusions(gold: LabelMatrix, pred: LabelMatrix, cb: Codebook) -> dict[str, ConfusionMatrix]:
    return _confusions(*_paired_rows(gold, pred, cb.alphabet), cb.alphabet)


def metrics(matrices: Mapping[str, ConfusionMatrix], aggregation: str = "micro") -> MetricSet:
    """Aggregate per-code confusion counts into a MetricSet.

    micro pools counts across themes before computing; macro averages the
    per-theme metrics. Accuracy is always micro over every decision.
    Per-theme scores come from ``per_theme_metrics``, one matrix at a time.
    """
    if aggregation not in ("micro", "macro"):
        raise ConfigError(f"unknown aggregation {aggregation!r}; known: micro, macro")
    mats = list(matrices.values())
    if not mats:
        raise ConfigError("metrics requires at least one confusion matrix")
    # micro is the per-theme formula on pooled counts; accuracy stays micro
    pooled = per_theme_metrics(sum(mats[1:], mats[0]))
    if aggregation == "macro":
        per = [per_theme_metrics(m) for m in mats]
        means = {k: sum(getattr(m, k) for m in per) / len(per) for k in ("precision", "recall", "f1")}
        pooled = replace(pooled, **means)
    return replace(pooled, aggregation=aggregation)


def per_theme_metrics(matrix: ConfusionMatrix) -> MetricSet:
    values = _metric_values(matrix.tp, matrix.fp, matrix.fn, matrix.tn)
    return MetricSet(
        **{name: float(v) for name, v in values.items()}, aggregation="per-theme", n_decisions=matrix.total
    )


def zero_denominator_themes(matrices: Mapping[str, ConfusionMatrix]) -> tuple[str, ...]:
    """Codes where the zero-denominator rule fired for precision or recall."""
    flagged = []
    for code, m in matrices.items():
        if (m.tp + m.fp) == 0 or (m.tp + m.fn) == 0:
            flagged.append(code)
    return tuple(flagged)


def _require_confidence(caller: str, confidence: float) -> None:
    """Refuse a confidence level outside the open interval (0, 1), NaN too."""
    if not 0.0 < confidence < 1.0:
        raise ConfigError(f"{caller} requires confidence in (0, 1), got {confidence}")


def wald_ci(p: float, n: int, confidence: float = 0.95) -> IntervalEstimate:
    """Normal-approximation interval for a proportion, clipped to [0,1]."""
    if n < 1:
        raise ConfigError(f"wald_ci requires n >= 1, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ConfigError(f"wald_ci requires p in [0,1], got {p}")
    _require_confidence("wald_ci", confidence)
    if confidence == 0.95:
        z = Z_95
    else:
        import statistics

        z = statistics.NormalDist().inv_cdf(0.5 + confidence / 2.0)
    half = z * math.sqrt(p * (1.0 - p) / n)
    return IntervalEstimate(
        point=p,
        lower=max(0.0, p - half),
        upper=min(1.0, p + half),
        method="wald",
        confidence=confidence,
        n=n,
    )


def _resample_sums(counts: np.ndarray, resamples: int, seed: int, budget: int = BOOTSTRAP_INDEX_BUDGET):
    """(resamples × 3) exact tp, fp and fn totals of each bootstrap resample.

    ``counts`` holds the per-post tp, fp and fn rows, each count below 2**21
    (a post's counts are at most its number of codes). Resample r is row r of
    ``default_rng(seed).integers(0, n, size=(resamples, n))``, drawn in chunks
    of at most ``budget`` indices; chunked draws continue the same stream.
    """
    import numpy as np

    n = counts.shape[1]
    top = int(counts.max())
    # Each post's three counts share one int64 word, so a resample is one
    # gather and one sum. A field must hold the sum of ``block`` draws; when
    # three fields of that width pass 63 bits, the draws are summed in blocks.
    block = n if 3 * (top * n).bit_length() <= 63 else (2**21 - 1) // top
    width = (top * block).bit_length()
    mask = (1 << width) - 1
    tp, fp, fn = counts.astype(np.int64)
    words = tp << 2 * width | fp << width | fn
    rng = np.random.default_rng(seed)
    sums = np.zeros((resamples, 3), dtype=np.int64)
    step = max(1, budget // n)
    for start in range(0, resamples, step):
        idx = rng.integers(0, n, size=(min(step, resamples - start), n))
        out = sums[start : start + len(idx)]
        for first in range(0, n, block):
            packed = words[idx[:, first : first + block]].sum(axis=1)
            out += np.stack([packed >> 2 * width, packed >> width & mask, packed & mask], axis=1)
    return sums


def _bootstrap_intervals(
    g: np.ndarray,
    p: np.ndarray,
    micro: MetricSet,
    metric_names: Sequence[str],
    resamples: int,
    seed: int,
    confidence: float = 0.95,
) -> dict[str, IntervalEstimate]:
    """Percentile interval per metric around its ``micro`` point, all read
    from one set of resamples."""
    import numpy as np

    if resamples < 100:
        raise ConfigError(f"bootstrap requires >= 100 resamples, got {resamples}")
    _require_confidence("bootstrap", confidence)
    n, k = g.shape
    if n < 1:
        raise DataError("bootstrap requires at least one post")
    points = {m: micro.value(m) for m in metric_names}
    small = np.min_scalar_type(k)  # per-post counts are at most k
    tp = (g & p).sum(axis=1, dtype=small)
    counts = np.stack([tp, p.sum(axis=1, dtype=small) - tp, g.sum(axis=1, dtype=small) - tp])
    tp, fp, fn = _resample_sums(counts, resamples, seed).T
    values = _metric_values(tp, fp, fn, k * n - tp - fp - fn)
    alpha = (1.0 - confidence) / 2.0
    out = {}
    for metric, point in points.items():
        lower, upper = np.percentile(values[metric], [100.0 * alpha, 100.0 * (1.0 - alpha)])
        # percentile bounds must still bracket the full-sample point
        out[metric] = IntervalEstimate(
            point=point,
            lower=float(min(lower, point)),
            upper=float(max(upper, point)),
            method="bootstrap",
            confidence=confidence,
            n=resamples,
            seed=seed,
        )
    return out


def bootstrap_ci(
    gold: LabelMatrix,
    pred: LabelMatrix,
    metric: str,
    cb: Codebook,
    resamples: int = 2000,
    seed: int = 0,
    confidence: float = 0.95,
) -> IntervalEstimate:
    """Percentile bootstrap over post-level resampling with replacement."""
    g, p = _paired_rows(gold, pred, cb.alphabet)
    micro = metrics(_confusions(g, p, cb.alphabet))
    return _bootstrap_intervals(g, p, micro, (metric,), resamples, seed, confidence)[metric]


def run_stats(runs: Sequence[MetricSet]) -> RunStats:
    """Mean and sample SD (divisor R-1) per metric across repeat runs."""
    import numpy as np

    if not runs:
        raise ConfigError("run_stats requires at least one run")
    modes = {m.aggregation for m in runs}
    if len(modes) > 1:
        raise ConfigError(f"mixed aggregation modes in run_stats: {', '.join(sorted(modes))}")
    r = len(runs)
    mean = {name: sum(m.value(name) for m in runs) / r for name in METRIC_NAMES}
    if r == 1:
        return RunStats(mean=mean, sd=None, r=1)
    sd = {
        name: float(np.std([m.value(name) for m in runs], ddof=1)) for name in METRIC_NAMES
    }
    return RunStats(mean=mean, sd=sd, r=r)


def _mid_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ascending ranks; each group of equal values gets the mean of
    the positions it occupies (``first + (count + 1) / 2``)."""
    import numpy as np

    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, len(values)])
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
    return ranks


def avg_rank(rows: Sequence[tuple[str, MetricSet]]) -> ModelRanking:
    """Fractional-tie leaderboard over four metrics.

    Each metric is ranked descending with ties replaced by the mean of the
    positions they occupy; a row's avg_rank is the mean of its four ranks.
    Output is sorted ascending by avg_rank, ties broken by label. Each label
    names one row.
    """
    import numpy as np

    if len(rows) < 2:
        raise ConfigError("avg_rank requires at least two rows")
    seen: set[str] = set()
    for label, _ in rows:
        if label in seen:  # a label given twice would be ranked against itself
            raise ConfigError(f"avg_rank got label {label!r} on more than one row")
        seen.add(label)
    modes = {m.aggregation for _, m in rows}
    if len(modes) > 1:
        raise ConfigError(f"mixed aggregation modes in avg_rank: {', '.join(sorted(modes))}")
    per_metric: dict[str, np.ndarray] = {}
    for name in METRIC_NAMES:
        values = np.array([m.value(name) for _, m in rows], dtype=np.float64)
        per_metric[name] = _mid_ranks(-values)
    ranked = []
    for i, (label, mset) in enumerate(rows):
        ranks = {name: float(per_metric[name][i]) for name in METRIC_NAMES}
        ranked.append(
            RankedRow(
                label=label,
                metrics=mset,
                ranks=ranks,
                avg_rank=sum(ranks.values()) / len(METRIC_NAMES),
            )
        )
    ranked.sort(key=lambda row: (row.avg_rank, row.label))
    return ModelRanking(rows=tuple(ranked))


def _distribution(m: np.ndarray, codes: Sequence[str]) -> ThemeDistribution:
    return ThemeDistribution(counts=dict(zip(codes, m.sum(axis=0).tolist())), n=len(m))


def theme_distribution(preds: LabelMatrix, cb: Codebook) -> ThemeDistribution:
    """Positive count and percentage per code over classified posts."""
    m = _require_codes(preds, cb.alphabet).values
    if not len(m):
        raise DataError("theme_distribution requires at least one classified post")
    return _distribution(m, cb.alphabet)


def distribution_delta(model: ThemeDistribution, gold: ThemeDistribution) -> DistributionDelta:
    """Signed percentage-point difference per code (model minus gold)."""
    if set(model.codes) != set(gold.codes):
        raise DataError(
            "distributions cover different codes: "
            + ", ".join(sorted(set(model.codes) ^ set(gold.codes)))
        )
    deltas = {code: model.percentage(code) - gold.percentage(code) for code in model.codes}
    max_abs = max((abs(d) for d in deltas.values()), default=0.0)
    return DistributionDelta(deltas=deltas, max_abs=max_abs)


def apply_failure_policy(
    gold: LabelMatrix,
    preds: LabelMatrix,
    failed_ids: Iterable[str],
    policy: str,
    cb: Codebook,
) -> tuple[LabelMatrix, LabelMatrix, tuple[str, ...]]:
    """Reconcile classification failures with the gold set before scoring.

    Returns (gold, preds, excluded_ids). exclude-and-report drops failed
    posts from gold; score-all-zero imputes an all-zero row; score-as-wrong
    imputes the complement of gold (every decision wrong). Imputed rows
    join the predictions in id order.
    """
    import numpy as np

    if policy not in FAILURE_POLICIES:
        raise ConfigError(f"unknown failure_policy {policy!r}; known: {', '.join(FAILURE_POLICIES)}")
    gold, preds = _require_codes(gold, cb.alphabet), _require_codes(preds, cb.alphabet)
    failed = sorted(set(failed_ids))
    unknown = [pid for pid in failed if pid not in gold]
    if unknown:
        raise DataError("failed post ids missing from gold set: " + ", ".join(unknown))
    already = [pid for pid in failed if pid in preds]
    if already:
        raise DataError("failed post ids also present in predictions: " + ", ".join(already))
    if not failed:
        return gold, preds, ()
    if policy == "exclude-and-report":
        return gold.drop(failed), preds, tuple(failed)
    truth = gold.take(failed).values
    imputed = np.zeros_like(truth) if policy == "score-all-zero" else 1 - truth  # else score-as-wrong
    merged = LabelMatrix.from_rows(preds.ids + tuple(failed), np.concatenate([preds.values, imputed]), gold.codes)
    return gold, merged, ()


# --- report assembly ----------------------------------------------------------


def _set_fields(obj) -> dict:
    """A dataclass's fields as a dict, leaving out those that are None."""
    return {k: v for k, v in asdict(obj).items() if v is not None}


@dataclass
class EvalReport:
    """Full measurement bundle for one run, serializable to JSON and CSV."""

    label: str
    n_posts: int
    n_failures: int
    failure_policy: str
    per_theme: dict[str, ConfusionMatrix]
    per_theme_metrics: dict[str, MetricSet]
    micro: MetricSet
    macro: MetricSet
    accuracy_interval: IntervalEstimate
    distribution: ThemeDistribution
    gold_distribution: ThemeDistribution
    delta: DistributionDelta
    bootstrap_intervals: dict[str, IntervalEstimate] = field(default_factory=dict)
    zero_denominator: tuple[str, ...] = ()
    stats: RunStats | None = None

    def to_dict(self) -> dict:
        out: dict = {
            "label": self.label,
            "n_posts": self.n_posts,
            "n_failures": self.n_failures,
            "failure_policy": self.failure_policy,
            "per_theme": {
                code: {**asdict(m), **asdict(self.per_theme_metrics[code])} for code, m in self.per_theme.items()
            },
            "micro": asdict(self.micro),
            "macro": asdict(self.macro),
            "accuracy_interval": _set_fields(self.accuracy_interval),
            "zero_denominator_themes": list(self.zero_denominator),
        }
        if self.bootstrap_intervals:
            out["bootstrap_intervals"] = {k: _set_fields(v) for k, v in self.bootstrap_intervals.items()}
        if self.stats is not None:
            out["run_stats"] = _set_fields(self.stats)
        out["distribution"] = self.distribution.to_dict()
        out["gold_distribution"] = self.gold_distribution.to_dict()
        out["distribution_delta"] = {"per_code": dict(self.delta.deltas), "max_abs": self.delta.max_abs}
        return out

    def flat_rows(self) -> list[dict]:
        """Rows for the flat delimited table: one per scope/label pair."""
        def scores(m: MetricSet) -> dict:
            return {name: f"{m.value(name):.6f}" for name in METRIC_NAMES}

        rows = [
            {"scope": "per-theme", "label": code, **asdict(m), **scores(self.per_theme_metrics[code])}
            for code, m in self.per_theme.items()
        ]
        rows += [
            {"scope": scope, "label": self.label, **scores(m)}
            for scope, m in (("micro", self.micro), ("macro", self.macro))
        ]
        rows += [
            {
                "scope": "distribution",
                "label": code,
                "count": self.distribution.counts[code],
                "percentage": f"{self.distribution.percentage(code):.1f}",
                "delta_pp": f"{self.delta.deltas[code]:.1f}",
            }
            for code in self.distribution.codes
        ]
        return rows

    def write(self, out_dir: str | Path) -> None:
        """Write report.json and metrics.csv; byte-stable given equal inputs.
        metrics.csv keeps an ``avg_rank`` column that no row fills: rankings
        are written by the ranking files only."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "report.json", self.to_dict())
        fieldnames = [
            "scope", "label", *(f.name for f in fields(ConfusionMatrix)), *METRIC_NAMES,
            "avg_rank", "count", "percentage", "delta_pp",
        ]
        write_table(out / "metrics.csv", fieldnames, self.flat_rows())


def evaluate_predictions(
    gold: LabelMatrix,
    preds: LabelMatrix,
    cb: Codebook,
    *,
    failed_ids: Iterable[str] = (),
    failure_policy: str = "exclude-and-report",
    label: str = "run",
    bootstrap_metrics: Sequence[str] = (),
    bootstrap_resamples: int = 2000,
    bootstrap_seed: int = 0,
) -> EvalReport:
    """Assemble the full report for one run's predictions.

    ``gold`` and ``preds`` are label matrices over ``cb.alphabet``. After
    the failure policy, gold and predictions must cover the same posts.
    """
    failed = set(failed_ids)
    gold, preds, _ = apply_failure_policy(gold, preds, failed, failure_policy, cb)
    if not len(gold):
        raise DataError("no posts left to score after applying failure policy")
    g, p = _paired_rows(gold, preds, cb.alphabet)
    per_theme = _confusions(g, p, cb.alphabet)
    micro = metrics(per_theme, "micro")
    macro = metrics(per_theme, "macro")
    distribution, gold_distribution = _distribution(p, cb.alphabet), _distribution(g, cb.alphabet)
    report = EvalReport(
        label=label,
        n_posts=len(gold),
        n_failures=len(failed),
        failure_policy=failure_policy,
        per_theme=per_theme,
        per_theme_metrics={code: per_theme_metrics(m) for code, m in per_theme.items()},
        micro=micro,
        macro=macro,
        accuracy_interval=wald_ci(micro.accuracy, micro.n_decisions),
        zero_denominator=zero_denominator_themes(per_theme),
        distribution=distribution,
        gold_distribution=gold_distribution,
        delta=distribution_delta(distribution, gold_distribution),
    )
    if bootstrap_metrics:  # one draw of resamples serves every metric
        report.bootstrap_intervals = _bootstrap_intervals(
            g, p, micro, bootstrap_metrics, bootstrap_resamples, bootstrap_seed
        )
    return report
