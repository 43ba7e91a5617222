"""Metrics, intervals, rankings, distributions, and report assembly.

The worked five-post fixture below is counted by hand; every expected
number in this module was derived off-line, not read back from the code.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import statistics
import tracemalloc

import numpy as np
import pytest

from themecoder.codebook import Codebook, LabelMatrix, ThemeDef
from themecoder.errors import ConfigError, DataError
from themecoder.evaluation import (
    AGGREGATIONS,
    FAILURE_POLICIES,
    METRIC_NAMES,
    Z_95,
    ConfusionMatrix,
    IntervalEstimate,
    MetricSet,
    ThemeDistribution,
    all_confusions,
    apply_failure_policy,
    avg_rank,
    bootstrap_ci,
    confusion_per_theme,
    distribution_delta,
    evaluate_predictions,
    f1_score,
    metrics,
    per_theme_metrics,
    run_stats,
    theme_distribution,
    wald_ci,
    zero_denominator_themes,
    _mid_ranks,
    _resample_sums,
)

SMALL = Codebook(
    version="t",
    themes=(
        ThemeDef(code="A", name="a", definition="da"),
        ThemeDef(code="B", name="b", definition="db"),
        ThemeDef(code="X", name="none", definition="dx"),
    ),
    null_code="X",
)


def labels(rows: dict) -> LabelMatrix:
    """Post id -> (A, B, X) rows as a label matrix over SMALL."""
    return LabelMatrix.from_rows(list(rows), list(rows.values()), SMALL.alphabet)


# Hand-counted worked example over five posts and three codes.
# code A: tp=2 fp=0 fn=1 tn=2; code B: tp=1 fp=1 fn=1 tn=2; code X: tp=0 fp=1 fn=1 tn=3
GOLD5_ROWS = {
    "p1": (1, 0, 0),
    "p2": (1, 1, 0),
    "p3": (0, 1, 0),
    "p4": (0, 0, 1),
    "p5": (1, 0, 0),
}
PRED5_ROWS = {
    "p1": (1, 1, 0),
    "p2": (1, 0, 0),
    "p3": (0, 1, 0),
    "p4": (0, 0, 0),
    "p5": (0, 0, 1),
}
GOLD5, PRED5 = labels(GOLD5_ROWS), labels(PRED5_ROWS)
NONE = labels({})


def test_metric_catalogs():
    assert METRIC_NAMES == ("precision", "recall", "f1", "accuracy")
    assert AGGREGATIONS == ("per-theme", "micro", "macro")
    assert FAILURE_POLICIES == ("exclude-and-report", "score-all-zero", "score-as-wrong")
    assert Z_95 == 1.95996


# --- confusion counting --------------------------------------------------------


def test_confusion_hand_counts():
    assert confusion_per_theme(GOLD5, PRED5, "A") == ConfusionMatrix(2, 0, 1, 2)
    assert confusion_per_theme(GOLD5, PRED5, "B") == ConfusionMatrix(1, 1, 1, 2)
    assert confusion_per_theme(GOLD5, PRED5, "X") == ConfusionMatrix(0, 1, 1, 3)


def test_confusion_requires_matching_ids():
    with pytest.raises(DataError, match="symmetric difference: p3"):
        confusion_per_theme(GOLD5, PRED5.drop(["p3"]), "A")
    extra = labels({**PRED5_ROWS, "p9": (0, 0, 1)})
    with pytest.raises(DataError, match="p9"):
        confusion_per_theme(GOLD5, extra, "A")


def test_confusion_matrix_validation_and_sum():
    with pytest.raises(ValueError, match="fn must be >= 0"):
        ConfusionMatrix(1, 1, -1, 1)
    total = ConfusionMatrix(1, 2, 3, 4) + ConfusionMatrix(10, 20, 30, 40)
    assert total == ConfusionMatrix(11, 22, 33, 44)
    assert total.total == 110


def test_all_confusions_covers_alphabet():
    mats = all_confusions(GOLD5, PRED5, SMALL)
    assert tuple(mats) == ("A", "B", "X")
    assert sum(m.total for m in mats.values()) == 15


# --- metric aggregation -----------------------------------------------------------


def test_f1_score_rules():
    assert f1_score(0.0, 0.0) == 0.0
    assert f1_score(1.0, 1.0) == 1.0
    assert f1_score(0.5, 1.0) == pytest.approx(2 / 3)
    assert f1_score(0.3, 0.7) == f1_score(0.7, 0.3)


def test_per_theme_metrics_hand_values():
    a = per_theme_metrics(ConfusionMatrix(2, 0, 1, 2))
    assert a.precision == 1.0
    assert a.recall == pytest.approx(2 / 3)
    assert a.f1 == pytest.approx(0.8)
    assert a.accuracy == pytest.approx(4 / 5)
    assert a.aggregation == "per-theme" and a.n_decisions == 5


def test_micro_metrics_hand_values():
    micro = metrics(all_confusions(GOLD5, PRED5, SMALL), "micro")
    assert micro.precision == pytest.approx(3 / 5)
    assert micro.recall == pytest.approx(3 / 6)
    assert micro.f1 == pytest.approx(2 * 0.6 * 0.5 / 1.1)
    assert micro.accuracy == pytest.approx(10 / 15)
    assert micro.n_decisions == 15


def test_macro_metrics_hand_values():
    macro = metrics(all_confusions(GOLD5, PRED5, SMALL), "macro")
    assert macro.precision == pytest.approx((1.0 + 0.5 + 0.0) / 3)
    assert macro.recall == pytest.approx((2 / 3 + 0.5 + 0.0) / 3)
    assert macro.f1 == pytest.approx((0.8 + 0.5 + 0.0) / 3)
    # accuracy stays micro over all decisions even under macro aggregation
    assert macro.accuracy == pytest.approx(10 / 15)


def test_metrics_input_validation():
    with pytest.raises(ConfigError, match="unknown aggregation"):
        metrics(ConfusionMatrix(1, 1, 1, 1), "pooled")
    with pytest.raises(ConfigError, match="at least one confusion matrix"):
        metrics({}, "micro")
    # per-theme scores come one matrix at a time from per_theme_metrics, never pooled
    with pytest.raises(ConfigError, match="^unknown aggregation 'per-theme'; known: micro, macro$"):
        metrics(all_confusions(GOLD5, PRED5, SMALL), "per-theme")


def test_metric_set_validation():
    with pytest.raises(ValueError, match="unknown aggregation"):
        MetricSet(0.5, 0.5, 0.5, 0.5, "median", 10)
    with pytest.raises(ValueError, match="precision must be in"):
        MetricSet(1.5, 0.5, 0.5, 0.5, "micro", 10)
    good = MetricSet(0.5, 0.4, 0.444, 0.6, "micro", 10)
    assert good.value("recall") == 0.4
    with pytest.raises(ConfigError, match="unknown metric 'auc'"):
        good.value("auc")


def test_zero_denominator_flags():
    mats = {
        "A": ConfusionMatrix(1, 1, 1, 1),
        "B": ConfusionMatrix(0, 0, 5, 5),  # never predicted positive
        "C": ConfusionMatrix(0, 3, 0, 7),  # never gold positive
    }
    assert zero_denominator_themes(mats) == ("B", "C")
    assert per_theme_metrics(mats["B"]).precision == 0.0
    assert per_theme_metrics(mats["C"]).recall == 0.0
    assert per_theme_metrics(mats["B"]).f1 == 0.0


# --- Wald intervals -------------------------------------------------------------------


def test_wald_fixture_values():
    iv = wald_ci(10 / 15, 15)
    assert iv.lower == pytest.approx(0.4281079324871499)
    assert iv.upper == pytest.approx(0.9052254008461833)
    assert iv.method == "wald" and iv.n == 15


def test_wald_large_n_example():
    iv = wald_ci(0.909, 3718)
    assert iv.lower == pytest.approx(0.8997552503859862)
    assert iv.upper == pytest.approx(0.9182447496140138)


def test_wald_clipping_and_degenerate():
    assert wald_ci(0.99, 10).upper == 1.0
    assert wald_ci(0.01, 10).lower == 0.0
    exact = wald_ci(1.0, 50)
    assert exact.lower == exact.upper == 1.0


def test_wald_width_shrinks_with_n():
    widths = [wald_ci(0.8, n).upper - wald_ci(0.8, n).lower for n in (10, 100, 1000)]
    assert widths[0] > widths[1] > widths[2]


def test_wald_other_confidence_uses_normal_quantile():
    iv = wald_ci(0.5, 100, confidence=0.90)
    half = 1.6448536269514722 * (0.25 / 100) ** 0.5
    assert iv.upper - iv.point == pytest.approx(half)


@pytest.mark.parametrize(
    "confidence,z",
    [(0.90, 1.6448536269514722), (0.99, 2.5758293035489004), (0.80, 1.2815515655446004)],
)
def test_wald_quantile_matches_published_z(confidence, z):
    iv = wald_ci(0.5, 100, confidence=confidence)
    assert (iv.upper - iv.lower) / 2 / math.sqrt(0.25 / 100) == pytest.approx(z, rel=1e-12)
    assert iv.confidence == confidence


def test_wald_95_uses_pinned_z_bit_for_bit():
    iv = wald_ci(0.5, 100)
    half = Z_95 * math.sqrt(0.5 * (1.0 - 0.5) / 100)
    assert (iv.lower, iv.upper) == (0.5 - half, 0.5 + half)
    assert statistics.NormalDist().inv_cdf(0.975) != Z_95


def test_wald_validation():
    with pytest.raises(ConfigError, match="n >= 1"):
        wald_ci(0.5, 0)
    with pytest.raises(ConfigError, match="p in"):
        wald_ci(1.2, 10)


@pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.2, -0.5, float("nan")])
def test_intervals_refuse_a_confidence_outside_zero_one(confidence):
    named = re.escape(f"confidence in (0, 1), got {confidence}")
    with pytest.raises(ConfigError, match=named):
        wald_ci(0.5, 100, confidence=confidence)
    with pytest.raises(ConfigError, match=named):
        bootstrap_ci(GOLD5, PRED5, "f1", SMALL, resamples=200, confidence=confidence)


def test_interval_must_bracket_point():
    with pytest.raises(ValueError, match="bracket"):
        IntervalEstimate(point=0.9, lower=0.91, upper=0.95, method="wald")


# --- bootstrap intervals -----------------------------------------------------------------


def bootstrap_oracle(gold, pred, metric, resamples, seed):
    """Independent percentile bootstrap over post-level resampling of post
    id -> label row mappings."""
    ids = sorted(gold)
    counts = []
    for pid in ids:
        tp = fp = fn = tn = 0
        for g, p in zip(gold[pid], pred[pid]):
            tp += g & p
            fp += (1 - g) & p
            fn += g & (1 - p)
            tn += (1 - g) & (1 - p)
        counts.append((tp, fp, fn, tn))
    arr = np.array(counts, dtype=np.int64)

    def value(rows):
        tp, fp, fn, tn = rows.sum(axis=0)
        if metric == "accuracy":
            return (tp + tn) / (tp + fp + fn + tn)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if metric == "precision":
            return precision
        if metric == "recall":
            return recall
        return f1_score(precision, recall)

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(ids), size=(resamples, len(ids)))
    values = np.array([value(arr[row]) for row in idx])
    lower, upper = np.percentile(values, [2.5, 97.5])
    point = value(arr)
    return min(lower, point), max(upper, point), point


@pytest.mark.parametrize("metric", METRIC_NAMES)
def test_bootstrap_matches_independent_oracle(metric):
    iv = bootstrap_ci(GOLD5, PRED5, metric, SMALL, resamples=400, seed=11)
    lower, upper, point = bootstrap_oracle(GOLD5_ROWS, PRED5_ROWS, metric, 400, 11)
    assert iv.point == pytest.approx(point)
    assert iv.lower == pytest.approx(lower)
    assert iv.upper == pytest.approx(upper)
    assert iv.method == "bootstrap" and iv.n == 400 and iv.seed == 11


def test_bootstrap_is_deterministic():
    a = bootstrap_ci(GOLD5, PRED5, "accuracy", SMALL, resamples=200, seed=3)
    b = bootstrap_ci(GOLD5, PRED5, "accuracy", SMALL, resamples=200, seed=3)
    assert (a.lower, a.upper) == (b.lower, b.upper)


def test_bootstrap_perfect_predictions_degenerate():
    iv = bootstrap_ci(GOLD5, GOLD5, "accuracy", SMALL, resamples=200, seed=0)
    assert iv.lower == iv.point == iv.upper == 1.0


def test_bootstrap_always_brackets_point():
    for seed in range(8):
        iv = bootstrap_ci(GOLD5, PRED5, "f1", SMALL, resamples=150, seed=seed)
        assert iv.lower <= iv.point <= iv.upper


def test_bootstrap_validation():
    with pytest.raises(ConfigError, match=">= 100 resamples"):
        bootstrap_ci(GOLD5, PRED5, "f1", SMALL, resamples=50)
    with pytest.raises(ConfigError, match="unknown metric"):
        bootstrap_ci(GOLD5, PRED5, "auc", SMALL, resamples=200)
    with pytest.raises(DataError, match="at least one post"):
        bootstrap_ci(NONE, NONE, "f1", SMALL, resamples=200)


# --- the label-matrix core ------------------------------------------------------------------


def random_labels(n, codes, seed, flip=0.1):
    """Seeded gold and predicted post id -> label row mappings, ids in
    shuffled order."""
    rng = np.random.default_rng(seed)
    gold_bits = rng.random((n, len(codes))) < 0.3
    pred_bits = gold_bits ^ (rng.random((n, len(codes))) < flip)
    ids = [f"r{i:05d}" for i in rng.permutation(n)]
    gold = {pid: tuple(map(int, row)) for pid, row in zip(ids, gold_bits)}
    pred = {pid: tuple(map(int, row)) for pid, row in zip(ids, pred_bits)}
    return gold, pred


def test_matrix_counts_match_a_loop_over_posts():
    gold_rows, pred_rows = random_labels(300, SMALL.alphabet, seed=5)
    gold, pred = labels(gold_rows), labels(pred_rows)
    mats = all_confusions(gold, pred, SMALL)
    for j, code in enumerate(SMALL.alphabet):
        pairs = [(gold_rows[pid][j], pred_rows[pid][j]) for pid in gold_rows]
        expected = ConfusionMatrix(*(pairs.count(pair) for pair in ((1, 1), (0, 1), (1, 0), (0, 0))))
        assert mats[code] == confusion_per_theme(gold, pred, code) == expected
        assert theme_distribution(pred, SMALL).counts[code] == sum(p for _, p in pairs)
        assert theme_distribution(gold, SMALL).counts[code] == sum(g for g, _ in pairs)


REVERSED5 = LabelMatrix(ids=PRED5.ids, codes=("X", "B", "A"), values=PRED5.values[:, ::-1])
OTHER_BOOK5 = LabelMatrix.from_rows(PRED5.ids, PRED5.values[:, :2], ("A", "B"))  # a two-code book's columns
SCORERS = {
    "evaluate_predictions": lambda gold, pred: evaluate_predictions(gold, pred, SMALL),
    "theme_distribution": lambda gold, pred: (theme_distribution(pred, SMALL), theme_distribution(gold, SMALL)),
    "apply_failure_policy": lambda gold, pred: apply_failure_policy(gold, pred, [], "score-all-zero", SMALL),
}


@pytest.mark.parametrize("scorer", SCORERS)
@pytest.mark.parametrize("side", ["gold", "pred"])
@pytest.mark.parametrize(
    "other, columns",
    [pytest.param(REVERSED5, "X, B, A", id="reversed"), pytest.param(OTHER_BOOK5, "A, B", id="other-book")],
)
def test_a_matrix_over_other_columns_is_refused(scorer, side, other, columns):
    gold, pred = (other, PRED5) if side == "gold" else (GOLD5, other)
    message = f"label matrix columns ({columns}) are not the codebook's (A, B, X)"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        SCORERS[scorer](gold, pred)


@pytest.mark.parametrize("rows", [1, 7, 64])  # one row, an odd size, a size that does not divide 210
def test_chunked_bootstrap_draws_equal_the_one_shot_draw(rows):
    n, resamples, seed = 37, 210, 12
    one_shot = np.random.default_rng(seed).integers(0, n, size=(resamples, n))
    rng = np.random.default_rng(seed)
    chunked = [rng.integers(0, n, size=(min(rows, resamples - s), n)) for s in range(0, resamples, rows)]
    assert np.array_equal(np.concatenate(chunked), one_shot)
    counts = np.random.default_rng(1).integers(0, 4, size=(3, n)).astype(np.uint8)
    sums = _resample_sums(counts, resamples, seed, budget=rows * n + n - 1)
    assert np.array_equal(sums, counts.astype(np.int64)[:, one_shot].sum(axis=2).T)


def three_gather_sums(counts, resamples, seed, budget):
    """_resample_sums with one gather per count row, the oracle of its packed form."""
    n = counts.shape[1]
    rng = np.random.default_rng(seed)
    sums = np.empty((resamples, 3), dtype=np.int64)
    step = max(1, budget // n)
    for start in range(0, resamples, step):
        idx = rng.integers(0, n, size=(min(step, resamples - start), n))
        for j, column in enumerate(counts):
            sums[start : start + len(idx), j] = column[idx].sum(axis=1, dtype=np.int64)
    return sums


@pytest.mark.parametrize(
    "n,top,dtype,budget",
    [
        (500, 13, np.uint8, 2**18),  # thirteen codes: one block
        (37, 3, np.uint8, 64 * 37),  # chunks that do not divide the resamples
        (40, 0, np.uint8, 2**18),  # no count at all
        (100, 60_000, np.uint16, 2**18),  # counts × draws >= 2**21: the draws are summed in blocks
        (7, 2**21 - 1, np.int64, 50),  # the largest count, one draw per block
    ],
)
def test_packed_resample_sums_equal_three_gathers(n, top, dtype, budget):
    counts = np.random.default_rng(n).integers(0, top, size=(3, n), endpoint=True).astype(dtype)
    counts[:, 0] = top  # the largest count is there, so it sets the field width
    sums = _resample_sums(counts, 230, 9, budget=budget)
    assert np.array_equal(sums, three_gather_sums(counts, 230, 9, budget))


def test_report_bootstrap_intervals_equal_separate_bootstrap_calls():
    gold, pred = map(labels, random_labels(400, SMALL.alphabet, seed=8))
    report = evaluate_predictions(
        gold, pred, SMALL, bootstrap_metrics=METRIC_NAMES, bootstrap_resamples=300, bootstrap_seed=6
    )
    assert report.bootstrap_intervals == {
        m: bootstrap_ci(gold, pred, m, SMALL, resamples=300, seed=6) for m in METRIC_NAMES
    }


def seeded_report_inputs(cb, n=2000):
    """~2k posts of seeded gold and predictions over the default codebook:
    5% of bits flipped, code L never predicted, ten posts failed."""
    rng = np.random.default_rng(2024)
    codes = cb.alphabet
    gold_bits = rng.random((n, len(codes))) < 0.2
    pred_bits = gold_bits ^ (rng.random((n, len(codes))) < 0.05)
    pred_bits[:, codes.index("L")] = False
    ids = [f"s{i:05d}" for i in range(n)]
    failed = ids[::200]
    classified = np.ones(n, dtype=bool)
    classified[::200] = False
    gold = LabelMatrix.from_rows(ids, gold_bits, codes)
    preds = LabelMatrix.from_rows([pid for pid, ok in zip(ids, classified) if ok], pred_bits[classified], codes)
    return gold, preds, failed


def test_report_bytes_are_frozen(tmp_path, cb):
    """sha256 of the files the per-code loop implementation wrote for this
    input; the run-stats variants were pinned by the key-by-key serialiser
    that preceded the dataclass-derived one."""
    gold, preds, failed = seeded_report_inputs(cb)

    def seeded(policy="exclude-and-report"):
        return evaluate_predictions(
            gold, preds, cb, failed_ids=failed, label="seeded2k", failure_policy=policy,
            bootstrap_metrics=METRIC_NAMES, bootstrap_resamples=500, bootstrap_seed=9,
        )

    def digests(report, out_dir):
        report.write(out_dir)
        return {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("report.json", "metrics.csv")
        }

    report = seeded()
    assert digests(report, tmp_path / "plain") == {
        "report.json": "34ad7ca00965f1dd801b70d81cd2374bb57bd2f4354a8253cd79d262d2aa66fa",
        "metrics.csv": "46892e5a983ead3b14274789ef89f81bb7ff30195f1c41cddc2fe0b73c7b6fc7",
    }
    # one micro set per failure policy stands in for three repeat runs
    runs = [report.micro] + [seeded(policy).micro for policy in FAILURE_POLICIES[1:]]
    report.stats = run_stats(runs)
    # that serialiser's r3 report.json with its ranking key removed, and the plain metrics.csv:
    # rankings are written only to ranking.json and ranking.csv
    assert digests(report, tmp_path / "r3") == {
        "report.json": "836600ae8b3f5e4a602d55d86a981da178583da7c52330eca8c8094600f1b0fb",
        "metrics.csv": "46892e5a983ead3b14274789ef89f81bb7ff30195f1c41cddc2fe0b73c7b6fc7",
    }
    report.stats = run_stats(runs[:1])
    assert digests(report, tmp_path / "r1") == {
        "report.json": "681bb3dbb428ca6ee50e392b21a595e8a4e51ccfd65743a4fac17da3f8ad85e2",
        "metrics.csv": "46892e5a983ead3b14274789ef89f81bb7ff30195f1c41cddc2fe0b73c7b6fc7",
    }


def test_bootstrap_memory_does_not_grow_with_resamples():
    rng = np.random.default_rng(3)
    shapes = np.array([[int(b) for b in f"{i:03b}"] for i in range(8)])
    ids = [f"q{i:06d}" for i in range(50_000)]
    gold = LabelMatrix.from_rows(ids, shapes[rng.integers(0, 8, 50_000)], SMALL.alphabet)
    pred = LabelMatrix.from_rows(ids, shapes[rng.integers(0, 8, 50_000)], SMALL.alphabet)
    tracemalloc.start()
    try:
        bootstrap_ci(gold, pred, "f1", SMALL, resamples=200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20  # one (200 × 50 000) index draw alone is 80 MB


# --- repeat-run statistics ------------------------------------------------------------------


def mset(p, r, f, a) -> MetricSet:
    return MetricSet(p, r, f, a, "micro", 100)


def test_run_stats_hand_values():
    runs = [
        mset(0.6, 0.5, 0.545, 0.9),
        mset(0.7, 0.6, 0.645, 0.8),
        mset(0.8, 0.7, 0.745, 0.7),
    ]
    stats = run_stats(runs)
    assert stats.r == 3
    assert stats.mean["precision"] == pytest.approx(0.7)
    assert stats.mean["accuracy"] == pytest.approx(0.8)
    # sample SD with divisor R-1: values 0.1 apart give exactly 0.1
    assert stats.sd["precision"] == pytest.approx(0.1)
    assert stats.sd["accuracy"] == pytest.approx(0.1)


def test_run_stats_single_run_has_no_sd():
    stats = run_stats([mset(0.5, 0.5, 0.5, 0.5)])
    assert stats.r == 1
    assert stats.sd is None
    assert stats.mean["f1"] == 0.5


def test_run_stats_validation():
    with pytest.raises(ConfigError, match="at least one run"):
        run_stats([])
    mixed = [mset(0.5, 0.5, 0.5, 0.5), MetricSet(0.5, 0.5, 0.5, 0.5, "macro", 100)]
    with pytest.raises(ConfigError, match="mixed aggregation"):
        run_stats(mixed)


# --- average-rank leaderboard ------------------------------------------------------------------


def test_avg_rank_two_rows():
    rows = [
        ("second", mset(0.702, 0.642, 0.671, 0.895)),
        ("first", mset(0.760, 0.663, 0.708, 0.909)),
    ]
    ranking = avg_rank(rows)
    assert [row.label for row in ranking] == ["first", "second"]
    assert ranking.rank_of("first") == 1.0
    assert ranking.rank_of("second") == 2.0
    assert ranking.rows[0].ranks == {m: 1.0 for m in METRIC_NAMES}


def test_avg_rank_fractional_ties():
    rows = [
        ("a", mset(0.5, 0.9, 0.64, 0.9)),
        ("b", mset(0.5, 0.8, 0.61, 0.8)),
        ("c", mset(0.4, 0.7, 0.51, 0.7)),
    ]
    ranking = avg_rank(rows)
    by_label = {row.label: row for row in ranking}
    assert by_label["a"].ranks["precision"] == 1.5
    assert by_label["b"].ranks["precision"] == 1.5
    assert by_label["c"].ranks["precision"] == 3.0
    assert by_label["a"].avg_rank == pytest.approx((1.5 + 1 + 1 + 1) / 4)
    assert by_label["b"].avg_rank == pytest.approx((1.5 + 2 + 2 + 2) / 4)


def test_avg_rank_identical_rows_tie_on_label():
    rows = [("zeta", mset(0.5, 0.5, 0.5, 0.5)), ("alpha", mset(0.5, 0.5, 0.5, 0.5))]
    ranking = avg_rank(rows)
    assert [row.label for row in ranking] == ["alpha", "zeta"]
    assert all(row.avg_rank == 1.5 for row in ranking)


def test_avg_rank_input_order_invariance():
    rows = [
        ("m1", mset(0.9, 0.8, 0.84, 0.95)),
        ("m2", mset(0.7, 0.9, 0.78, 0.90)),
        ("m3", mset(0.8, 0.7, 0.74, 0.85)),
        ("m4", mset(0.6, 0.6, 0.60, 0.80)),
    ]
    baseline = avg_rank(rows)
    rng = np.random.default_rng(2)
    for _ in range(6):
        perm = rng.permutation(len(rows))
        shuffled = [rows[int(i)] for i in perm]
        again = avg_rank(shuffled)
        assert [r.label for r in again] == [r.label for r in baseline]
        assert [r.avg_rank for r in again] == [r.avg_rank for r in baseline]


# Descending metric values and their average ranks, worked by hand. Each case
# fails under min, max, ordinal (first-seen) and dense ranking.
HAND_TIES = {
    "three-way tie in the middle": ([0.9, 0.8, 0.8, 0.8, 0.1], [1, 3, 3, 3, 5]),
    "two separate tie groups": ([0.3, 0.7, 0.3, 0.5, 0.7, 0.3], [5, 1.5, 5, 3, 1.5, 5]),
    "all values equal": ([0.4, 0.4, 0.4, 0.4], [2.5, 2.5, 2.5, 2.5]),
    "one distinct value at the bottom": ([0.6, 0.2, 0.6, 0.6], [2, 4, 2, 2]),
}


@pytest.mark.parametrize("case", HAND_TIES)
def test_avg_rank_hand_worked_ties(case):
    values, want = HAND_TIES[case]
    ranking = avg_rank([(f"r{i}", mset(v, v, v, v)) for i, v in enumerate(values)])
    for i, rank in enumerate(want):
        row = next(row for row in ranking if row.label == f"r{i}")
        assert row.ranks == {m: rank for m in METRIC_NAMES}
        assert row.avg_rank == rank


def reference_mid_ranks(values):
    return [sum(w < v for w in values) + (sum(w == v for w in values) + 1) / 2 for v in values]


def test_mid_ranks_match_a_plain_python_reference():
    rng = np.random.default_rng(7)
    for _ in range(3000):
        values = rng.integers(0, rng.integers(1, 8), size=rng.integers(1, 30)) / rng.integers(1, 9)
        assert _mid_ranks(values).tolist() == reference_mid_ranks(values.tolist())


def test_avg_rank_validation():
    with pytest.raises(ConfigError, match="at least two rows"):
        avg_rank([("only", mset(0.5, 0.5, 0.5, 0.5))])
    mixed = [
        ("a", mset(0.5, 0.5, 0.5, 0.5)),
        ("b", MetricSet(0.5, 0.5, 0.5, 0.5, "macro", 10)),
    ]
    with pytest.raises(ConfigError, match="mixed aggregation"):
        avg_rank(mixed)
    with pytest.raises(KeyError):
        avg_rank([("a", mset(0.5, 0.5, 0.5, 0.5)), ("b", mset(0.4, 0.4, 0.4, 0.4))]).rank_of("zz")


def test_avg_rank_refuses_a_label_given_twice():
    rows = [("a", mset(0.5, 0.5, 0.5, 0.5)), ("b", mset(0.4, 0.4, 0.4, 0.4)), ("a", mset(0.3, 0.3, 0.3, 0.3))]
    with pytest.raises(ConfigError, match="label 'a' on more than one row"):
        avg_rank(rows)


# --- distributions -----------------------------------------------------------------------------


def test_theme_distribution_counts():
    dist = theme_distribution(PRED5, SMALL)
    assert dist.n == 5
    assert dist.counts == {"A": 2, "B": 2, "X": 1}
    assert dist.percentage("A") == pytest.approx(40.0)


def test_theme_distribution_percentage_formatting():
    dist = ThemeDistribution(counts={"A": 82}, n=286)
    assert dist.percentage("A") == pytest.approx(28.671328671328673)
    assert f"{dist.percentage('A'):.1f}" == "28.7"


def test_theme_distribution_validation():
    with pytest.raises(DataError, match="at least one classified post"):
        theme_distribution(NONE, SMALL)
    with pytest.raises(ValueError, match="outside"):
        ThemeDistribution(counts={"A": 6}, n=5)
    with pytest.raises(ValueError, match="denominator"):
        ThemeDistribution(counts={}, n=0)


def test_distribution_delta_hand_values():
    model = ThemeDistribution(counts={"A": 27, "B": 33}, n=200)  # 13.5%, 16.5%
    gold = ThemeDistribution(counts={"A": 89, "B": 89}, n=500)  # 17.8%, 17.8%
    delta = distribution_delta(model, gold)
    assert delta.deltas["A"] == pytest.approx(-4.3)
    assert delta.deltas["B"] == pytest.approx(-1.3)
    assert delta.max_abs == pytest.approx(4.3)


def test_distribution_delta_code_mismatch():
    model = ThemeDistribution(counts={"A": 1}, n=10)
    gold = ThemeDistribution(counts={"A": 1, "B": 2}, n=10)
    with pytest.raises(DataError, match="different codes: B"):
        distribution_delta(model, gold)


# --- failure policies ---------------------------------------------------------------------------


def test_exclude_and_report():
    preds = PRED5.drop(["p2", "p4"])
    gold, scored, excluded = apply_failure_policy(GOLD5, preds, ["p4", "p2"], "exclude-and-report", SMALL)
    assert excluded == ("p2", "p4")
    assert gold.ids == scored.ids == ("p1", "p3", "p5")
    assert scored.values.tolist() == [list(PRED5_ROWS[pid]) for pid in ("p1", "p3", "p5")]


def test_score_all_zero():
    preds = PRED5.drop(["p2"])
    gold, scored, excluded = apply_failure_policy(GOLD5, preds, ["p2"], "score-all-zero", SMALL)
    assert excluded == ()
    assert scored.take(["p2"]).values.tolist() == [[0, 0, 0]]
    assert gold.ids == scored.ids == GOLD5.ids


def test_score_as_wrong_is_gold_complement():
    preds = PRED5.drop(["p2"])
    _, scored, _ = apply_failure_policy(GOLD5, preds, ["p2"], "score-as-wrong", SMALL)
    assert scored.take(["p2"]).values.tolist() == [[1 - v for v in GOLD5_ROWS["p2"]]]
    matrix = confusion_per_theme(GOLD5.take(["p2"]), scored.take(["p2"]), "A")
    assert matrix.tp == 0 and matrix.tn == 0  # every decision wrong


def test_failure_policy_validation():
    with pytest.raises(ConfigError, match="unknown failure_policy"):
        apply_failure_policy(GOLD5, PRED5, [], "drop-silently", SMALL)
    with pytest.raises(DataError, match="missing from gold set: p9"):
        apply_failure_policy(GOLD5, NONE, ["p9"], "exclude-and-report", SMALL)
    with pytest.raises(DataError, match="also present in predictions: p1"):
        apply_failure_policy(GOLD5, PRED5, ["p1"], "exclude-and-report", SMALL)


# --- report assembly ------------------------------------------------------------------------------


def small_report(**kw):
    preds = kw.pop("preds", PRED5)
    return evaluate_predictions(GOLD5, preds, SMALL, label="hand5", **kw)


def test_evaluate_predictions_consistency():
    report = small_report()
    assert report.label == "hand5"
    assert report.n_posts == 5 and report.n_failures == 0
    assert report.micro == metrics(all_confusions(GOLD5, PRED5, SMALL), "micro")
    assert report.macro.aggregation == "macro"
    assert report.accuracy_interval.point == pytest.approx(report.micro.accuracy)
    assert report.accuracy_interval.n == report.micro.n_decisions
    assert report.delta.deltas.keys() == report.distribution.counts.keys()
    gold_dist = theme_distribution(GOLD5, SMALL)
    assert report.gold_distribution.counts == gold_dist.counts


def test_evaluate_predictions_failed_posts():
    preds = PRED5.drop(["p4"])
    excluded = small_report(preds=preds, failed_ids=["p4"])
    assert excluded.n_posts == 4 and excluded.n_failures == 1
    wrong = small_report(
        preds=preds, failed_ids=["p4"], failure_policy="score-as-wrong"
    )
    assert wrong.n_posts == 5
    assert wrong.micro.accuracy < excluded.micro.accuracy
    with pytest.raises(DataError, match="no posts left"):
        evaluate_predictions(GOLD5, NONE, SMALL, failed_ids=GOLD5.ids)


def test_evaluate_predictions_bootstrap_attachments():
    report = small_report(
        bootstrap_metrics=("f1", "accuracy"), bootstrap_resamples=150, bootstrap_seed=4
    )
    assert set(report.bootstrap_intervals) == {"f1", "accuracy"}
    f1_iv = report.bootstrap_intervals["f1"]
    assert f1_iv.method == "bootstrap" and f1_iv.n == 150 and f1_iv.seed == 4
    assert f1_iv.point == pytest.approx(report.micro.f1)


def test_report_serialization_shape():
    payload = small_report().to_dict()
    assert payload["per_theme"]["A"]["tp"] == 2
    assert payload["micro"]["n_decisions"] == 15
    assert payload["accuracy_interval"]["method"] == "wald"
    assert payload["zero_denominator_themes"] == []
    assert payload["distribution"]["counts"] == {"A": 2, "B": 2, "X": 1}
    assert payload["distribution_delta"]["max_abs"] == pytest.approx(
        max(abs(d) for d in small_report().delta.deltas.values())
    )


def test_report_write_is_byte_stable(tmp_path):
    first_dir, second_dir = tmp_path / "one", tmp_path / "two"
    small_report().write(first_dir)
    small_report().write(second_dir)
    assert (first_dir / "report.json").read_bytes() == (second_dir / "report.json").read_bytes()
    assert (first_dir / "metrics.csv").read_bytes() == (second_dir / "metrics.csv").read_bytes()
    header = (first_dir / "metrics.csv").read_text().splitlines()[0]
    assert header == (
        "scope,label,tp,fp,fn,tn,precision,recall,f1,accuracy,avg_rank,count,percentage,delta_pp"
    )
    payload = json.loads((first_dir / "report.json").read_text())
    assert payload["label"] == "hand5"


def test_report_flat_rows_scopes():
    rows = small_report().flat_rows()
    scopes = {row["scope"] for row in rows}
    assert scopes == {"per-theme", "micro", "macro", "distribution"}
    per_theme = [r for r in rows if r["scope"] == "per-theme"]
    assert [r["label"] for r in per_theme] == ["A", "B", "X"]
    assert per_theme[0]["tp"] == 2
    dist = [r for r in rows if r["scope"] == "distribution"]
    assert dist[0]["percentage"] == "40.0"
    assert dist[0]["delta_pp"] == "-20.0"  # model 40% vs gold 60% on code A


def test_fixture_scale_evaluation(fixtures_dir, corpus50, cb, clean_corpus_path):
    """End-to-end arithmetic on the 18-post synthetic set."""
    from themecoder.backends import mock_rule_vector
    from themecoder.codebook import load_gold
    from themecoder.corpus import load_posts

    clean = load_posts(clean_corpus_path)
    gold = load_gold(fixtures_dir / "gold_clean.csv", clean, cb)
    preds = LabelMatrix.from_rows(
        [post.id for post in clean], [list(mock_rule_vector(post.body, cb.alphabet).values()) for post in clean],
        cb.alphabet,
    )
    report = evaluate_predictions(gold, preds, cb, label="fixture")
    assert report.n_posts == 18
    assert report.micro.n_decisions == 18 * 13
    # the gold fixture is the mock vectors with seeded label flips, so
    # agreement is high but imperfect
    assert 0.85 <= report.micro.accuracy < 1.0
    pooled = ConfusionMatrix(0, 0, 0, 0)
    for matrix in report.per_theme.values():
        pooled = pooled + matrix
    assert pooled.total == 234
    assert report.micro.accuracy == pytest.approx((pooled.tp + pooled.tn) / 234)
