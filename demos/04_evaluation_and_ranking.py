"""Scoring walkthrough: confusion counts, aggregation, intervals, leaderboards.

Scores the mock-rules backend against the expert labels shipped with the
test fixtures, then ranks a reference table of fifteen model runs. The
same math backs `themecoder evaluate` and `themecoder rank`.
"""

from pathlib import Path

from themecoder.backends import mock_rule_vector
from themecoder.codebook import LabelMatrix, load_codebook, load_gold
from themecoder.corpus import dedup_clean, keyword_filter, load_keywords, load_posts
from themecoder.evaluation import (
    all_confusions,
    bootstrap_ci,
    metrics,
    per_theme_metrics,
    wald_ci,
)
from themecoder.pipeline import cmd_rank

FIXTURES = Path(__file__).resolve().parents[1] / "tests" / "fixtures"


def main() -> None:
    cb = load_codebook()
    raw = load_posts(FIXTURES / "posts_50.jsonl")
    corpus = dedup_clean(keyword_filter(raw, load_keywords(), "xylazine AND wound")).corpus
    gold = load_gold(FIXTURES / "gold_clean.csv", corpus, cb)
    print(f"scoring {len(corpus)} posts against {len(gold)} gold-labeled posts")

    # every scorer takes labels as a post x code matrix, columns in codebook order
    rows = [list(mock_rule_vector(p.body, cb.alphabet).values()) for p in corpus]
    preds = LabelMatrix.from_rows([p.id for p in corpus], rows, cb.alphabet)

    # one confusion matrix per code, then two aggregations over them
    matrices = all_confusions(gold, preds, cb)
    micro = metrics(matrices, "micro")
    macro = metrics(matrices, "macro")
    print(f"\nmicro: P={micro.precision:.3f} R={micro.recall:.3f} "
          f"F1={micro.f1:.3f} Acc={micro.accuracy:.3f} over {micro.n_decisions} decisions")
    print(f"macro: P={macro.precision:.3f} R={macro.recall:.3f} "
          f"F1={macro.f1:.3f} Acc={macro.accuracy:.3f}")

    print("\nper-theme (codes with any gold positives):")
    for code, m in matrices.items():
        if m.tp + m.fn == 0:
            continue
        pm = per_theme_metrics(m)
        print(f"  {code}: tp={m.tp} fp={m.fp} fn={m.fn} tn={m.tn} "
              f"P={pm.precision:.3f} R={pm.recall:.3f} F1={pm.f1:.3f}")

    # interval estimates for the headline accuracy: closed-form and resampled
    wald = wald_ci(micro.accuracy, micro.n_decisions)
    boot = bootstrap_ci(gold, preds, "accuracy", cb, resamples=2000, seed=0)
    print(f"\naccuracy {micro.accuracy:.3f}")
    print(f"  wald 95% CI:      [{wald.lower:.3f}, {wald.upper:.3f}] (n={wald.n})")
    print(f"  bootstrap 95% CI: [{boot.lower:.3f}, {boot.upper:.3f}] "
          f"({boot.n} resamples, seed {boot.seed})")

    # leaderboard: rank on each of P/R/F1/Acc, ties share fractional ranks,
    # and the average of the four ranks orders the table
    print("\nleaderboard over a reference table of 15 runs (lower avg rank wins):")
    ranking = cmd_rank(FIXTURES / "ds1_reference_metrics.csv")
    best = ranking.rows[0]
    print(f"\nbest run: {best.label} "
          f"(F1={best.metrics.f1:.3f}, avg rank {best.avg_rank})")
    print(f"rank of DS1_0shot_gpt-4o: {ranking.rank_of('DS1_0shot_gpt-4o')}")


if __name__ == "__main__":
    main()
