"""Theme prevalence walkthrough: counts, percentages, and model-vs-gold drift.

A classified corpus answers "how common is each theme?" directly: count
the posts marked positive per code. Percentages use the number of
classified posts as the denominator, so a multi-theme post contributes
to several codes and the column does not sum to 100.
"""

from pathlib import Path

from themecoder.backends import mock_rule_vector
from themecoder.codebook import LabelMatrix, load_codebook, load_gold
from themecoder.corpus import dedup_clean, keyword_filter, load_keywords, load_posts
from themecoder.evaluation import distribution_delta, theme_distribution

FIXTURES = Path(__file__).resolve().parents[1] / "tests" / "fixtures"


def main() -> None:
    cb = load_codebook()
    raw = load_posts(FIXTURES / "posts_50.jsonl")
    corpus = dedup_clean(keyword_filter(raw, load_keywords(), "xylazine AND wound")).corpus

    # every scorer takes labels as a post x code matrix, columns in codebook order
    rows = [list(mock_rule_vector(p.body, cb.alphabet).values()) for p in corpus]
    preds = LabelMatrix.from_rows([p.id for p in corpus], rows, cb.alphabet)
    dist = theme_distribution(preds, cb)
    print(f"model-assigned theme prevalence over {dist.n} posts:")
    for code in cb.alphabet:
        count = dist.counts[code]
        print(f"{code}: {count} ({dist.percentage(code):.1f}%)")

    top = sorted(cb.alphabet, key=lambda c: (-dist.counts[c], c))[:3]
    print("\ntop themes: " + ", ".join(f"{c} ({dist.percentage(c):.1f}%)" for c in top))

    # the same measurement over the expert labels, and the drift between them
    gold = load_gold(FIXTURES / "gold_clean.csv", corpus, cb)
    gold_dist = theme_distribution(gold, cb)
    delta = distribution_delta(dist, gold_dist)
    print("\nmodel minus gold, percentage points:")
    for code in cb.alphabet:
        d = delta.deltas[code]
        marker = " <-" if abs(d) == delta.max_abs and delta.max_abs > 0 else ""
        print(f"{code}: {d:+.1f}{marker}")
    print(f"\nlargest drift: {delta.max_abs:.1f} points")


if __name__ == "__main__":
    main()
