"""Acceptance gate: nine checks the package must satisfy, all offline.

Checks 1-4 reproduce reference arithmetic carried in tests/fixtures
(leaderboard ranks, interval bounds, F1 values, distribution percentages).
The reference leaderboard was ranked from unrounded metrics, while the
fixture holds the published 3-decimal figures, in which some rows tie.
Check 1 therefore asserts (a) that cmd_rank on the published table matches
the reference on every row that no tie resolution has to touch, (b) that
each group of rows linked by published ties keeps its reference rank sum,
and (c) that exactly one resolution of the published ties, each value moved
by less than its rounding slack, makes avg_rank reproduce all fifteen rows:
accuracy 0.900 stays tied; accuracy 0.899, 0.876 and 0.875 and precision
0.524 follow table order; accuracy 0.877 puts 1shot_llama3 above 1shot_gemma3.
Checks 5-9 are behavioral properties over the shipped fixtures and the
mock/replay backends. Each test prints one `acceptance N: PASS/FAIL`
line before asserting, so a run with -s (or the captured output of a
failure) shows the whole gate at a glance.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import time
from pathlib import Path

import numpy as np

from conftest import FIXTURES, base_config, write_config

from themecoder.backends import BackendConfig, cache_key, mock_rule_vector
from themecoder.codebook import Codebook, LabelMatrix, ThemeDef
from themecoder.corpus import load_posts
from themecoder.errors import BackendError
from themecoder.evaluation import (
    METRIC_NAMES,
    all_confusions,
    avg_rank,
    bootstrap_ci,
    f1_score,
    metrics,
    per_theme_metrics,
    theme_distribution,
    wald_ci,
)
from themecoder.parsing import PARSE_MODES, parse_single_line
from themecoder.pipeline import cmd_classify, cmd_distribute, cmd_evaluate, cmd_ingest, cmd_rank, load_config
from themecoder.prompting import ShotPolicy, canonical_line, load_template, render_prompt

# The paper's Avg Rank per DS1 run, ranked from its unrounded metrics. The
# published 3-decimal figures in ds1_reference_metrics.csv tie where those
# metrics did not: the one tie resolution that reproduces these values keeps
# accuracy 0.900 tied, orders accuracy 0.899, 0.876 and 0.875 and precision
# 0.524 as the table lists them, and ranks 1shot_llama3 above 1shot_gemma3
# at accuracy 0.877.
REFERENCE_AVG_RANKS = {
    "DS1_2shot_deepseekV3": 1.625,
    "DS1_2shot_gpt-4o": 2.375,
    "DS1_0shot_deepseekV3": 2.75,
    "DS1_1shot_gpt-4o": 3.75,
    "DS1_0shot_gpt-4o": 5.25,
    "DS1_0shot_llama3": 7.25,
    "DS1_1shot_gemma3": 8.0,
    "DS1_2shot_gemma3": 8.0,
    "DS1_1shot_llama3": 9.0,
    "DS1_1shot_gpt-35-turbo": 10.25,
    "DS1_0shot_gpt-35-turbo": 10.75,
    "DS1_2shot_gpt-35-turbo": 11.25,
    "DS1_0shot_gemma3": 11.25,
    "DS1_2shot_llama3": 13.5,
    "DS1_1shot_deepseekV3": 15.0,
}


def check(num: int, description: str, ok: bool, detail: str = "") -> None:
    print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} - {description}")
    message = f"acceptance {num} failed: {description}"
    if detail:
        message += "\n" + detail
    assert ok, message


def load_cfg(tmp_path: Path, corpus_path: Path, name: str, **extra):
    sections = base_config(tmp_path, corpus_path, **extra)
    sections["run"]["output_dir"] = str(tmp_path / name)
    return load_config(write_config(tmp_path / f"{name}.yaml", **sections))


def rule_line(cb, body: str) -> str:
    vec = mock_rule_vector(body, cb.alphabet)
    return ", ".join(f"{code}={vec[code]}" for code in cb.alphabet)


def fingerprint_for(post, cb, bcfg: BackendConfig) -> str:
    rendered = render_prompt(post, cb, load_template(), ShotPolicy(shots=0), seed=0, include_title=False)
    return cache_key(bcfg, rendered)


# --- 1. leaderboard rank reproduction -------------------------------------------


# Half a unit in the third decimal: how far an unrounded value can lie from
# the figure it was published as.
HALF_UNIT = 0.0005


def tie_groups(rows) -> list[tuple[str, tuple[int, ...]]]:
    """(metric, row indices) for each value two or more rows share."""
    groups = []
    for name in METRIC_NAMES:
        by_value: dict[float, list[int]] = {}
        for i, (_, mset) in enumerate(rows):
            by_value.setdefault(mset.value(name), []).append(i)
        groups.extend((name, tuple(idx)) for idx in by_value.values() if len(idx) > 1)
    return groups


def linked_rows(groups) -> list[set[int]]:
    """Rows joined by ties on any metric, as disjoint sets."""
    components: list[set[int]] = []
    for _, idx in groups:
        merged = set(idx)
        for comp in [c for c in components if c & merged]:
            merged |= comp
            components.remove(comp)
        components.append(merged)
    return components


def resolve_ties(rows, groups, choice):
    """Apply one resolution: None keeps a group tied; an ordering of its rows
    lowers each later row by a step that keeps every value within HALF_UNIT."""
    values = [{name: mset.value(name) for name in METRIC_NAMES} for _, mset in rows]
    for (name, _), order in zip(groups, choice):
        if order is not None:
            for pos, i in enumerate(order):
                values[i][name] -= pos * HALF_UNIT / len(order)
    return [(label, dataclasses.replace(mset, **v)) for (label, mset), v in zip(rows, values)]


def describe_resolution(rows, groups, choice) -> str:
    parts = []
    for (name, idx), order in zip(groups, choice):
        value = rows[idx[0]][1].value(name)
        how = "tied" if order is None else " > ".join(rows[i][0] for i in order)
        parts.append(f"{name} {value:.3f}: {how}")
    return "; ".join(parts)


def test_01_reference_avg_ranks():
    started = time.perf_counter()
    ranking = cmd_rank(FIXTURES / "ds1_reference_metrics.csv")
    elapsed = time.perf_counter() - started

    rows = [(row.label, row.metrics) for row in ranking]
    labels = [label for label, _ in rows]
    assert sorted(labels) == sorted(REFERENCE_AVG_RANKS), "fixture rows differ from the reference runs"
    groups = tie_groups(rows)
    problems = []
    if elapsed >= 1.0:
        problems.append(f"cmd_rank took {elapsed:.3f}s, bound 1s")

    # (c) every resolution of the published ties, searched outside the timing
    def matches(ranked, label) -> bool:
        return abs(ranked.rank_of(label) - REFERENCE_AVG_RANKS[label]) <= 0.001

    consistent = []
    for choice in itertools.product(*([None, *itertools.permutations(idx)] for _, idx in groups)):
        resolved = avg_rank(resolve_ties(rows, groups, choice))
        if all(matches(resolved, label) for label in labels):
            consistent.append(choice)
    if len(consistent) != 1:
        problems.append(f"{len(consistent)} tie resolutions reproduce every reference value, expected 1")

    # (a) rows the recovered resolution leaves as published must match directly
    if len(consistent) == 1:
        moved = {i for order in consistent[0] if order is not None for i in order}
    else:
        moved = {i for _, idx in groups for i in idx}
    problems.extend(
        f"untouched row {label} differs from the reference"
        for i, label in enumerate(labels)
        if i not in moved and not matches(ranking, label)
    )

    # (b) mid ranks leave the rank sum of each group of linked rows unchanged
    for comp in linked_rows(groups):
        members = [labels[i] for i in sorted(comp)]
        got = sum(ranking.rank_of(label) for label in members)
        want = sum(REFERENCE_AVG_RANKS[label] for label in members)
        if abs(got - want) > 0.001:
            problems.append(f"tied rows {', '.join(members)}: rank sum {got:g}, reference {want:g}")

    if problems:
        problems.extend("consistent: " + describe_resolution(rows, groups, choice) for choice in consistent)
        problems.append("per row (label, cmd_rank, reference):")
        problems.extend(
            f"  {label}: {ranking.rank_of(label):g}, {REFERENCE_AVG_RANKS[label]:g}" for label in labels
        )
    check(
        1,
        "published table: untouched rows and tied-group rank sums match the reference within 0.001 "
        "in under 1s, and exactly one tie resolution reproduces all fifteen",
        not problems,
        detail="\n".join(problems),
    )


# --- 2. confidence interval arithmetic ------------------------------------------


def test_02_wald_interval_bounds():
    first = wald_ci(0.899, 3718)
    second = wald_ci(0.909, 3068)
    ok = (
        abs(first.lower - 0.889) <= 0.001
        and abs(first.upper - 0.909) <= 0.001
        and abs(second.lower - 0.899) <= 0.001
        and abs(second.upper - 0.919) <= 0.001
    )
    detail = (
        f"wald(0.899, 3718) = [{first.lower:.4f}, {first.upper:.4f}] vs [0.889, 0.909]; "
        f"wald(0.909, 3068) = [{second.lower:.4f}, {second.upper:.4f}] vs [0.899, 0.919]"
    )
    check(2, "Wald 95% bounds match both reference intervals within 0.001", ok, detail)


# --- 3. F1 consistency -----------------------------------------------------------


def test_03_f1_from_reference_precision_recall():
    pairs = [((0.76, 0.663), 0.708), ((0.702, 0.642), 0.671)]
    results = [(f1_score(p, r), want) for (p, r), want in pairs]
    ok = all(abs(got - want) <= 0.001 for got, want in results)
    detail = "; ".join(f"f1={got:.4f} vs {want}" for got, want in results)
    check(3, "F1 recomputed from reference precision/recall pairs within 0.001", ok, detail)


# --- 4. distribution arithmetic --------------------------------------------------


def build_distribution(cb, n: int, counts: dict[str, int]):
    values = [[int(i < counts.get(code, 0)) for code in cb.alphabet] for i in range(n)]
    return theme_distribution(LabelMatrix.from_rows([f"p{i:04d}" for i in range(n)], values, cb.alphabet), cb)


def test_04_distribution_percentages(cb):
    cases = [
        (286, {"A": 82, "B": 53, "C": 48}, {"A": "28.7", "B": "18.5", "C": "16.8"}),
        (
            686,
            {"A": 446, "B": 160, "C": 140, "D": 98},
            {"A": "65.0", "B": "23.3", "C": "20.4", "D": "14.3"},
        ),
    ]
    problems = []
    for n, counts, expected in cases:
        dist = build_distribution(cb, n, counts)
        for code, want in expected.items():
            pct = dist.percentage(code)
            if f"{pct:.1f}" != want or abs(pct - float(want)) > 0.1:
                problems.append(f"{counts[code]}/{n}: got {pct:.3f}, reference {want}")
    check(
        4,
        "printed percentages match all seven reference distribution figures within 0.1",
        not problems,
        detail="\n".join(problems),
    )


# --- 5. parser round-trip property ------------------------------------------------


def test_05_parser_round_trip_and_fuzz(cb):
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(95)
    for i in range(1000):
        values = tuple(int(v) for v in rng.integers(0, 2, size=len(cb.alphabet)))
        vector = dict(zip(cb.alphabet, values))
        line = canonical_line(vector, cb)
        for mode in PARSE_MODES:
            outcome = parse_single_line(line, cb, mode)
            if not outcome.ok or outcome.vector != vector:
                failures.append(f"round trip {i} broke in {mode} mode")

    crashes = 0
    fuzz_rng = np.random.default_rng(20555)
    for _ in range(10_000):
        length = int(fuzz_rng.integers(0, 61))
        text = bytes(fuzz_rng.integers(0, 256, size=length).tolist()).decode("latin-1")
        for mode in PARSE_MODES:
            try:
                parse_single_line(text, cb, mode)
            except Exception:  # any crash fails the property
                crashes += 1
    elapsed = time.perf_counter() - started
    ok = not failures and crashes == 0 and elapsed < 10.0
    detail = f"{len(failures)} round-trip breaks, {crashes} fuzz crashes, {elapsed:.1f}s"
    check(5, "1000 canonical round trips hold and 10000 fuzz inputs never crash", ok, detail)


# --- 6. metrics oracle equivalence ------------------------------------------------


def as_matrix(vectors: dict, cb) -> LabelMatrix:
    """Post id -> ``{code: 0|1}`` mapping as a label matrix over ``cb.alphabet``."""
    return LabelMatrix.from_rows(list(vectors), [list(v.values()) for v in vectors.values()], cb.alphabet)


def brute_force_scores(gold, pred, codes):
    per = {}
    for code in codes:
        tp = fp = fn = tn = 0
        for pid in gold:
            g, p = gold[pid][code], pred[pid][code]
            if g and p:
                tp += 1
            elif p:
                fp += 1
            elif g:
                fn += 1
            else:
                tn += 1
        per[code] = (tp, fp, fn, tn)

    def div(a, b):
        return a / b if b else 0.0

    def prf(tp, fp, fn, tn):
        p = div(tp, tp + fp)
        r = div(tp, tp + fn)
        f = div(2 * p * r, p + r)
        return p, r, f, div(tp + tn, tp + fp + fn + tn)

    totals = [sum(per[c][k] for c in codes) for k in range(4)]
    micro = prf(*totals)
    by_code = [prf(*per[c]) for c in codes]
    macro = (
        sum(x[0] for x in by_code) / len(codes),
        sum(x[1] for x in by_code) / len(codes),
        sum(x[2] for x in by_code) / len(codes),
        micro[3],  # accuracy is pooled under either aggregation
    )
    return per, micro, macro, by_code


def test_06_metrics_match_brute_force(cb):
    problems = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 11))
        gold, pred = {}, {}
        for i in range(n):
            gold[f"p{i}"] = dict(zip(cb.alphabet, (int(x) for x in rng.integers(0, 2, 13))))
            pred[f"p{i}"] = dict(zip(cb.alphabet, (int(x) for x in rng.integers(0, 2, 13))))

        confusions = all_confusions(*(as_matrix(vectors, cb) for vectors in (gold, pred)), cb)
        per, micro, macro, by_code = brute_force_scores(gold, pred, cb.alphabet)
        for code in cb.alphabet:
            m = confusions[code]
            if (m.tp, m.fp, m.fn, m.tn) != per[code]:
                problems.append(f"seed {seed}: counts diverge for {code}")
        got_micro = metrics(confusions, "micro")
        got_macro = metrics(confusions, "macro")
        for got, want, scope in ((got_micro, micro, "micro"), (got_macro, macro, "macro")):
            values = (got.precision, got.recall, got.f1, got.accuracy)
            if any(abs(a - b) > 1e-12 for a, b in zip(values, want)):
                problems.append(f"seed {seed}: {scope} metrics diverge")
        for code, want in zip(cb.alphabet, by_code):
            got = per_theme_metrics(confusions[code])
            values = (got.precision, got.recall, got.f1, got.accuracy)
            if any(abs(a - b) > 1e-12 for a, b in zip(values, want)):
                problems.append(f"seed {seed}: per-theme metrics diverge for {code}")
    check(
        6,
        "200 seeded instances score identically to brute-force enumeration",
        not problems,
        detail="\n".join(problems[:10]),
    )


# --- 7. end-to-end determinism ----------------------------------------------------


def run_flow(tmp_path: Path, name: str) -> Path:
    """ingest -> classify (mock) -> evaluate -> distribute in one directory."""
    ingest_cfg = load_cfg(tmp_path, FIXTURES / "posts_50.jsonl", name, corpus={"rule": "xylazine AND wound"})
    summary = cmd_ingest(ingest_cfg)
    cleaned = ingest_cfg.output_dir / "corpora" / summary["outputs"]["cleaned"]
    flow_cfg = load_cfg(tmp_path, cleaned, f"{name}_flow", run={"label": "e2e"})
    flow_cfg = dataclasses.replace(flow_cfg, output_dir=ingest_cfg.output_dir)
    cmd_classify(flow_cfg)
    cmd_evaluate(flow_cfg)
    cmd_distribute(flow_cfg)
    return ingest_cfg.output_dir


def test_07_end_to_end_determinism(tmp_path, cb):
    started = time.perf_counter()
    dir_a = run_flow(tmp_path, "a")
    dir_b = run_flow(tmp_path, "b")
    artifacts = [
        "results.jsonl",
        "reports/e2e/report.json",
        "reports/e2e/metrics.csv",
        "reports/distribution.json",
        "reports/distribution.csv",
    ]
    differing = [
        rel for rel in artifacts if (dir_a / rel).read_bytes() != (dir_b / rel).read_bytes()
    ]

    # kill-and-resume against a scripted backend equals its uninterrupted twin
    cleaned = dir_a / "corpora" / "posts_50_clean.jsonl"
    corpus = load_posts(cleaned)
    script_path = tmp_path / "script.json"
    bcfg = BackendConfig(kind="replay", model="rm", replay_path=str(script_path))
    full = {fingerprint_for(p, cb, bcfg): [rule_line(cb, p.body)] for p in corpus.posts}
    backend_section = {
        "backend": {"kind": "replay", "model": "rm", "replay_path": str(script_path)},
        "run": {"label": "e2e"},
    }

    script_path.write_text(json.dumps(full), encoding="utf-8")
    baseline = load_cfg(tmp_path, cleaned, "replay_base", **backend_section)
    cmd_classify(baseline)

    truncated = {fingerprint_for(p, cb, bcfg): full[fingerprint_for(p, cb, bcfg)] for p in corpus.posts[:8]}
    script_path.write_text(json.dumps(truncated), encoding="utf-8")
    resumed = load_cfg(tmp_path, cleaned, "replay_resumed", **backend_section)
    interrupted = False
    try:
        cmd_classify(resumed)
    except BackendError:
        interrupted = True
    script_path.write_text(json.dumps(full), encoding="utf-8")
    cmd_classify(resumed, resume=True)
    resume_matches = (
        (baseline.output_dir / "results.jsonl").read_bytes()
        == (resumed.output_dir / "results.jsonl").read_bytes()
    )

    elapsed = time.perf_counter() - started
    ok = not differing and interrupted and resume_matches and elapsed < 30.0
    detail = (
        f"differing artifacts: {differing or 'none'}; interrupted={interrupted}; "
        f"resume matches baseline: {resume_matches}; {elapsed:.1f}s"
    )
    check(7, "two full runs and a kill-and-resume run are byte-identical", ok, detail)


# --- 8. retry behavior ------------------------------------------------------------


def test_08_retry_budget_and_failure_policies(tmp_path, cb, clean_corpus_path):
    corpus = load_posts(clean_corpus_path)
    script_path = tmp_path / "script.json"
    bcfg = BackendConfig(kind="replay", model="rm", replay_path=str(script_path))
    posts = corpus.posts
    script = {fingerprint_for(p, cb, bcfg): [rule_line(cb, p.body)] for p in posts}
    noise = "answer withheld"
    script[fingerprint_for(posts[1], cb, bcfg)] = [noise, rule_line(cb, posts[1].body)]
    script[fingerprint_for(posts[2], cb, bcfg)] = [noise, noise, rule_line(cb, posts[2].body)]
    script[fingerprint_for(posts[3], cb, bcfg)] = [noise, noise, noise]
    script_path.write_text(json.dumps(script), encoding="utf-8")

    cfg = load_cfg(
        tmp_path,
        clean_corpus_path,
        "retry",
        backend={"kind": "replay", "model": "rm", "replay_path": str(script_path)},
        retry={"max_attempts": 3},
    )
    store = cmd_classify(cfg)[0]

    expected_attempts = {posts[1].id: 2, posts[2].id: 3, posts[3].id: 3}
    problems = []
    for rec in store.records:
        want = expected_attempts.get(rec["post_id"], 1)
        if rec["attempts"] != want:
            problems.append(f"{rec['post_id']}: {rec['attempts']} attempts, expected {want}")
    failed = [r for r in store.records if r["status"] == "failed"]
    if [r["post_id"] for r in failed] != [posts[3].id]:
        problems.append(f"failed set {[r['post_id'] for r in failed]}, expected [{posts[3].id}]")
    elif len(failed[0]["failures"]) != 3 or {f["reason"] for f in failed[0]["failures"]} != {"no-line-found"}:
        problems.append("exhausted record does not carry all three attempt failures")

    by_policy = {}
    for policy in ("exclude-and-report", "score-all-zero", "score-as-wrong"):
        report = cmd_evaluate(dataclasses.replace(cfg, failure_policy=policy))[cfg.label]
        by_policy[policy] = report
        if report.n_failures != 1:
            problems.append(f"{policy}: n_failures {report.n_failures}")
    if by_policy["exclude-and-report"].n_posts != 17:
        problems.append("exclude-and-report did not shrink the denominator to 17")
    if by_policy["score-all-zero"].n_posts != 18 or by_policy["score-as-wrong"].n_posts != 18:
        problems.append("scoring policies must keep all 18 posts in the denominator")
    # all-zero leaves the mostly-zero gold row largely correct; as-wrong never does
    if not (
        by_policy["score-all-zero"].micro.accuracy
        > by_policy["score-as-wrong"].micro.accuracy
    ):
        problems.append("score-all-zero should outscore score-as-wrong on accuracy")
    check(
        8,
        "attempt counts, failure records, and all three failure policies behave as scripted",
        not problems,
        detail="\n".join(problems),
    )


# --- 9. bootstrap sanity -----------------------------------------------------------


def test_09_bootstrap_coverage_and_width():
    book = Codebook(
        version="t",
        themes=(ThemeDef("A", "theme A", "signal"), ThemeDef("X", "none", "no signal")),
        null_code="X",
    )
    n = 3718
    ids = [str(i) for i in range(n)]
    gold = LabelMatrix.from_rows(ids, np.tile([1, 0], (n, 1)), book.alphabet)
    covered = width_ok = 0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        correct = rng.random(n) < 0.9
        pred = LabelMatrix.from_rows(ids, np.where(correct[:, None], [1, 0], [0, 1]), book.alphabet)
        interval = bootstrap_ci(gold, pred, "accuracy", book, resamples=400, seed=trial)
        if interval.lower <= 0.9 <= interval.upper:
            covered += 1
        wald = wald_ci(interval.point, n)
        wald_width = wald.upper - wald.lower
        width = interval.upper - interval.lower
        if abs(width - wald_width) <= 0.2 * wald_width:
            width_ok += 1
    ok = covered >= 90 and width_ok == 100
    detail = f"covered 0.9 in {covered}/100 trials; width within 20% of Wald in {width_ok}/100"
    check(9, "bootstrap interval coverage and width are sane over 100 seeded trials", ok, detail)
