"""Output correctness checks for one benchmark repetition.

Every ``results.jsonl`` vector must equal its independently computed
expectation, ``report.json`` and ``distribution.json`` counts must equal a
NumPy recomputation from the gold and prediction files, and each artifact's
sha256 must match the reference recorded for the workload and seed (or,
for a seed with no reference, the first repetition of the same run).
"""

from __future__ import annotations

import csv
import json
from hashlib import sha256
from pathlib import Path

import numpy as np

import stub

# artifact name -> path inside the run directory
ARTIFACTS = {
    "results.jsonl": "results.jsonl",
    "report.json": "reports/bench/report.json",
    "metrics.csv": "reports/bench/metrics.csv",
    "distribution.json": "reports/distribution.json",
    "ranking.csv": "reports/rank/ranking.csv",
}
WORKLOAD_ARTIFACTS = {
    "offline-chain": ("results.jsonl", "report.json", "metrics.csv", "distribution.json", "ranking.csv"),
    "remote-latency": ("results.jsonl",),
    "per-theme-resume": ("results.jsonl", "report.json", "metrics.csv"),
}


def artifact_hashes(workload: str, run: Path) -> dict[str, str]:
    return {
        name: sha256((run / ARTIFACTS[name]).read_bytes()).hexdigest()
        for name in WORKLOAD_ARTIFACTS[workload]
    }


def expected_vectors(workload: str, case: Path, seed: int) -> tuple[list[str], dict[str, dict[str, int]], str]:
    """Ids ingest should keep (corpus order), their expected vectors, and the alphabet."""
    from themecoder.backends import mock_rule_vector

    codes = (case / "codes.txt").read_text(encoding="utf-8")
    bodies = {}
    for line in (case / "inputs" / "posts.jsonl").read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        bodies[rec["id"]] = rec["body"]
    ids = (case / "inputs" / "survivors.txt").read_text(encoding="utf-8").split()
    if workload == "remote-latency":
        expect = {pid: stub.vector(bodies[pid], codes, seed) for pid in ids}
    elif workload == "per-theme-resume":
        # one prompt per code: the mock backend scores each code on its own
        expect = {
            pid: {c: mock_rule_vector(bodies[pid], (c,))[c] for c in codes} for pid in ids
        }
    else:
        expect = {pid: mock_rule_vector(bodies[pid], tuple(codes)) for pid in ids}
    return ids, expect, codes


def _read_gold(path: Path, codes: str) -> dict[str, list[int]]:
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    col = {c: i for i, c in enumerate(rows[0])}
    return {row[0]: [int(row[col[c]]) for c in codes] for row in rows[1:] if row}


def check_rep(workload: str, case: Path, seed: int, reference: dict | None) -> tuple[list[str], dict]:
    """Return (problems, facts) for the run directory ``case/run``.

    ``reference`` maps artifact name to sha256; ``facts`` carries the
    artifact hashes and, for ingest, the measured removed share.
    """
    run = case / "run"
    problems: list[str] = []
    ids, expect, codes = expected_vectors(workload, case, seed)
    records = [json.loads(line) for line in (run / "results.jsonl").read_text(encoding="utf-8").splitlines()]
    got_ids = [r["post_id"] for r in records]
    if got_ids != ids:
        problems.append(f"results.jsonl holds {len(got_ids)} posts, expected {len(ids)} in corpus order")
    wrong = [
        r["post_id"] for r in records
        if r["status"] != "classified" or r.get("vector") != expect.get(r["post_id"])
    ]
    if wrong:
        problems.append(f"{len(wrong)} results differ from the expected vectors, first {wrong[0]}")
    facts: dict = {}

    if workload == "offline-chain":
        summary = json.loads((run / "ingest_summary.json").read_text(encoding="utf-8"))
        facts["measured_removed_share"] = 1 - summary["cleaned"] / summary["loaded"]
        if summary["cleaned"] != len(ids):
            problems.append(f"ingest kept {summary['cleaned']} posts, generator expected {len(ids)}")

    if "report.json" in WORKLOAD_ARTIFACTS[workload] and not problems:
        gold = _read_gold(case / "inputs" / "gold.csv", codes)
        G = np.array([gold[pid] for pid in got_ids], dtype=np.int64)
        P = np.array([[r["vector"][c] for c in codes] for r in records], dtype=np.int64)
        tp = (G & P).sum(axis=0)
        fp = ((1 - G) & P).sum(axis=0)
        fn = (G & (1 - P)).sum(axis=0)
        tn = ((1 - G) & (1 - P)).sum(axis=0)
        report = json.loads((run / ARTIFACTS["report.json"]).read_text(encoding="utf-8"))
        for i, c in enumerate(codes):
            want = {"tp": int(tp[i]), "fp": int(fp[i]), "fn": int(fn[i]), "tn": int(tn[i])}
            have = {k: report["per_theme"][c][k] for k in want}
            if have != want:
                problems.append(f"report.json per-theme counts for {c}: {have}, recomputed {want}")
        T, F, N, TN = (int(x.sum()) for x in (tp, fp, fn, tn))
        precision = T / (T + F) if T + F else 0.0
        recall = T / (T + N) if T + N else 0.0
        micro = {
            "precision": precision,
            "recall": recall,
            "f1": 2 * precision * recall / (precision + recall) if precision + recall else 0.0,
            "accuracy": (T + TN) / G.size,
        }
        if report["micro"]["n_decisions"] != G.size or report["n_posts"] != len(got_ids):
            problems.append("report.json micro n_decisions or n_posts differ from the recomputation")
        for k, v in micro.items():
            if abs(report["micro"][k] - v) > 1e-12:
                problems.append(f"report.json micro {k} {report['micro'][k]!r}, recomputed {v!r}")
        if workload == "offline-chain":
            dist = json.loads((run / ARTIFACTS["distribution.json"]).read_text(encoding="utf-8"))
            want = {c: int(n) for c, n in zip(codes, P.sum(axis=0))}
            if dist["counts"] != want or dist["n"] != len(got_ids):
                problems.append("distribution.json counts differ from the recomputation")

    try:
        facts["hashes"] = artifact_hashes(workload, run)
    except FileNotFoundError as exc:
        problems.append(f"missing artifact: {exc.filename}")
        return problems, facts
    if reference:
        for name, digest in facts["hashes"].items():
            if reference.get(name) != digest:
                problems.append(f"{name} sha256 {digest[:12]} differs from the reference {str(reference.get(name))[:12]}")
    return problems, facts
