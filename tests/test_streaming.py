"""Streamed reads of run files, corpus and gold.

Memory must not grow with the number of posts beyond the ids and one int8
label matrix per label, and the label matrices read straight from a
results store must agree with its records as parsed line by line.
"""

from __future__ import annotations

import csv
import json
import tracemalloc

import numpy as np
import pytest

from conftest import base_config, write_config

from themecoder.codebook import LabelMatrix, load_gold
from themecoder.corpus import load_post_ids
from themecoder.evaluation import FAILURE_POLICIES, evaluate_predictions, run_stats
from themecoder.jsonl import JsonLines
from themecoder.pipeline import ResultsStore, cmd_classify, cmd_distribute, cmd_evaluate, load_config, read_results


def write_run(run_dir, n: int, alphabet, seed: int, labels=("L",), failed_share=0.02):
    """A corpus, a gold table and a results store over ``n`` posts.

    Each label records every post once, in a shuffled order, with a random
    vector or, for ``failed_share`` of them, as failed. Returns the config
    path of an evaluation over them.
    """
    rng = np.random.default_rng(seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    ids = [f"p{i:06d}" for i in range(n)]
    with (run_dir / "corpus.jsonl").open("w", encoding="utf-8") as fh:
        for i, pid in enumerate(ids):
            created = f"2024-01-{1 + i % 28:02d}T00:00:00Z"
            rec = {"id": pid, "title": "", "body": f"post {i}", "source": "s", "created_at": created}
            fh.write(json.dumps(rec) + "\n")
    with (run_dir / "gold.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["post_id", *alphabet])
        for pid, row in zip(ids, rng.integers(0, 2, size=(n, len(alphabet))).tolist()):
            writer.writerow([pid, *row])
    with (run_dir / "results.jsonl").open("w", encoding="utf-8") as fh:
        for label in labels:
            for i in rng.permutation(n).tolist():
                rec = {"post_id": ids[i], "label": label}
                if rng.random() < failed_share:
                    rec.update(status="failed", failures=[{"reason": "no-line-found", "detail": ""}])
                else:
                    values = rng.integers(0, 2, size=len(alphabet)).tolist()
                    rec.update(status="classified", vector=dict(zip(alphabet, values)))
                rec.update(attempts=1, template_version="v3", backend_kind="mock-rules", fingerprint=f"{i:064x}")
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    sections = base_config(
        run_dir, run_dir / "corpus.jsonl", gold={"path": str(run_dir / "gold.csv")}, run={"output_dir": str(run_dir)}
    )
    return write_config(run_dir / "eval.yaml", **sections)


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def record_view(path, alphabet):
    """Each label's classified rows and sorted failed ids, parsed line by
    line, plus the pooled view: every label's rows, the label that sorts
    last winning."""
    by_label: dict[str, tuple[dict, list]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        rows, failed = by_label.setdefault(rec["label"], ({}, []))
        if rec["status"] == "failed":
            failed.append(rec["post_id"])
        else:
            rows[rec["post_id"]] = tuple(rec["vector"][c] for c in alphabet)
    pooled: dict[str, tuple[int, ...]] = {}
    for label in sorted(by_label):
        pooled.update(by_label[label][0])
    return {label: (rows, sorted(failed)) for label, (rows, failed) in by_label.items()}, pooled


def gold_view(path, alphabet):
    """A gold table's rows, parsed line by line: post id -> labels in
    ``alphabet`` order, which the table's columns follow."""
    with path.open(encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        assert next(rows) == ["post_id", *alphabet]
        return {pid: tuple(map(int, cells)) for pid, *cells in rows}


def recounted(gold_rows, rows, failed, cb, **kw):
    """The report on one label's records, its matrices built from the
    parsed lines rather than by ``load_gold`` and ``read_results``."""
    scored = [*rows, *failed]
    return evaluate_predictions(
        LabelMatrix.from_rows(scored, [gold_rows[pid] for pid in scored], cb.alphabet),
        LabelMatrix.from_rows(list(rows), list(rows.values()), cb.alphabet),
        cb,
        failed_ids=failed,
        **kw,
    )


# --- memory stays flat in N ----------------------------------------------------


SIZES = (5_000, 20_000)
MAX_GROWTH_PER_POST = 512  # bytes


@pytest.fixture(scope="module")
def sized_runs(tmp_path_factory, cb):
    return {n: write_run(tmp_path_factory.mktemp(f"n{n}"), n, cb.alphabet, seed=n) for n in SIZES}


def growth_per_post(peaks: dict[int, int]) -> float:
    small, large = SIZES
    return (peaks[large] - peaks[small]) / (large - small)


def test_read_results_memory_is_flat_in_n(sized_runs, cb):
    def read(cfg_path):
        assert list(read_results(cfg_path.parent / "results.jsonl", cb.alphabet)) == ["L"]

    peaks = {n: traced_peak(lambda: read(cfg_path)) for n, cfg_path in sized_runs.items()}
    assert growth_per_post(peaks) < MAX_GROWTH_PER_POST, peaks


def test_evaluate_memory_is_flat_in_n(sized_runs, capsys):
    def evaluate(cfg_path):
        cfg = load_config(cfg_path)
        assert not cfg.bootstrap_metrics
        assert cmd_evaluate(cfg)["L"].n_posts > 0

    peaks = {n: traced_peak(lambda: evaluate(cfg_path)) for n, cfg_path in sized_runs.items()}
    assert growth_per_post(peaks) < MAX_GROWTH_PER_POST, peaks


def test_read_numbered_holds_about_one_line(tmp_path):
    path = tmp_path / "big.jsonl"
    long_line = json.dumps({"text": "y" * 65_536}) + "\n"
    with path.open("w", encoding="utf-8") as fh:
        for i in range(46_000):
            fh.write(json.dumps({"n": i, "text": "x" * 180}) + "\n")
            if i == 20_000:
                fh.write(long_line)
    assert path.stat().st_size > 8 * 2**20

    def scan():
        assert sum(1 for _ in JsonLines(path).read_numbered()) == 46_001

    assert traced_peak(scan) < len(long_line) + 2**20


# --- the matrix reader agrees with the records -----------------------------------


@pytest.fixture(scope="module")
def two_label_run(tmp_path_factory, cb):
    cfg_path = write_run(tmp_path_factory.mktemp("two"), 2_000, cb.alphabet, seed=11, labels=("M", "L"))
    return cfg_path.parent / "results.jsonl"


def test_read_results_agrees_with_the_records(two_label_run, cb):
    store = ResultsStore(two_label_run)
    expected, pooled = record_view(two_label_run, cb.alphabet)
    results = read_results(two_label_run, cb.alphabet)
    assert list(results) == ["L", "M"]
    for label, (matrix, failed) in results.items():
        rows, want_failed = expected[label]
        assert matrix.ids == tuple(sorted(rows)) and matrix.codes == cb.alphabet
        assert matrix.values.dtype == np.int8
        assert [tuple(row) for row in matrix.values.tolist()] == [rows[pid] for pid in matrix.ids]
        assert failed == tuple(want_failed) and failed
        assert store.status_counts(label) == {"classified": len(rows), "failed": len(failed)}
    assert len(store) == len(store.records) == 4_000

    payload = cmd_distribute(load_config(two_label_run.parent / "eval.yaml"))
    assert payload["n"] == len(pooled)
    assert payload["n_failed"] == len(expected["L"][1] + expected["M"][1])
    assert payload["counts"] == dict(zip(cb.alphabet, np.array(list(pooled.values())).sum(axis=0).tolist()))


@pytest.mark.parametrize("policy", FAILURE_POLICIES)
def test_matrix_evaluation_agrees_with_the_vector_path(two_label_run, cb, policy):
    gold = load_gold(two_label_run.parent / "gold.csv", load_post_ids(two_label_run.parent / "corpus.jsonl"), cb)
    expected, _ = record_view(two_label_run, cb.alphabet)
    gold_rows = gold_view(two_label_run.parent / "gold.csv", cb.alphabet)
    kw = dict(failure_policy=policy, bootstrap_metrics=("f1", "accuracy"), bootstrap_resamples=200, bootstrap_seed=3)
    for label, (preds, failed) in read_results(two_label_run, cb.alphabet).items():
        evaluated = sorted(preds.ids + failed)
        by_matrix = evaluate_predictions(gold.take(evaluated), preds, cb, failed_ids=failed, label=label, **kw)
        by_records = recounted(gold_rows, *expected[label], cb, label=label, **kw)
        assert by_matrix.to_dict() == by_records.to_dict()


def test_repeat_run_reports_agree_with_the_vector_path(tmp_path, capsys, clean_corpus_path, cb):
    sections = base_config(tmp_path, clean_corpus_path, run={"repeats": 2})
    cfg = load_config(write_config(tmp_path / "run.yaml", **sections))
    stores = cmd_classify(cfg)
    assert [s.path.name for s in stores] == ["results_r1.jsonl", "results_r2.jsonl"]
    report = cmd_evaluate(cfg)[cfg.label]

    gold_rows = gold_view(cfg.gold_path, cb.alphabet)
    direct = []
    for store in stores:
        (rows, failed), = record_view(store.path, cb.alphabet)[0].values()
        direct.append(recounted(gold_rows, rows, failed, cb, label=cfg.label))
    direct[0].stats = run_stats([r.micro for r in direct])
    assert report.stats is not None and report.stats.r == 2
    assert report.to_dict() == direct[0].to_dict()
    direct[0].write(tmp_path / "direct")
    for name in ("report.json", "metrics.csv"):
        written = (cfg.output_dir / "reports" / cfg.label / name).read_bytes()
        assert written == (tmp_path / "direct" / name).read_bytes()
