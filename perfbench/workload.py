"""One benchmark step in a fresh process: set up a workload, or run one
timed repetition of its chain through the public pipeline API.

    python3 perfbench/workload.py setup --workload W --seed N --work DIR [--endpoint URL]
    python3 perfbench/workload.py rep --workload W --work DIR --trace 0|1 --out FILE

``run.py`` starts one of these per set-up and per repetition, with
stdout and stderr sent to files.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "posts_50.jsonl"
RANK_TABLE = ROOT / "tests" / "fixtures" / "ds1_reference_metrics.csv"

LABEL = "bench"
IN_FLIGHT_LIMIT = 2
SERVICE_MS = 20.0
BOOTSTRAP_RESAMPLES = 2000


def import_package():
    """Import themecoder from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import themecoder

    if not Path(themecoder.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"themecoder imported from {themecoder.__file__}, not {ROOT / 'src'}")
    return themecoder


def configs(workload: str, seed: int, work: Path, endpoint: str | None) -> dict[str, dict]:
    """Run-config sections for each config file the workload uses."""
    inputs, run = work / "inputs", work / "run"
    base = {
        "run": {"label": LABEL, "dataset": "bench", "output_dir": str(run)},
        "backend": {"kind": "mock-rules", "model": "mock", "in_flight_limit": IN_FLIGHT_LIMIT},
    }
    if workload == "offline-chain":
        return {
            "ingest": {**base, "corpus": {"path": str(inputs / "posts.jsonl"), "rule": "xylazine AND wound"}},
            "classify": {
                **base,
                "corpus": {"path": str(run / "corpora" / "posts_clean.jsonl")},
                "gold": {"path": str(inputs / "gold.csv")},
                "prompting": {"template_version": "v3-single-line", "shots": 0},
                "evaluation": {
                    "bootstrap_metrics": ["f1", "accuracy"],
                    "bootstrap_resamples": BOOTSTRAP_RESAMPLES,
                    "bootstrap_seed": seed,
                },
            },
        }
    if workload == "remote-latency":
        return {
            "classify": {
                **base,
                "corpus": {"path": str(inputs / "posts.jsonl")},
                "backend": {
                    "kind": "remote-chat",
                    "model": "stub-chat",
                    "endpoint": endpoint,
                    "in_flight_limit": IN_FLIGHT_LIMIT,
                    "timeout": 10.0,
                },
                "retry": {"max_attempts": 3, "transport_retries": 3, "backoff_initial": 0.01},
                "prompting": {"template_version": "v3-single-line", "shots": 1},
            }
        }
    return {
        "classify": {
            **base,
            "corpus": {"path": str(inputs / "posts.jsonl")},
            "gold": {"path": str(inputs / "gold.csv")},
            "prompting": {"template_version": "v1-per-theme", "shots": 2},
        }
    }


# --- set-up ----------------------------------------------------------------


def setup(args) -> None:
    import yaml

    import gen

    tc = import_package()
    from themecoder.backends import mock_rule_vector

    work = Path(args.work)
    cb = tc.load_codebook()
    gen.write_inputs(args.workload, args.seed, FIXTURE, work / "inputs", cb.alphabet, mock_rule_vector)
    if args.workload == "offline-chain":
        shutil.copyfile(RANK_TABLE, work / "inputs" / RANK_TABLE.name)
    for name, sections in configs(args.workload, args.seed, work, args.endpoint).items():
        (work / f"{name}.yaml").write_text(yaml.safe_dump(sections, sort_keys=True), encoding="utf-8")
    (work / "codes.txt").write_text("".join(cb.alphabet), encoding="utf-8")
    if args.workload == "per-theme-resume":
        _prepare_resume(tc, work, gen.WORKLOADS[args.workload], cb)


def _prepare_resume(tc, work: Path, spec: dict, cb) -> None:
    """Complete one run, then keep the state of a run killed while workers
    ran ahead of the commit loop: the first results lines and a longer
    prefix of the cache, saved as ``template/``."""
    from themecoder import pipeline
    from themecoder.backends import cache_key

    cfg = pipeline.load_config(work / "classify.yaml")
    pipeline.cmd_classify(cfg)
    run = work / "run"
    results = (run / "results.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    (run / "results.jsonl").write_text(
        "".join(results[: int(len(results) * spec["results_keep_share"])]), encoding="utf-8"
    )
    # Workers append cache lines in completion order, so cut by post rather
    # than by line: the cached prompts are exactly those of the first posts.
    corpus = tc.load_posts(cfg.corpus_path)
    tpl = tc.load_template(cfg.template_version)
    shot = tc.ShotPolicy(shots=cfg.shots, selection=cfg.selection)
    kept_posts = corpus.posts[: int(len(corpus) * spec["cache_keep_share"])]
    keep = {
        cache_key(cfg.backend, rp)
        for post in kept_posts
        for rp in tc.render_prompt(post, cb, tpl, shot, seed=cfg.exemplar_seed)
    }
    lines = (run / "cache.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    (run / "cache.jsonl").write_text(
        "".join(line for line in lines if json.loads(line)["fingerprint"] in keep), encoding="utf-8"
    )
    run.rename(work / "template")


# --- one repetition ----------------------------------------------------------


def _line_count(path: Path) -> int:
    if not path.exists():
        return 0
    with path.open("rb") as fh:
        return sum(1 for _ in fh)


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    """High-water RSS of this process image. ``ru_maxrss`` is not used: Linux
    carries the parent's peak across fork and exec into it."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def rep(args) -> None:
    import_package()
    from themecoder import pipeline

    workload = args.workload
    work = Path(args.work)
    run = work / "run"
    results_path = run / "results.jsonl"
    audit_path = run / "audit.jsonl"
    if workload == "remote-latency":
        import requests  # noqa: F401  (the backend imports it on first call)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    def step(name: str, fn, *a, **kw):
        if tracer is None:
            return fn(*a, **kw)
        with tracer.span(f"pipeline.{name}"):
            return fn(*a, **kw)

    committed_before = _line_count(results_path)
    audit_before = _line_count(audit_path)
    bytes_before = _tree_bytes(run) if run.exists() else 0
    timings: dict[str, float] = {}

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    if workload == "offline-chain":
        step("cmd_ingest", pipeline.cmd_ingest, pipeline.load_config(work / "ingest.yaml"))
    cfg = pipeline.load_config(work / "classify.yaml")
    c0 = time.perf_counter()
    if tracer is not None:
        tracer.counting_opens = True
    step("cmd_classify", pipeline.cmd_classify, cfg, resume=(workload == "per-theme-resume"))
    if tracer is not None:
        tracer.counting_opens = False
    timings["classify_s"] = time.perf_counter() - c0
    if workload != "remote-latency":
        e0 = time.perf_counter()
        step("cmd_evaluate", pipeline.cmd_evaluate, cfg)
        timings["evaluate_s"] = time.perf_counter() - e0
    if workload == "offline-chain":
        step("cmd_distribute", pipeline.cmd_distribute, cfg)
        step("cmd_rank", pipeline.cmd_rank, work / "inputs" / RANK_TABLE.name, run / "reports" / "rank")
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    sys.stdout.flush()

    records = [json.loads(line) for line in results_path.read_text(encoding="utf-8").splitlines()]
    new = records[committed_before:]
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "posts_committed": len(new),
        "posts_failed": sum(1 for r in new if r["status"] != "classified"),
        "peak_rss_mb": _peak_rss_mb(),
        **timings,
    }
    if tracer is not None:
        audit = [
            json.loads(line)
            for line in audit_path.read_text(encoding="utf-8").splitlines()[audit_before:]
        ]
        out["layers"] = layer_metrics(tracer, audit, len(new), run, bytes_before)
        out["spans"] = tracer.by_name()
    Path(args.out).write_text(json.dumps(out, sort_keys=True), encoding="utf-8")


def layer_metrics(tracer, audit: list[dict], posts: int, run: Path, bytes_before: int) -> dict:
    """Per-layer metrics of one traced repetition.

    Times are busy seconds summed over threads. Counts come from the new
    ``audit.jsonl`` lines. Stub counters and lint lines are added by run.py.
    """
    table = tracer.by_name()
    counts = tracer.counts

    def busy(*names: str) -> float:
        return sum(table.get(n, {}).get("busy_s", 0.0) for n in names)

    def calls(name: str) -> int:
        return int(table.get(name, {}).get("calls", 0))

    status = {}
    for rec in audit:
        status[rec["status"]] = status.get(rec["status"], 0) + 1
    latencies_ms = [rec["latency"] * 1000.0 for rec in audit if rec["status"] == "ok"]
    cache_hits = status.get("cache-hit", 0)
    attempts = calls("backends.complete") + cache_hits
    classify_wall = busy("pipeline.cmd_classify")
    main_direct = tracer.child_busy("pipeline.cmd_classify", threading.get_ident())
    summary_path = run / "ingest_summary.json"
    kept_share = 0.0
    if summary_path.exists():
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        kept_share = summary["cleaned"] / summary["loaded"]
    prompts = counts["prompts"]
    parses = counts["parses"]
    return {
        "pipeline.store_append_s": busy("pipeline.ResultsStore.append"),
        "pipeline.ledger_append_s": busy("pipeline.RunLedger.append"),
        "backends.audit_append_s": busy("backends.AuditLog.append"),
        "backends.cache_put_s": busy("backends.ResponseCache.put"),
        "pipeline.file_opens_per_post": counts["file_opens"] / posts if posts else 0.0,
        "pipeline.commit_wait_s": classify_wall - main_direct,
        "pipeline.artifact_bytes": _tree_bytes(run) - bytes_before,
        "prompting.render_s": busy("prompting.render_prompt"),
        "prompting.prompts": prompts,
        "prompting.prompt_bytes": counts["prompt_bytes"],
        "backends.fingerprint_s": busy("backends.cache_key"),
        "backends.fingerprints_per_attempt": calls("backends.cache_key") / attempts if attempts else 0.0,
        "parsing.parse_s": busy("parsing.parse_single_line", "parsing.parse_single_answer"),
        "parsing.parses": parses,
        "parsing.parse_ok_share": counts["parses_ok"] / parses if parses else 0.0,
        "pipeline.store_load_s": busy("pipeline.ResultsStore.__init__"),
        "backends.cache_load_s": busy("backends.ResponseCache.__init__"),
        "backends.cache_get_s": busy("backends.ResponseCache.get"),
        "backends.cache_hits": cache_hits,
        "backends.cache_hit_share": cache_hits / prompts if prompts else 0.0,
        "backends.calls": status.get("ok", 0),
        "backends.call_s": busy("backends.call"),
        "backends.call_p50_ms": _percentile(latencies_ms, 50),
        "backends.call_p99_ms": _percentile(latencies_ms, 99),
        "backends.reasks": sum(1 for rec in audit if rec["status"] == "ok" and rec["attempt"] > 1),
        "backends.transport_retries": status.get("transport-retry", 0),
        "evaluation.evaluate_s": busy("evaluation.evaluate_predictions"),
        "evaluation.confusion_s": busy("evaluation.confusion_per_theme"),
        "evaluation.bootstrap_s": busy("evaluation.bootstrap_ci"),
        "evaluation.bootstrap_peak_mb": counts["bootstrap_peak_mb"],
        "evaluation.distribution_s": busy("evaluation.theme_distribution"),
        "evaluation.report_write_s": busy("evaluation.EvalReport.write"),
        "evaluation.rank_s": busy("evaluation.avg_rank"),
        "corpus.load_s": busy("corpus.load_posts"),
        "corpus.posts_loaded": counts["posts_loaded"],
        "corpus.filter_s": busy("corpus.keyword_filter"),
        "corpus.clean_s": busy("corpus.dedup_clean"),
        "corpus.write_s": busy("corpus.write_posts"),
        "corpus.kept_share": kept_share,
        "codebook.load_s": busy("codebook.load_codebook"),
        "codebook.load_gold_s": busy("codebook.load_gold"),
        "pipeline.manifest_s": busy("pipeline.build_manifest"),
        "latencies_ms": latencies_ms,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--workload", required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--work", required=True)
    s.add_argument("--endpoint")
    r = sub.add_parser("rep")
    r.add_argument("--workload", required=True)
    r.add_argument("--work", required=True)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    args = ap.parse_args()
    (setup if args.command == "setup" else rep)(args)


if __name__ == "__main__":
    main()
