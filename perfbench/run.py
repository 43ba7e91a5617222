"""Offline end-to-end benchmark of the themecoder pipeline.

    python3 perfbench/run.py --workload offline-chain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Generates the workload's inputs from the seed, sets up several times
(median reported as ``setup_s``), then runs timed repetitions, each in a
fresh child process, until ``--seconds`` have passed. Every repetition's
outputs are checked. With ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json`` are reported; with ``--trace 1`` untraced and traced
repetitions alternate and the per-layer metrics are reported, with the
tracing overhead. The last stdout line is one JSON object. Run it from the
root of a checkout; nothing leaves 127.0.0.1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import check
import gen
from workload import IN_FLIGHT_LIMIT, SERVICE_MS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = tuple(gen.WORKLOADS)
REQUIRED = ("BENCHMARK.json", "src/themecoder/__init__.py", "tests/fixtures/posts_50.jsonl",
            "tests/fixtures/ds1_reference_metrics.csv")
SETUP_REPEATS = 3
MIN_REPS = 2
RUN_BUDGET_S = 165.0  # a run must end within 180 s
# end-to-end figures that apply to some workloads only; printed, not in the JSON line
EXTRA_E2E = {"evaluate_s": "s", "backend_efficiency": "ratio", "failed_post_share": "ratio"}


def host_steal_s() -> float:
    """CPU seconds the hypervisor has taken from this VM since boot (0 where
    /proc/stat has no steal column)."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Run:
    """One workload at one seed: set-up, repetitions, checks, figures."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, reference: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.reference = reference.get("artifact_hashes", {}).get(workload, {}).get(str(seed))
        self.base = ROOT / ".bench_work" / f"{workload}-s{seed}-p{os.getpid()}"
        self.case = self.base / "case"
        self.logs = self.base / "logs"
        self.trash = self.base / "trash"
        self.stub: subprocess.Popen | None = None
        self.stub_url = ""
        self.env = self._child_env()

    def _child_env(self) -> dict:
        env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
        env.update(
            NO_PROXY="127.0.0.1,localhost",
            no_proxy="127.0.0.1,localhost",
            NETRC=str(self.base / "no-netrc"),  # keeps the HTTP client from reading $HOME
            THEMECODER_API_KEY="bench-dummy-credential",
            PYTHONDONTWRITEBYTECODE="1",
        )
        return env

    def _discard(self, path: Path) -> None:
        # Deleting files while measuring adds file-system work to the next
        # timed step, so old directories are moved aside and deleted after
        # the measurements.
        if path.exists():
            path.rename(self.trash / f"{path.name}-{len(list(self.trash.iterdir()))}")

    # --- processes ------------------------------------------------------------

    def _child(self, tag: str, argv: list[str], timeout: float) -> subprocess.CompletedProcess:
        with (self.logs / f"{tag}.out").open("w") as out, (self.logs / f"{tag}.err").open("w") as err:
            return subprocess.run(
                [sys.executable, str(HERE / "workload.py"), *argv],
                cwd=ROOT, env=self.env, stdout=out, stderr=err, timeout=timeout,
            )

    def _start_stub(self, tag: str) -> None:
        port_file = self.base / "stub.port"
        port_file.unlink(missing_ok=True)
        from themecoder import load_codebook

        codes = "".join(load_codebook().alphabet)
        with (self.logs / f"{tag}.stub.err").open("w") as err:
            self.stub = subprocess.Popen(
                [sys.executable, str(HERE / "stub.py"), "--port-file", str(port_file),
                 "--seed", str(self.seed), "--codes", codes],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
            )
        deadline = time.monotonic() + 15
        while not port_file.exists():
            if self.stub.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("chat-completion stub did not start")
            time.sleep(0.005)
        self.stub_url = f"http://127.0.0.1:{port_file.read_text()}"

    def stop_stub(self) -> None:
        if self.stub is None:
            return
        self.stub.terminate()
        try:
            self.stub.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.stub.kill()
            self.stub.wait()
        self.stub = None

    def _stub_call(self, path: str, post: bool = False) -> dict:
        req = urllib.request.Request(self.stub_url + path, data=b"{}" if post else None,
                                     method="POST" if post else "GET")
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(req, timeout=10) as resp:
            return json.loads(resp.read())

    # --- phases ---------------------------------------------------------------

    def setup_once(self, k: int) -> float:
        self.stop_stub()
        self._discard(self.case)
        argv = ["setup", "--workload", self.workload, "--seed", str(self.seed), "--work", str(self.case)]
        t0 = time.perf_counter()
        if self.workload == "remote-latency":
            self._start_stub(f"setup{k}")
            argv += ["--endpoint", self.stub_url + "/v1/chat/completions"]
        done = self._child(f"setup{k}", argv, timeout=120)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed (exit {done.returncode}); see {self.logs}/setup{k}.err")
        return elapsed

    def rep_once(self, i: int, traced: bool, timeout: float) -> dict:
        run = self.case / "run"
        self._discard(run)
        if self.workload == "per-theme-resume":
            shutil.copytree(self.case / "template", run)
        if self.stub is not None:
            self._stub_call("/reset", post=True)
        tag = f"rep{i}"
        out_file = self.base / f"{tag}.json"
        argv = ["rep", "--workload", self.workload, "--work", str(self.case),
                "--trace", str(int(traced)), "--out", str(out_file)]
        try:
            exit_code = self._child(tag, argv, timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            exit_code = "timeout"
        if exit_code != 0:
            return {"traced": traced, "problems": [f"repetition exit {exit_code}; see {self.logs}/{tag}.err"]}
        rec = json.loads(out_file.read_text())
        rec["traced"] = traced
        stats = self._stub_call("/stats") if self.stub is not None else None
        with (self.logs / f"{tag}.err").open() as err:
            lint = sum(1 for line in err if "gold lint:" in line)
        rec["problems"], facts = check.check_rep(self.workload, self.case, self.seed, self.reference)
        rec.update(facts)
        rec["efficiency"] = (
            stats["replies"] / rec["classify_s"] / (IN_FLIGHT_LIMIT / (SERVICE_MS / 1000.0))
            if stats else None
        )
        if traced:
            layers = rec["layers"]
            latencies = layers.pop("latencies_ms")
            layers["codebook.lint_warnings"] = lint
            if stats:
                layers["backends.requests_per_connection"] = stats["requests"] / max(stats["connections"], 1)
                layers["backends.max_in_flight"] = stats["max_in_flight"]
                layers["backends.client_overhead_p50_ms"] = (
                    statistics.median(latencies) - statistics.median(stats["service_ms"])
                )
            else:
                layers.update({"backends.requests_per_connection": 0, "backends.max_in_flight": 0,
                               "backends.client_overhead_p50_ms": 0.0})
        return rec

    def execute(self) -> dict:
        self.logs.mkdir(parents=True, exist_ok=True)
        self.trash.mkdir(exist_ok=True)
        started = time.monotonic()
        setups = [self.setup_once(k) for k in range(SETUP_REPEATS)]
        measure_start = time.monotonic()
        steal_start = host_steal_s()
        reps: list[dict] = []
        longest = 0.0
        while True:
            traced = self.trace and len(reps) % 2 == 1
            left = RUN_BUDGET_S - (time.monotonic() - started)
            t0 = time.monotonic()
            reps.append(self.rep_once(len(reps), traced, timeout=max(left, 1.0)))
            longest = max(longest, time.monotonic() - t0)
            untraced = sum(1 for r in reps if not r["traced"])
            enough = untraced >= MIN_REPS and (not self.trace or untraced < len(reps))
            elapsed = time.monotonic() - measure_start
            # stop when the next repetition would end past --seconds
            if enough and elapsed * (len(reps) + 1) / len(reps) > self.seconds:
                break
            if RUN_BUDGET_S - (time.monotonic() - started) < 1.5 * longest:
                break
        steal_share = (host_steal_s() - steal_start) / (
            (time.monotonic() - measure_start) * os.cpu_count()
        )
        shutil.rmtree(self.trash)
        consistent = {json.dumps(r.get("hashes"), sort_keys=True) for r in reps if "hashes" in r}
        if len(consistent) > 1:
            for r in reps:
                r["problems"].append("artifact hashes differ between repetitions of one run")
        return {"setups": setups, "reps": reps, "steal_share": steal_share}


# --- figures -------------------------------------------------------------------


def e2e_values(result: dict) -> dict[str, list[float]]:
    reps = [r for r in result["reps"] if not r["traced"] and "wall_s" in r]
    vals: dict[str, list[float]] = {
        "setup_s": result["setups"],
        "wall_s": [r["wall_s"] for r in reps],
        "classify_posts_per_s": [r["posts_committed"] / r["classify_s"] for r in reps],
        "cpu_ms_per_post": [1000.0 * r["cpu_s"] / r["posts_committed"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "failed_post_share": [r["posts_failed"] / r["posts_committed"] for r in reps],
    }
    if reps and "evaluate_s" in reps[0]:
        vals["evaluate_s"] = [r["evaluate_s"] for r in reps]
    if reps and reps[0]["efficiency"] is not None:
        vals["backend_efficiency"] = [r["efficiency"] for r in reps]
    return vals


def layer_values(result: dict) -> dict[str, list[float]]:
    traced = [r for r in result["reps"] if r["traced"] and "layers" in r]
    vals: dict[str, list[float]] = {}
    for r in traced:
        for name, v in r["layers"].items():
            vals.setdefault(name, []).append(v)
    untraced = [r["wall_s"] for r in result["reps"] if not r["traced"] and "wall_s" in r]
    if traced and untraced:
        vals["trace.overhead_s"] = [
            statistics.median(r["wall_s"] for r in traced) - statistics.median(untraced)
        ]
    return vals


def report(workload: str, result: dict, trace: bool, spec: dict) -> tuple[dict, list[str]]:
    """Print the figures of one workload; return the JSON metrics and problems."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    vals = layer_values(result) if trace else e2e_values(result)
    problems = [p for r in result["reps"] for p in r["problems"]]
    print(f"== {workload}: {len(result['reps'])} repetitions, {len(result['setups'])} set-ups")
    units = {m["name"]: m["unit"] for m in wanted}
    if not trace:
        units.update({k: u for k, u in EXTRA_E2E.items() if k in vals})
    for name, unit in units.items():
        if name in vals:
            q1, med, q3 = quartiles(vals[name])
            print(f"  {name:<36} {med:>14.6g} {unit:<10} q1 {q1:.6g}  q3 {q3:.6g}  n {len(vals[name])}")
        elif name in EXTRA_E2E:
            continue
        else:
            problems.append(f"metric {name} was not measured")
    if trace:
        traced = [r for r in result["reps"] if r["traced"] and "spans" in r]
        if traced:
            print(f"  {'span':<36} {'calls':>9} {'busy_s':>10} {'self_s':>10}   (first traced repetition)")
            for name, row in sorted(traced[0]["spans"].items(), key=lambda kv: -kv[1]["busy_s"]):
                print(f"  {name:<36} {row['calls']:>9} {row['busy_s']:>10.4f} {row['self_s']:>10.4f}")
    # time the host gave this VM's CPUs to others; a high share slows every timing
    print(f"  host steal during repetitions: {100 * result['steal_share']:.1f}% of CPU time")
    for r in result["reps"]:
        if "measured_removed_share" in r:
            print(f"  ingest removed share: {r['measured_removed_share']:.4f} (measured)")
            break
    metrics = {
        name: {"value": statistics.median(vals[name]), "unit": units[name]}
        for name in (m["name"] for m in wanted) if name in vals
    }
    return metrics, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--hashes-out", help="write the artifact hashes of this run to a file")
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"not a themecoder checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ref_path = HERE / "reference.json"
    reference = json.loads(ref_path.read_text(encoding="utf-8")) if ref_path.exists() else {}

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    all_metrics: dict = {}
    problems: list[str] = []
    attempted = failed = 0
    hashes: dict = {}
    for workload in workloads:
        bench = Run(workload, args.seed, args.seconds, bool(args.trace), reference)
        try:
            result = bench.execute()
        finally:
            bench.stop_stub()
        metrics, wl_problems = report(workload, result, bool(args.trace), spec)
        for r in result["reps"]:
            n = r.get("posts_committed", 0) or 1
            attempted += n
            failed += n if r["problems"] else r.get("posts_failed", 0)
        hashes[workload] = next((r["hashes"] for r in result["reps"] if "hashes" in r), None)
        problems += [f"{workload}: {p}" for p in wl_problems]
        if args.workload == "all":
            metrics = {f"{workload}/{k}": v for k, v in metrics.items()}
        all_metrics.update(metrics)
        if wl_problems:
            print(f"  work directory kept: {bench.base}", file=sys.stderr)
        else:
            shutil.rmtree(bench.base, ignore_errors=True)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if args.hashes_out:
        Path(args.hashes_out).write_text(json.dumps({"seed": args.seed, "hashes": hashes}, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
