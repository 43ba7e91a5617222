"""Steadiness check: run the benchmark once per seed and report the spread.

    python3 perfbench/steady.py --workloads offline-chain --seeds 1-5
    python3 perfbench/steady.py --seeds 1-10 --write-reference

For each workload and end-to-end metric this prints the median of the
per-run values and the distance between their first and third quartiles
as a share of the median, against the metric's bound in BENCHMARK.json
(the spread must stay within it and should stay below a third of it).
``--write-reference`` stores the medians and quartiles as the
baseline in ``reference.json``, with every run's artifact hashes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated; defaults to those of BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, help="defaults to run_seconds of BENCHMARK.json")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ref_path = HERE / "reference.json"
    reference = json.loads(ref_path.read_text(encoding="utf-8")) if ref_path.exists() else {}
    hashes_file = ROOT / ".bench_work" / "steady-hashes.json"
    hashes_file.parent.mkdir(parents=True, exist_ok=True)
    ok = True
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        seeds = seed_list(args.seeds)
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0", "--hashes-out", str(hashes_file)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else {}
            if not result.get("correct") or result["failed"]:
                print(f"{workload} seed {seed}: FAILED\n{done.stderr}", file=sys.stderr)
                ok = False
                continue
            row = {k: v["value"] for k, v in result["metrics"].items()}
            steal = [line.strip() for line in done.stdout.splitlines() if "host steal" in line]
            for name in bounds:
                values[name].append(row[name])
            print(f"{workload} seed {seed}: " + "  ".join(f"{k}={v:.6g}" for k, v in row.items())
                  + f"  ({steal[0]})", flush=True)
            if args.write_reference:
                recorded = json.loads(hashes_file.read_text())["hashes"][workload]
                reference.setdefault("artifact_hashes", {}).setdefault(workload, {})[str(seed)] = recorded
        baseline = reference.setdefault("baseline", {}).setdefault(workload, {})
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            if spread < bounds[name] / 3:
                verdict = "ok"
            elif spread <= bounds[name]:
                verdict = "above a third of the bound"
            else:
                verdict, ok = "WIDER THAN THE BOUND", False
            print(f"  {workload:<18} {name:<22} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} (bound {bounds[name]}) {verdict}")
            baseline[name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals), "seeds": args.seeds}
    hashes_file.unlink(missing_ok=True)
    if args.write_reference:
        ref_path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
