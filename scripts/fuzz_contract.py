"""Mutation fuzzer for the exit-code contract: every command ends in 0, 1, 2
or 3, and nothing else escapes ``themecoder.cli.main``.

Run from the repo root:

    PYTHONPATH=src python scripts/fuzz_contract.py --seed 2 --seconds 60

A template workspace is built once: the 50-post fixture ingested into a
clean corpus (in both corpus formats), a `mock-rules` run of it with one
shot and the bootstrap on at 100 resamples, a replay script read from that
run's cache, and copies of the codebook, keyword set, template, gold table
and a metrics table. Each case copies the template, changes one file or
directory and runs one command in process, with a 10 s alarm.

- Input side: one file, read by one command, gets one mutation: a byte
  flip; a truncation; a dropped, duplicated or inserted line or byte; or
  one JSON, YAML or table value swapped for null, "", -1, 1.5, true, [],
  {}, "\\ud800", 10**30, 10**400 or NaN.
- Output side: a directory that a command makes is replaced by a regular
  file, and a file that a command reads or writes in a run or output
  directory is replaced by a directory.
- Float settings: each float key of a run config is set to 10**400, an int
  too large for a float, and the case must exit 1.
- Manifest structure: `classify --resume` reads a `manifest.json` whose
  frozen config lacks a key, holds an unknown key, has a section replaced
  by a string, a list or null, or holds a retired key or a value of the
  wrong JSON type. A dropped key that has a default must resume (exit 0);
  every other case must exit 1.
- Stores: `evaluate` given one results store twice, under two spellings,
  must exit 2.
- Labels: `evaluate` reading a results record whose vector holds `true`
  or `1.0`, which equal 1 but are not the JSON integer, must exit 2.
- Rankings: `rank` reading a metrics table that gives one label on two
  rows must exit 2.
- Replay: `classify` reading a replay script whose first attempt text is
  the escape "\\ud800", a lone surrogate, must exit 1.

The output-side, float-setting, manifest, store, label, ranking and replay
cases come first, then input cases drawn from one seeded ``random.Random``, so a
seed and a case count give the same cases on every machine. The tier-1 test
``tests/test_contract_fuzz.py`` runs a fixed number of them; this script
runs cases for ``--seconds`` and exits 1 if any case breaks the contract.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import shutil
import signal
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import yaml

from themecoder.cli import main as cli_main
from themecoder.codebook import DEFAULT_CODEBOOK_PATH
from themecoder.corpus import DEFAULT_KEYWORDS_PATH, load_posts, write_posts
from themecoder.prompting import load_template

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
CONTRACT = (0, 1, 2, 3)
ALARM_S = 10
LABEL = "fuzz"
VALUES = (None, "", -1, 1.5, True, [], {}, "\ud800", 10**30, 10**400, math.nan)

INGEST = ("ingest", "--config", "inputs/ingest.yaml")
CLASSIFY = ("classify", "--config", "inputs/fresh.yaml")
CLASSIFY_CSV = ("classify", "--config", "inputs/fresh_csv.yaml")
CLASSIFY_REPLAY = ("classify", "--config", "inputs/replay.yaml")
RESUME = ("classify", "--config", "inputs/run.yaml", "--resume")
EVALUATE = ("evaluate", "--config", "inputs/run.yaml")
EVALUATE_STORE = (*EVALUATE, "--store", "run/results.jsonl")
EVALUATE_TWICE = (*EVALUATE_STORE, "--store", "run/reports/../results.jsonl")
DISTRIBUTE = ("distribute", "--config", "inputs/run.yaml")
RANK = ("rank", "--metrics-table", "inputs/metrics.csv", "--out", "ranked")

# (file, command reading it): 22 input pairs
INPUT_PAIRS = (
    ("inputs/ingest.yaml", INGEST),
    ("inputs/fresh.yaml", CLASSIFY),
    ("inputs/run.yaml", EVALUATE),
    ("inputs/codebook.yaml", CLASSIFY),
    ("inputs/codebook.yaml", EVALUATE),
    ("inputs/keywords.yaml", INGEST),
    ("inputs/template.txt", CLASSIFY),
    ("inputs/posts_50.jsonl", INGEST),
    ("inputs/clean.jsonl", CLASSIFY),
    ("inputs/clean.jsonl", EVALUATE),
    ("inputs/clean.csv", CLASSIFY_CSV),
    ("inputs/gold.csv", EVALUATE),
    ("inputs/replay.json", CLASSIFY_REPLAY),
    ("inputs/metrics.csv", RANK),
    ("run/results.jsonl", RESUME),
    ("run/results.jsonl", EVALUATE),
    ("run/results.jsonl", EVALUATE_STORE),
    ("run/results.jsonl", DISTRIBUTE),
    ("run/cache.jsonl", RESUME),
    ("run/ledger.jsonl", RESUME),
    ("run/audit.jsonl", RESUME),
    ("run/manifest.json", RESUME),
)

# (directory a command makes, that command)
OUTPUT_PAIRS = (
    ("ingested", INGEST),
    ("ingested/corpora", INGEST),
    ("fresh", CLASSIFY),
    ("run/reports", EVALUATE),
    (f"run/reports/{LABEL}", EVALUATE),
    ("run/reports", DISTRIBUTE),
    ("ranked", RANK),
)

# (section, key) of every float setting of a run config
FLOAT_KEYS = (
    ("backend", "temperature"),
    ("backend", "timeout"),
    ("backend", "requests_per_second"),
    ("retry", "backoff_initial"),
    ("retry", "backoff_multiplier"),
    ("retry", "backoff_cap"),
)

# (entry of manifest.json dropped, the exit resume must end in): a key with a default resumes at it
MANIFEST_DROPS = (
    (("config", "exemplar_budget"), 0),
    (("config", "retry", "backoff_cap"), 0),
    (("config", "output_dir"), 1),
    (("config", "backend", "kind"), 1),
)

# (entry of manifest.json, the value it is set to): each refuses the resume
MANIFEST_SETS = (
    (("config", "bogus"), 1),
    (("config", "retry", "bogus"), 1),
    *(((section,), value) for section in ("config", "hashes") for value in ("x", [], None)),
    *((("config", section), value) for section in ("backend", "retry") for value in ("x", [], None)),
    (("config", "retry", "reask_on_parse_failure"), "yes"),
    (("config", "retry", "reask_on_parse_failure"), 1),
    (("config", "aggregation"), 5),
    (("config", "aggregation"), None),
    (("config", "include_title"), 0),
    (("config", "retry", "max_attempts"), 3.0),
    (("config", "repeats"), True),
)

# label values that equal 0 or 1 in Python but are not JSON integers
LABEL_LOOKALIKES = (True, 1.0)

RUN_FILES = ("results.jsonl", "cache.jsonl", "ledger.jsonl", "audit.jsonl", "manifest.json")

# (file a command reads or writes, that command)
FILE_PAIRS = (
    *((f"run/{name}", RESUME) for name in RUN_FILES),
    *((f"fresh/{name}", CLASSIFY) for name in RUN_FILES),
    ("run/results.jsonl", EVALUATE),
    ("run/results.jsonl", DISTRIBUTE),
    ("run/reports/distribution.json", DISTRIBUTE),
    (f"run/reports/{LABEL}/report.json", EVALUATE),
    (f"run/reports/{LABEL}/metrics.csv", EVALUATE),
    ("ranked/ranking.json", RANK),
    ("ingested/ingest_summary.json", INGEST),
    ("ingested/corpora/posts_50_filtered.jsonl", INGEST),
    ("inputs/metrics.csv", RANK),
)


@dataclass(frozen=True)
class Case:
    target: str
    argv: tuple[str, ...]
    # "dir-to-file", "file-to-dir", "float-overflow", "drop-entry", "set-entry", "unchanged",
    # "set-label", one of OPERATORS or "swap-value"
    mutation: str
    position: int = 0  # picks the byte, line or value, modulo how many there are
    # the line or byte inserted, the bit flipped, an index into VALUES, a FLOAT_KEYS pair,
    # a MANIFEST_DROPS path, a MANIFEST_SETS pair or a LABEL_LOOKALIKES value
    extra: object = None
    exits: tuple[int, ...] = CONTRACT  # the exit codes that keep the contract

    def __str__(self) -> str:
        what = self.mutation if self.mutation in SWAPS else f"{self.mutation}@{self.position} {self.extra!r}"
        return f"{' '.join(self.argv)} <- {self.target}: {what}"


# --- the template workspace ------------------------------------------------------------


def _configs() -> dict[str, dict]:
    """Run configs, paths relative to the workspace."""
    common = {
        "codebook": {"path": "inputs/codebook.yaml"},
        "gold": {"path": "inputs/gold.csv"},
        "prompting": {"template_path": "inputs/template.txt", "shots": 1},
        "backend": {"kind": "mock-rules", "model": "mock"},
        "retry": {"backoff_initial": 0.0},
        "evaluation": {"bootstrap_metrics": ["f1"], "bootstrap_resamples": 100},
    }

    def config(output_dir, corpus, **changes):
        return {**common, "run": {"label": LABEL, "output_dir": output_dir}, "corpus": corpus, **changes}

    clean = {"path": "inputs/clean.jsonl"}
    return {
        "ingest": config(
            "ingested",
            {"path": "inputs/posts_50.jsonl", "keywords": "inputs/keywords.yaml", "rule": "xylazine AND wound"},
        ),
        "run": config("run", clean),
        "fresh": config("fresh", clean),
        "fresh_csv": config("fresh_csv", {"path": "inputs/clean.csv", "format": "delimited-table"}),
        "replay": config(
            "replayed", clean, backend={"kind": "replay", "model": "mock", "replay_path": "inputs/replay.json"}
        ),
    }


def _normalise_times(path: Path, **fixed) -> None:
    """Set the clock-dependent fields of each JSON line (or of a JSON file) to
    fixed values, so that the template's bytes do not depend on when it was built."""
    if path.suffix == ".json":
        doc = {**json.loads(path.read_text("utf-8")), **fixed}
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", "utf-8")
        return
    lines = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    path.write_text("".join(json.dumps({**rec, **fixed}, sort_keys=True) + "\n" for rec in lines), "utf-8")


def build_template(root: Path) -> Path:
    """Build the template workspace under ``root`` and return its path."""
    template = root / "template"
    inputs = template / "inputs"
    inputs.mkdir(parents=True)
    for src, name in (
        (FIXTURES / "posts_50.jsonl", "posts_50.jsonl"),
        (FIXTURES / "gold_clean.csv", "gold.csv"),
        (FIXTURES / "ds2_reference_metrics.csv", "metrics.csv"),
        (DEFAULT_CODEBOOK_PATH, "codebook.yaml"),
        (DEFAULT_KEYWORDS_PATH, "keywords.yaml"),
    ):
        shutil.copyfile(src, inputs / name)
    (inputs / "template.txt").write_text(load_template().scaffold, "utf-8")
    for name, body in _configs().items():
        (inputs / f"{name}.yaml").write_text(yaml.safe_dump(body, sort_keys=True), "utf-8")
    with _inside(template), _quiet():
        if cli_main(list(INGEST)) != 0:
            raise RuntimeError("the template's ingest failed")
        cleaned = next(Path("ingested/corpora").glob("*_clean.jsonl"))
        shutil.copyfile(cleaned, "inputs/clean.jsonl")
        write_posts(load_posts("inputs/clean.jsonl"), "inputs/clean.csv", "delimited-table")
        shutil.rmtree("ingested")
        if cli_main(["classify", "--config", "inputs/run.yaml"]) != 0:
            raise RuntimeError("the template's classify failed")
    run = template / "run"
    _normalise_times(run / "manifest.json", started_at="2000-01-01T00:00:00+00:00")
    _normalise_times(run / "ledger.jsonl", ts="2000-01-01T00:00:00+00:00")
    _normalise_times(run / "audit.jsonl", ts="2000-01-01T00:00:00+00:00", latency=0.001)
    script = {}
    for line in (run / "cache.jsonl").read_text("utf-8").splitlines():
        rec = json.loads(line)
        script[rec["fingerprint"]] = rec["attempts"]
    (inputs / "replay.json").write_text(json.dumps(script, indent=2, sort_keys=True) + "\n", "utf-8")
    return template


# --- case generation -------------------------------------------------------------------


SWAPS = ("dir-to-file", "file-to-dir")  # the output-side mutations
OPERATORS = ("flip", "truncate", "drop-line", "dup-line", "insert-line", "drop-byte", "dup-byte", "insert-byte")
INSERTED_LINES = (b"\n", b"{}\n", b"null\n", b"[]\n", b"\xff\xfe\n", b"a,b,c\n", b"- x\n")


def cases(seed: int):
    """Every output-side, float-setting, manifest, store, label, ranking and
    replay case, then input cases drawn from ``seed``, without end."""
    for target, argv in OUTPUT_PAIRS:
        yield Case(target, argv, "dir-to-file")
    for target, argv in FILE_PAIRS:
        yield Case(target, argv, "file-to-dir")
    for key in FLOAT_KEYS:
        yield Case("inputs/fresh.yaml", CLASSIFY, "float-overflow", extra=key, exits=(1,))
    for path, code in MANIFEST_DROPS:
        yield Case("run/manifest.json", RESUME, "drop-entry", extra=path, exits=(code,))
    for edit in MANIFEST_SETS:
        yield Case("run/manifest.json", RESUME, "set-entry", extra=edit, exits=(1,))
    yield Case("run/results.jsonl", EVALUATE_TWICE, "unchanged", exits=(2,))
    for value in LABEL_LOOKALIKES:
        yield Case("run/results.jsonl", EVALUATE, "set-label", extra=value, exits=(2,))
    yield Case("inputs/metrics.csv", RANK, "dup-line", position=1, exits=(2,))  # the first label, on two rows
    surrogate = VALUES.index("\ud800")  # set as the first attempt text of the first fingerprint, at position 2
    yield Case("inputs/replay.json", CLASSIFY_REPLAY, "swap-value", position=2, extra=surrogate, exits=(1,))
    rng = random.Random(seed)
    while True:
        target, argv = rng.choice(INPUT_PAIRS)
        mutation = rng.choice(OPERATORS if target.endswith(".txt") else (*OPERATORS, "swap-value"))
        extra = None
        if mutation == "insert-line":
            extra = rng.choice(INSERTED_LINES)
        elif mutation == "insert-byte":
            extra = rng.randrange(256)
        elif mutation == "flip":
            extra = 1 << rng.randrange(8)
        elif mutation == "swap-value":
            extra = rng.randrange(len(VALUES))
        yield Case(target, argv, mutation, rng.randrange(1 << 30), extra)


def _paths(node, path=()):
    """Every position in a parsed document, the root included."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, (*path, i))


def _swapped(node, path, value):
    if not path:
        return value
    node[path[0]] = _swapped(node[path[0]], path[1:], value)
    return node


def _swap_in(doc, position: int, value):
    paths = list(_paths(doc))
    return _swapped(doc, paths[position % len(paths)], value)


def _swap_value(data: bytes, target: str, position: int, value) -> bytes:
    text = data.decode("utf-8")
    if target.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text, newline="")))
        cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
        r, c = cells[position % len(cells)]
        rows[r][c] = value if isinstance(value, str) else json.dumps(value)
        out = io.StringIO(newline="")
        csv.writer(out).writerows(rows)
        return out.getvalue().encode("utf-8", "surrogatepass")
    if target.endswith(".jsonl"):
        lines = text.splitlines(keepends=True)
        i = (position >> 10) % len(lines)
        lines[i] = json.dumps(_swap_in(json.loads(lines[i]), position, value), sort_keys=True) + "\n"
        return "".join(lines).encode("utf-8")
    if target.endswith(".json"):
        return (json.dumps(_swap_in(json.loads(text), position, value), indent=2, sort_keys=True) + "\n").encode()
    return yaml.safe_dump(_swap_in(yaml.safe_load(text), position, value), sort_keys=True).encode("utf-8")


def mutate(data: bytes, case: Case) -> bytes:
    """``data`` (a template file, never empty) with ``case``'s one mutation applied."""
    if case.mutation == "swap-value":
        return _swap_value(data, case.target, case.position, VALUES[case.extra])
    if case.mutation == "float-overflow":
        section, key = case.extra
        config = yaml.safe_load(data)
        config.setdefault(section, {})[key] = 10**400
        return yaml.safe_dump(config, sort_keys=True).encode("utf-8")
    if case.mutation == "set-label":  # the first code of the first classified record
        lines = data.decode("utf-8").splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if json.loads(line)["status"] == "classified")
        rec = json.loads(lines[i])
        rec["vector"][min(rec["vector"])] = case.extra
        lines[i] = json.dumps(rec, sort_keys=True) + "\n"
        return "".join(lines).encode("utf-8")
    if case.mutation in ("drop-entry", "set-entry"):
        manifest = section = json.loads(data)
        *parents, leaf = case.extra if case.mutation == "drop-entry" else case.extra[0]
        for name in parents:
            section = section[name]
        if case.mutation == "drop-entry":
            del section[leaf]
        else:
            section[leaf] = case.extra[1]
        return (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
    i = case.position % len(data)
    lines = data.splitlines(keepends=True)
    k = case.position % len(lines)
    if case.mutation == "truncate":
        return data[:i]
    if case.mutation == "flip":
        return data[:i] + bytes([data[i] ^ case.extra]) + data[i + 1 :]
    if case.mutation == "drop-byte":
        return data[:i] + data[i + 1 :]
    if case.mutation == "dup-byte":
        return data[: i + 1] + data[i:]
    if case.mutation == "insert-byte":
        return data[:i] + bytes([case.extra]) + data[i:]
    if case.mutation == "drop-line":
        return b"".join(lines[:k] + lines[k + 1 :])
    if case.mutation == "dup-line":
        return b"".join(lines[: k + 1] + lines[k:])
    return b"".join(lines[:k] + [case.extra] + lines[k:])  # insert-line


# --- running a case --------------------------------------------------------------------


class Hang(BaseException):
    """A case ran past its alarm; a BaseException, so no handler swallows it."""


@contextlib.contextmanager
def _inside(directory: Path):
    before = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(before)


@contextlib.contextmanager
def _quiet():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


@contextlib.contextmanager
def _alarm(seconds: int):
    def ring(signum, frame):
        raise Hang(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, ring)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_case(template: Path, work: Path, case: Case) -> int | str:
    """The exit code ``main`` returned for ``case``, or the traceback of
    whatever else ended it. ``work`` is emptied and refilled from ``template``."""
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(template, work)
    target = work / case.target
    if case.mutation == "dir-to-file":
        if target.is_dir():
            shutil.rmtree(target)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("a regular file\n", encoding="utf-8")
    elif case.mutation == "file-to-dir":
        target.unlink(missing_ok=True)
        target.mkdir(parents=True)
    elif case.mutation != "unchanged":
        target.write_bytes(mutate(target.read_bytes(), case))
    try:
        with _inside(work), _quiet(), _alarm(ALARM_S):
            code = cli_main(list(case.argv))
    except BaseException:
        return traceback.format_exc()
    if code == 130:  # main's answer to an interrupt, which only the user sends here
        raise KeyboardInterrupt
    return code


def breaches(outcomes) -> list[tuple[Case, int | str]]:
    """The (case, outcome) pairs whose outcome is not one of the case's exits."""
    return [(case, out) for case, out in outcomes if out not in case.exits]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1, help="seed of the input cases")
    ap.add_argument("--seconds", type=float, default=60.0, help="run cases for this long")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        template = build_template(root)
        deadline = time.monotonic() + args.seconds
        outcomes, counts = [], {}
        for case in cases(args.seed):
            if time.monotonic() >= deadline:
                break
            out = run_case(template, root / "case", case)
            outcomes.append((case, out))
            key = f"exit {out}" if out in CONTRACT else "outside the contract"
            counts[key] = counts.get(key, 0) + 1
        bad = breaches(outcomes)
    for case, out in bad:
        print(f"OUTSIDE THE CONTRACT (exits {case.exits}): {case}\n{out}", file=sys.stderr)
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    print(f"seed {args.seed}: {len(outcomes)} cases in {args.seconds:g} s; {summary}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
