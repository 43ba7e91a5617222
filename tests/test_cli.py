"""Command line behavior: verbs, flags, and the exit code contract.

Exit codes: 0 success, 1 usage or config problems, 2 data problems,
3 backend failures.
"""

from __future__ import annotations

import json
import subprocess
import sys
from contextlib import contextmanager

import pytest
import yaml

from conftest import FIXTURES, base_config, write_config

from themecoder import pipeline
from themecoder.cli import main
from themecoder.codebook import load_codebook
from themecoder.corpus import SamplingSpec, dedup_clean, load_posts, sample_random
from themecoder.jsonl import atomic_write
from themecoder.pipeline import load_config

DS2 = FIXTURES / "ds2_reference_metrics.csv"


def write_cfg(tmp_path, corpus_path, name="run", **extra):
    sections = base_config(tmp_path, corpus_path, **extra)
    sections["run"]["output_dir"] = str(tmp_path / name)
    return write_config(tmp_path / f"{name}.yaml", **sections), tmp_path / name


# --- exit codes ----------------------------------------------------------------


def test_rank_exits_zero(capsys):
    assert main(["rank", "--metrics-table", str(DS2)]) == 0
    out = capsys.readouterr().out
    assert "  1.000  DS2_gpt-4o" in out
    assert "  2.000  DS2_deepseekV3" in out


def test_missing_metrics_table_exits_two(tmp_path, capsys):
    code = main(["rank", "--metrics-table", str(tmp_path / "absent.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: metrics table not found")


def test_missing_config_exits_one(tmp_path, capsys):
    code = main(["ingest", "--config", str(tmp_path / "absent.yaml")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: config file not found")


def test_backend_failure_exits_three(tmp_path, capsys, clean_corpus_path):
    script = tmp_path / "empty_script.json"
    script.write_text("{}", encoding="utf-8")
    cfg_path, _ = write_cfg(
        tmp_path,
        clean_corpus_path,
        backend={"kind": "replay", "model": "r", "replay_path": str(script)},
    )
    code = main(["classify", "--config", str(cfg_path)])
    assert code == 3
    assert "error: replay script has no entry" in capsys.readouterr().err


def test_classify_resume_on_damaged_store_exits_zero_or_two(tmp_path, capsys, clean_corpus_path):
    cfg_path, run_dir = write_cfg(tmp_path, clean_corpus_path)
    assert main(["classify", "--config", str(cfg_path)]) == 0
    results = run_dir / "results.jsonl"
    whole = results.read_bytes()
    lines = whole.splitlines(keepends=True)
    results.write_bytes(b"".join(lines[:-1]) + lines[-1][:20])  # torn last line: dropped and redone
    assert main(["classify", "--config", str(cfg_path), "--resume"]) == 0
    assert results.read_bytes() == whole
    results.write_bytes(lines[0][:20] + b"\n" + b"".join(lines[1:]))  # damage before the last line
    assert main(["classify", "--config", str(cfg_path), "--resume"]) == 2
    assert "results.jsonl line 1 is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["results.jsonl", "cache.jsonl"])
def test_bad_utf8_byte_names_its_line_and_exits_two(tmp_path, capsys, clean_corpus_path, name):
    cfg_path, run_dir = write_cfg(tmp_path, clean_corpus_path)
    assert main(["classify", "--config", str(cfg_path)]) == 0
    path = run_dir / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"', b'"\xff', 1)  # 0xff never occurs in UTF-8
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    verbs = [["classify", "--resume"]] + ([["evaluate"], ["distribute"]] if name == "results.jsonl" else [])
    for verb in verbs:
        assert main([*verb, "--config", str(cfg_path)]) == 2, verb
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} line 3 is not valid UTF-8: "), err
        assert "Traceback" not in err


def drop(*keys):
    return lambda rec: [rec.pop(k) for k in keys]


RECORD_DAMAGE = {  # each found on load by every verb
    "no-post-id": (drop("post_id"), "line 3: record needs a string post_id and label"),
    "no-label": (drop("label"), "line 3: record needs a string post_id and label"),
    "no-status": (drop("status"), "line 3: record needs status classified or failed"),
    "no-vector": (drop("vector"), "line 3: record is classified without a 0/1 vector"),
    "bad-cell": (lambda rec: rec["vector"].update(A="yes"), "line 3: record is classified without a 0/1"),
}
CODEBOOK_DAMAGE = {  # found only where vectors are read against the codebook
    "no-code": (lambda rec: rec["vector"].pop("C"), "has no value for code C"),
}


@pytest.mark.parametrize(
    "verb,damage",
    [(verb, damage) for verb in ("classify", "evaluate", "distribute") for damage in RECORD_DAMAGE]
    + [("evaluate", "no-code"), ("distribute", "no-code")],
)
def test_malformed_results_record_exits_two(tmp_path, capsys, clean_corpus_path, verb, damage):
    cfg_path, run_dir = write_cfg(tmp_path, clean_corpus_path)
    assert main(["classify", "--config", str(cfg_path)]) == 0
    results = run_dir / "results.jsonl"
    lines = results.read_text(encoding="utf-8").splitlines(keepends=True)
    rec = json.loads(lines[2])
    change, message = {**RECORD_DAMAGE, **CODEBOOK_DAMAGE}[damage]
    change(rec)
    lines[2] = json.dumps(rec) + "\n"
    results.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main([verb, "--config", str(cfg_path), *(["--resume"] if verb == "classify" else [])]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {results}") and message in err
    assert "Traceback" not in err


def test_truncated_manifest_exits_two(tmp_path, capsys, clean_corpus_path):
    cfg_path, run_dir = write_cfg(tmp_path, clean_corpus_path)
    assert main(["classify", "--config", str(cfg_path)]) == 0
    (run_dir / "manifest.json").write_text('{"config": ', encoding="utf-8")
    capsys.readouterr()
    assert main(["classify", "--config", str(cfg_path), "--resume"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run_dir / 'manifest.json'} is not valid JSON")
    assert "Traceback" not in err


def test_manifest_write_cut_part_way_leaves_no_manifest(tmp_path, capsys, clean_corpus_path, monkeypatch):
    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError("write cut part-way")

    @contextmanager
    def cut_write(path, newline=None):
        with atomic_write(path, newline) as fh:
            yield HalfWriter(fh)

    cfg_path, run_dir = write_cfg(tmp_path, clean_corpus_path)
    monkeypatch.setattr(pipeline, "atomic_write", cut_write)
    with pytest.raises(OSError, match="cut part-way"):
        pipeline.cmd_classify(load_config(cfg_path))
    monkeypatch.undo()
    assert sorted(p.name for p in run_dir.iterdir()) == []  # no manifest, no temp file, no lock
    assert main(["classify", "--config", str(cfg_path)]) == 0
    assert json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["config"]


def test_atomic_write_keeps_the_old_file_on_error(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("new, half")
            raise RuntimeError("stop")
    assert path.read_text(encoding="utf-8") == "old\n"
    with atomic_write(path, newline="") as fh:
        fh.write("a\r\nb\n")
    assert path.read_bytes() == b"a\r\nb\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


@pytest.mark.parametrize(
    "prompting, message",
    [
        ({"shots": 1, "selection": [99]}, "exemplar index 99 out of range (pool has 5)"),
        ({"shots": 6}, "shot policy wants 6 exemplars but the codebook has 5"),
    ],
    ids=["selection-out-of-range", "too-few-exemplars"],
)
def test_bad_shot_policy_exits_one_before_any_run_file(tmp_path, capsys, clean_corpus_path, prompting, message):
    cfg_path, run_dir = write_cfg(tmp_path, clean_corpus_path, prompting=prompting)
    assert main(["classify", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (run_dir / "manifest.json").exists()
    assert not run_dir.exists() or not any(run_dir.iterdir())


@pytest.mark.parametrize("mode", ["lenient", "strict"])
def test_non_ascii_code_exits_two_at_load(tmp_path, capsys, clean_corpus_path, mode):
    # lenient parsing used to fail every post with missing-code; strict raised KeyError
    book = load_codebook().to_mapping()
    book["themes"][1]["code"] = "É"
    for theme in book["themes"]:
        for ex in theme.get("exemplars", ()):
            ex["labels"]["É"] = ex["labels"].pop("B")
    codebook = tmp_path / "codebook.yaml"
    codebook.write_text(yaml.safe_dump(book, allow_unicode=True), encoding="utf-8")
    cfg_path, run_dir = write_cfg(tmp_path, clean_corpus_path, codebook={"path": str(codebook)}, parsing={"mode": mode})
    assert main(["classify", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: codebook file {codebook} is invalid: code 'É' is not a single uppercase letter A-Z")
    assert not (run_dir / "manifest.json").exists()


@pytest.mark.parametrize(
    "record",
    [
        {"fingerprint": "abc"},
        {"attempts": ["A=1"]},
        {"fingerprint": 7, "attempts": ["A=1"]},
        {"fingerprint": "abc", "attempts": "A=1"},
        {"fingerprint": "abc", "attempts": [1]},
        {"fingerprint": "abc", "attempts": []},
    ],
    ids=["no-attempts", "no-fingerprint", "number-fingerprint", "text-attempts", "number-attempt", "empty-attempts"],
)
def test_malformed_cache_record_exits_two(tmp_path, capsys, clean_corpus_path, record):
    cfg_path, run_dir = write_cfg(tmp_path, clean_corpus_path)
    assert main(["classify", "--config", str(cfg_path)]) == 0
    cache = run_dir / "cache.jsonl"
    lines = cache.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = json.dumps(record) + "\n"
    cache.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["classify", "--config", str(cfg_path), "--resume"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cache} line 2: cache record needs a string fingerprint")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        [],  # a verb is required
        ["frobnicate"],
        ["ingest"],  # --config is required
        ["rank"],  # --metrics-table is required
        ["classify", "--config", "x.yaml", "--bogus"],
    ],
)
def test_usage_errors_exit_one(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    capsys.readouterr()


def test_offline_blocks_remote_backends(tmp_path, capsys, clean_corpus_path):
    cfg_path, _ = write_cfg(
        tmp_path,
        clean_corpus_path,
        backend={
            "kind": "remote-chat",
            "model": "m",
            "endpoint": "http://127.0.0.1:9/v1/chat",
        },
    )
    code = main(["classify", "--config", str(cfg_path), "--offline"])
    assert code == 1
    assert "remote backends are forbidden in offline mode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [
        ("prompting.shots", "many"),
        ("backend.temperature", "hot"),
        ("retry.max_attempts", "x"),
        ("evaluation.bootstrap_resamples", "lots"),
        ("corpus.sample.n", "ten"),
        ("retry.max_attempts", 2.5),
        ("backend.in_flight_limit", "3"),
        ("retry.reask_on_parse_failure", "yes"),
        ("prompting.shots", True),
        ("prompting.shots", 2.5),
        ("run.repeats", 1.9),
        ("corpus.sample.n", 2.5),
        ("corpus.sample.seed", True),
        ("prompting.selection", [0, 1.5]),
        ("prompting.exemplar_seed", 3.7),
        ("prompting.exemplar_budget", 900.0),
        ("evaluation.bootstrap_resamples", True),
        ("evaluation.bootstrap_seed", 0.5),
        ("prompting.include_title", "false"),
        ("corpus.format", 5),
        ("prompting.template_version", 3),
        ("run.label", ["a", "b"]),
        ("run.dataset", None),
        ("prompting.selection", {0: 1}),
        ("evaluation.bootstrap_metrics", "f1"),
        ("parsing.mode", 5),
        ("corpus.sample.from", 5),
        ("evaluation.failure_policy", 5),
    ],
)
def test_config_value_of_the_wrong_type_exits_one(tmp_path, capsys, clean_corpus_path, key, value):
    section, *inner, leaf = key.split(".")
    body = {leaf: value}
    for part in reversed(inner):
        body = {part: body}
    cfg_path, _ = write_cfg(tmp_path, clean_corpus_path, **{section: body})
    assert main(["classify", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {cfg_path} has a value of the wrong type: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "verb, seed, sections, flags",
    [
        ("ingest", "sample", {"corpus": {"sample": {"n": 5, "seed": -1}}}, []),
        ("ingest", "sample", {"corpus": {"sample": {"n": 5}}}, ["--sample-seed", "-1"]),
        ("classify", "exemplar", {"prompting": {"shots": 1, "exemplar_seed": -1}}, []),
        ("classify", "exemplar", {"prompting": {"shots": 1}}, ["--exemplar-seed", "-1"]),
        ("evaluate", "bootstrap", {"evaluation": {"bootstrap_metrics": ["f1"], "bootstrap_seed": -1}}, []),
        ("evaluate", "bootstrap", {"evaluation": {"bootstrap_metrics": ["f1"]}}, ["--bootstrap-seed", "-1"]),
    ],
    ids=["sample-key", "sample-flag", "exemplar-key", "exemplar-flag", "bootstrap-key", "bootstrap-flag"],
)
def test_negative_seed_exits_one_at_load(tmp_path, capsys, clean_corpus_path, verb, seed, sections, flags):
    cfg_path, run_dir = write_cfg(tmp_path, clean_corpus_path, **sections)
    assert main([verb, "--config", str(cfg_path), *flags]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {seed} seed must be >= 0, got -1\n"
    assert "Traceback" not in err
    assert not run_dir.exists()


def test_config_int_for_a_float_field_loads(tmp_path, clean_corpus_path):
    cfg_path, _ = write_cfg(tmp_path, clean_corpus_path, backend={"timeout": 10})
    assert load_config(cfg_path).backend.timeout == 10


def test_distribute_without_results_exits_two(tmp_path, capsys, clean_corpus_path):
    cfg_path, _ = write_cfg(tmp_path, clean_corpus_path)
    code = main(["distribute", "--config", str(cfg_path)])
    assert code == 2
    assert "results store not found" in capsys.readouterr().err


def test_evaluate_missing_or_empty_store_exits_two(tmp_path, capsys, clean_corpus_path):
    cfg_path, run_dir = write_cfg(tmp_path, clean_corpus_path)
    typo = tmp_path / "typo.jsonl"
    assert main(["evaluate", "--config", str(cfg_path), "--store", str(typo)]) == 2
    assert capsys.readouterr().err.startswith(f"error: results store not found: {typo}")
    run_dir.mkdir()
    (run_dir / "results.jsonl").write_text("", encoding="utf-8")
    assert main(["evaluate", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: results store {run_dir / 'results.jsonl'} has no records")
    assert not (run_dir / "reports").exists()


# --- the full verb flow ---------------------------------------------------------


def test_ingest_classify_evaluate_distribute_flow(tmp_path, capsys, clean_corpus_path):
    cfg_path, out_dir = write_cfg(tmp_path, clean_corpus_path)

    assert main(["ingest", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.strip() == "loaded=18, cleaned=18"
    assert (out_dir / "ingest_summary.json").exists()

    assert main(["classify", "--config", str(cfg_path)]) == 0
    assert "run 1/1: classified=18, failed=0, total=18" in capsys.readouterr().out
    assert (out_dir / "results.jsonl").exists()
    assert (out_dir / "manifest.json").exists()

    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    line = capsys.readouterr().out
    assert "n_posts=18" in line and "P=" in line
    assert (out_dir / "reports" / "FIX_0shot_mock" / "report.json").exists()

    assert main(["distribute", "--config", str(cfg_path)]) == 0
    assert "%" in capsys.readouterr().out
    assert (out_dir / "reports" / "distribution.json").exists()


def test_classify_twice_needs_resume(tmp_path, capsys, clean_corpus_path):
    cfg_path, _ = write_cfg(tmp_path, clean_corpus_path)
    assert main(["classify", "--config", str(cfg_path)]) == 0
    assert main(["classify", "--config", str(cfg_path)]) == 1
    assert "pass resume" in capsys.readouterr().err
    # nothing is pending, so resuming just reprints the totals
    assert main(["classify", "--config", str(cfg_path), "--resume"]) == 0
    assert "classified=18, failed=0, total=18" in capsys.readouterr().out


def test_evaluate_store_flag(tmp_path, capsys, clean_corpus_path):
    cfg_path, out_dir = write_cfg(tmp_path, clean_corpus_path)
    assert main(["classify", "--config", str(cfg_path)]) == 0
    moved = tmp_path / "elsewhere.jsonl"
    (out_dir / "results.jsonl").rename(moved)
    assert main(["evaluate", "--config", str(cfg_path), "--store", str(moved)]) == 0
    assert "n_posts=18" in capsys.readouterr().out


def test_evaluate_metrics_table_flag(tmp_path, capsys, clean_corpus_path):
    cfg_path, out_dir = write_cfg(tmp_path, clean_corpus_path)
    code = main(["evaluate", "--config", str(cfg_path), "--metrics-table", str(DS2)])
    assert code == 0
    assert "DS2_gpt-4o" in capsys.readouterr().out
    assert (out_dir / "reports" / "ranking.json").exists()


def test_rank_out_flag_writes_files(tmp_path, capsys):
    out = tmp_path / "ranked"
    assert main(["rank", "--metrics-table", str(DS2), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = json.loads((out / "ranking.json").read_text(encoding="utf-8"))
    assert [r["label"] for r in rows] == ["DS2_gpt-4o", "DS2_deepseekV3"]


def test_sample_seed_override_flag(tmp_path, capsys, clean_corpus_path):
    cleaned = dedup_clean(load_posts(clean_corpus_path)).corpus
    for seed in (1, 2):
        cfg_path, out_dir = write_cfg(
            tmp_path, clean_corpus_path, name=f"seed{seed}", corpus={"sample": {"n": 5}}
        )
        assert main(["ingest", "--config", str(cfg_path), "--sample-seed", str(seed)]) == 0
        capsys.readouterr()
        summary = json.loads((out_dir / "ingest_summary.json").read_text(encoding="utf-8"))
        sampled = load_posts(out_dir / "corpora" / summary["outputs"]["sampled"])
        oracle = sample_random(cleaned, SamplingSpec(target_n=5, seed=seed))
        assert [p.id for p in sampled.posts] == [p.id for p in oracle.posts]


def test_module_entry_point(tmp_path):
    good = subprocess.run(
        [sys.executable, "-m", "themecoder.cli", "rank", "--metrics-table", str(DS2)],
        capture_output=True,
        text=True,
    )
    assert good.returncode == 0
    assert "DS2_gpt-4o" in good.stdout

    bad = subprocess.run(
        [
            sys.executable,
            "-m",
            "themecoder.cli",
            "rank",
            "--metrics-table",
            str(tmp_path / "absent.csv"),
        ],
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 2
    assert "error:" in bad.stderr
