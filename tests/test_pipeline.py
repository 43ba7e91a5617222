"""Pipeline tests: config loading, run artifacts, and the five commands.

Command behavior is checked against the library itself: every count,
vector, and report produced by a command must equal what the underlying
functions return when composed by hand.
"""

from __future__ import annotations

import csv
import dataclasses
import errno
import gc
import hashlib
import itertools
import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from chat import all_closed, chat_payload
from conftest import FIXTURES, base_config, write_config

from themecoder import backends, evaluation, pipeline
from themecoder.backends import (
    BackendConfig,
    MockRulesBackend,
    ReplayBackend,
    RetryPolicy,
    cache_key,
    mock_rule_vector,
)
from themecoder.cli import main
from themecoder.codebook import DEFAULT_CODEBOOK_PATH, load_codebook, load_gold
from themecoder.corpus import (
    DEFAULT_KEYWORDS_PATH,
    SamplingSpec,
    dedup_clean,
    load_posts,
    parse_timestamp,
    sample_random,
    temporal_split,
)
from themecoder.errors import BackendError, ConfigError, DataError
from themecoder.evaluation import METRIC_NAMES, evaluate_predictions, theme_distribution
from themecoder.jsonl import JsonLines
from themecoder.pipeline import (
    ResultsStore,
    RunConfig,
    RunLedger,
    RunLock,
    build_manifest,
    cmd_classify,
    cmd_distribute,
    cmd_evaluate,
    cmd_ingest,
    cmd_rank,
    load_config,
    read_results,
)
from themecoder.prompting import TEMPLATE_VERSIONS, ShotPolicy, load_template, render_prompt

POSTS_50 = FIXTURES / "posts_50.jsonl"


def make_cfg(tmp_path: Path, corpus_path: Path, name: str = "run", **extra):
    """Write a config file from the base skeleton and load it."""
    sections = base_config(tmp_path, corpus_path, **extra)
    sections["run"]["output_dir"] = str(tmp_path / name)
    path = write_config(tmp_path / f"{name}.yaml", **sections)
    return load_config(path)


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def stored(path: Path, cb):
    """The classified label matrix and sorted failed ids of a one-label results file."""
    (preds, failed), = read_results(path, cb.alphabet).values()
    return preds, failed


def by_id(preds) -> dict[str, dict[str, int]]:
    """Each row of a label matrix as its post's code -> label mapping."""
    return {pid: dict(zip(preds.codes, row)) for pid, row in zip(preds.ids, preds.values.tolist())}


def relabelled(path: Path, label: str, flip: bool) -> list[str]:
    """The lines of a results file under ``label``, vectors flipped if ``flip``."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        rec = {**json.loads(line), "label": label}
        if flip:
            rec["vector"] = {code: 1 - v for code, v in rec["vector"].items()}
        lines.append(json.dumps(rec, sort_keys=True) + "\n")
    return lines


def rule_line(cb, body: str) -> str:
    vec = mock_rule_vector(body, cb.alphabet)
    return ", ".join(f"{code}={vec[code]}" for code in cb.alphabet)


def build_replay_script(corpus, cb, bcfg: BackendConfig, garbled=()) -> dict[str, list[str]]:
    """Fingerprint -> single scripted response, mirroring the run's prompts."""
    tpl = load_template()
    shot = ShotPolicy(shots=0)
    script: dict[str, list[str]] = {}
    for post in corpus.posts:
        rendered = render_prompt(post, cb, tpl, shot, seed=0, include_title=False)
        text = "nothing useful here" if post.id in garbled else rule_line(cb, post.body)
        script[cache_key(bcfg, rendered)] = [text]
    return script


def replay_cfg(tmp_path: Path, corpus_path: Path, script_path: Path, name: str = "rrun", **extra):
    extra.setdefault("backend", {})
    extra["backend"] = {
        "kind": "replay",
        "model": "replay-model",
        "replay_path": str(script_path),
        **extra["backend"],
    }
    extra.setdefault("retry", {"max_attempts": 1})
    return make_cfg(tmp_path, corpus_path, name=name, **extra)


# --- config loading -----------------------------------------------------------


def test_load_config_defaults(tmp_path, clean_corpus_path):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    assert cfg.dataset == "FIX"
    assert cfg.label == "FIX_0shot_mock"
    assert cfg.repeats == 1
    assert cfg.corpus_format == "post-lines"
    assert cfg.keywords_path is None and cfg.filter_rule is None
    assert cfg.split_at is None and cfg.sample_n is None
    assert cfg.sample_seed == 0 and cfg.sample_from == "pre"
    assert cfg.template_version == "v3-single-line"
    assert cfg.shots == 0 and cfg.selection is None and cfg.exemplar_seed == 0
    assert cfg.include_title is False and cfg.exemplar_budget == 1500
    assert cfg.parse_mode == "lenient"
    assert cfg.failure_policy == "exclude-and-report"
    assert cfg.bootstrap_resamples == 2000
    assert cfg.bootstrap_seed == 0 and cfg.bootstrap_metrics == ()
    assert cfg.backend.kind == "mock-rules"
    assert cfg.retry.max_attempts == 3


def test_load_config_label_defaults_from_stem_and_kind(tmp_path, clean_corpus_path):
    sections = base_config(tmp_path, clean_corpus_path)
    del sections["run"]["dataset"]
    del sections["backend"]["model"]
    path = write_config(tmp_path / "c.yaml", **sections)
    cfg = load_config(path)
    assert cfg.dataset == "clean"
    # no model configured, so the backend kind stands in
    assert cfg.label == "clean_0shot_mock-rules"


def test_load_config_explicit_label_wins(tmp_path, clean_corpus_path):
    cfg = make_cfg(tmp_path, clean_corpus_path, run={"label": "mylabel"})
    assert cfg.label == "mylabel"


def test_load_config_unknown_section(tmp_path, clean_corpus_path):
    sections = base_config(tmp_path, clean_corpus_path)
    sections["frobnicate"] = {"x": 1}
    path = write_config(tmp_path / "c.yaml", **sections)
    with pytest.raises(ConfigError, match="unknown section.*frobnicate"):
        load_config(path)


def test_load_config_unknown_key(tmp_path, clean_corpus_path):
    sections = base_config(tmp_path, clean_corpus_path)
    sections["run"]["bogus"] = 1
    path = write_config(tmp_path / "c.yaml", **sections)
    with pytest.raises(ConfigError, match="'run' has unknown key.*bogus"):
        load_config(path)


@pytest.mark.parametrize(
    "section,key,message",
    [
        ("corpus", "path", "requires corpus.path"),
        ("run", "output_dir", "requires run.output_dir"),
        ("backend", "kind", "requires backend.kind"),
    ],
)
def test_load_config_required_keys(tmp_path, clean_corpus_path, section, key, message):
    sections = base_config(tmp_path, clean_corpus_path)
    del sections[section][key]
    path = write_config(tmp_path / "c.yaml", **sections)
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_load_config_file_problems(tmp_path, clean_corpus_path):
    with pytest.raises(ConfigError, match="config file not found"):
        load_config(tmp_path / "absent.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("run: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(bad)
    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("42\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="must contain a mapping"):
        load_config(scalar)
    section = write_config(tmp_path / "section.yaml", **{**base_config(tmp_path, clean_corpus_path), "corpus": 5})
    with pytest.raises(ConfigError, match="^config section 'corpus' must be a mapping$"):
        load_config(section)


def test_load_config_missing_input_paths(tmp_path, clean_corpus_path):
    sections = base_config(tmp_path, clean_corpus_path)
    sections["corpus"]["path"] = str(tmp_path / "nope.jsonl")
    path = write_config(tmp_path / "c.yaml", **sections)
    with pytest.raises(ConfigError, match="corpus path does not exist"):
        load_config(path)

    sections = base_config(tmp_path, clean_corpus_path)
    sections["gold"]["path"] = str(tmp_path / "nogold.csv")
    path = write_config(tmp_path / "c2.yaml", **sections)
    with pytest.raises(ConfigError, match="gold path does not exist"):
        load_config(path)


def test_load_config_sample_validation(tmp_path, clean_corpus_path):
    sections = base_config(tmp_path, clean_corpus_path)
    sections["corpus"]["sample"] = {"n": 5, "bogus": 1}
    path = write_config(tmp_path / "c.yaml", **sections)
    with pytest.raises(ConfigError, match="'corpus.sample' has unknown key"):
        load_config(path)

    sections = base_config(tmp_path, clean_corpus_path)
    sections["corpus"]["sample"] = {"n": 5, "from": "middle"}
    path = write_config(tmp_path / "c2.yaml", **sections)
    with pytest.raises(ConfigError, match="must be 'pre' or 'post'"):
        load_config(path)


def test_load_config_split_at_validation(tmp_path, clean_corpus_path):
    sections = base_config(tmp_path, clean_corpus_path)
    sections["corpus"]["split_at"] = "not-a-time"
    path = write_config(tmp_path / "c.yaml", **sections)
    with pytest.raises(ConfigError, match="split_at is not a timestamp"):
        load_config(path)


def test_load_config_freezes_an_unquoted_yaml_timestamp_as_its_string(tmp_path, clean_corpus_path):
    path = write_config(tmp_path / "c.yaml", **base_config(tmp_path, clean_corpus_path))
    # unquoted, PyYAML reads the value as a datetime
    text = path.read_text(encoding="utf-8").replace("corpus:\n", "corpus:\n  split_at: 2023-07-01T00:00:00Z\n")
    path.write_text(text, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.split_at == "2023-07-01 00:00:00+00:00"
    assert cfg.to_dict()["split_at"] == "2023-07-01 00:00:00+00:00"


def test_load_config_parse_mode_validation(tmp_path, clean_corpus_path):
    cfg = make_cfg(tmp_path, clean_corpus_path, parsing={"mode": "strict"})
    assert cfg.parse_mode == "strict"
    sections = base_config(tmp_path, clean_corpus_path)
    sections["parsing"] = {"mode": "fuzzy"}
    path = write_config(tmp_path / "c.yaml", **sections)
    with pytest.raises(ConfigError, match="unknown parsing mode 'fuzzy'"):
        load_config(path)


def test_load_config_offline_forbids_remote(tmp_path, clean_corpus_path):
    sections = base_config(tmp_path, clean_corpus_path)
    sections["backend"] = {
        "kind": "remote-chat",
        "model": "m",
        "endpoint": "http://127.0.0.1:9/v1/chat",
    }
    path = write_config(tmp_path / "c.yaml", **sections)
    load_config(path)  # fine when online
    with pytest.raises(ConfigError, match="remote backends are forbidden in offline mode"):
        load_config(path, offline=True)


def test_load_config_seed_overrides(tmp_path, clean_corpus_path):
    sections = base_config(tmp_path, clean_corpus_path)
    path = write_config(tmp_path / "c.yaml", **sections)
    cfg = load_config(
        path, overrides={"sample_seed": 7, "exemplar_seed": 8, "bootstrap_seed": 9}
    )
    assert (cfg.sample_seed, cfg.exemplar_seed, cfg.bootstrap_seed) == (7, 8, 9)
    with pytest.raises(ConfigError, match="unknown seed override.*rng_seed"):
        load_config(path, overrides={"rng_seed": 1})


def test_load_config_repeats_rule(tmp_path, clean_corpus_path):
    # deterministic backends default to a single run
    assert make_cfg(tmp_path, clean_corpus_path, name="a").repeats == 1

    remote = {"kind": "remote-chat", "model": "m", "endpoint": "http://127.0.0.1:9/x"}
    sections = base_config(tmp_path, clean_corpus_path)
    sections["backend"] = {**remote, "temperature": 0.7}
    assert load_config(write_config(tmp_path / "b.yaml", **sections)).repeats == 3

    sections = base_config(tmp_path, clean_corpus_path)
    sections["backend"] = {**remote, "temperature": 0.0}
    assert load_config(write_config(tmp_path / "c.yaml", **sections)).repeats == 1

    # a sampling mock is still deterministic enough for one run
    sections = base_config(tmp_path, clean_corpus_path)
    sections["backend"]["temperature"] = 0.7
    assert load_config(write_config(tmp_path / "d.yaml", **sections)).repeats == 1

    cfg = make_cfg(tmp_path, clean_corpus_path, name="e", run={"repeats": 2})
    assert cfg.repeats == 2
    sections = base_config(tmp_path, clean_corpus_path)
    sections["run"]["repeats"] = 0
    path = write_config(tmp_path / "f.yaml", **sections)
    with pytest.raises(ConfigError, match="repeats must be >= 1"):
        load_config(path)


def test_load_config_bootstrap_metric_validation(tmp_path, clean_corpus_path):
    cfg = make_cfg(
        tmp_path, clean_corpus_path, evaluation={"bootstrap_metrics": ["f1", "accuracy"]}
    )
    assert cfg.bootstrap_metrics == ("f1", "accuracy")
    sections = base_config(tmp_path, clean_corpus_path)
    sections["evaluation"] = {"bootstrap_metrics": ["f2"]}
    path = write_config(tmp_path / "c.yaml", **sections)
    with pytest.raises(ConfigError, match="unknown bootstrap metric 'f2'"):
        load_config(path)


def test_load_config_bounds_resamples_only_when_bootstrap_metrics_are_asked(tmp_path, clean_corpus_path):
    cfg = make_cfg(tmp_path, clean_corpus_path, name="a", evaluation={"bootstrap_resamples": 0})
    assert cfg.bootstrap_resamples == 0 and cfg.bootstrap_metrics == ()
    least = {"bootstrap_resamples": 100, "bootstrap_metrics": ["f1"]}
    cfg = make_cfg(tmp_path, clean_corpus_path, name="b", evaluation=least)
    assert cfg.bootstrap_resamples == 100
    cfg = make_cfg(tmp_path, clean_corpus_path, name="c", evaluation={"bootstrap_resamples": 10**30})
    assert cfg.bootstrap_resamples == 10**30 and cfg.bootstrap_metrics == ()
    greatest = {"bootstrap_resamples": 1_000_000, "bootstrap_metrics": ["f1"]}
    cfg = make_cfg(tmp_path, clean_corpus_path, name="d", evaluation=greatest)
    assert cfg.bootstrap_resamples == 1_000_000


def test_load_config_failure_policy_validation(tmp_path, clean_corpus_path):
    sections = base_config(tmp_path, clean_corpus_path)
    sections["evaluation"] = {"failure_policy": "ignore"}
    path = write_config(tmp_path / "c.yaml", **sections)
    with pytest.raises(ConfigError, match="unknown failure_policy 'ignore'"):
        load_config(path)


@pytest.mark.parametrize("aggregation", ["macro", "per-theme", "pooled"])
def test_load_config_rejects_an_aggregation_other_than_micro(tmp_path, capsys, clean_corpus_path, aggregation):
    make_cfg(tmp_path, clean_corpus_path, evaluation={"aggregation": "micro"})
    assert capsys.readouterr().err == "warning: evaluation.aggregation is retired: every report is micro\n"
    sections = base_config(tmp_path, clean_corpus_path)
    sections["evaluation"] = {"aggregation": aggregation}
    path = write_config(tmp_path / "c.yaml", **sections)
    with pytest.raises(ConfigError, match=f"evaluation.aggregation must be 'micro', got '{aggregation}'"):
        load_config(path)


@pytest.mark.parametrize(
    "retry, max_attempts",
    [
        ({"reask_on_parse_failure": True}, 3),
        ({"reask_on_parse_failure": True, "max_attempts": 2}, 2),
        ({"reask_on_parse_failure": False, "max_attempts": 4}, 1),
    ],
    ids=["true", "true-beside-max-attempts", "false-beside-max-attempts"],
)
def test_load_config_reads_the_retired_reask_key_as_max_attempts(
    tmp_path, capsys, clean_corpus_path, retry, max_attempts
):
    assert make_cfg(tmp_path, clean_corpus_path, retry=retry).retry.max_attempts == max_attempts
    assert capsys.readouterr().err == (
        "warning: retry.reask_on_parse_failure is retired: "
        "retry.max_attempts replaces it, and false reads as retry.max_attempts: 1\n"
    )


def test_load_config_replay_script_must_exist(tmp_path, clean_corpus_path):
    sections = base_config(tmp_path, clean_corpus_path)
    sections["backend"] = {
        "kind": "replay",
        "replay_path": str(tmp_path / "absent.json"),
    }
    path = write_config(tmp_path / "c.yaml", **sections)
    with pytest.raises(ConfigError, match="replay script path does not exist"):
        load_config(path)


def test_readme_configuration_table_lists_every_config_key():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `([a-z_.]+)` \|", table, flags=re.M))
    keys = {f.metadata["key"] for f in dataclasses.fields(RunConfig)} - {"backend", "retry"}
    for section, cls in (("backend", BackendConfig), ("retry", RetryPolicy)):
        keys |= {f"{section}.{f.name}" for f in dataclasses.fields(cls)}
    assert documented == keys


# --- manifest, ledger, store, lock ---------------------------------------------


def test_build_manifest_hashes(tmp_path, clean_corpus_path):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    manifest = build_manifest(cfg, "SCAFFOLD TEXT")
    assert manifest["config"] == cfg.to_dict()
    assert manifest["hashes"]["corpus"] == sha256_of(clean_corpus_path)
    assert manifest["hashes"]["gold"] == sha256_of(FIXTURES / "gold_clean.csv")
    assert manifest["hashes"]["codebook"] is None
    assert manifest["hashes"]["keywords"] is None
    expected = hashlib.sha256("SCAFFOLD TEXT".encode("utf-8")).hexdigest()
    assert manifest["hashes"]["template_scaffold"] == expected
    assert isinstance(manifest["tool_version"], str) and manifest["tool_version"]
    parse_timestamp(manifest["started_at"])  # well-formed


def test_build_manifest_tracks_input_changes(tmp_path, clean_corpus_path):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    before = build_manifest(cfg, "S")["hashes"]["corpus"]
    clean_corpus_path.write_bytes(clean_corpus_path.read_bytes() + b"\n")
    after = build_manifest(cfg, "S")["hashes"]["corpus"]
    assert before != after


def test_run_ledger_round_trip(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    assert ledger.events() == []
    ledger.append({"event": "start", "total": 2})
    ledger.append({"event": "post", "post_id": "a", "status": "classified"})
    ledger.append({"event": "post", "post_id": "b", "status": "failed", "run_index": 2})
    ledger.close()
    events = ledger.events()
    assert [e["event"] for e in events] == ["start", "post", "post"]
    assert all("ts" in e for e in events)


def test_results_store_rejects_duplicates(tmp_path):
    store = ResultsStore(tmp_path / "results.jsonl")
    rec = {"post_id": "p1", "label": "L", "status": "failed"}
    store.append(dict(rec))
    with pytest.raises(DataError, match="two records for post 'p1' under label 'L'"):
        store.append(dict(rec))
    store.append({"post_id": "p1", "label": "M", "status": "failed"})
    store.close()
    assert len(store) == 2


def test_results_store_reload_and_read_results(tmp_path, cb):
    path = tmp_path / "results.jsonl"
    store = ResultsStore(path)
    vector = {code: (1 if code == "B" else 0) for code in cb.alphabet}
    store.append({"post_id": "p2", "label": "L", "status": "classified", "vector": vector})
    store.append({"post_id": "p1", "label": "L", "status": "failed"})
    store.close()

    reloaded = ResultsStore(path)
    assert len(reloaded) == 2
    assert reloaded.records == store.records
    assert reloaded.status_counts("L") == {"classified": 1, "failed": 1}
    assert list(read_results(path, cb.alphabet)) == ["L"]
    preds, failed = stored(path, cb)
    assert failed == ("p1",)
    assert by_id(preds) == {"p2": vector}


def test_read_results_rejects_corrupt_duplicates(tmp_path, cb):
    path = tmp_path / "results.jsonl"
    rec = json.dumps({"post_id": "p1", "label": "L", "status": "failed"})
    path.write_text(rec + "\n" + rec + "\n", encoding="utf-8")
    message = f"results store {path} has two records for post 'p1' under label 'L'"
    with pytest.raises(DataError, match=re.escape(message)):
        read_results(path, cb.alphabet)


def test_results_store_reload_rejects_corrupt_duplicates(tmp_path):
    path = tmp_path / "results.jsonl"
    rec = json.dumps({"post_id": "p1", "label": "L", "status": "failed"})
    path.write_text(rec + "\n" + rec + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="two records"):
        ResultsStore(path)


def test_run_lock_contention(tmp_path):
    run_dir = tmp_path / "run"
    with RunLock(run_dir):
        assert (run_dir / ".lock").exists()
        with pytest.raises(ConfigError, match="locked by another process"):
            with RunLock(run_dir):
                pass
    assert not (run_dir / ".lock").exists()
    with RunLock(run_dir):
        pass


SRC = Path(__file__).resolve().parents[1] / "src"


def kill_while_holding_lock(run_dir: Path) -> int:
    """Take the run lock in a child process, SIGKILL it there, reap it, and
    return its pid: the lock file a crash leaves behind."""
    code = (
        "import os, signal, sys\n"
        "from themecoder.pipeline import RunLock\n"
        "RunLock(sys.argv[1]).__enter__()\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code, str(run_dir)], env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60
    )
    assert child.returncode == -signal.SIGKILL
    return json.loads((run_dir / ".lock").read_text(encoding="utf-8"))["pid"]


def test_run_lock_names_its_holder(tmp_path):
    run_dir = tmp_path / "run"
    with RunLock(run_dir):
        holder = json.loads((run_dir / ".lock").read_text(encoding="utf-8"))
        assert (holder["pid"], holder["host"]) == (os.getpid(), socket.gethostname())
        who = re.escape(f"(pid {os.getpid()} on host {socket.gethostname()})")
        with pytest.raises(ConfigError, match=f"locked by another process {who}"):
            with RunLock(run_dir):
                pass


def test_run_lock_breaks_a_stale_lock_on_this_host(tmp_path, capsys, clean_corpus_path):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    dead = kill_while_holding_lock(cfg.output_dir)
    assert json.loads((cfg.output_dir / ".lock").read_text(encoding="utf-8"))["host"] == socket.gethostname()
    with RunLock(cfg.output_dir):
        assert json.loads((cfg.output_dir / ".lock").read_text(encoding="utf-8"))["pid"] == os.getpid() != dead
    assert not (cfg.output_dir / ".lock").exists()

    kill_while_holding_lock(cfg.output_dir)
    assert main(["classify", "--config", str(tmp_path / "run.yaml")]) == 0
    assert "classified=18, failed=0, total=18" in capsys.readouterr().out
    assert not (cfg.output_dir / ".lock").exists()


@pytest.mark.parametrize("holder", ["live-pid", "other-host", "no-pid", "not-an-object"])
def test_run_lock_keeps_a_lock_it_cannot_prove_stale(tmp_path, holder):
    run_dir = tmp_path / "run"
    lock = run_dir / ".lock"
    run_dir.mkdir()
    if holder in ("no-pid", "not-an-object"):  # no-pid: the format written before locks named their holder
        lock.write_text("2026-01-01T00:00:00+00:00\n" if holder == "no-pid" else "[1]\n", encoding="utf-8")
        who = "(no pid recorded)"
    else:
        pid = os.getpid() if holder == "live-pid" else kill_while_holding_lock(run_dir)
        host = socket.gethostname() if holder == "live-pid" else "elsewhere.example"
        lock.write_text(json.dumps({"pid": pid, "host": host}) + "\n", encoding="utf-8")
        who = f"(pid {pid} on host {host})"
    before = lock.read_bytes()
    with pytest.raises(ConfigError, match=re.escape(f"locked by another process {who}; remove {lock} if stale")):
        with RunLock(run_dir):
            pass
    assert lock.read_bytes() == before


# --- ingest ---------------------------------------------------------------------


def test_ingest_full_funnel(tmp_path, capsys, filter_oracle_ids, clean_oracle_ids):
    cfg = make_cfg(tmp_path, POSTS_50, corpus={"rule": "xylazine AND wound"})
    summary = cmd_ingest(cfg)
    assert summary["loaded"] == 50
    assert summary["filtered"] == 21
    assert summary["cleaned"] == 18
    assert summary["removed"] == {"blank": 0, "poorly_formatted": 1, "duplicate": 2}
    assert capsys.readouterr().out.strip() == "loaded=50, filtered=21, cleaned=18"

    out_dir = cfg.output_dir / "corpora"
    filtered = load_posts(out_dir / summary["outputs"]["filtered"])
    assert [p.id for p in filtered.posts] == filter_oracle_ids
    cleaned = load_posts(out_dir / summary["outputs"]["cleaned"])
    assert [p.id for p in cleaned.posts] == clean_oracle_ids

    on_disk = json.loads((cfg.output_dir / "ingest_summary.json").read_text(encoding="utf-8"))
    assert on_disk == summary


def test_ingest_without_filter(tmp_path, capsys, corpus50):
    cfg = make_cfg(tmp_path, POSTS_50)
    summary = cmd_ingest(cfg)
    oracle = dedup_clean(corpus50)
    assert summary["loaded"] == 50
    assert "filtered" not in summary
    assert summary["cleaned"] == len(oracle.corpus)
    assert summary["removed"] == dict(oracle.removed)
    out = capsys.readouterr().out.strip()
    assert out == f"loaded=50, cleaned={len(oracle.corpus)}"


def test_ingest_split_and_sample(tmp_path, clean_corpus_path):
    cfg = make_cfg(
        tmp_path,
        clean_corpus_path,
        corpus={"split_at": "2024-01-01T00:00:00Z", "sample": {"n": 5, "seed": 3}},
    )
    summary = cmd_ingest(cfg)

    cleaned = dedup_clean(load_posts(clean_corpus_path)).corpus
    pre, post = temporal_split(cleaned, parse_timestamp("2024-01-01T00:00:00Z"))
    assert summary["split_pre"] == len(pre)
    assert summary["split_post"] == len(post)
    assert summary["sampled"] == 5

    out_dir = cfg.output_dir / "corpora"
    sampled = load_posts(out_dir / summary["outputs"]["sampled"])
    oracle = sample_random(pre, SamplingSpec(target_n=5, seed=3))
    assert [p.id for p in sampled.posts] == [p.id for p in oracle.posts]


INGEST_SHA256 = {  # the sha256 of every file ingest writes for the config below
    "corpora/posts_50_clean.jsonl": "60cc3d4abcf1cc0503e7eba2dba31f27910e9a13d2ee0d7c2739f3bd54780234",
    "corpora/posts_50_filtered.jsonl": "dde45250d5d6ce175a8356fdb7c98da4c59b7f5fbd08675ffa9a47e43b95903e",
    "corpora/posts_50_post.jsonl": "fdc1f00ff41b97eb86e1aacbb326429bf3b5042450ecfb1c2d65ebfc95f83456",
    "corpora/posts_50_pre.jsonl": "96b5b0988b8fbb2a23288b9642d5f3cf33f9c7c0876e38dbe7fd4a05b870910c",
    "corpora/posts_50_pre_sampled.jsonl": "023e54b2e2a4a25eacc83949e129a96d0b296d189b4af00d459c943f1bc8d58a",
    "ingest_summary.json": "e84535af2c7bb20d02932c1cbc3aa4ce3cadd9bb791bdb5fd647f98ccc025e3c",
}


def test_ingest_output_bytes_are_pinned(tmp_path, capsys):
    cfg = make_cfg(
        tmp_path,
        POSTS_50,
        corpus={"rule": "xylazine AND wound", "split_at": "2024-01-01T00:00:00Z", "sample": {"n": 5, "seed": 3}},
    )
    cmd_ingest(cfg)
    written = sorted(p for p in cfg.output_dir.rglob("*") if p.is_file())
    got = {p.relative_to(cfg.output_dir).as_posix(): sha256_of(p) for p in written}
    assert got == INGEST_SHA256


def test_ingest_sample_from_post_side(tmp_path, clean_corpus_path):
    cfg = make_cfg(
        tmp_path,
        clean_corpus_path,
        corpus={
            "split_at": "2024-01-01T00:00:00Z",
            "sample": {"n": 4, "seed": 1, "from": "post"},
        },
    )
    summary = cmd_ingest(cfg)
    cleaned = dedup_clean(load_posts(clean_corpus_path)).corpus
    _, post = temporal_split(cleaned, parse_timestamp("2024-01-01T00:00:00Z"))
    oracle = sample_random(post, SamplingSpec(target_n=4, seed=1))
    sampled = load_posts(cfg.output_dir / "corpora" / summary["outputs"]["sampled"])
    assert [p.id for p in sampled.posts] == [p.id for p in oracle.posts]


def test_ingest_stage_errors_name_the_stage(tmp_path):
    cfg = make_cfg(tmp_path, POSTS_50, corpus={"rule": "xylazine AND"})
    with pytest.raises(ConfigError, match="^stage keyword_filter: "):
        cmd_ingest(cfg)

    cfg = make_cfg(tmp_path, POSTS_50, name="run2", corpus={"sample": {"n": 99}})
    with pytest.raises(DataError, match="^stage sample_random: "):
        cmd_ingest(cfg)


# --- classify -------------------------------------------------------------------


def test_classify_mock_run(tmp_path, capsys, clean_corpus_path, cb):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    stores = cmd_classify(cfg)
    assert len(stores) == 1
    store = stores[0]
    corpus = load_posts(clean_corpus_path)
    assert len(store) == len(corpus) == 18
    preds, failed = stored(store.path, cb)
    assert failed == ()
    # records commit in corpus order
    assert [r["post_id"] for r in store.records] == [p.id for p in corpus.posts]

    assert by_id(preds) == {post.id: mock_rule_vector(post.body, cb.alphabet) for post in corpus.posts}

    rec = store.records[0]
    assert rec["label"] == cfg.label
    assert rec["template_version"] == "v3-single-line"
    assert rec["backend_kind"] == "mock-rules"
    assert rec["attempts"] == 1 and rec["fingerprint"]
    assert "ts" not in rec

    out = capsys.readouterr().out
    assert "run 1/1: classified=18, failed=0, total=18" in out
    assert (cfg.output_dir / "manifest.json").exists()

    ledger = RunLedger(cfg.output_dir / "ledger.jsonl")
    assert [e["event"] for e in ledger.events()] == ["start", "end"]  # post statuses live in the store
    reloaded = ResultsStore(cfg.output_dir / "results.jsonl")
    assert {r["post_id"]: r["status"] for r in reloaded.records} == {p.id: "classified" for p in corpus.posts}


@pytest.mark.parametrize("version", TEMPLATE_VERSIONS)
def test_classify_a_codebook_of_only_the_null_theme_under_strict_parsing(tmp_path, clean_corpus_path, version):
    # every template then renders frames of one code, answered and parsed as "X=[0]"
    book = tmp_path / "null_only.yaml"
    book.write_text(json.dumps({"themes": [{"code": "X", "name": "None", "definition": "No theme applies"}]}))
    cfg = make_cfg(
        tmp_path,
        clean_corpus_path,
        codebook={"path": str(book)},
        prompting={"template_version": version},
        parsing={"mode": "strict"},
    )
    (store,) = cmd_classify(cfg)
    assert len(store) == 18
    assert {(rec["status"], rec["attempts"]) for rec in store.records} == {("classified", 1)}
    # a one-code alphabet reads each record's vector as a one-cell row
    payload = cmd_distribute(cfg)
    assert payload["n"] == 18 and payload["counts"] == {"X": 0}


def per_theme_prompts(post, cb):
    """The v1-per-theme frames of one post, as a zero-shot run renders them."""
    return render_prompt(post, cb, load_template("v1-per-theme"), ShotPolicy(shots=0), seed=0, include_title=False)


def test_classify_per_theme_merges_its_frames(tmp_path, clean_corpus_path, cb):
    single = make_cfg(tmp_path, clean_corpus_path, name="single")
    cfg = make_cfg(tmp_path, clean_corpus_path, prompting={"template_version": "v1-per-theme"})
    whole = {rec["post_id"]: rec["vector"] for rec in cmd_classify(single)[0].records}
    (store,) = cmd_classify(cfg)
    by_id = {post.id: post for post in load_posts(clean_corpus_path).posts}
    assert len(store.records) == 18
    for rec in store.records:
        prompts = per_theme_prompts(by_id[rec["post_id"]], cb)
        # each frame's answer is the mock rule of its one code; K and X, whose
        # rules read the other codes, see none of them, so only they may differ
        # from the one-line run's vector
        framewise = {rp.target[0]: mock_rule_vector(rp.post_text, rp.target)[rp.target[0]] for rp in prompts}
        assert rec["status"] == "classified" and rec["vector"] == framewise
        assert {c: v for c, v in rec["vector"].items() if c not in "KX"} == {
            c: v for c, v in whole[rec["post_id"]].items() if c not in "KX"
        }
        assert rec["attempts"] == len(cb.alphabet) == 13
        keys = [cache_key(cfg.backend, rp) for rp in prompts]
        assert rec["fingerprint"] == hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()


def test_classify_per_theme_fails_a_post_whose_one_frame_never_parses(tmp_path, clean_corpus_path, cb):
    corpus = load_posts(clean_corpus_path)
    broken = corpus.posts[0].id
    script_path = tmp_path / "script.json"
    bcfg = BackendConfig(kind="replay", model="replay-model", replay_path=str(script_path))
    script = {}
    for post in corpus.posts:
        vec = mock_rule_vector(post.body, cb.alphabet)
        for rp in per_theme_prompts(post, cb):
            (code,) = rp.target
            broken_frame = post.id == broken and code == "C"
            script[cache_key(bcfg, rp)] = ["no answer here"] * 3 if broken_frame else [f"{code}=[{vec[code]}]"]
    script_path.write_text(json.dumps(script), encoding="utf-8")

    cfg = replay_cfg(
        tmp_path, clean_corpus_path, script_path,
        prompting={"template_version": "v1-per-theme"}, retry={"max_attempts": 3},
    )
    (store,) = cmd_classify(cfg)
    statuses = {rec["post_id"]: rec["status"] for rec in store.records}
    assert statuses == {post.id: "failed" if post.id == broken else "classified" for post in corpus.posts}
    (rec,) = [rec for rec in store.records if rec["post_id"] == broken]
    (failure,) = rec["failures"]
    assert failure["reason"] == "no-line-found"
    assert failure["detail"].startswith("failed code(s): C: no-line-found")
    assert ";" not in failure["detail"]  # no other code failed
    assert rec["attempts"] == 12 + 3  # one for each frame that parsed, three for C


def run_digests(run_dir: Path) -> dict[str, str]:
    """sha256 of a run's results and cache files, and of its audit lines
    with the wall-clock ``ts`` and ``latency`` dropped."""
    audit = "".join(
        json.dumps({k: v for k, v in json.loads(line).items() if k not in ("ts", "latency")}, sort_keys=True) + "\n"
        for line in (run_dir / "audit.jsonl").read_text(encoding="utf-8").splitlines()
    )
    return {
        "results.jsonl": sha256_of(run_dir / "results.jsonl"),
        "cache.jsonl": sha256_of(run_dir / "cache.jsonl"),
        "audit.jsonl": hashlib.sha256(audit.encode("utf-8")).hexdigest(),
    }


CLASSIFY_SHA256 = {
    "mock": {
        "results.jsonl": "49eb23e6e3800f407aa4b46c53e54515a291f31049010da9212814429cfa3e95",
        "cache.jsonl": "d4da833fcaa63cf4ee5d9f40153dcb2226cff295ad88c8466e16b20f5af8e386",
        "audit.jsonl": "2b266b6f4b5a510ff9cf6a4e480f3b838107b873e9fba8836a802bcc52b54305",
    },
    "v3": {
        "results.jsonl": "f10ebcf087c6c7ab9d55b151b43e8d34981eab292a2ae34a47ea3bef52d71eaa",
        "cache.jsonl": "949a6401331424e610de1361ab482d9471c6874a594b6205bc90fab6fabc5d81",
        "audit.jsonl": "9e92c4e45c324c9d98ab32e9c62fbf0c37c67585bb41aa0ba25b895864f3b1d4",
    },
    "v3-hit": {
        "results.jsonl": "f10ebcf087c6c7ab9d55b151b43e8d34981eab292a2ae34a47ea3bef52d71eaa",
        "cache.jsonl": "949a6401331424e610de1361ab482d9471c6874a594b6205bc90fab6fabc5d81",
        "audit.jsonl": "14252cb97d1e59aefbd4c8db145b18423fb3e260fe60da0ac156b874a37bce04",
    },
    "v1": {
        "results.jsonl": "519a3036a1375041bf0c0a33e94df5c0efbf0cb5ce8e00947a7851fe7d1fb390",
        "cache.jsonl": "6a5b401700ee58bab4d8e8e05e42f3da0ef83161e90a953f4eceafedbbbf3dea",
        "audit.jsonl": "47ae44729939ffc09448b77cac3a479b1effdb0410386ff5c1a884e098595c47",
    },
    "v1-hit": {
        "results.jsonl": "519a3036a1375041bf0c0a33e94df5c0efbf0cb5ce8e00947a7851fe7d1fb390",
        "cache.jsonl": "6a5b401700ee58bab4d8e8e05e42f3da0ef83161e90a953f4eceafedbbbf3dea",
        "audit.jsonl": "3ebe1b48da43af36d9266c6dc995a36710ecaacdce3c24e66ddd89749ad2a087",
    },
}


def test_classify_bytes_are_pinned(tmp_path, clean_corpus_path, cb):
    """Every record shape a run writes: classified at the first attempt and
    at a re-ask, failed after the attempt budget, a v1 post whose one frame
    never parses, and the same runs again from a copied cache."""
    corpus = load_posts(clean_corpus_path)
    script_path = tmp_path / "script.json"
    bcfg = BackendConfig(kind="replay", model="replay-model", replay_path=str(script_path))
    reask, spent, broken = (post.id for post in corpus.posts[:3])
    script = {}
    for post in corpus.posts:
        line = rule_line(cb, post.body)
        v3 = render_prompt(post, cb, load_template(), ShotPolicy(shots=0), seed=0, include_title=False)
        texts = {reask: ["no answer here", line], spent: ["no answer here", "A=2", "A=0"]}.get(post.id, [line])
        script[cache_key(bcfg, v3)] = texts
        vec = mock_rule_vector(post.body, cb.alphabet)
        for rp in per_theme_prompts(post, cb):
            (code,) = rp.target
            never = post.id == broken and code == "C"
            script[cache_key(bcfg, rp)] = ["no answer here"] * 3 if never else [f"{code}=[{vec[code]}]"]
    script_path.write_text(json.dumps(script), encoding="utf-8")

    runs = {"mock": make_cfg(tmp_path, clean_corpus_path, name="mock")}
    cmd_classify(runs["mock"])
    for name, version in (("v3", "v3-single-line"), ("v1", "v1-per-theme")):
        extra = {"prompting": {"template_version": version}, "retry": {"max_attempts": 3}}
        live = runs[name] = replay_cfg(tmp_path, clean_corpus_path, script_path, name=name, **extra)
        cmd_classify(live)
        hit = runs[f"{name}-hit"] = replay_cfg(tmp_path, clean_corpus_path, script_path, name=f"{name}-hit", **extra)
        hit.output_dir.mkdir()
        (hit.output_dir / "cache.jsonl").write_bytes((live.output_dir / "cache.jsonl").read_bytes())
        cmd_classify(hit)
    assert {name: run_digests(cfg.output_dir) for name, cfg in runs.items()} == CLASSIFY_SHA256


def counted(calls: Counter, name: str, fn):
    """``fn``, counting its calls under ``name``, as the benchmark's tracer wraps it."""

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_classify_calls_the_traced_names_once_per_attempt_and_frame(tmp_path, monkeypatch, clean_corpus_path, cb):
    # perfbench reads attempts, frames and parses off these names; a call that
    # bypassed one would zero or skew its counts
    calls = Counter()
    monkeypatch.setattr(backends, "complete", counted(calls, "complete", backends.complete))
    for name in ("classify_with_retry", "parse_single_answer", "parse_single_line"):
        monkeypatch.setattr(pipeline, name, counted(calls, name, getattr(pipeline, name)))
    corpus = load_posts(clean_corpus_path)
    script_path = tmp_path / "script.json"
    bcfg = BackendConfig(kind="replay", model="replay-model", replay_path=str(script_path))
    script = {}
    for i, post in enumerate(corpus.posts):
        vec = mock_rule_vector(post.body, cb.alphabet)
        for rp in per_theme_prompts(post, cb):
            (code,) = rp.target
            answer = f"{code}=[{vec[code]}]"
            reasks = {0: ["no answer here"] * 3, 1: ["no answer here", answer]}.get(i, [answer])
            script[cache_key(bcfg, rp)] = reasks if code == "C" else [answer]
    script_path.write_text(json.dumps(script), encoding="utf-8")
    extra = {"prompting": {"template_version": "v1-per-theme"}, "retry": {"max_attempts": 3}}

    live = replay_cfg(tmp_path, clean_corpus_path, script_path, name="live", **extra)
    (store,) = cmd_classify(live)
    audit = [json.loads(line) for line in (live.output_dir / "audit.jsonl").read_text(encoding="utf-8").splitlines()]
    ok = sum(rec["status"] == "ok" for rec in audit)
    assert ok == sum(rec["attempts"] for rec in store.records) == 13 * 18 + 2 + 1
    assert (calls["complete"], calls["classify_with_retry"]) == (ok, 13 * 18)
    assert (calls["parse_single_answer"], calls["parse_single_line"]) == (ok, 0)

    calls.clear()
    hit = replay_cfg(tmp_path, clean_corpus_path, script_path, name="hit", **extra)
    hit.output_dir.mkdir()
    (hit.output_dir / "cache.jsonl").write_bytes((live.output_dir / "cache.jsonl").read_bytes())
    cmd_classify(hit)
    assert (calls["complete"], calls["classify_with_retry"]) == (0, 13 * 18)
    assert (calls["parse_single_answer"], calls["parse_single_line"]) == (ok, 0)

    calls.clear()
    cmd_classify(make_cfg(tmp_path, clean_corpus_path, name="v3", prompting={"template_version": "v3-single-line"}))
    assert (calls["complete"], calls["classify_with_retry"]) == (18, 18)
    assert (calls["parse_single_answer"], calls["parse_single_line"]) == (0, 18)


def test_classify_byte_identity_across_runs(tmp_path, clean_corpus_path):
    cfg_a = make_cfg(tmp_path, clean_corpus_path, name="a")
    cfg_b = make_cfg(tmp_path, clean_corpus_path, name="b")
    cmd_classify(cfg_a)
    cmd_classify(cfg_b)
    bytes_a = (cfg_a.output_dir / "results.jsonl").read_bytes()
    bytes_b = (cfg_b.output_dir / "results.jsonl").read_bytes()
    assert bytes_a == bytes_b


def test_classify_order_independent_of_concurrency(tmp_path, clean_corpus_path):
    cfg_one = make_cfg(tmp_path, clean_corpus_path, name="w1", backend={"in_flight_limit": 1})
    cfg_many = make_cfg(tmp_path, clean_corpus_path, name="w8", backend={"in_flight_limit": 8})
    cmd_classify(cfg_one)
    cmd_classify(cfg_many)
    lines_one = (cfg_one.output_dir / "results.jsonl").read_bytes()
    lines_many = (cfg_many.output_dir / "results.jsonl").read_bytes()
    assert lines_one == lines_many


def test_classify_manifest_write_once(tmp_path, clean_corpus_path):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    cmd_classify(cfg)
    with pytest.raises(ConfigError, match="already exists; pass resume"):
        cmd_classify(cfg)


def test_classify_resume_refuses_changed_config(tmp_path, clean_corpus_path):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    cmd_classify(cfg)
    changed = make_cfg(tmp_path, clean_corpus_path, name="changed", parsing={"mode": "strict"})
    changed = dataclasses.replace(changed, output_dir=cfg.output_dir)
    with pytest.raises(ConfigError, match="^resume refused: config key parsing.mode differs from the original manifest$"):
        cmd_classify(changed, resume=True)


def test_classify_resume_refuses_changed_input(tmp_path, capsys, clean_corpus_path):
    cfg_path = write_config(tmp_path / "run.yaml", **base_config(tmp_path, clean_corpus_path))
    assert main(["classify", "--config", str(cfg_path)]) == 0
    clean_corpus_path.write_bytes(clean_corpus_path.read_bytes() + b"\n")
    capsys.readouterr()
    assert main(["classify", "--config", str(cfg_path), "--resume"]) == 1
    assert capsys.readouterr().err == "error: resume refused: input corpus differs from the original manifest\n"


DROP = object()


def manifest_edit(path: str, value=DROP):
    """An edit of a manifest that sets the entry at dotted ``path``, or drops it."""

    def edit(manifest: dict) -> None:
        *parents, leaf = path.split(".")
        node = manifest
        for name in parents:
            node = node[name]
        if value is DROP:
            del node[leaf]
        else:
            node[leaf] = value

    return edit


def differs(what: str) -> str:
    return f"{what} differs from the original manifest"


@pytest.mark.parametrize(
    "edit, changes, refusal",
    [
        (manifest_edit("config.exemplar_budget"), {}, None),
        (manifest_edit("config.retry.backoff_cap"), {}, None),
        (manifest_edit("config.exemplar_budget"), {"prompting": {"exemplar_budget": 900}},
         differs("config key prompting.exemplar_budget")),
        (manifest_edit("config.output_dir"), {}, differs("config key run.output_dir")),
        (manifest_edit("config.backend.kind"), {}, differs("config key backend.kind")),
        (manifest_edit("config.aggregation", "micro"), {}, None),
        (manifest_edit("config.retry.reask_on_parse_failure", True), {}, None),
        (manifest_edit("config.retry.reask_on_parse_failure", False), {"retry": {"max_attempts": 1}}, None),
        (manifest_edit("config.retry.reask_on_parse_failure", False), {}, differs("config key retry.max_attempts")),
        (manifest_edit("config.retry", "x"), {}, "the original manifest's config key retry is not an object"),
        (manifest_edit("config.backend", []), {}, "the original manifest's config key backend is not an object"),
        (manifest_edit("config.retry", None), {}, "the original manifest's config key retry is not an object"),
        (manifest_edit("config", None), {}, "the original manifest's config is not an object"),
        (manifest_edit("config.bogus", 1), {}, "the original manifest's config key bogus is unknown"),
        (manifest_edit("config.retry.bogus", 1), {}, "the original manifest's config key retry.bogus is unknown"),
        (manifest_edit("config.retry.reask_on_parse_failure", "yes"), {},
         "the original manifest's retry.reask_on_parse_failure must be bool, got 'yes'"),
        (manifest_edit("config.retry.reask_on_parse_failure", 1), {},
         "the original manifest's retry.reask_on_parse_failure must be bool, got 1"),
        (manifest_edit("config.aggregation", "macro"), {},
         "the original manifest's evaluation.aggregation must be 'micro', got 'macro'"),
        (manifest_edit("hashes.gold", "0" * 64), {}, differs("input gold")),
        (manifest_edit("hashes", None), {}, differs("input hashes")),
        (manifest_edit("config.include_title", 0), {},
         "the original manifest's prompting.include_title must be bool, got 0"),
        (manifest_edit("config.retry.max_attempts", 3.0), {}, "the original manifest's retry.max_attempts must be int, got 3.0"),
        (manifest_edit("config.repeats", True), {}, "the original manifest's run.repeats must be int, got True"),
        (manifest_edit("config.retry.backoff_cap", 8), {}, None),
        (manifest_edit("config.retry.backoff_cap", 10.0), {"retry": {"backoff_cap": 10}}, None),
    ],
    ids=[
        "later-key", "later-nested-key", "later-key-other-value", "required-key", "required-nested-key",
        "aggregation-micro", "reask-true", "reask-false-at-one-attempt", "reask-false-at-three-attempts",
        "section-string", "section-list", "section-null", "config-null", "unknown-key",
        "unknown-nested-key", "retired-string", "retired-int", "retired-other-value", "changed-hash", "hashes-null",
        "bool-key-int", "int-key-float", "int-key-bool", "float-key-int", "float-key-float-for-int",
    ],
)
def test_classify_resume_compares_the_manifest_key_by_key(tmp_path, capsys, clean_corpus_path, edit, changes, refusal):
    """A key the manifest lacks reads as its default and a retired key as what
    replaced it; an old value of the wrong JSON type refuses, as in a config file
    (a float key takes an int); any other difference refuses, naming the first key that differs."""
    first = write_config(tmp_path / "first.yaml", **base_config(tmp_path, clean_corpus_path))
    assert main(["classify", "--config", str(first)]) == 0
    path = tmp_path / "run" / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    edit(manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")
    again = write_config(tmp_path / "again.yaml", **base_config(tmp_path, clean_corpus_path, **changes))
    capsys.readouterr()
    code = main(["classify", "--config", str(again), "--resume"])
    out, err = capsys.readouterr()
    if refusal is None:
        assert (code, err) == (0, "")
        assert out == "run 1/1: classified=18, failed=0, total=18\n"
    else:
        assert (code, err, out) == (1, f"error: resume refused: {refusal}\n", "")


def test_classify_resumes_a_manifest_config_with_every_key_set(tmp_path, capsys, clean_corpus_path):
    """A manifest whose frozen config was written key by key, with every
    config key set, still matches the config it came from."""
    template = tmp_path / "tpl.txt"
    template.write_text(load_template().scaffold, encoding="utf-8")
    out = tmp_path / "run"
    frozen = {
        "label": "every_key",
        "dataset": "FIXALL",
        "output_dir": str(out),
        "repeats": 2,
        "corpus_path": str(clean_corpus_path),
        "corpus_format": "post-lines",
        "keywords_path": str(DEFAULT_KEYWORDS_PATH),
        "filter_rule": "xylazine AND wound",
        "split_at": "2023-07-01T00:00:00Z",
        "sample_n": 5,
        "sample_seed": 3,
        "sample_from": "post",
        "codebook_path": str(DEFAULT_CODEBOOK_PATH),
        "gold_path": str(FIXTURES / "gold_clean.csv"),
        "template_version": "v3-single-line",
        "template_path": str(template),
        "shots": 2,
        "selection": [0, 2],
        "exemplar_seed": 5,
        "include_title": True,
        "exemplar_budget": 900,
        "parse_mode": "strict",
        "backend": {
            "kind": "mock-rules",
            "model": "mock",
            "endpoint": "http://127.0.0.1:9/v1/chat",
            "temperature": 0.5,
            "max_output_tokens": 64,
            "credential_env": "FIXALL_KEY",
            "timeout": 5.0,
            "replay_path": "unused.json",
            "in_flight_limit": 2,
            "requests_per_second": 10.0,
        },
        "retry": {
            "max_attempts": 2,
            "reask_on_parse_failure": False,
            "backoff_initial": 0.25,
            "backoff_multiplier": 3.0,
            "backoff_cap": 4.0,
            "transport_retries": 1,
        },
        "aggregation": "micro",
        "failure_policy": "score-as-wrong",
        "bootstrap_resamples": 300,
        "bootstrap_seed": 4,
        "bootstrap_metrics": ["f1", "accuracy"],
    }
    cfg_path = write_config(
        tmp_path / "every.yaml",
        run={"label": "every_key", "dataset": "FIXALL", "output_dir": str(out), "repeats": 2},
        corpus={
            "path": str(clean_corpus_path),
            "format": "post-lines",
            "keywords": str(DEFAULT_KEYWORDS_PATH),
            "rule": "xylazine AND wound",
            "split_at": "2023-07-01T00:00:00Z",
            "sample": {"n": 5, "seed": 3, "from": "post"},
        },
        codebook={"path": str(DEFAULT_CODEBOOK_PATH)},
        gold={"path": str(FIXTURES / "gold_clean.csv")},
        prompting={
            "template_version": "v3-single-line",
            "template_path": str(template),
            "shots": 2,
            "selection": [0, 2],
            "exemplar_seed": 5,
            "include_title": True,
            "exemplar_budget": 900,
        },
        parsing={"mode": "strict"},
        backend=frozen["backend"],
        retry=frozen["retry"],
        evaluation={
            "aggregation": "micro",
            "failure_policy": "score-as-wrong",
            "bootstrap_resamples": 300,
            "bootstrap_seed": 4,
            "bootstrap_metrics": ["f1", "accuracy"],
        },
    )
    manifest = build_manifest(load_config(cfg_path), template.read_text(encoding="utf-8"))
    manifest["config"] = frozen
    out.mkdir()
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")

    assert main(["classify", "--config", str(cfg_path), "--resume"]) == 0
    assert "run 2/2: classified=18, failed=0, total=18" in capsys.readouterr().out
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["config"] == frozen


def test_classify_repeats_write_separate_stores(tmp_path, capsys, clean_corpus_path):
    cfg = make_cfg(tmp_path, clean_corpus_path, run={"repeats": 2})
    stores = cmd_classify(cfg)
    assert len(stores) == 2
    r1 = cfg.output_dir / "results_r1.jsonl"
    r2 = cfg.output_dir / "results_r2.jsonl"
    assert r1.exists() and r2.exists()
    # a deterministic backend repeats itself exactly
    assert r1.read_bytes() == r2.read_bytes()
    out = capsys.readouterr().out
    assert "run 1/2: classified=18, failed=0, total=18" in out
    assert "run 2/2: classified=18, failed=0, total=18" in out


def test_classify_replay_records_parse_failures(tmp_path, capsys, clean_corpus_path, cb):
    corpus = load_posts(clean_corpus_path)
    garbled = {corpus.posts[0].id, corpus.posts[1].id}
    script_path = tmp_path / "script.json"
    bcfg = BackendConfig(kind="replay", model="replay-model", replay_path=str(script_path))
    script = build_replay_script(corpus, cb, bcfg, garbled=garbled)
    script_path.write_text(json.dumps(script), encoding="utf-8")

    cfg = replay_cfg(tmp_path, clean_corpus_path, script_path)
    store = cmd_classify(cfg)[0]
    preds, failed = stored(store.path, cb)
    assert failed == tuple(sorted(garbled))
    assert len(preds) == 16
    failed = [r for r in store.records if r["status"] == "failed"]
    for rec in failed:
        assert rec["failures"][0]["reason"] == "no-line-found"
        assert rec["attempts"] == 1
    assert "run 1/1: classified=16, failed=2, total=18" in capsys.readouterr().out


def test_classify_backend_error_aborts_and_ledgers(tmp_path, clean_corpus_path, cb):
    corpus = load_posts(clean_corpus_path)
    script_path = tmp_path / "script.json"
    bcfg = BackendConfig(kind="replay", model="replay-model", replay_path=str(script_path))
    script = build_replay_script(corpus, cb, bcfg)
    # drop the ninth post's entry so the run dies mid-flight
    victim = corpus.posts[8]
    rendered = render_prompt(victim, cb, load_template(), ShotPolicy(shots=0), seed=0, include_title=False)
    del script[cache_key(bcfg, rendered)]
    script_path.write_text(json.dumps(script), encoding="utf-8")

    cfg = replay_cfg(tmp_path, clean_corpus_path, script_path)
    with pytest.raises(BackendError, match="replay script has no entry"):
        cmd_classify(cfg)
    events = RunLedger(cfg.output_dir / "ledger.jsonl").events()
    assert events[-1]["event"] == "abort"
    store = ResultsStore(cfg.output_dir / "results.jsonl")
    assert len(store) == 8  # everything before the missing entry committed


def test_classify_kill_and_resume_byte_identity(tmp_path, capsys, clean_corpus_path, cb):
    corpus = load_posts(clean_corpus_path)
    script_path = tmp_path / "script.json"
    bcfg = BackendConfig(kind="replay", model="replay-model", replay_path=str(script_path))
    full_script = build_replay_script(corpus, cb, bcfg)

    script_path.write_text(json.dumps(full_script), encoding="utf-8")
    baseline = replay_cfg(tmp_path, clean_corpus_path, script_path, name="base")
    cmd_classify(baseline)
    baseline_bytes = (baseline.output_dir / "results.jsonl").read_bytes()

    # interrupt: only the first eight posts are scripted
    kept = set()
    for post in corpus.posts[:8]:
        rendered = render_prompt(post, cb, load_template(), ShotPolicy(shots=0), seed=0, include_title=False)
        kept.add(cache_key(bcfg, rendered))
    truncated = {fp: texts for fp, texts in full_script.items() if fp in kept}
    script_path.write_text(json.dumps(truncated), encoding="utf-8")
    resumed = replay_cfg(tmp_path, clean_corpus_path, script_path, name="resumed")
    with pytest.raises(BackendError):
        cmd_classify(resumed)
    assert len(ResultsStore(resumed.output_dir / "results.jsonl")) == 8

    # the backend comes back; the same run continues where it stopped
    script_path.write_text(json.dumps(full_script), encoding="utf-8")
    capsys.readouterr()
    cmd_classify(resumed, resume=True)
    assert "run 1/1: classified=18, failed=0, total=18" in capsys.readouterr().out
    resumed_bytes = (resumed.output_dir / "results.jsonl").read_bytes()
    assert resumed_bytes == baseline_bytes


def drop_script_entry(script: dict, bcfg: BackendConfig, cb, post) -> None:
    rendered = render_prompt(post, cb, load_template(), ShotPolicy(shots=0), seed=0, include_title=False)
    del script[cache_key(bcfg, rendered)]


def test_classify_abort_stops_submitting_within_window(tmp_path, monkeypatch, clean_corpus_path, cb):
    corpus = load_posts(clean_corpus_path)
    script_path = tmp_path / "script.json"
    bcfg = BackendConfig(kind="replay", model="replay-model", replay_path=str(script_path))
    script = build_replay_script(corpus, cb, bcfg)
    drop_script_entry(script, bcfg, cb, corpus.posts[2])
    script_path.write_text(json.dumps(script), encoding="utf-8")
    calls = []
    real_raw = ReplayBackend._raw
    monkeypatch.setattr(ReplayBackend, "_raw", lambda self, *a: calls.append(a) or real_raw(self, *a))

    limit = 2
    cfg = replay_cfg(tmp_path, clean_corpus_path, script_path, backend={"in_flight_limit": limit})
    assert main(["classify", "--config", str(tmp_path / "rrun.yaml")]) == 3
    assert len(calls) <= 3 + 2 * limit < len(corpus)
    assert RunLedger(cfg.output_dir / "ledger.jsonl").events()[-1]["event"] == "abort"
    assert len(ResultsStore(cfg.output_dir / "results.jsonl")) == 2


@pytest.mark.parametrize("abort", [False, True], ids=["success", "abort"])
def test_classify_opens_each_run_file_once_and_closes_it(tmp_path, monkeypatch, clean_corpus_path, cb, abort):
    made: list[JsonLines] = []
    appends: list[str] = []
    real_init, real_open = JsonLines.__init__, Path.open

    def recording_init(self, path):
        real_init(self, path)
        made.append(self)

    def recording_open(self, mode="r", *args, **kwargs):
        if mode.startswith("a"):
            appends.append(self.name)
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(JsonLines, "__init__", recording_init)
    monkeypatch.setattr(Path, "open", recording_open)
    corpus = load_posts(clean_corpus_path)
    script_path = tmp_path / "script.json"
    bcfg = BackendConfig(kind="replay", model="replay-model", replay_path=str(script_path))
    script = build_replay_script(corpus, cb, bcfg)
    if abort:
        drop_script_entry(script, bcfg, cb, corpus.posts[8])
    script_path.write_text(json.dumps(script), encoding="utf-8")
    cfg = replay_cfg(tmp_path, clean_corpus_path, script_path)
    if abort:
        with pytest.raises(BackendError):
            cmd_classify(cfg)
    else:
        cmd_classify(cfg)

    names = ["audit.jsonl", "cache.jsonl", "ledger.jsonl", "results.jsonl"]
    assert sorted(f.path.name for f in made) == names
    assert sorted(appends) == names  # one append handle per file for the whole run
    assert all(f._fh is None for f in made)


def test_classify_local_backend_runs_on_the_calling_thread(tmp_path, monkeypatch, clean_corpus_path):
    threads = []
    real_raw = MockRulesBackend._raw
    monkeypatch.setattr(
        MockRulesBackend, "_raw", lambda self, *a: threads.append(threading.get_ident()) or real_raw(self, *a)
    )
    cmd_classify(make_cfg(tmp_path, clean_corpus_path, backend={"in_flight_limit": 8}))
    assert len(threads) == 18 and set(threads) == {threading.get_ident()}


def test_classify_local_cache_and_audit_follow_corpus_order(tmp_path, clean_corpus_path, cb):
    runs = [make_cfg(tmp_path, clean_corpus_path, name=n, backend={"in_flight_limit": 8}) for n in ("a", "b")]
    for cfg in runs:
        cmd_classify(cfg)
    cache_a, cache_b = ((cfg.output_dir / "cache.jsonl").read_bytes() for cfg in runs)
    assert cache_a == cache_b
    bcfg = runs[0].backend
    expected = [
        cache_key(bcfg, render_prompt(p, cb, load_template(), ShotPolicy(shots=0), seed=0, include_title=False))
        for p in load_posts(clean_corpus_path).posts
    ]
    assert [json.loads(line)["fingerprint"] for line in cache_a.splitlines()] == expected
    audits = [
        [{k: v for k, v in json.loads(line).items() if k not in ("ts", "latency")} for line in lines]
        for lines in ((cfg.output_dir / "audit.jsonl").read_bytes().splitlines() for cfg in runs)
    ]
    assert audits[0] == audits[1] and [r["fingerprint"] for r in audits[0]] == expected


def test_classify_replay_abort_makes_exactly_three_calls(tmp_path, monkeypatch, clean_corpus_path, cb):
    corpus = load_posts(clean_corpus_path)
    script_path = tmp_path / "script.json"
    bcfg = BackendConfig(kind="replay", model="replay-model", replay_path=str(script_path))
    script = build_replay_script(corpus, cb, bcfg)
    drop_script_entry(script, bcfg, cb, corpus.posts[2])
    script_path.write_text(json.dumps(script), encoding="utf-8")
    calls = []
    real_raw = ReplayBackend._raw
    monkeypatch.setattr(ReplayBackend, "_raw", lambda self, *a: calls.append(a) or real_raw(self, *a))
    cfg = replay_cfg(tmp_path, clean_corpus_path, script_path, backend={"in_flight_limit": 4})
    with pytest.raises(BackendError):
        cmd_classify(cfg)
    assert len(calls) == 3
    assert RunLedger(cfg.output_dir / "ledger.jsonl").events()[-1]["event"] == "abort"


def test_classify_refuses_a_bad_replay_script_before_writing_any_run_file(tmp_path, capsys, clean_corpus_path, cb):
    script_path = tmp_path / "script.json"
    script_path.write_text("{not json", encoding="utf-8")
    cfg = replay_cfg(tmp_path, clean_corpus_path, script_path)
    assert main(["classify", "--config", str(tmp_path / "rrun.yaml")]) == 1
    assert "is not valid JSON" in capsys.readouterr().err
    assert not (cfg.output_dir / "manifest.json").exists()
    assert not (cfg.output_dir / "ledger.jsonl").exists()
    bcfg = BackendConfig(kind="replay", model="replay-model", replay_path=str(script_path))
    script_path.write_text(json.dumps(build_replay_script(load_posts(clean_corpus_path), cb, bcfg)), encoding="utf-8")
    assert main(["classify", "--config", str(tmp_path / "rrun.yaml")]) == 0  # no resume needed
    assert len(ResultsStore(cfg.output_dir / "results.jsonl")) == 18


# --- classify against a chat endpoint on 127.0.0.1 ------------------------------


def remote_run(tmp_path, corpus_path, chat_server, cb, name="remote", limit=4, delays=(), status=None):
    """Config for a remote-chat run against ``chat_server``, which answers
    post i's prompt with its rule line after ``delays[i]`` seconds (0 past
    the end); ``status`` maps a post index to another HTTP status for it."""
    replies = {}  # prompt -> (HTTP status, reply text, seconds to wait first)
    for i, post in enumerate(load_posts(corpus_path).posts):
        rendered = render_prompt(post, cb, load_template(), ShotPolicy(shots=0), seed=0, include_title=False)
        delay = delays[i] if i < len(delays) else 0.0
        replies[rendered.text] = ((status or {}).get(i, 200), rule_line(cb, post.body), delay)

    def answer(request):
        code, text, delay = replies[request["body"]["messages"][0]["content"]]
        time.sleep(delay)
        return code, chat_payload(text)

    chat_server["answer"] = answer
    return make_cfg(
        tmp_path,
        corpus_path,
        name=name,
        backend={
            "kind": "remote-chat",
            "model": "stub-model",
            "endpoint": chat_server["endpoint"],
            "credential_env": "TC_TEST_KEY",
            "timeout": 5.0,
            "in_flight_limit": limit,
        },
        retry={"max_attempts": 1, "transport_retries": 0},
    )


def test_classify_remote_commits_in_corpus_order_under_out_of_order_replies(
    tmp_path, monkeypatch, clean_corpus_path, cb, chat_server
):
    monkeypatch.setenv("TC_TEST_KEY", "test-key")
    serial = remote_run(tmp_path, clean_corpus_path, chat_server, cb, name="serial", limit=1)
    cmd_classify(serial)
    assert chat_server["peak"] == 1
    pooled = remote_run(tmp_path, clean_corpus_path, chat_server, cb, name="pooled", limit=4, delays=(0.3, 0.2, 0.1))
    cmd_classify(pooled)
    assert chat_server["peak"] > 1  # the pool overlapped requests
    results = (pooled.output_dir / "results.jsonl").read_bytes()
    assert results == (serial.output_dir / "results.jsonl").read_bytes()
    corpus = load_posts(clean_corpus_path)
    assert [json.loads(line)["post_id"] for line in results.splitlines()] == [p.id for p in corpus.posts]
    preds, _ = stored(pooled.output_dir / "results.jsonl", cb)
    assert by_id(preds) == {
        p.id: mock_rule_vector(p.body, cb.alphabet) for p in corpus.posts
    }


@pytest.mark.parametrize("limit", [1, 3])
def test_classify_remote_auth_failure_stops_within_window(
    tmp_path, monkeypatch, clean_corpus_path, cb, chat_server, limit
):
    monkeypatch.setenv("TC_TEST_KEY", "test-key")
    # a slow first reply holds the commit back while the other workers run ahead
    cfg = remote_run(tmp_path, clean_corpus_path, chat_server, cb, limit=limit, delays=(0.3,), status={2: 401})
    assert main(["classify", "--config", str(tmp_path / "remote.yaml")]) == 3
    assert len(chat_server["requests"]) <= 3 + 2 * limit < 18
    assert RunLedger(cfg.output_dir / "ledger.jsonl").events()[-1]["event"] == "abort"
    assert len(ResultsStore(cfg.output_dir / "results.jsonl")) == 2


@pytest.mark.parametrize("kind", ["mock-rules", "remote-chat"])
def test_classify_interrupt_exits_130_and_resumes_byte_identical(
    tmp_path, monkeypatch, capsys, clean_corpus_path, cb, chat_server, kind
):
    monkeypatch.setenv("TC_TEST_KEY", "test-key")
    limit = 2
    if kind == "remote-chat":
        whole, cut = (
            remote_run(tmp_path, clean_corpus_path, chat_server, cb, name=name, limit=limit)
            for name in ("whole", "cut")
        )
    else:
        whole, cut = (make_cfg(tmp_path, clean_corpus_path, name=name) for name in ("whole", "cut"))
    cmd_classify(whole)
    tenth = json.loads((whole.output_dir / "results.jsonl").read_bytes().splitlines()[9])["post_id"]
    calls = itertools.count(1)
    real_one = pipeline._classify_one

    def interrupted_at_tenth(post, *args, **kwargs):
        next(calls)
        if post.id == tenth:
            raise KeyboardInterrupt
        return real_one(post, *args, **kwargs)

    monkeypatch.setattr(pipeline, "_classify_one", interrupted_at_tenth)
    capsys.readouterr()
    assert main(["classify", "--config", str(tmp_path / "cut.yaml")]) == 130
    assert capsys.readouterr().err == "error: interrupted; continue with classify --resume\n"
    events = RunLedger(cut.output_dir / "ledger.jsonl").events()
    assert [(e["event"], e["run_index"]) for e in events] == [("start", 1), ("interrupt", 1)]
    assert len(ResultsStore(cut.output_dir / "results.jsonl")) == 9
    # the pool cancels its queued posts: at most 2 * limit start after the interrupted one
    assert next(calls) - 1 <= 10 + 2 * limit < 18

    monkeypatch.setattr(pipeline, "_classify_one", real_one)
    assert main(["classify", "--config", str(tmp_path / "cut.yaml"), "--resume"]) == 0
    assert (cut.output_dir / "results.jsonl").read_bytes() == (whole.output_dir / "results.jsonl").read_bytes()


def test_classify_remote_runs_at_most_twice_the_limit_ahead_of_a_slow_head(
    tmp_path, monkeypatch, clean_corpus_path, cb, chat_server
):
    monkeypatch.setenv("TC_TEST_KEY", "test-key")
    plain = remote_run(tmp_path, clean_corpus_path, chat_server, cb, name="plain", limit=2)
    cmd_classify(plain)
    slow = remote_run(tmp_path, clean_corpus_path, chat_server, cb, name="slow", limit=2, delays=(0.3,))
    answer, answered = chat_server["answer"], []

    def logged(request):
        reply = answer(request)
        answered.append(request["body"]["messages"][0]["content"])
        return reply

    chat_server["answer"] = logged
    cmd_classify(slow)
    assert (slow.output_dir / "results.jsonl").read_bytes() == (plain.output_dir / "results.jsonl").read_bytes()
    post0 = load_posts(clean_corpus_path).posts[0]
    first = render_prompt(post0, cb, load_template(), ShotPolicy(shots=0), seed=0, include_title=False).text
    # 2 * limit posts may be taken but not committed: post 0 and at most 3 behind it
    assert 1 <= answered.index(first) <= 3


def foreground_threads() -> int:
    """Live non-daemon threads; the chat endpoint's handler threads are daemons
    and may still be closing their connections."""
    return sum(not t.daemon for t in threading.enumerate())


@pytest.mark.parametrize("fault", ["auth", "disk-full", "worker-interrupt", "join-interrupt"])
def test_classify_remote_failure_surfaces_on_the_calling_thread_and_leaves_no_thread(
    tmp_path, monkeypatch, capsys, clean_corpus_path, cb, chat_server, fault
):
    monkeypatch.setenv("TC_TEST_KEY", "test-key")
    whole = remote_run(tmp_path, clean_corpus_path, chat_server, cb, name="whole", limit=2)
    cmd_classify(whole)
    status = {2: 401} if fault == "auth" else None
    cut = remote_run(tmp_path, clean_corpus_path, chat_server, cb, name="cut", limit=2, status=status)
    real_one, real_append = pipeline._classify_one, ResultsStore.append
    sixth = load_posts(clean_corpus_path).posts[5].id
    appends = itertools.count(1)

    def full_at_fifth(self, rec):
        if next(appends) == 5:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self.path))
        real_append(self, rec)

    def interrupted_at_sixth(post, *args, **kwargs):
        if post.id == sixth:
            if fault == "worker-interrupt":
                raise KeyboardInterrupt
            os.kill(os.getpid(), signal.SIGINT)  # reaches the calling thread while it joins the workers
            time.sleep(0.2)
        return real_one(post, *args, **kwargs)

    if fault == "disk-full":
        monkeypatch.setattr(ResultsStore, "append", full_at_fifth)
    elif fault.endswith("interrupt"):
        monkeypatch.setattr(pipeline, "_classify_one", interrupted_at_sixth)
    capsys.readouterr()
    before = foreground_threads()
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        exit_code = main(["classify", "--config", str(tmp_path / "cut.yaml")])
    finally:
        signal.signal(signal.SIGINT, handler)
    assert exit_code == {"auth": 3, "disk-full": 1, "worker-interrupt": 130, "join-interrupt": 130}[fault]
    assert foreground_threads() == before
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert len(ResultsStore(cut.output_dir / "results.jsonl")) < 18

    monkeypatch.undo()
    monkeypatch.setenv("TC_TEST_KEY", "test-key")
    remote_run(tmp_path, clean_corpus_path, chat_server, cb, name="cut", limit=2)
    assert main(["classify", "--config", str(tmp_path / "cut.yaml"), "--resume"]) == 0
    assert (cut.output_dir / "results.jsonl").read_bytes() == (whole.output_dir / "results.jsonl").read_bytes()


@pytest.mark.parametrize("abort", [False, True], ids=["success", "abort"])
def test_classify_remote_closes_run_files_after_the_pool_drains(
    tmp_path, monkeypatch, clean_corpus_path, cb, chat_server, abort
):
    monkeypatch.setenv("TC_TEST_KEY", "test-key")
    clock = itertools.count()
    post_ends: list[int] = []
    closes: dict[str, int] = {}
    appends: list[str] = []
    real_one, real_close, real_open = pipeline._classify_one, JsonLines.close, Path.open

    def timed_one(*args, **kwargs):
        try:
            return real_one(*args, **kwargs)
        finally:
            post_ends.append(next(clock))

    def timed_close(self):
        if self._fh is not None:
            closes[self.path.name] = next(clock)
        real_close(self)

    def recording_open(self, mode="r", *args, **kwargs):
        if mode.startswith("a"):
            appends.append(self.name)
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(pipeline, "_classify_one", timed_one)
    monkeypatch.setattr(JsonLines, "close", timed_close)
    monkeypatch.setattr(Path, "open", recording_open)
    # with two workers, post 4 is still waiting on its reply when post 3's 401 aborts the run
    cfg = remote_run(
        tmp_path, clean_corpus_path, chat_server, cb, limit=2, delays=(0.05, 0.05, 0.0, 0.3),
        status={2: 401} if abort else None,
    )
    if abort:
        with pytest.raises(BackendError, match="HTTP 401"):
            cmd_classify(cfg)
    else:
        cmd_classify(cfg)

    names = ["audit.jsonl", "cache.jsonl", "ledger.jsonl", "results.jsonl"]
    assert sorted(closes) == names
    assert sorted(appends) == names  # nothing reopened a file after it closed
    assert 4 <= len(post_ends) <= 3 + 2 * 2 if abort else len(post_ends) == 18
    assert max(post_ends) < min(closes.values())


def test_classify_remote_keeps_two_connections_alive_and_writes_the_same_results(
    tmp_path, monkeypatch, clean_corpus_path, cb, chat_server
):
    monkeypatch.setenv("TC_TEST_KEY", "test-key")
    closing_each = remote_run(tmp_path, clean_corpus_path, chat_server, cb, name="closing", limit=2)
    cmd_classify(closing_each)
    assert chat_server["connections"] == 18  # HTTP/1.0: one connection per request
    chat_server["keep_alive"], chat_server["connections"] = True, 0
    kept = remote_run(tmp_path, clean_corpus_path, chat_server, cb, name="kept", limit=2)
    cmd_classify(kept)
    assert 1 <= chat_server["connections"] <= 2
    assert (kept.output_dir / "results.jsonl").read_bytes() == (closing_each.output_dir / "results.jsonl").read_bytes()
    assert all_closed(chat_server)


def test_classify_remote_reconnects_once_when_the_server_drops_an_idle_connection(
    tmp_path, monkeypatch, clean_corpus_path, cb, chat_server
):
    monkeypatch.setenv("TC_TEST_KEY", "test-key")
    chat_server["keep_alive"] = chat_server["drop_first"] = True
    cfg = remote_run(tmp_path, clean_corpus_path, chat_server, cb, limit=1)  # no transport retry to fall back on
    cmd_classify(cfg)
    audit = [json.loads(line) for line in (cfg.output_dir / "audit.jsonl").read_text(encoding="utf-8").splitlines()]
    (reconnect,) = [rec for rec in audit if rec["status"] != "ok"]
    assert reconnect["status"] == "reconnect" and reconnect["attempt"] == 1
    assert reconnect["detail"] in ("RemoteDisconnected", "ConnectionResetError", "BrokenPipeError")
    records = [json.loads(line) for line in (cfg.output_dir / "results.jsonl").read_text(encoding="utf-8").splitlines()]
    assert reconnect["fingerprint"] == records[1]["fingerprint"]  # the second post went out on the dropped connection
    preds, failed = stored(cfg.output_dir / "results.jsonl", cb)
    corpus = load_posts(clean_corpus_path)
    assert not failed and by_id(preds) == {p.id: mock_rule_vector(p.body, cb.alphabet) for p in corpus.posts}
    assert len(chat_server["requests"]) == 18 and chat_server["connections"] == 2
    assert all_closed(chat_server)


@pytest.mark.parametrize("outcome", ["success", "abort", "interrupt"])
def test_classify_remote_kept_alive_run_leaves_no_connection_open(
    tmp_path, monkeypatch, clean_corpus_path, cb, chat_server, outcome
):
    monkeypatch.setenv("TC_TEST_KEY", "test-key")
    chat_server["keep_alive"] = True
    remote_run(tmp_path, clean_corpus_path, chat_server, cb, limit=3, status={5: 401} if outcome == "abort" else None)
    if outcome == "interrupt":
        real_one, tenth = pipeline._classify_one, load_posts(clean_corpus_path).posts[9].id

        def interrupted_at_tenth(post, *args, **kwargs):
            if post.id == tenth:
                raise KeyboardInterrupt
            return real_one(post, *args, **kwargs)

        monkeypatch.setattr(pipeline, "_classify_one", interrupted_at_tenth)
    assert main(["classify", "--config", str(tmp_path / "remote.yaml")]) == {"success": 0, "abort": 3, "interrupt": 130}[outcome]
    assert chat_server["connections"] >= 1
    assert all_closed(chat_server)
    gc.collect()  # a socket left to the collector would warn here, and the warning fails the test


def tear(path: Path, keep: int, torn: bool) -> None:
    """Keep the first ``keep`` lines of a run file, plus half of the next
    one when ``torn``, as a kill in the middle of a write leaves it."""
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:keep]) + (lines[keep][: len(lines[keep]) // 2] if torn else b""))


def finished_run_with_ten_ledger_events(cfg, name: str) -> None:
    """Classify the whole corpus. When the ledger is the file under test,
    resume the finished run five times so that, at two events (start and
    end) per resume, the ledger has more than ten lines to damage."""
    cmd_classify(cfg)
    if name == "ledger.jsonl":
        for _ in range(5):
            cmd_classify(cfg, resume=True)
        assert len((cfg.output_dir / name).read_text(encoding="utf-8").splitlines()) >= 10


@pytest.mark.parametrize("name", ["results.jsonl", "cache.jsonl", "ledger.jsonl", "audit.jsonl"])
def test_classify_resume_drops_a_torn_last_line(tmp_path, clean_corpus_path, name):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    finished_run_with_ten_ledger_events(cfg, name)
    baseline = (cfg.output_dir / "results.jsonl").read_bytes()
    tear(cfg.output_dir / "results.jsonl", 9, torn=name == "results.jsonl")  # leaves posts to redo
    if name != "results.jsonl":
        tear(cfg.output_dir / name, 9, torn=True)

    cmd_classify(cfg, resume=True)
    assert (cfg.output_dir / "results.jsonl").read_bytes() == baseline
    lines = (cfg.output_dir / name).read_text(encoding="utf-8").splitlines()
    assert len(lines) > 9 and all(isinstance(json.loads(line), dict) for line in lines)
    events = RunLedger(cfg.output_dir / "ledger.jsonl").events()
    torn = [e for e in events if e["event"] == "torn-tail"]
    assert [(e["file"], e["run_index"]) for e in torn] == [(name, 1)]
    assert 0 < torn[0]["bytes"] < 1000


@pytest.mark.parametrize("name", ["results.jsonl", "cache.jsonl", "ledger.jsonl"])
def test_classify_resume_rejects_damage_before_the_last_line(tmp_path, clean_corpus_path, name):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    finished_run_with_ten_ledger_events(cfg, name)
    path = cfg.output_dir / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines[3] = lines[3][:10] + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(DataError, match=f"{name} line 4 is not valid JSON"):
        cmd_classify(cfg, resume=True)


def test_results_store_completes_an_unterminated_last_line(tmp_path):
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps({"post_id": "p1", "label": "L", "status": "failed"}), encoding="utf-8")
    store = ResultsStore(path)
    assert len(store) == 1 and store.torn == 0
    store.append({"post_id": "p2", "label": "L", "status": "failed"})
    store.close()
    assert [r["post_id"] for r in ResultsStore(path).records] == ["p1", "p2"]


# --- evaluate -------------------------------------------------------------------


def test_evaluate_store_mode_matches_direct_scoring(tmp_path, capsys, clean_corpus_path, cb):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    store = cmd_classify(cfg)[0]
    capsys.readouterr()
    reports = cmd_evaluate(cfg)
    report = reports[cfg.label]

    corpus = load_posts(clean_corpus_path)
    gold = load_gold(FIXTURES / "gold_clean.csv", corpus, cb)
    preds, _ = stored(store.path, cb)
    direct = evaluate_predictions(
        gold, preds, cb, failed_ids=(), failure_policy="exclude-and-report",
        label=cfg.label,
    )
    assert report.micro == direct.micro
    assert report.macro == direct.macro
    assert report.n_posts == 18 and report.n_failures == 0
    # the seeded gold flips leave most decisions agreeing
    assert 0.85 <= report.micro.accuracy < 1.0

    report_dir = cfg.output_dir / "reports" / cfg.label
    written = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))
    assert written == report.to_dict()
    header = (report_dir / "metrics.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "scope,label,tp,fp,fn,tn,precision,recall,f1,accuracy,avg_rank,count,percentage,delta_pp"

    m = report.micro
    line = capsys.readouterr().out.strip()
    assert line == (
        f"{cfg.label}: P={m.precision:.3f}, R={m.recall:.3f}, F1={m.f1:.3f}, "
        f"Acc={m.accuracy:.3f}, n_posts=18"
    )
    # a single label produces no ranking
    assert not (cfg.output_dir / "reports" / "ranking.json").exists()


def test_evaluate_requires_gold(tmp_path, clean_corpus_path):
    cfg = make_cfg(tmp_path, clean_corpus_path, gold=None)
    cmd_classify(cfg)
    with pytest.raises(ConfigError, match="requires gold.path"):
        cmd_evaluate(cfg)


def test_evaluate_without_stores(tmp_path, clean_corpus_path):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    cfg.output_dir.mkdir(parents=True)
    with pytest.raises(DataError, match="no results stores found"):
        cmd_evaluate(cfg)


def test_evaluate_gold_coverage(tmp_path, clean_corpus_path, cb):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    cfg.output_dir.mkdir(parents=True)
    vector = {code: 0 for code in cb.alphabet}
    rec = {"post_id": "p999", "label": "L", "status": "classified", "vector": vector}
    (cfg.output_dir / "results.jsonl").write_text(json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="gold does not cover 1 evaluated post.*p999"):
        cmd_evaluate(cfg)


def test_evaluate_failure_banner_and_policies(tmp_path, capsys, clean_corpus_path, cb):
    corpus = load_posts(clean_corpus_path)
    garbled = {corpus.posts[0].id, corpus.posts[1].id}
    script_path = tmp_path / "script.json"
    bcfg = BackendConfig(kind="replay", model="replay-model", replay_path=str(script_path))
    script = build_replay_script(corpus, cb, bcfg, garbled=garbled)
    script_path.write_text(json.dumps(script), encoding="utf-8")
    cfg = replay_cfg(tmp_path, clean_corpus_path, script_path)
    cmd_classify(cfg)
    capsys.readouterr()

    reports = cmd_evaluate(cfg)
    report = reports[cfg.label]
    assert report.n_posts == 16 and report.n_failures == 2
    assert "n_posts=16, failures=2 (exclude-and-report)" in capsys.readouterr().out

    wrong = replay_cfg(
        tmp_path, clean_corpus_path, script_path, name="wrongpolicy",
        evaluation={"failure_policy": "score-as-wrong"},
    )
    wrong = dataclasses.replace(wrong, output_dir=cfg.output_dir)
    scored = cmd_evaluate(wrong)[cfg.label]
    assert scored.n_posts == 18 and scored.n_failures == 2
    # scoring failures as wrong can only pull accuracy down
    assert scored.micro.accuracy < report.micro.accuracy


def test_evaluate_repeat_stores_fold_into_stats(tmp_path, clean_corpus_path):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    cmd_classify(cfg)
    results = cfg.output_dir / "results.jsonl"
    # a second identical run of the same label
    (cfg.output_dir / "results_b.jsonl").write_bytes(results.read_bytes())
    results.rename(cfg.output_dir / "results_a.jsonl")
    report = cmd_evaluate(cfg)[cfg.label]
    assert report.stats is not None
    assert report.stats.r == 2
    assert report.stats.mean["f1"] == pytest.approx(report.micro.f1)
    assert report.stats.sd["f1"] == pytest.approx(0.0)


def test_evaluate_repeats_draw_one_bootstrap_per_label(tmp_path, monkeypatch, clean_corpus_path):
    cfg = make_cfg(
        tmp_path, clean_corpus_path, run={"repeats": 3},
        evaluation={"bootstrap_metrics": ["f1"], "bootstrap_resamples": 200},
    )
    for r, store in enumerate(cmd_classify(cfg), start=1):
        # a second label whose repeats differ: its middle repeat is flipped
        (cfg.output_dir / f"results_mixed_r{r}.jsonl").write_text(
            "".join(relabelled(store.path, "mixed", flip=r == 2)), encoding="utf-8"
        )
    draws = []
    real = evaluation._resample_sums
    monkeypatch.setattr(evaluation, "_resample_sums", lambda *a, **k: draws.append(1) or real(*a, **k))
    reports = cmd_evaluate(cfg)
    assert len(draws) == len(reports) == 2
    assert reports["mixed"].stats.r == 3 and reports["mixed"].stats.sd["f1"] > 0
    # the bytes these reports had when every repeat drew its own bootstrap
    assert {
        f"{label}/{name}": sha256_of(cfg.output_dir / "reports" / label / name)
        for label in reports
        for name in ("report.json", "metrics.csv")
    } == {
        "FIX_0shot_mock/report.json": "60e71fdb6e90683b13ea65871f3f8993c8cae72babc706d369269307efddb77a",
        "FIX_0shot_mock/metrics.csv": "53723501dfd6d088a239fe65b229e666538919ce6a5ec92b3459b5e91ffc05eb",
        "mixed/report.json": "4267ffa2311668174c63d5e6b414d3bb60a3663ef4c4db6e81427661da5646e0",
        "mixed/metrics.csv": "2105d19338aa74016ab0424c442cbe7ee3e31806be97761f09b23347800ffddb",
    }


def test_evaluate_two_labels_produce_ranking(tmp_path, capsys, clean_corpus_path, cb):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    store = cmd_classify(cfg)[0]
    (cfg.output_dir / "results_flipped.jsonl").write_text(
        "".join(relabelled(store.path, "zzz_flipped", flip=True)), encoding="utf-8"
    )
    capsys.readouterr()
    reports = cmd_evaluate(cfg)
    assert set(reports) == {cfg.label, "zzz_flipped"}
    ranking = json.loads((cfg.output_dir / "reports" / "ranking.json").read_text(encoding="utf-8"))
    assert [row["label"] for row in ranking] == [cfg.label, "zzz_flipped"]
    assert ranking[0]["avg_rank"] == 1.0 and ranking[1]["avg_rank"] == 2.0


def test_evaluate_explicit_store_paths(tmp_path, clean_corpus_path):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    cmd_classify(cfg)
    moved = tmp_path / "elsewhere.jsonl"
    (cfg.output_dir / "results.jsonl").rename(moved)
    reports = cmd_evaluate(cfg, store_paths=[moved])
    assert reports[cfg.label].n_posts == 18


def test_evaluate_refuses_one_label_from_two_run_directories(tmp_path, capsys, clean_corpus_path):
    cfg_path = write_config(tmp_path / "run.yaml", **base_config(tmp_path, clean_corpus_path))
    assert main(["classify", "--config", str(cfg_path)]) == 0
    first = tmp_path / "run" / "results.jsonl"
    second = tmp_path / "other" / "results.jsonl"
    second.parent.mkdir()
    second.write_bytes(first.read_bytes())
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg_path), "--store", str(first), "--store", str(second)]) == 2
    assert capsys.readouterr().err == (
        f"error: results stores {first} and {second} are from different run directories but both hold "
        "label 'FIX_0shot_mock'; give each run its own run.label\n"
    )
    assert not (tmp_path / "run" / "reports").exists()


def test_evaluate_pools_the_repeats_of_one_run_directory(tmp_path, capsys, clean_corpus_path):
    sections = base_config(tmp_path, clean_corpus_path, run={"repeats": 2})
    cfg_path = write_config(tmp_path / "run.yaml", **sections)
    assert main(["classify", "--config", str(cfg_path)]) == 0
    stores = [str(tmp_path / "run" / f"results_r{r}.jsonl") for r in (1, 2)]
    assert main(["evaluate", "--config", str(cfg_path), "--store", stores[0], "--store", stores[1]]) == 0
    report = json.loads((tmp_path / "run" / "reports" / "FIX_0shot_mock" / "report.json").read_text("utf-8"))
    assert report["run_stats"]["r"] == 2


# a label names the directory its report goes to, so it must stay inside reports/
BAD_LABELS = pytest.mark.parametrize(
    "label",
    ["ABSOLUTE", "../outside", "a/../../b", "", ".", "a\x00b"],
    ids=["absolute", "parent", "nested-parent", "empty", "dot", "nul"],
)


def bad_label(tmp_path: Path, label: str) -> str:
    """``label``, with ABSOLUTE standing for a directory under ``tmp_path``."""
    return str(tmp_path / "escaped") if label == "ABSOLUTE" else label


def tree(root: Path) -> set[Path]:
    return set(root.rglob("*"))


@BAD_LABELS
def test_evaluate_refuses_a_store_label_outside_reports(tmp_path, capsys, clean_corpus_path, label):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    store = cmd_classify(cfg)[0]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(relabelled(store.path, bad_label(tmp_path, label), flip=False)), encoding="utf-8")
    before = tree(tmp_path)
    assert main(["evaluate", "--config", str(tmp_path / "run.yaml"), "--store", str(bad)]) == 2
    assert tree(tmp_path) == before
    assert f"{bad} line 1: record label" in capsys.readouterr().err
    with pytest.raises(DataError, match="line 1: record label"):
        ResultsStore(bad)


@BAD_LABELS
def test_config_refuses_a_run_label_outside_reports(tmp_path, capsys, clean_corpus_path, label):
    sections = base_config(tmp_path, clean_corpus_path, run={"label": bad_label(tmp_path, label)})
    path = write_config(tmp_path / "run.yaml", **sections)
    before = tree(tmp_path)
    for command in ("classify", "evaluate"):
        assert main([command, "--config", str(path)]) == 1
        assert "run.label" in capsys.readouterr().err
    assert tree(tmp_path) == before


def test_a_label_with_slashes_nests_under_reports(tmp_path, clean_corpus_path):
    cfg = make_cfg(tmp_path, clean_corpus_path, run={"label": "org/model"})
    cmd_classify(cfg)
    assert set(cmd_evaluate(cfg)) == {"org/model"}
    assert (cfg.output_dir / "reports" / "org" / "model" / "report.json").is_file()


def test_evaluate_and_distribute_open_each_results_file_once(tmp_path, monkeypatch, capsys, clean_corpus_path):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    cmd_classify(cfg)
    first = cfg.output_dir / "results.jsonl"
    second = tmp_path / "second.jsonl"
    second.write_text("".join(relabelled(first, "other", flip=False)), encoding="utf-8")
    opened: list[Path] = []
    real_open = Path.open

    def recording_open(self, *args, **kwargs):
        opened.append(self)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", recording_open)
    assert set(cmd_evaluate(cfg, store_paths=[first, second])) == {cfg.label, "other"}
    assert [p for p in opened if p in (first, second)] == [first, second]
    opened.clear()
    cmd_distribute(cfg, store_path=second)
    assert [p for p in opened if p in (first, second)] == [second]


# --- distribute -----------------------------------------------------------------


def test_distribute_counts_and_files(tmp_path, capsys, clean_corpus_path, cb):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    store = cmd_classify(cfg)[0]
    capsys.readouterr()
    payload = cmd_distribute(cfg)

    preds, _ = stored(store.path, cb)
    dist = theme_distribution(preds, cb)
    assert payload["n"] == 18 and payload["n_failed"] == 0
    assert payload["counts"] == dict(dist.counts)
    for code in cb.alphabet:
        assert payload["percentages"][code] == pytest.approx(dist.percentage(code))
    expected_top = sorted(cb.alphabet, key=lambda c: (-dist.counts[c], c))[:5]
    assert payload["top_themes"] == expected_top

    out_lines = capsys.readouterr().out.strip().splitlines()
    assert out_lines == [
        f"{c}: {dist.counts[c]} ({dist.percentage(c):.1f}%)" for c in expected_top
    ]

    reports = cfg.output_dir / "reports"
    on_disk = json.loads((reports / "distribution.json").read_text(encoding="utf-8"))
    assert on_disk == payload
    with (reports / "distribution.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["code", "count", "percentage"]
    assert [r[0] for r in rows[1:]] == list(cb.alphabet)


def test_distribute_pools_labels_keeping_the_row_of_the_last_label(tmp_path, capsys, clean_corpus_path, cb):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    results = cmd_classify(cfg)[0].path
    preds, _ = stored(results, cb)
    # the label that sorts last is written first; its rows win over the later lines
    lines = relabelled(results, "zzz_flipped", flip=True) + relabelled(results, cfg.label, flip=False)
    results.write_text("".join(lines), encoding="utf-8")
    payload = cmd_distribute(cfg)
    counts = dict(theme_distribution(preds, cb).counts)
    assert payload["n"] == 18 and payload["n_failed"] == 0
    assert payload["counts"] == {code: 18 - n for code, n in counts.items()} != counts


def test_distribute_missing_store(tmp_path, clean_corpus_path):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    with pytest.raises(DataError, match="results store not found"):
        cmd_distribute(cfg)


def test_distribute_requires_classified_posts(tmp_path, clean_corpus_path):
    cfg = make_cfg(tmp_path, clean_corpus_path)
    cfg.output_dir.mkdir(parents=True)
    rec = {"post_id": "p1", "label": "L", "status": "failed"}
    (cfg.output_dir / "results.jsonl").write_text(json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="has no classified posts"):
        cmd_distribute(cfg)


# --- rank -----------------------------------------------------------------------


def test_rank_reference_table(tmp_path, capsys):
    ranking = cmd_rank(FIXTURES / "ds1_reference_metrics.csv", out_dir=tmp_path / "out")
    assert len(ranking.rows) == 15
    ranks = [row.avg_rank for row in ranking.rows]
    assert ranks == sorted(ranks)
    assert (tmp_path / "out" / "ranking.json").exists()
    assert (tmp_path / "out" / "ranking.csv").exists()
    with (tmp_path / "out" / "ranking.csv").open(encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == [
        "label", *METRIC_NAMES, *(f"rank_{m}" for m in METRIC_NAMES), "avg_rank"
    ]
    assert len(capsys.readouterr().out.strip().splitlines()) == 15


def test_rank_is_row_order_invariant(tmp_path):
    source = (FIXTURES / "ds1_reference_metrics.csv").read_text(encoding="utf-8").splitlines()
    header, rows = source[0], source[1:]
    random.Random(5).shuffle(rows)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    original = cmd_rank(FIXTURES / "ds1_reference_metrics.csv")
    reordered = cmd_rank(shuffled)
    assert [r.label for r in original.rows] == [r.label for r in reordered.rows]
    assert [r.avg_rank for r in original.rows] == [r.avg_rank for r in reordered.rows]


def test_rank_table_errors(tmp_path):
    with pytest.raises(DataError, match="metrics table not found"):
        cmd_rank(tmp_path / "absent.csv")

    missing_col = tmp_path / "missing.csv"
    missing_col.write_text("label,precision,recall,accuracy\nm,0.5,0.5,0.5\n", encoding="utf-8")
    with pytest.raises(DataError, match="missing column 'f1'"):
        cmd_rank(missing_col)

    bad_row = tmp_path / "bad.csv"
    bad_row.write_text(
        "label,precision,recall,f1,accuracy\nm,oops,0.5,0.5,0.5\n", encoding="utf-8"
    )
    with pytest.raises(DataError, match="row 2"):
        cmd_rank(bad_row)

    empty = tmp_path / "empty.csv"
    empty.write_text("label,precision,recall,f1,accuracy\n", encoding="utf-8")
    with pytest.raises(DataError, match="has no rows"):
        cmd_rank(empty)
