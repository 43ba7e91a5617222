"""Command line behavior: verbs, flags, and the exit code contract.

Exit codes: 0 success, 1 usage or config problems, 2 data problems,
3 backend failures.
"""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
from contextlib import contextmanager

import pytest
import yaml

from chat import chat_payload
from conftest import FIXTURES, base_config, write_config

from themecoder import jsonl, pipeline
from themecoder.cli import main
from themecoder.backends import BackendConfig, cache_key
from themecoder.codebook import DEFAULT_CODEBOOK_PATH, load_codebook
from themecoder.corpus import DEFAULT_KEYWORDS_PATH, SamplingSpec, dedup_clean, load_posts, sample_random
from themecoder.jsonl import atomic_write
from themecoder.pipeline import load_config
from themecoder.prompting import ShotPolicy, load_template, render_prompt

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


@pytest.mark.parametrize("cells", ["", ",0.9,0.1"], ids=["too-few", "too-many"])
def test_metrics_table_row_of_the_wrong_width_exits_two(tmp_path, capsys, cells):
    lines = DS2.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2].rstrip("\n").rsplit(",", 1)[0] + cells + "\n"  # row 3 drops or adds a cell
    table = tmp_path / "table.csv"
    table.write_text("".join(lines), encoding="utf-8")
    assert main(["rank", "--metrics-table", str(table)]) == 2
    assert capsys.readouterr().err == f"error: metrics table {table} row 3: wrong cell count\n"


def test_metrics_table_label_given_twice_exits_two(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text(DS2.read_text(encoding="utf-8") + "DS2_gpt-4o,0.5,0.5,0.5,0.5\n", encoding="utf-8")
    out = tmp_path / "ranked"
    assert main(["rank", "--metrics-table", str(table), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: metrics table {table} row 4: label 'DS2_gpt-4o' is already given in row 2\n"
    )
    assert not out.exists()


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


@pytest.mark.parametrize("damage", ["bad-byte", "lone-surrogate"])
@pytest.mark.parametrize("verb", ["ingest", "classify"])
def test_corpus_text_that_is_not_unicode_names_its_line_and_exits_two(
    tmp_path, capsys, clean_corpus_path, verb, damage
):
    bad = {"bad-byte": b"\xe9", "lone-surrogate": b"\\ud800"}[damage]  # 0xe9 then ASCII is not UTF-8
    lines = clean_corpus_path.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"body": "', b'"body": "' + bad)
    clean_corpus_path.write_bytes(b"".join(lines))
    cfg_path, run_dir = write_cfg(tmp_path, clean_corpus_path)
    assert main([verb, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"{clean_corpus_path} line 3: " in err.splitlines()[0], err
    assert "Traceback" not in err
    assert not (run_dir / "results.jsonl").exists()


@pytest.mark.parametrize("created_at", ["1e30", "-1e30", "Infinity"])
@pytest.mark.parametrize("verb", ["ingest", "classify"])
def test_out_of_range_epoch_timestamp_names_its_line_and_exits_two(
    tmp_path, capsys, clean_corpus_path, verb, created_at
):
    lines = clean_corpus_path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[2])
    lines[2] = json.dumps(record).replace(json.dumps(record["created_at"]), created_at) + "\n"
    clean_corpus_path.write_text("".join(lines), encoding="utf-8")
    cfg_path, run_dir = write_cfg(tmp_path, clean_corpus_path)
    assert main([verb, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"{clean_corpus_path} line 3: bad created_at (" in err.splitlines()[0], err
    assert "Traceback" not in err
    assert not (run_dir / "results.jsonl").exists()


@pytest.mark.parametrize(
    "key, noun",
    [
        ("corpus.path", "corpus path"),
        ("codebook.path", "codebook path"),
        ("gold.path", "gold path"),
        ("corpus.keywords", "keyword set path"),
        ("prompting.template_path", "template path"),
        ("backend.replay_path", "replay script path"),
    ],
)
def test_input_path_that_names_a_directory_exits_one_at_load(tmp_path, capsys, clean_corpus_path, key, noun):
    section, leaf = key.split(".")
    value = "" if key == "corpus.path" else str(tmp_path)  # an empty corpus.path reads as "."
    extra = {"backend": {"kind": "replay"}} if section == "backend" else {}
    extra.setdefault(section, {})[leaf] = value
    cfg_path, run_dir = write_cfg(tmp_path, clean_corpus_path, **extra)
    assert main(["classify", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {noun} is not a file: {value or '.'}\n", err
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "noun,verb,code",
    [
        ("codebook file", "classify", 2),
        ("keyword set file", "ingest", 2),
        ("gold label file", "evaluate", 2),
        ("template file", "classify", 2),
        ("config file", "classify", 1),
        ("metrics table", "rank", 2),
        ("replay script", "classify", 1),
    ],
)
def test_input_file_that_is_not_utf8_names_its_line_and_exits(tmp_path, capsys, clean_corpus_path, noun, verb, code):
    text = {
        "codebook file": DEFAULT_CODEBOOK_PATH.read_bytes(),
        "keyword set file": DEFAULT_KEYWORDS_PATH.read_bytes(),
        "gold label file": (FIXTURES / "gold_clean.csv").read_bytes(),
        "template file": load_template().scaffold.encode(),
        "metrics table": DS2.read_bytes(),
        "replay script": b'{\n"fp": ["A=[1]"]}\n',
    }
    bad = tmp_path / "bad_input"
    bad.write_bytes(text.get(noun, b"") + b"\xe9")  # 0xe9 at the end of a file is not UTF-8
    cfg_path, run_dir = write_cfg(
        tmp_path,
        clean_corpus_path,
        codebook={"path": str(bad if noun == "codebook file" else DEFAULT_CODEBOOK_PATH)},
        corpus={"rule": "xylazine AND wound", **({"keywords": str(bad)} if noun == "keyword set file" else {})},
        gold={"path": str(bad if noun == "gold label file" else FIXTURES / "gold_clean.csv")},
        prompting={"template_path": str(bad)} if noun == "template file" else None,
        backend={"kind": "replay", "replay_path": str(bad)} if noun == "replay script" else {},
    )
    if noun == "config file":
        bad = cfg_path
        bad.write_bytes(bad.read_bytes() + b"\xe9")
    line = bad.read_bytes().count(b"\n") + 1
    args = ["--metrics-table", str(bad)] if verb == "rank" else ["--config", str(cfg_path)]
    assert main([verb, *args]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{noun} {bad} line {line} is not valid UTF-8\n"), err
    assert "Traceback" not in err
    assert not (run_dir / "results.jsonl").exists()


def first_exemplar(raw):
    return raw["themes"][0]["exemplars"][0]


SHAPE_DAMAGE = {  # (file, change to its YAML, message)
    "themes-not-a-list": ("codebook", lambda raw: raw.update(themes=5), "bad.yaml must be a mapping with a 'themes'"),
    "theme-entry-not-a-mapping": ("codebook", lambda raw: raw["themes"].insert(1, 5), "bad.yaml theme entry 1 is not"),
    "theme-without-definition": (
        "codebook",
        lambda raw: raw["themes"][2].pop("definition"),
        "bad.yaml theme entry 2 missing field 'definition'",
    ),
    "exemplars-not-a-list": ("codebook", lambda raw: raw["themes"][0].update(exemplars=5), "bad.yaml theme A exemplars"),
    "exemplar-without-text": ("codebook", lambda raw: first_exemplar(raw).pop("text"), "bad.yaml theme A exemplar 0"),
    "null-labels": ("codebook", lambda raw: first_exemplar(raw).update(labels=None), "bad.yaml theme A exemplar 0"),
    "group-not-a-list": ("keywords", lambda raw: raw["groups"].update(wound=5), "group 'wound' must be a list"),
    "entry-without-term": ("keywords", lambda raw: raw["groups"]["wound"].insert(1, {"mode": "word"}), "entry 1 must"),
    "entry-a-number": ("keywords", lambda raw: raw["groups"]["wound"].insert(0, 5), "group 'wound' entry 0 must"),
    "unknown-mode": (
        "keywords",
        lambda raw: raw["groups"]["xylazine"].insert(0, {"term": "xylazine", "mode": "regex"}),
        "bad.yaml group 'xylazine' entry 0: unknown term mode 'regex'",
    ),
    "misspelt-key": (
        "keywords",
        lambda raw: raw["groups"]["xylazine"].insert(0, {"term": "xylazine", "case_sensitve": 1, "mod": "substring"}),
        "bad.yaml group 'xylazine' entry 0 has unknown key(s): case_sensitve, mod\n",
    ),
    "empty-group": ("keywords", lambda raw: raw["groups"].update(xylazine=[]), "bad.yaml: keyword group 'xylazine' is"),
    "term-a-number": ("keywords", lambda raw: raw["groups"]["wound"].insert(2, {"term": 5}), "'wound' entry 2 must"),
    "empty-term": ("keywords", lambda raw: raw["groups"]["wound"].insert(0, ""), "entry 0: keyword term must be non"),
    "case-sensitive-a-string": (
        "keywords",
        lambda raw: raw["groups"]["wound"].insert(1, {"term": "XYLAZINE", "case_sensitive": "no"}),
        "bad.yaml group 'wound' entry 1 case_sensitive must be true or false",
    ),
}


@pytest.mark.parametrize("damage", SHAPE_DAMAGE)
def test_codebook_or_keyword_entry_of_the_wrong_shape_exits_two(tmp_path, capsys, clean_corpus_path, damage):
    kind, change, message = SHAPE_DAMAGE[damage]
    raw = yaml.safe_load((DEFAULT_CODEBOOK_PATH if kind == "codebook" else DEFAULT_KEYWORDS_PATH).read_text("utf-8"))
    change(raw)
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(raw), encoding="utf-8")
    cfg_path, run_dir = write_cfg(
        tmp_path,
        clean_corpus_path,
        codebook={"path": str(bad)} if kind == "codebook" else {},
        corpus={"rule": "xylazine AND wound", **({"keywords": str(bad)} if kind == "keywords" else {})},
    )
    assert main(["classify" if kind == "codebook" else "ingest", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert "Traceback" not in err
    assert not (run_dir / "results.jsonl").exists()


@pytest.mark.parametrize(
    "noun,verb,code",
    [("config file", "classify", 1), ("codebook file", "classify", 2), ("keyword set file", "ingest", 2)],
)
def test_lone_surrogate_escape_in_a_yaml_input_exits(tmp_path, capsys, clean_corpus_path, noun, verb, code):
    bad = tmp_path / "bad.yaml"
    cfg_path, run_dir = write_cfg(
        tmp_path,
        clean_corpus_path,
        codebook={"path": str(bad)} if noun == "codebook file" else {},
        corpus={"rule": "xylazine AND wound", **({"keywords": str(bad)} if noun == "keyword set file" else {})},
    )
    source, old, new = {  # a double-quoted YAML string with a \u escape of a lone surrogate
        "config file": (cfg_path, "dataset: FIX", 'dataset: "FIX\\ud800"'),
        "codebook file": (DEFAULT_CODEBOOK_PATH, "name: Xylazine Use Habits", 'name: "\\ud800Xylazine"'),
        "keyword set file": (DEFAULT_KEYWORDS_PATH, "- tranq\n", '- "tranq\\uDC00"\n'),
    }[noun]
    bad = cfg_path if noun == "config file" else bad
    bad.write_text(source.read_text("utf-8").replace(old, new), encoding="utf-8")
    assert main([verb, "--config", str(cfg_path)]) == code
    err = capsys.readouterr().err
    tail = f"{noun} {bad}: a \\u escape gives a lone surrogate, not valid Unicode\n"
    assert err.startswith("error: ") and err.endswith(tail), err
    assert not (run_dir / "results.jsonl").exists()


def test_remote_reply_holding_a_lone_surrogate_exits_three(
    tmp_path, capsys, monkeypatch, clean_corpus_path, chat_server
):
    monkeypatch.setenv("TC_TEST_KEY", "k")
    chat_server["answer"] = lambda request: (200, chat_payload("A=0, B=1\ud800"))  # JSON escapes it as \ud800
    endpoint = chat_server["endpoint"]
    backend = {"kind": "remote-chat", "model": "m", "endpoint": endpoint, "credential_env": "TC_TEST_KEY"}
    cfg_path, run_dir = write_cfg(tmp_path, clean_corpus_path, backend=backend)
    assert main(["classify", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err == "error: malformed completion response: message content holds a lone surrogate, not valid Unicode\n"
    ledger = [json.loads(line) for line in (run_dir / "ledger.jsonl").read_text(encoding="utf-8").splitlines()]
    assert ledger[-1]["event"] == "abort"
    assert not (run_dir / "cache.jsonl").exists()


def test_replay_script_holding_a_lone_surrogate_exits_one(tmp_path, capsys, clean_corpus_path):
    script = tmp_path / "script.json"
    cfg_path, run_dir = write_cfg(
        tmp_path, clean_corpus_path, backend={"kind": "replay", "model": "r", "replay_path": str(script)}
    )
    first = load_posts(clean_corpus_path).posts[0]
    prompt = render_prompt(first, load_codebook(), load_template(), ShotPolicy(shots=0))
    fingerprint = cache_key(BackendConfig(kind="replay", model="r", replay_path=str(script)), prompt)
    script.write_text(json.dumps({fingerprint: ["A=0\ud800"] * 3}), encoding="utf-8")  # written as \ud800
    assert main(["classify", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: replay script {script}: a \\u escape gives a lone surrogate, not valid Unicode\n"
    assert not (run_dir / "results.jsonl").exists()


def drop(*keys):
    return lambda rec: [rec.pop(k) for k in keys]


NO_VECTOR = "line 3: record is classified without a 0/1 vector"
RECORD_DAMAGE = {  # each found on load by every verb
    "no-post-id": (drop("post_id"), "line 3: record needs a string post_id and label"),
    "no-label": (drop("label"), "line 3: record needs a string post_id and label"),
    "no-status": (drop("status"), "line 3: record needs status classified or failed"),
    "no-vector": (drop("vector"), NO_VECTOR),
    "bad-cell": (lambda rec: rec["vector"].update(A="yes"), NO_VECTOR),
    # equal to 0 or 1 in Python, but not the JSON integers a label is
    **{
        f"{value}-cell": (lambda rec, value=value: rec["vector"].update(A=value), NO_VECTOR)
        for value in (True, False, 1.0, 0.0)
    },
}
CODEBOOK_DAMAGE = {  # found only where vectors are read against the codebook
    "no-code": (lambda rec: rec["vector"].pop("C"), "has no value for code C"),
    "no-codes": (lambda rec: [rec["vector"].pop(c) for c in "EC"], "has no value for code C"),  # the first in code order
}


@pytest.mark.parametrize(
    "verb,damage",
    [(verb, damage) for verb in ("classify", "evaluate", "distribute") for damage in RECORD_DAMAGE]
    + [("evaluate", "no-code"), ("distribute", "no-code"), ("evaluate", "no-codes")],
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
    for text, message in [('{"config": ', "is not valid JSON"), ("[]", "is not a JSON object")]:
        (run_dir / "manifest.json").write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["classify", "--config", str(cfg_path), "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run_dir / 'manifest.json'} {message}")
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "repeats, name, flags",
    [
        pytest.param(1, "results.jsonl", [], id="1-results.jsonl"),
        pytest.param(2, "results_r2.jsonl", [], id="2-results_r2.jsonl"),
        pytest.param(1, "results.jsonl", ["--resume"], id="1-results.jsonl-resume"),
    ],
)
def test_classify_refused_for_records_without_a_manifest_writes_nothing(
    tmp_path, capsys, clean_corpus_path, repeats, name, flags
):
    """No manifest made these records, so none may be written over them,
    not even by a resume under another parse mode."""
    cfg_path, run_dir = write_cfg(tmp_path, clean_corpus_path)
    assert main(["classify", "--config", str(cfg_path)]) == 0
    cfg_path, fresh = write_cfg(
        tmp_path, clean_corpus_path, name="fresh", run={"repeats": repeats}, parsing={"mode": "strict"}
    )
    fresh.mkdir()
    (fresh / name).write_bytes((run_dir / "results.jsonl").read_bytes())
    capsys.readouterr()
    assert main(["classify", "--config", str(cfg_path), *flags]) == 1
    message = f"{fresh / name} already has records but the run directory has no manifest.json"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in fresh.iterdir()] == [name]  # no manifest for a later resume to trust


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
    monkeypatch.setattr(jsonl, "atomic_write", cut_write)
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
    book = yaml.safe_load(DEFAULT_CODEBOOK_PATH.read_text(encoding="utf-8"))
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
        ("backend.max_output_tokens", 2.5),
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


CONFIG_VERBS = ("ingest", "classify", "evaluate", "distribute")
# a name outside a closed set, by the set: the error and the config sections that give it
UNKNOWN_NAMES = {
    "template-version": (
        "unknown template version 'v9'; known: v1-per-theme, v2-multi-question, v3-single-line",
        {"prompting": {"template_version": "v9"}},
    ),
    "corpus-format": ("unknown corpus format 'xml'; known: post-lines, delimited-table", {"corpus": {"format": "xml"}}),
}


@pytest.mark.parametrize(
    "verb, message, sections, flags",
    [
        ("ingest", "sample seed must be >= 0, got -1", {"corpus": {"sample": {"n": 5, "seed": -1}}}, []),
        ("ingest", "sample seed must be >= 0, got -1", {"corpus": {"sample": {"n": 5}}}, ["--sample-seed", "-1"]),
        ("classify", "exemplar seed must be >= 0, got -1", {"prompting": {"shots": 1, "exemplar_seed": -1}}, []),
        ("classify", "exemplar seed must be >= 0, got -1", {"prompting": {"shots": 1}}, ["--exemplar-seed", "-1"]),
        (
            "evaluate", "bootstrap seed must be >= 0, got -1",
            {"evaluation": {"bootstrap_metrics": ["f1"], "bootstrap_seed": -1}}, [],
        ),
        (
            "evaluate", "bootstrap seed must be >= 0, got -1",
            {"evaluation": {"bootstrap_metrics": ["f1"]}}, ["--bootstrap-seed", "-1"],
        ),
        (
            "classify", "prompting.exemplar_budget must be >= 0, got -1",
            {"prompting": {"shots": 1, "exemplar_budget": -1}}, [],
        ),
        ("ingest", "sampling target_n must be >= 1, got 0", {"corpus": {"sample": {"n": 0}}}, []),
        (
            "classify", "bootstrap requires >= 100 resamples, got 0",
            {"evaluation": {"bootstrap_metrics": ["f1"], "bootstrap_resamples": 0}}, [],
        ),
        (
            "evaluate", f"bootstrap allows <= 1000000 resamples, got {10**30}",
            {"evaluation": {"bootstrap_metrics": ["f1"], "bootstrap_resamples": 10**30}}, [],
        ),
        (
            "evaluate", "bootstrap allows <= 1000000 resamples, got 1000001",
            {"evaluation": {"bootstrap_metrics": ["f1"], "bootstrap_resamples": 1_000_001}}, [],
        ),
        ("classify", "max_output_tokens must be >= 1, got 0", {"backend": {"max_output_tokens": 0}}, []),
        ("ingest", "shots must be >= 0, got -1", {"prompting": {"shots": -1}}, []),
        *[(verb, message, sections, []) for verb in CONFIG_VERBS for message, sections in UNKNOWN_NAMES.values()],
    ],
    ids=[
        "sample-key", "sample-flag", "exemplar-key", "exemplar-flag", "bootstrap-key", "bootstrap-flag",
        "exemplar-budget", "sample-n", "bootstrap-resamples", "bootstrap-resamples-huge",
        "bootstrap-resamples-above-bound", "max-output-tokens", "shots",
        *[f"{verb}-{name}" for verb in CONFIG_VERBS for name in UNKNOWN_NAMES],
    ],
)
def test_negative_seed_exits_one_at_load(tmp_path, capsys, clean_corpus_path, verb, message, sections, flags):
    """A seed, or another value with a least or greatest value, out of range, or a name outside its closed set."""
    cfg_path, run_dir = write_cfg(tmp_path, clean_corpus_path, **sections)
    assert main([verb, "--config", str(cfg_path), *flags]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
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


def test_evaluate_same_store_given_twice_exits_two(tmp_path, capsys, clean_corpus_path):
    """One store named by two spellings would pool as two repeats of one run."""
    cfg_path, out_dir = write_cfg(tmp_path, clean_corpus_path)
    assert main(["classify", "--config", str(cfg_path)]) == 0
    store, again = out_dir / "results.jsonl", out_dir / "reports" / ".." / "results.jsonl"
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg_path), "--store", str(store), "--store", str(again)]) == 2
    assert capsys.readouterr().err == f"error: results store {again} is given twice (also as {store})\n"
    assert not (out_dir / "reports").exists()


def test_rank_out_flag_writes_files(tmp_path, capsys):
    out = tmp_path / "ranked"
    assert main(["rank", "--metrics-table", str(DS2), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = json.loads((out / "ranking.json").read_text(encoding="utf-8"))
    assert [r["label"] for r in rows] == ["DS2_gpt-4o", "DS2_deepseekV3"]


@pytest.mark.parametrize(
    "verb, blocked, noun, named",
    [
        ("ingest", "notadir", "output directory", "notadir/run"),
        ("classify", "notadir", "output directory", "notadir/run"),
        ("rank", "notadir", "ranking output directory", "notadir"),
        ("ingest", "run/corpora", "corpus output directory", "run/corpora"),
        ("evaluate", "run/reports", "report output directory", "run/reports/A_copy"),
        ("evaluate", "run/reports/FIX_0shot_mock", "report output directory", "run/reports/FIX_0shot_mock"),
        ("distribute", "run/reports", "report output directory", "run/reports"),
    ],
    ids=["ingest", "classify", "rank", "ingest-corpora", "evaluate-reports", "evaluate-label", "distribute-reports"],
)
def test_output_path_under_a_regular_file_exits_one_naming_it(
    tmp_path, capsys, clean_corpus_path, verb, blocked, noun, named
):
    sections = base_config(tmp_path, clean_corpus_path)
    if blocked == "notadir":
        sections["run"]["output_dir"] = str(tmp_path / "notadir" / "run")
    cfg_path = write_config(tmp_path / "run.yaml", **sections)
    if verb in ("evaluate", "distribute"):
        assert main(["classify", "--config", str(cfg_path)]) == 0
        results = tmp_path / "run" / "results.jsonl"
        # a second label that sorts first, so a report written before the check would show
        copy = results.read_text(encoding="utf-8").replace('"label": "FIX_0shot_mock"', '"label": "A_copy"')
        (tmp_path / "run" / "results_copy.jsonl").write_text(copy, encoding="utf-8")
    blocker = tmp_path / blocked
    blocker.parent.mkdir(parents=True, exist_ok=True)
    blocker.write_text("a file\n", encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    args = ["--metrics-table", str(DS2), "--out", str(blocker)] if verb == "rank" else ["--config", str(cfg_path)]
    assert main([verb, *args]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {noun} {tmp_path / named}: {blocker} is not a directory\n", err
    assert blocker.read_text(encoding="utf-8") == "a file\n"
    assert sorted(tmp_path.rglob("*")) == before


RUN_FILES = ("results.jsonl", "cache.jsonl", "ledger.jsonl", "audit.jsonl", "manifest.json")


@pytest.mark.parametrize(
    "verb, path",
    [
        *(("resume", f"run/{name}") for name in RUN_FILES),
        *(("classify", f"run/{name}") for name in RUN_FILES),
        ("evaluate", "run/results.jsonl"),
        ("distribute", "run/results.jsonl"),
        ("evaluate", "run/reports/FIX_0shot_mock/report.json"),
        ("evaluate", "run/reports/FIX_0shot_mock/metrics.csv"),
        ("distribute", "run/reports/distribution.json"),
        ("ingest", "run/ingest_summary.json"),
        ("ingest", "run/corpora/clean_clean.jsonl"),
        ("rank", "ranked/ranking.json"),
        ("rank", "metrics.csv"),
    ],
)
def test_directory_where_a_file_belongs_exits_one_naming_it(tmp_path, capsys, clean_corpus_path, verb, path):
    # open and os.replace raise IsADirectoryError; the message names the path, the target of a rename
    cfg_path, run_dir = write_cfg(tmp_path, clean_corpus_path)
    if verb in ("resume", "evaluate", "distribute"):
        assert main(["classify", "--config", str(cfg_path)]) == 0
    target = tmp_path / path
    target.unlink(missing_ok=True)
    target.mkdir(parents=True)
    capsys.readouterr()
    argv = [verb, "--config", str(cfg_path)]
    if verb == "resume":
        argv = ["classify", "--config", str(cfg_path), "--resume"]
    elif verb == "rank":
        table = target if path == "metrics.csv" else DS2
        argv = ["rank", "--metrics-table", str(table), "--out", str(tmp_path / "ranked")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {target}: {os.strerror(errno.EISDIR)}\n"
    assert target.is_dir()


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
