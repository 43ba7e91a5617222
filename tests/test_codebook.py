"""Codebook structure, label matrices, validation, and gold label loading."""

from __future__ import annotations

import gc
import logging
import sys
import warnings

import numpy as np
import pytest

from themecoder.codebook import (
    Codebook,
    Exemplar,
    LabelMatrix,
    ThemeDef,
    lint_null_conflict,
    load_codebook,
    load_gold,
    validate_codebook,
)
from themecoder.errors import DataError

from conftest import make_vector

ALPHABET = tuple("ABCDEFGHIJKL") + ("X",)


def small_book(codes="ABX", null_code="X", exemplars=()) -> Codebook:
    themes = tuple(
        ThemeDef(
            code=c,
            name=f"theme {c}",
            definition=f"definition for {c}",
            exemplars=tuple(exemplars) if c == codes[0] else (),
        )
        for c in codes
    )
    return Codebook(version="t", themes=themes, null_code=null_code)


# --- shipped default ------------------------------------------------------------


def test_default_codebook_shape(cb):
    assert cb.alphabet == ALPHABET
    assert cb.null_code == "X"
    assert len(cb.themes) == 13
    assert validate_codebook(cb) == []
    for theme in cb.themes:
        assert theme.name.strip() and theme.definition.strip()


def test_default_exemplar_pool(cb):
    pool = cb.exemplars
    assert len(pool) >= 2
    for ex in pool:
        assert set(ex.labels) == set(ALPHABET)  # a total assignment
        assert set(map(type, ex.labels.values())) == {int}
    # pool order is theme order then file order, so re-deriving it matches
    rebuilt = [e for t in cb.themes for e in t.exemplars]
    assert list(pool) == rebuilt


def test_theme_lookup(cb):
    assert cb.theme("K").code == "K"
    with pytest.raises(KeyError):
        cb.theme("Z")


# --- label matrices ----------------------------------------------------------------


def test_label_matrix_rows_must_be_0_or_1():
    # an int8 cast alone would read 257 as 1 and 0.5 as 0
    for values, bad in (([[2, 0]], "2"), ([[257, 1]], "257"), ([[0.5, 1]], "0.5"), (b"\x01\xff", "-1")):
        with pytest.raises(DataError, match=f"^label matrix values must be 0 or 1, got {bad}$"):
            LabelMatrix.from_rows(["p1"], values, ("A", "X"))
    m = LabelMatrix.from_rows(["p2", "p1"], [[True, False], [1.0, 0.0]], ("A", "X"))
    assert m.ids == ("p1", "p2") and m.values.dtype == np.int8 and m.values.tolist() == [[1, 0], [1, 0]]


# --- validation and lint ------------------------------------------------------------


def test_validate_flags_bad_codes():
    findings = validate_codebook(small_book(codes=("a", "BB", "X")))
    assert any("'a' is not a single uppercase letter" in f for f in findings)
    assert any("'BB' is not a single uppercase letter" in f for f in findings)


@pytest.mark.parametrize("code", ["É", "Σ", "Ａ"])
def test_validate_flags_non_ascii_codes(code):
    # str.isupper() accepts these, but no parser grammar can read them back
    findings = validate_codebook(small_book(codes=("A", code, "X")))
    assert findings == [f"code {code!r} is not a single uppercase letter A-Z"]


def test_validate_flags_duplicates_and_blanks():
    themes = (
        ThemeDef(code="A", name="", definition="d"),
        ThemeDef(code="A", name="n", definition=" "),
        ThemeDef(code="X", name="null", definition="none apply"),
    )
    findings = validate_codebook(Codebook(version="t", themes=themes, null_code="X"))
    assert any("duplicate code: A" in f for f in findings)
    assert any("empty name" in f for f in findings)
    assert any("missing definition" in f for f in findings)


def test_validate_flags_missing_null_and_empty_book():
    assert any(
        "no null theme" in f for f in validate_codebook(small_book(codes="AB"))
    )
    empty = Codebook(version="t", themes=(), null_code="X")
    assert "codebook has no themes" in validate_codebook(empty)


def test_validate_flags_exemplar_problems():
    exemplars = (
        Exemplar(text="", labels={"A": 1, "B": 0, "X": 0}),
        Exemplar(text="ok", labels={"A": 1, "B": 0}),
        Exemplar(text="ok", labels={"A": 1, "B": 0, "X": 0, "Q": 1}),
        Exemplar(text="ok", labels={"A": 2, "B": 0, "X": 0}),
    )
    findings = validate_codebook(small_book(exemplars=exemplars))
    assert any("exemplar 0: empty text" in f for f in findings)
    assert any("exemplar 1: vector missing code X" in f for f in findings)
    assert any("exemplar 2: unknown code Q" in f for f in findings)
    assert any("exemplar 3: non-binary value 2" in f for f in findings)


def test_null_conflict_lint(cb):
    assert lint_null_conflict(make_vector(cb, positives=("X", "A")), "X")
    assert not lint_null_conflict(make_vector(cb, positives=("X",)), "X")
    assert not lint_null_conflict(make_vector(cb, positives=("A", "B")), "X")
    assert not lint_null_conflict(make_vector(cb, positives=("A",)), "Z")


def test_two_code_book_is_legal(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(
        "version: '1'\n"
        "null_code: X\n"
        "themes:\n"
        "  - {code: A, name: only theme, definition: the one theme}\n"
        "  - {code: X, name: none, definition: nothing applies}\n",
        encoding="utf-8",
    )
    tiny = load_codebook(path)
    assert tiny.alphabet == ("A", "X")


# --- codebook file errors -------------------------------------------------------------


def test_load_codebook_errors(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_codebook(tmp_path / "nope.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("themes: [a, b", encoding="utf-8")
    with pytest.raises(DataError, match="not valid YAML"):
        load_codebook(bad)
    flat = tmp_path / "flat.yaml"
    flat.write_text("- A\n- B\n", encoding="utf-8")
    with pytest.raises(DataError, match="'themes' list"):
        load_codebook(flat)
    entry = tmp_path / "entry.yaml"
    entry.write_text("themes:\n  - just-a-string\n", encoding="utf-8")
    with pytest.raises(DataError, match="entry 0 is not a mapping"):
        load_codebook(entry)
    missing = tmp_path / "missing.yaml"
    missing.write_text("themes:\n  - {code: A, name: n}\n", encoding="utf-8")
    with pytest.raises(DataError, match="entry 0 missing field"):
        load_codebook(missing)


def test_load_codebook_rejects_invalid_book(tmp_path):
    path = tmp_path / "invalid.yaml"
    path.write_text(
        "null_code: X\nthemes:\n  - {code: A, name: n, definition: d}\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError, match="is invalid.*no null theme"):
        load_codebook(path)


# --- gold labels ------------------------------------------------------------------


def gold_file(tmp_path, cb, rows, header=None):
    path = tmp_path / "gold.csv"
    head = header if header is not None else "post_id," + ",".join(cb.alphabet)
    path.write_text("\n".join([head, *rows]) + "\n", encoding="utf-8")
    return path


def zeros_row(pid: str, n: int = 13, flip=()) -> str:
    cells = ["1" if i in flip else "0" for i in range(n)]
    return ",".join([pid, *cells])


def test_load_gold_fixture(fixtures_dir, corpus50, cb, clean_oracle_ids):
    gold = load_gold(fixtures_dir / "gold_clean.csv", corpus50, cb)
    assert len(gold) == len(clean_oracle_ids)
    assert list(gold.ids) == sorted(clean_oracle_ids)
    assert all(pid in gold for pid in clean_oracle_ids)
    assert gold.codes == cb.alphabet
    assert gold.values.dtype == np.int8 and gold.values.shape == (len(clean_oracle_ids), len(cb.alphabet))


def test_load_gold_structure_errors(tmp_path, corpus50, cb):
    with pytest.raises(DataError, match="not found"):
        load_gold(tmp_path / "nope.csv", corpus50, cb)
    empty = tmp_path / "gold.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="is empty"):
        load_gold(empty, corpus50, cb)
    wrong_first = gold_file(tmp_path, cb, [], header="id,A,B")
    with pytest.raises(DataError, match="first column must be 'post_id'"):
        load_gold(wrong_first, corpus50, cb)
    short = gold_file(tmp_path, cb, [], header="post_id," + ",".join(cb.alphabet[:-1]))
    with pytest.raises(DataError, match="missing column for code X"):
        load_gold(short, corpus50, cb)
    extra = gold_file(tmp_path, cb, [], header="post_id," + ",".join(cb.alphabet) + ",Z")
    with pytest.raises(DataError, match="unknown code column Z"):
        load_gold(extra, corpus50, cb)
    doubled = gold_file(
        tmp_path, cb, [], header="post_id," + ",".join(cb.alphabet) + ",A"
    )
    with pytest.raises(DataError, match="unknown code column|duplicated code column"):
        load_gold(doubled, corpus50, cb)


def test_load_gold_row_errors(tmp_path, corpus50, cb):
    ragged = gold_file(tmp_path, cb, [zeros_row("p001", n=12)])
    with pytest.raises(DataError, match="row 2: expected 14 cells"):
        load_gold(ragged, corpus50, cb)
    dup = gold_file(tmp_path, cb, [zeros_row("p001"), zeros_row("p001")])
    with pytest.raises(DataError, match="row 3: duplicate post id 'p001'"):
        load_gold(dup, corpus50, cb)
    stranger = gold_file(tmp_path, cb, [zeros_row("p999")])
    with pytest.raises(DataError, match="row 2: unknown post id 'p999'"):
        load_gold(stranger, corpus50, cb)
    bad_cell = gold_file(tmp_path, cb, ["p001,0,0,yes" + ",0" * 10])
    with pytest.raises(DataError, match="row 2: non-binary cell 'yes' for code C"):
        load_gold(bad_cell, corpus50, cb)
    two_bad_cells = gold_file(tmp_path, cb, ["p001,0,0,yes,2" + ",0" * 9])  # the first one is named
    with pytest.raises(DataError, match="row 2: non-binary cell 'yes' for code C"):
        load_gold(two_bad_cells, corpus50, cb)


def test_load_gold_skips_blank_rows(tmp_path, corpus50, cb):
    path = gold_file(tmp_path, cb, [zeros_row("p001", flip=(0,)), "", zeros_row("p002")])
    gold = load_gold(path, corpus50, cb)
    assert gold.ids == ("p001", "p002")
    assert gold.values[:, cb.alphabet.index("A")].tolist() == [1, 0]


def gold_lint_lines(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith("gold lint:")]


def test_load_gold_lints_null_conflict(tmp_path, corpus50, cb, caplog):
    path = gold_file(tmp_path, cb, [zeros_row("p001", flip=(0, 12)), zeros_row("p002", flip=(12,))])
    with caplog.at_level(logging.WARNING, logger="themecoder.codebook"):
        gold = load_gold(path, corpus50, cb)  # lint only, loading still succeeds
    assert len(gold) == 2
    assert gold_lint_lines(caplog) == [
        "gold lint: 1 post(s) set null code X alongside a substantive code, first: p001"
    ]


def test_load_gold_logs_one_lint_summary(tmp_path, corpus50, cb, caplog):
    ids = [f"p{i:03d}" for i in range(1, 8)]
    path = gold_file(tmp_path, cb, [zeros_row(pid, flip=(0, 12)) for pid in ids])
    with caplog.at_level(logging.WARNING, logger="themecoder.codebook"):
        gold = load_gold(path, corpus50, cb)
    assert len(gold) == 7
    lint = gold_lint_lines(caplog)
    assert len(lint) == 1
    assert "7 post(s)" in lint[0] and "p001, p002, p003, p004, p005" in lint[0]
    assert "p006" not in lint[0]


def test_load_gold_closes_its_file(fixtures_dir, corpus50, cb, monkeypatch):
    unraisable = []  # a ResourceWarning raised in a finalizer lands here, not in the caller
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        load_gold(fixtures_dir / "gold_clean.csv", corpus50, cb)
        gc.collect()
    assert [u.exc_value for u in unraisable] == []
