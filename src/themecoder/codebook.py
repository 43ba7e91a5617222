"""Theme taxonomy: codes, definitions, few-shot exemplars, and gold labels.

A codebook is configuration, not code. The shipped default lives in
``data/codebook_default.yaml`` and carries thirteen codes (A through L plus
the null code X); any other alphabet with exactly one null code is legal,
down to a two-code book.
"""

from __future__ import annotations

import csv
import logging
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .errors import DataError
from .jsonl import input_lines, read_yaml

if TYPE_CHECKING:  # numpy loads on the first label matrix, so classify never loads it
    import numpy as np

log = logging.getLogger(__name__)

DEFAULT_CODEBOOK_PATH = Path(__file__).parent / "data" / "codebook_default.yaml"

_BINARY_CELLS = frozenset(("0", "1"))
_CELL_BITS = bytes.maketrans(b"01", b"\x00\x01")  # a gold cell's ASCII digit -> its label


def tuple_getter(keys: Sequence) -> Callable:
    """``itemgetter(*keys)``, which gives a tuple for a single key too."""
    if len(keys) == 1:
        key = keys[0]
        return lambda obj: (obj[key],)
    return itemgetter(*keys)


@dataclass(frozen=True, eq=False)
class LabelMatrix:
    """The 0/1 labels of many posts: row i of ``values`` (int8, one column
    per code) belongs to ``ids[i]``. Ids are unique and sorted, so two
    matrices over the same posts line up row for row."""

    ids: tuple[str, ...]
    codes: tuple[str, ...]
    values: np.ndarray

    @classmethod
    def from_rows(cls, ids: Sequence[str], values, codes: Sequence[str]) -> "LabelMatrix":
        """Sort rows by id; of rows that share an id, the last one is kept.
        ``values`` is an (n × k) array of 0s and 1s or the n × k bytes of one."""
        import numpy as np

        codes = tuple(codes)
        values = np.frombuffer(values, dtype=np.int8) if isinstance(values, (bytes, bytearray)) else np.asarray(values)
        binary = (values == 0) | (values == 1)  # checked before the cast, which would wrap 257 to 1
        if not binary.all():
            raise DataError(f"label matrix values must be 0 or 1, got {values[~binary].flat[0].item()!r}")
        values = values.astype(np.int8, copy=False).reshape(len(ids), len(codes))
        keys = np.array(ids, dtype=object)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        last = np.ones(len(keys), dtype=bool)
        last[:-1] = keys[1:] != keys[:-1]
        if not last.all():
            keys, order = keys[last], order[last]
        return cls(ids=tuple(keys), codes=codes, values=values[order])

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, post_id: str) -> bool:
        i = bisect_left(self.ids, post_id)
        return i < len(self.ids) and self.ids[i] == post_id

    def take(self, ids: Sequence[str]) -> "LabelMatrix":
        """The rows of ``ids``, which are sorted and all present."""
        return LabelMatrix(
            ids=tuple(ids), codes=self.codes, values=self.values[[bisect_left(self.ids, i) for i in ids]]
        )

    def drop(self, ids: Iterable[str]) -> "LabelMatrix":
        """Every row but those of ``ids``."""
        gone = set(ids)
        keep = [i for i, post_id in enumerate(self.ids) if post_id not in gone]
        return LabelMatrix(ids=tuple(self.ids[i] for i in keep), codes=self.codes, values=self.values[keep])


@dataclass(frozen=True)
class Exemplar:
    """One worked example: a post text plus its full label assignment.

    ``labels`` is kept as loaded, its 0 and 1 as ints, so an incomplete
    assignment can exist long enough for validate_codebook to name what is
    missing.
    """

    text: str
    labels: Mapping[str, int]


@dataclass(frozen=True)
class ThemeDef:
    code: str
    name: str
    definition: str
    exemplars: tuple[Exemplar, ...] = ()


@dataclass(frozen=True)
class Codebook:
    """Ordered theme definitions; file order is the canonical order."""

    version: str
    themes: tuple[ThemeDef, ...]
    null_code: str

    @cached_property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(t.code for t in self.themes)

    @property
    def exemplars(self) -> tuple[Exemplar, ...]:
        """The flat exemplar pool: theme order, then file order within theme.

        Shot-policy selection indices refer to positions in this pool.
        """
        pool: list[Exemplar] = []
        for theme in self.themes:
            pool.extend(theme.exemplars)
        return tuple(pool)

    def theme(self, code: str) -> ThemeDef:
        for t in self.themes:
            if t.code == code:
                return t
        raise KeyError(code)


def lint_null_conflict(vector: Mapping[str, int], null_code: str) -> bool:
    """True when the null code and any substantive code are both positive.

    This is a lint, never an error: the output grammar permits the
    combination and gold data may contain it.
    """
    if vector.get(null_code) != 1:
        return False
    return any(v == 1 for c, v in vector.items() if c != null_code)


def validate_codebook(cb: Codebook) -> list[str]:
    """Return one finding per invariant violation; empty means valid."""
    findings: list[str] = []
    seen: set[str] = set()
    for t in cb.themes:
        if not (len(t.code) == 1 and "A" <= t.code <= "Z"):  # the parsers' grammar is ASCII
            findings.append(f"code {t.code!r} is not a single uppercase letter A-Z")
        if t.code in seen:
            findings.append(f"duplicate code: {t.code}")
        seen.add(t.code)
        if not t.name.strip():
            findings.append(f"code {t.code}: empty name")
        if not t.definition.strip():
            findings.append(f"code {t.code}: missing definition")
    if not cb.themes:
        findings.append("codebook has no themes")
    if cb.null_code not in seen:
        findings.append(f"no null theme: null code {cb.null_code!r} is not in the alphabet")
    alphabet = cb.alphabet
    for i, ex in enumerate(cb.exemplars):
        if not ex.text.strip():
            findings.append(f"exemplar {i}: empty text")
        missing = [c for c in alphabet if c not in ex.labels]
        for c in missing:
            findings.append(f"exemplar {i}: vector missing code {c}")
        for c, v in ex.labels.items():
            if c not in alphabet:
                findings.append(f"exemplar {i}: unknown code {c}")
            elif v not in (0, 1):
                findings.append(f"exemplar {i}: non-binary value {v!r} for code {c}")
    return findings


def load_codebook(path: str | Path | None = None) -> Codebook:
    """Load and validate a codebook file (the shipped default when path is None)."""
    p = Path(path) if path is not None else DEFAULT_CODEBOOK_PATH
    raw = read_yaml(p, "codebook file")
    if not isinstance(raw, dict) or not isinstance(raw.get("themes"), list):
        raise DataError(f"codebook file {p} must be a mapping with a 'themes' list")

    themes: list[ThemeDef] = []
    for i, entry in enumerate(raw["themes"]):
        if not isinstance(entry, dict):
            raise DataError(f"codebook file {p} theme entry {i} is not a mapping")
        try:
            code = str(entry["code"])
            name = str(entry["name"])
            definition = str(entry["definition"])
        except KeyError as exc:
            raise DataError(f"codebook file {p} theme entry {i} missing field {exc}") from None
        entries = entry.get("exemplars", [])
        if not isinstance(entries, list):
            raise DataError(f"codebook file {p} theme {code} exemplars must be a list")
        exemplars = []
        for j, e in enumerate(entries):
            if not isinstance(e, dict) or "text" not in e or not isinstance(e.get("labels", {}), dict):
                raise DataError(f"codebook file {p} theme {code} exemplar {j} needs a 'text' and a 'labels' mapping")
            # YAML's true, 1.0 and 0.0 equal 1 and 0, so they pass validation; they are read as 1 and 0
            labels = {c: int(v) if v in (0, 1) else v for c, v in e.get("labels", {}).items()}
            exemplars.append(Exemplar(text=str(e["text"]), labels=labels))
        themes.append(ThemeDef(code=code, name=name, definition=definition, exemplars=tuple(exemplars)))

    cb = Codebook(
        version=str(raw.get("version", "unversioned")),
        themes=tuple(themes),
        null_code=str(raw.get("null_code", "X")),
    )
    findings = validate_codebook(cb)
    if findings:
        raise DataError(f"codebook file {p} is invalid: " + "; ".join(findings))
    for i, ex in enumerate(cb.exemplars):
        if lint_null_conflict(ex.labels, cb.null_code):
            log.warning("codebook exemplar %d sets the null code alongside a substantive code", i)
    return cb


def load_gold(path: str | Path, corpus, cb: Codebook) -> LabelMatrix:
    """Load expert labels from a wide delimited table, one row at a time.

    Parameters
    ----------
    path : file with header ``post_id`` followed by one column per code.
    corpus : the Corpus, or the ``CorpusIds`` of one, the ids must resolve
        against.
    cb : codebook supplying the alphabet.

    Returns
    -------
    LabelMatrix with one row per labeled post, columns in ``cb.alphabet``
    order. A post that sets the null code beside a substantive code is
    logged once, in the one ``gold lint:`` warning.
    """
    p = Path(path)
    alphabet = cb.alphabet
    corpus_ids = frozenset(corpus.ids)  # no copy when corpus is a CorpusIds
    with input_lines(p, "gold label file") as lines:
        rows = csv.reader(lines)
        header = next(rows, None)
        if header is None:
            raise DataError(f"gold label file {p} is empty")
        if not header or header[0] != "post_id":
            raise DataError(f"gold label file {p}: first column must be 'post_id'")
        code_cols = header[1:]
        missing = [c for c in alphabet if c not in code_cols]
        if missing:
            raise DataError(f"gold label file {p}: missing column for code {', '.join(missing)}")
        unknown = [c for c in code_cols if c not in alphabet]
        if unknown:
            raise DataError(f"gold label file {p}: unknown code column {', '.join(unknown)}")
        if len(set(code_cols)) != len(code_cols):
            raise DataError(f"gold label file {p}: duplicated code column")
        in_alphabet_order = tuple_getter([code_cols.index(c) for c in alphabet])
        null_column = code_cols.index(cb.null_code)
        ids: list[str] = []
        seen: set[str] = set()
        values = bytearray()  # the rows' cells in alphabet order, as ASCII digits
        conflicts: list[str] = []  # post ids with the null code set beside another

        for lineno, row in enumerate(rows, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise DataError(f"gold label file {p} row {lineno}: expected {len(header)} cells")
            post_id = row[0]
            if post_id in seen:
                raise DataError(f"gold label file {p} row {lineno}: duplicate post id {post_id!r}")
            if post_id not in corpus_ids:
                raise DataError(
                    f"gold label file {p} row {lineno}: unknown post id {post_id!r} "
                    f"(not in corpus {corpus.name!r})"
                )
            cells = list(map(str.strip, row[1:]))
            if not _BINARY_CELLS.issuperset(cells):
                code, cell = next((code, cell) for code, cell in zip(code_cols, cells) if cell not in _BINARY_CELLS)
                raise DataError(f"gold label file {p} row {lineno}: non-binary cell {cell!r} for code {code}")
            if cells[null_column] == "1" and cells.count("1") > 1:
                conflicts.append(post_id)
            seen.add(post_id)
            ids.append(post_id)
            values += "".join(in_alphabet_order(cells)).encode()
    del seen  # freed before the sort copies the ids

    log.info("loaded %d gold-labeled posts from %s", len(ids), p)
    if conflicts:
        log.warning("gold lint: %d post(s) set null code %s alongside a substantive code, first: %s",
                    len(conflicts), cb.null_code, ", ".join(conflicts[:5]))
    return LabelMatrix.from_rows(ids, values.translate(_CELL_BITS), alphabet)
