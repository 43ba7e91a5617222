"""Append-only JSON-lines files shared by the run artifacts, the one way
every whole-file artifact is written (``write_json`` and ``write_table``
for the JSON and table ones), and the one way an input file is
opened, decoded and, for YAML, parsed: ``read_text``, ``read_yaml`` and
``input_lines`` name a missing file, a byte that is not UTF-8 and bad YAML
in one form for every input. The corpus reader alone opens its own file,
since each corpus error reads ``{path} line N: ...``; it finds the line of
a bad byte with ``undecodable_line``.

A ``JsonLines`` opens its file on the first append and keeps it open until
``close()``, flushing after every line. ``read()`` drops a torn final line
(no newline, not JSON) and cuts it off before the next append, so no record
lands on half a line; damage anywhere else raises ``DataError``.
``scan_tail()`` does the same for a file that is never read, reading only
its end.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import yaml

from .errors import DataError, ThemecoderError

_TAIL_BLOCK = 1 << 16  # bytes read per step back from the end by scan_tail
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)  # json.dumps with options builds one per call
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


@contextmanager
def atomic_write(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Open ``path`` for writing UTF-8 text that appears whole or not at all.

    The text goes to a temp file in the same directory, which replaces
    ``path`` when the block ends; if the block raises, the temp file is
    removed and ``path`` is left as it was. A process killed inside the
    block leaves ``path`` as it was, plus a hidden ``.tmp`` file. The data
    is flushed, not fsynced: this holds against process death, not power
    loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` to ``path`` as indented JSON with sorted keys, whole or not at all."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Mapping]) -> None:
    """Write ``header``, then one row per mapping, as an RFC-4180 table; a key a row lacks is an empty cell."""
    with atomic_write(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, restval="")
        writer.writeheader()
        writer.writerows(rows)


def read_text(path: Path, noun: str, error: type[ThemecoderError] = DataError) -> str:
    """``path.read_text(encoding="utf-8")``, but a missing file or a byte
    that is not UTF-8 raises ``error`` as ``input_lines`` does."""
    with input_lines(path, noun, error, newline=None) as lines:
        return "".join(lines)


def read_yaml(path: Path, noun: str, error: type[ThemecoderError] = DataError):
    """The YAML document of ``path``, read as ``read_text`` reads it. Bad YAML
    raises ``error``, as does a lone surrogate in any string: only a ``\\u``
    escape gives one, and no UTF-8 output can hold it."""
    try:
        data = yaml.safe_load(read_text(path, noun, error))
    except yaml.YAMLError as exc:
        raise error(f"{noun} {path} is not valid YAML: {exc}") from exc
    if holds_surrogate(data):
        raise error(f"{noun} {path}: a \\u escape gives a lone surrogate, not valid Unicode")
    return data


def holds_surrogate(value) -> bool:
    """Whether any string in ``value``, a key or a value at any depth, holds a lone surrogate."""
    if isinstance(value, str):
        return _SURROGATE_RE.search(value) is not None
    if isinstance(value, dict):
        return any(holds_surrogate(k) or holds_surrogate(v) for k, v in value.items())
    return isinstance(value, list) and any(map(holds_surrogate, value))


@contextmanager
def input_lines(
    path: Path, noun: str, error: type[ThemecoderError] = DataError, newline: str | None = ""
) -> Iterator[Iterator[str]]:
    """The lines of ``path``, opened as UTF-8 with ``newline`` (``""`` by
    default, as ``csv`` needs). A missing file raises ``error`` naming
    ``noun`` and the file; a byte that is not UTF-8 also names the line."""
    try:
        fh = path.open(encoding="utf-8", newline=newline)
    except FileNotFoundError:
        raise error(f"{noun} not found: {path}") from None
    with fh:
        yield _decoded(fh, path, noun, error)


def _decoded(fh: TextIO, path: Path, noun: str, error: type[ThemecoderError]) -> Iterator[str]:
    try:
        yield from fh
    except UnicodeDecodeError:
        raise error(f"{noun} {path} line {undecodable_line(path)} is not valid UTF-8") from None


def undecodable_line(path: Path) -> int:
    """The number of the first ``\\n``-ended line of ``path`` that is not
    UTF-8, or 0. No UTF-8 sequence holds the byte ``\\n``, so a line decodes
    alone exactly when it decodes within the file."""
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return 0


class JsonLines:
    """One append-only JSON-lines file. Subclasses hold ``_lock`` while they
    update in-memory state, so the file and that state stay in step."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.torn = 0  # bytes of a torn final line dropped by read()
        self._lock = threading.RLock()
        self._fh = None
        self._repair: tuple[int, bytes] | None = None  # (cut at, then write) on open

    def read(self) -> Iterator[dict]:
        """Yield every record in file order, dropping a torn final line."""
        return (record for _, record in self.read_numbered())

    def read_numbered(self) -> Iterator[tuple[int, dict]]:
        """``read()`` with the line number of each record.

        The file is read one line at a time, so memory holds one line, not
        the file.
        """
        try:
            fh = self.path.open("rb")
        except FileNotFoundError:
            return
        with fh:
            cut = 0  # offset of the line being read
            for lineno, raw in enumerate(fh, start=1):
                if not raw.endswith(b"\n"):  # only the final line can lack one
                    record = self._judge_tail(cut, raw, lineno)
                    if record is not None:
                        yield lineno, record
                    return
                cut += len(raw)
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataError(f"{self.path} line {lineno} is not valid UTF-8: {exc}") from None
                if line.strip():
                    yield lineno, self._parse(line, lineno)

    def scan_tail(self) -> None:
        """Judge the final line as ``read()`` does, reading back from the end
        of the file only; for files that are appended to but never read."""
        if not self.path.exists():
            return
        with self.path.open("rb") as fh:
            cut, tail = fh.seek(0, io.SEEK_END), b""
            while cut > 0 and b"\n" not in tail:
                step = min(cut, _TAIL_BLOCK)
                cut -= step
                fh.seek(cut)
                tail = fh.read(step) + tail
        nl = tail.rfind(b"\n") + 1
        self._judge_tail(cut + nl, tail[nl:], 0)

    def _judge_tail(self, cut: int, tail: bytes, lineno: int) -> dict | None:
        """A final line without a newline: return it if it parses, and have
        the writer end it; otherwise have the writer cut it off at ``cut``."""
        if not tail.strip():
            return None
        try:
            record = self._parse(tail, lineno)
        except DataError:
            self.torn, self._repair = len(tail), (cut, b"")
            return None
        self._repair = (cut + len(tail), b"\n")
        return record

    def _parse(self, line: str | bytes, lineno: int) -> dict:
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise DataError(f"{self.path} line {lineno} is not valid JSON: {exc}") from None
        if not isinstance(rec, dict):
            raise DataError(f"{self.path} line {lineno} is not a JSON object")
        return rec

    def write(self, record: dict) -> None:
        line = _ENCODER.encode(record) + "\n"
        with self._lock:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("ab")
                if self._repair is not None:
                    self._fh.truncate(self._repair[0])
                    self._fh.write(self._repair[1])
                    self._repair = None
            self._fh.write(line.encode("utf-8"))
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
