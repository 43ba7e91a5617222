"""Append-only JSON-lines files shared by the run artifacts.

A ``JsonLines`` opens its file on the first append and keeps it open until
``close()``, flushing after every line. ``read()`` drops a torn final line
(no newline, not JSON) and cuts it off before the next append, so no record
lands on half a line; damage anywhere else raises ``DataError``.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Iterator

from .errors import DataError


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
        data = self.path.read_bytes() if self.path.exists() else b""
        cut = data.rfind(b"\n") + 1
        tail = data[cut:]
        try:
            lines = str(memoryview(data)[:cut], "utf-8").split("\n")[:-1]
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path} is not valid UTF-8: {exc}") from None
        del data  # only the decoded lines stay in memory
        yield from (self._parse(line, n) for n, line in enumerate(lines, start=1) if line.strip())
        if tail.strip():
            try:
                record = self._parse(tail, len(lines) + 1)
            except DataError:
                self.torn, self._repair = len(tail), (cut, b"")
            else:
                self._repair = (cut + len(tail), b"\n")
                yield record

    def _parse(self, line: str | bytes, lineno: int) -> dict:
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise DataError(f"{self.path} line {lineno} is not valid JSON: {exc}") from None
        if not isinstance(rec, dict):
            raise DataError(f"{self.path} line {lineno} is not a JSON object")
        return rec

    def write(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
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
