"""The answer grammars, rendered and parsed.

Two grammars: the single-line vector grammar ("A=0, B=1, ..., X=0") and the
per-theme single-answer grammar ("A=[1]"), each written only by its renderer
here. Each grammar has one parse path: a scan that finds the answer in
prose, since models sometimes wrap the classification line in chatter.
Lenient mode takes the scan's answer; strict mode holds it to exactly the
canonical form. Parsers return outcomes, never raise on arbitrary input; an
unknown mode is a ConfigError. A parsed answer is a ``{code: 0|1}`` mapping
in alphabet order, the vector a results record stores.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Mapping

from .codebook import Codebook
from .errors import ConfigError

FAILURE_REASONS = (
    "missing-code",
    "duplicate-code",
    "non-binary-value",
    "no-line-found",
    "extra-prose-strict",
)


class _Modes(dict):
    """Parse mode -> whether it is strict; an unknown mode is load_config's ConfigError."""

    def __missing__(self, mode: str) -> bool:
        raise ConfigError(f"unknown parsing mode {mode!r}; known: {', '.join(self)}")


_STRICT = _Modes(strict=True, lenient=False)
PARSE_MODES = tuple(_STRICT)

# "=" and a value token (bracketed, or up to whitespace or comma), the token as a group
_ASSIGNED_VALUE = r"\s*=\s*(\[[^\]\n]*\]|[^\s,]*)"
_ASSIGN_RE = re.compile(rf"([A-Za-z]+){_ASSIGNED_VALUE}")
_TRAILING_PUNCT = ".,;:!?"


def render_line(codes: Iterable[str], values: Iterable[object]) -> str:
    """One line assigning each code its value, in order ("A=0, B=1")."""
    return ", ".join([f"{c}={v}" for c, v in zip(codes, values)])  # join lists a generator first anyway


def render_answer(code: str, value: object) -> str:
    """One per-theme answer ("A=[1]")."""
    return f"{code}=[{value}]"


@dataclass(frozen=True)
class ParseFailure:
    reason: str
    detail: str

    def __post_init__(self) -> None:
        assert self.reason in FAILURE_REASONS, self.reason


@dataclass(frozen=True)
class ParseOutcome:
    """Either a ``{code: 0|1}`` mapping over every asked code or a
    ParseFailure, never both."""

    vector: dict[str, int] | None = None
    failure: ParseFailure | None = None

    def __post_init__(self) -> None:
        assert (self.vector is None) != (self.failure is None)

    @property
    def ok(self) -> bool:
        return self.vector is not None

    @classmethod
    def success(cls, vector: dict[str, int]) -> "ParseOutcome":
        return cls(vector=vector)

    @classmethod
    def fail(cls, reason: str, detail: str) -> "ParseOutcome":
        return cls(failure=ParseFailure(reason=reason, detail=detail))


def _normalize_value(token: str) -> str | None:
    """Reduce a value token to '0'/'1', tolerating brackets and trailing
    sentence punctuation; None when not binary."""
    t = token.strip().rstrip(_TRAILING_PUNCT)
    if t.startswith("[") and t.endswith("]"):
        t = t[1:-1].strip()
        t = t.rstrip(_TRAILING_PUNCT)
    return t if t in ("0", "1") else None


def _known_assignments(line: str, alphabet: tuple[str, ...]) -> list[tuple[str, str]]:
    known = set(alphabet)
    return [(c, v) for c, v in _ASSIGN_RE.findall(line) if c in known]


@lru_cache(maxsize=32)
def _canonical_re(alphabet: tuple[str, ...]) -> re.Pattern:
    """The canonical line over ``alphabet``, one group per value."""
    return re.compile(render_line(map(re.escape, alphabet), repeat("([01])")))


def _vector_from_assignments(
    assignments: list[tuple[str, str]], alphabet: tuple[str, ...]
) -> ParseOutcome:
    values: dict[str, int] = {}
    for code, tok in assignments:
        norm = _normalize_value(tok)
        if norm is None:
            return ParseOutcome.fail(
                "non-binary-value", f"code {code} has value {tok!r}"
            )
        values[code] = int(norm)
    return ParseOutcome.success({c: values[c] for c in alphabet})


def parse_single_line(text: str, cb: Codebook, mode: str = "lenient") -> ParseOutcome:
    """Parse a full classification line over the codebook alphabet.

    Lenient: scan lines top to bottom and accept the first containing an
    assignment for every code exactly once; comma without space is
    tolerated. Strict: the payload, modulo surrounding whitespace, must be
    one line, and the scan's answer for it must be the canonical line.
    Values other than 0/1 fail either way.
    """
    strict = _STRICT[mode]
    alphabet = cb.alphabet
    if strict:
        lines = text.strip().splitlines()
        if not lines:
            return ParseOutcome.fail("no-line-found", "empty payload")
        if len(lines) != 1:
            return ParseOutcome.fail(
                "extra-prose-strict", f"expected one line, payload has {len(lines)}"
            )
    else:
        lines = text.splitlines()

    canonical = _canonical_re(alphabet)
    duplicate: ParseOutcome | None = None
    best_missing: list[str] | None = None
    for line in lines:
        match = canonical.fullmatch(line)  # what the scan below would accept for this line
        if match:
            return ParseOutcome.success(dict(zip(alphabet, map(int, match.groups()))))
        assignments = _known_assignments(line, alphabet)
        if not assignments:
            continue
        counts = Counter(c for c, _ in assignments)
        dupes = sorted(c for c, n in counts.items() if n > 1)
        missing = [c for c in alphabet if c not in counts]
        if dupes and (strict or not missing):
            if duplicate is None:  # lenient reports the first, if no later line decides
                duplicate = ParseOutcome.fail(
                    "duplicate-code", f"code(s) assigned more than once: {', '.join(dupes)}"
                )
            if strict:
                return duplicate
        elif missing:
            if strict:
                return ParseOutcome.fail(
                    "missing-code", f"line missing code(s): {', '.join(missing)}"
                )
            if best_missing is None or len(missing) < len(best_missing):
                best_missing = missing
        else:
            outcome = _vector_from_assignments(assignments, alphabet)
            if strict and outcome.ok:
                return ParseOutcome.fail(
                    "extra-prose-strict", "line deviates from the canonical format"
                )
            return outcome
    if duplicate is not None:
        return duplicate
    if best_missing is not None:
        return ParseOutcome.fail(
            "missing-code", f"no line assigns code(s): {', '.join(best_missing)}"
        )
    return ParseOutcome.fail("no-line-found", "no classification assignments found")


@lru_cache(maxsize=64)
def _answer_re(code: str) -> re.Pattern:
    """An assignment to ``code``, its value token as the one group."""
    return re.compile(rf"(?<![A-Za-z0-9_]){re.escape(code)}{_ASSIGNED_VALUE}")


def parse_single_answer(text: str, code: str, mode: str = "lenient") -> ParseOutcome:
    """Parse one per-theme answer ("A=1", "A=[0]", ...) for the target code.

    Returns an outcome whose mapping holds the one code. Lenient scans
    prose for the one assignment; strict requires the payload to be exactly
    the assignment, its value written 0, 1, [0] or [1].
    """
    strict = _STRICT[mode]
    target_re = _answer_re(code)
    matches = [m.group(1) for m in target_re.finditer(text)]
    if not matches:
        return ParseOutcome.fail("no-line-found", f"no assignment for code {code}")
    if strict:
        m = target_re.fullmatch(text.strip())
        if m is None:
            return ParseOutcome.fail(
                "extra-prose-strict", f"payload is not exactly one {code}= assignment"
            )
        raw = m.group(1)
    elif len(matches) > 1:
        return ParseOutcome.fail(
            "duplicate-code", f"code {code} assigned {len(matches)} times"
        )
    else:
        raw = matches[0]
    value = _normalize_value(raw)
    if value is None:
        return ParseOutcome.fail("non-binary-value", f"code {code} has value {raw!r}")
    if strict and raw not in ("0", "1", "[0]", "[1]"):
        return ParseOutcome.fail(
            "extra-prose-strict", f"value {raw!r} deviates from the answer format"
        )
    return ParseOutcome.success({code: int(value)})


def assemble_per_theme(outcomes: Mapping[str, ParseOutcome], cb: Codebook) -> ParseOutcome:
    """Merge per-code outcomes into one mapping over the whole alphabet.

    Any failed code fails the merge; the failure names every failed code.
    """
    alphabet = cb.alphabet
    missing = [c for c in alphabet if c not in outcomes]
    if missing:
        return ParseOutcome.fail(
            "missing-code", f"no outcome supplied for code(s): {', '.join(missing)}"
        )
    failed = [(c, outcomes[c].failure) for c in alphabet if not outcomes[c].ok]
    if failed:
        detail = "; ".join(f"{c}: {f.reason} ({f.detail})" for c, f in failed)
        return ParseOutcome.fail(failed[0][1].reason, f"failed code(s): {detail}")
    return ParseOutcome.success({c: outcomes[c].vector[c] for c in alphabet})
