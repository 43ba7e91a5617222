"""Output parsing: the single-line grammar and the per-theme answer grammar."""

from __future__ import annotations

import hashlib
import random
import re

import numpy as np
import pytest

from conftest import make_vector
from themecoder.codebook import Codebook, ThemeDef
from themecoder.errors import ConfigError
from themecoder.parsing import (
    FAILURE_REASONS,
    PARSE_MODES,
    ParseFailure,
    ParseOutcome,
    assemble_per_theme,
    parse_single_answer,
    parse_single_line,
    render_answer,
)
from themecoder.prompting import canonical_line

CANONICAL = "A=0, B=1, C=0, D=0, E=0, F=0, G=0, H=0, I=0, J=0, K=1, L=0, X=0"


def test_reason_and_mode_catalogs():
    assert FAILURE_REASONS == (
        "missing-code",
        "duplicate-code",
        "non-binary-value",
        "no-line-found",
        "extra-prose-strict",
    )
    assert PARSE_MODES == ("strict", "lenient")


def test_outcome_invariants(cb):
    ok = ParseOutcome.success(make_vector(cb))
    assert ok.ok and ok.failure is None
    bad = ParseOutcome.fail("no-line-found", "nothing")
    assert not bad.ok and bad.vector is None
    with pytest.raises(AssertionError):
        ParseOutcome(vector=make_vector(cb), failure=ParseFailure("no-line-found", "x"))
    with pytest.raises(AssertionError):
        ParseOutcome()
    with pytest.raises(AssertionError):
        ParseFailure(reason="parse-exploded", detail="not a known reason")


# --- single-line grammar, strict ------------------------------------------------


def test_strict_accepts_exact_line(cb):
    outcome = parse_single_line(CANONICAL, cb, mode="strict")
    assert outcome.ok
    assert outcome.vector == make_vector(cb, ("B", "K"))
    padded = parse_single_line(f"  {CANONICAL}  \n", cb, mode="strict")
    assert padded.ok


@pytest.mark.parametrize(
    "text, reason",
    [
        (f"Here you go:\n{CANONICAL}", "extra-prose-strict"),
        (CANONICAL.replace(", ", ","), "extra-prose-strict"),
        (CANONICAL + ".", "extra-prose-strict"),
        (CANONICAL + ", A=0", "duplicate-code"),
        (CANONICAL.replace("A=0, ", ""), "missing-code"),
        (CANONICAL.replace("B=1", "B=2"), "non-binary-value"),
        ("", "no-line-found"),
        ("I could not classify this post.", "no-line-found"),
    ],
)
def test_strict_rejections(cb, text, reason):
    outcome = parse_single_line(text, cb, mode="strict")
    assert not outcome.ok
    assert outcome.failure.reason == reason


def test_strict_failure_details(cb):
    missing = parse_single_line(CANONICAL.replace("K=1, ", ""), cb, mode="strict")
    assert "K" in missing.failure.detail
    dupe = parse_single_line(CANONICAL + ", B=0", cb, mode="strict")
    assert "B" in dupe.failure.detail
    nonbin = parse_single_line(CANONICAL.replace("X=0", "X=maybe"), cb, mode="strict")
    assert "X" in nonbin.failure.detail and "maybe" in nonbin.failure.detail


# --- single-line grammar, lenient ------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        CANONICAL,
        f"Sure, here is the classification:\n{CANONICAL}\nHope that helps!",
        CANONICAL.replace(", ", ","),
        CANONICAL.replace("=0", "=[0]").replace("=1", "=[1]"),
        CANONICAL + ".",
    ],
)
def test_lenient_acceptance(cb, text):
    outcome = parse_single_line(text, cb)
    assert outcome.ok
    assert outcome.vector == make_vector(cb, ("B", "K"))


def test_lenient_is_case_sensitive(cb):
    outcome = parse_single_line(CANONICAL.lower(), cb)
    assert not outcome.ok
    assert outcome.failure.reason == "no-line-found"


def test_lenient_duplicates_fail_not_last_wins(cb):
    outcome = parse_single_line(CANONICAL + ", A=1", cb)
    assert not outcome.ok
    assert outcome.failure.reason == "duplicate-code"
    assert "A" in outcome.failure.detail


def test_lenient_prefers_first_complete_clean_line(cb):
    text = f"A=1, B=0\n{CANONICAL}"
    outcome = parse_single_line(text, cb)
    assert outcome.ok
    assert outcome.vector == make_vector(cb, ("B", "K"))
    # a duplicated line is skipped in favor of a later clean one
    recovered = parse_single_line(f"{CANONICAL}, A=0\n{CANONICAL}", cb)
    assert recovered.ok


def test_lenient_missing_code_detail(cb):
    outcome = parse_single_line("A=1, B=0, C=1", cb)
    assert outcome.failure.reason == "missing-code"
    for code in "DEFGHIJKLX":
        assert code in outcome.failure.detail


@pytest.mark.parametrize(
    "before, reason",
    [
        ("A=1, B=0", None),  # a partial line
        (CANONICAL + ", A=1", None),  # a duplicate-code line
        (CANONICAL.replace("B=1", "B=2"), "non-binary-value"),  # a full line that decides first
        (CANONICAL.replace(", ", ",").replace("K=1", "K=0"), None),  # full and clean, but not canonical
    ],
    ids=["partial", "duplicate", "non-binary", "non-canonical"],
)
def test_lenient_canonical_line_keeps_scan_order(cb, before, reason):
    outcome = parse_single_line(f"{before}\n{CANONICAL}", cb)
    if reason is None:
        assert outcome.ok
        expected = ("B",) if before.startswith("A=0,B=1") else ("B", "K")
        assert outcome.vector == make_vector(cb, expected)
    else:
        assert outcome.failure.reason == reason
        assert "B" in outcome.failure.detail and "'2'" in outcome.failure.detail


def test_canonical_line_reads_every_value(cb):
    rng = np.random.default_rng(3)
    for values in rng.integers(0, 2, size=(50, len(cb.alphabet))):
        vector = make_vector(cb, positives=tuple(c for c, v in zip(cb.alphabet, values) if v))
        line = canonical_line(vector, cb)
        for mode in PARSE_MODES:
            assert parse_single_line(line, cb, mode=mode).vector == vector
        assert parse_single_line(f"Answer:\n{line}\n", cb).vector == vector


def test_lenient_non_binary(cb):
    outcome = parse_single_line(CANONICAL.replace("D=0", "D=yes"), cb)
    assert outcome.failure.reason == "non-binary-value"


def test_unknown_mode_raises(cb):
    """The library names an unknown mode as load_config does."""
    message = re.escape("unknown parsing mode 'relaxed'; known: strict, lenient")
    with pytest.raises(ConfigError, match=message):
        parse_single_line(CANONICAL, cb, mode="relaxed")
    with pytest.raises(ConfigError, match=message):
        parse_single_answer("A=1", "A", mode="relaxed")


def test_round_trip_seeded(cb):
    rng = np.random.default_rng(13)
    for _ in range(60):
        values = tuple(int(v) for v in rng.integers(0, 2, size=13))
        vec = dict(zip(cb.alphabet, values))
        line = canonical_line(vec, cb)
        for mode in PARSE_MODES:
            outcome = parse_single_line(line, cb, mode=mode)
            assert outcome.ok and tuple(outcome.vector.values()) == values
        wrapped = f"Classification below.\n{line}\nDone."
        assert tuple(parse_single_line(wrapped, cb).vector.values()) == values
        for code, value in zip(cb.alphabet, values):
            answer = render_answer(code, value)
            for mode in PARSE_MODES:
                assert parse_single_answer(answer, code, mode=mode).vector == {code: value}


# --- per-theme answer grammar ------------------------------------------------------


@pytest.mark.parametrize("text, value", [("A=1", 1), ("A=[0]", 0), ("A=[1]", 1)])
def test_single_answer_strict_accepts(text, value):
    outcome = parse_single_answer(text, "A", mode="strict")
    assert outcome.ok
    assert outcome.vector == {"A": value}


@pytest.mark.parametrize(
    "text, reason",
    [
        ("The answer is A=1", "extra-prose-strict"),
        ("A=[1].", "extra-prose-strict"),
        ("B=1", "no-line-found"),
        ("A=[yes]", "non-binary-value"),
    ],
)
def test_single_answer_strict_rejects(text, reason):
    outcome = parse_single_answer(text, "A", mode="strict")
    assert not outcome.ok
    assert outcome.failure.reason == reason


def test_single_answer_lenient():
    assert parse_single_answer("I think A=[1] fits best.", "A").vector["A"] == 1
    assert parse_single_answer("A=0.", "A").vector["A"] == 0
    dupe = parse_single_answer("A=1 but also A=0", "A")
    assert dupe.failure.reason == "duplicate-code"
    assert parse_single_answer("a=1", "A").failure.reason == "no-line-found"


def test_single_answer_lookbehind_blocks_longer_names():
    assert parse_single_answer("NA=1", "A").failure.reason == "no-line-found"
    assert parse_single_answer("GRADE_A=1", "A").failure.reason == "no-line-found"
    assert parse_single_answer("2A=1", "A").failure.reason == "no-line-found"
    assert parse_single_answer("(A=[1])", "A").vector["A"] == 1


def test_single_answer_non_binary_lenient():
    outcome = parse_single_answer("A=maybe", "A")
    assert outcome.failure.reason == "non-binary-value"
    assert "maybe" in outcome.failure.detail


# --- assembling per-theme outcomes ----------------------------------------------------


def test_assemble_success(cb):
    outcomes = {
        c: ParseOutcome.success({c: 1 if c in "AD" else 0})
        for c in cb.alphabet
    }
    merged = assemble_per_theme(outcomes, cb)
    assert merged.ok
    assert tuple(merged.vector) == cb.alphabet
    assert merged.vector == make_vector(cb, ("A", "D"))


def test_assemble_propagates_failures(cb):
    outcomes = {
        c: ParseOutcome.success({c: 0})
        for c in cb.alphabet
    }
    outcomes["C"] = ParseOutcome.fail("no-line-found", "no assignment for code C")
    outcomes["J"] = ParseOutcome.fail("non-binary-value", "code J has value 'x'")
    merged = assemble_per_theme(outcomes, cb)
    assert not merged.ok
    assert merged.failure.reason == "no-line-found"  # first failed code in order
    assert "C: no-line-found" in merged.failure.detail
    assert "J: non-binary-value" in merged.failure.detail


def test_assemble_requires_every_code(cb):
    outcomes = {
        c: ParseOutcome.success({c: 0})
        for c in cb.alphabet[:-1]
    }
    merged = assemble_per_theme(outcomes, cb)
    assert merged.failure.reason == "missing-code"
    assert "X" in merged.failure.detail


# --- pinned outcomes over a seeded input space ------------------------------------------

_TOKENS = ("0", "1", "[0]", "[1]", "0.", "[1].", "1!", "[ 0 ]", "[1.]", "2", "yes", "[maybe]", "", "[0,1]", "01")


def _seeded_line(rng, alphabet):
    """One line of a reply: canonical, a scrambled assignment list, or prose."""
    kind = rng.random()
    if kind < 0.1:
        return rng.choice(("", "  ", "Here is the classification:", "I could not classify this post.", "a=1, b=0"))
    values = [rng.choice("01") for _ in alphabet]
    if kind < 0.4:
        return ", ".join(f"{c}={v}" for c, v in zip(alphabet, values))
    codes = list(alphabet)
    if rng.random() < 0.3:
        codes.pop(rng.randrange(len(codes)))
    if rng.random() < 0.3:
        codes.insert(rng.randrange(len(codes) + 1), rng.choice(alphabet))
    if rng.random() < 0.2:
        codes.insert(rng.randrange(len(codes) + 1), rng.choice(("Z", "AB", "x")))
    if rng.random() < 0.3:
        rng.shuffle(codes)
    parts = []
    for code in codes:
        tok = rng.choice("01") if rng.random() < 0.8 else rng.choice(_TOKENS)
        parts.append(f"{code}{rng.choice(('=', ' = ', '= '))}{tok}")
    line = rng.choice((", ", ",", " , ")).join(parts)
    return line + rng.choice(("", "", ".", "!", " thanks"))


def _seeded_answer(rng, code, alphabet):
    """A per-theme reply: assignments to ``code`` and others among prose."""
    pieces = []
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        kind = rng.random()
        if kind < 0.6:
            tok = rng.choice(("0", "1", "[0]", "[1]")) if rng.random() < 0.6 else rng.choice(_TOKENS)
            pieces.append(f"{code}{rng.choice(('=', ' = ', '= '))}{tok}")
        elif kind < 0.75:
            pieces.append(f"{rng.choice(alphabet)}={rng.choice(_TOKENS)}")
        elif kind < 0.85:
            pieces.append(f"{rng.choice(('N', 'GRADE_', '2', '('))}{code}=1")
        else:
            pieces.append(rng.choice(("The answer is", "fits best.", "", code.lower() + "=1")))
    text = rng.choice((" ", "\n", ", ")).join(pieces)
    return rng.choice(("", " ", "\n")) + text + rng.choice(("", " ", "\n", "."))


def _outcome_key(outcome):
    if outcome.ok:
        return (tuple(outcome.vector.items()), None, None)
    return (None, outcome.failure.reason, outcome.failure.detail)


def test_parse_outcomes_are_pinned_over_a_seeded_input_space(cb):
    """Both parsers in both modes over ~5000 seeded replies, on the shipped
    alphabet and a one-code one: every (vector, reason, detail) is hashed
    into one digest, and every (parser, mode, reason) kind is reached."""
    one_code = Codebook(version="t", themes=(ThemeDef("X", "x", "x"),), null_code="X")
    rng = random.Random(38)
    digest = hashlib.sha256()
    kinds = set()
    for book in (cb, one_code):
        alphabet = book.alphabet
        for _ in range(1250):
            text = rng.choice(("\n", "\r\n")).join(
                _seeded_line(rng, alphabet) for _ in range(rng.choice((1, 1, 2, 3)))
            )
            code = rng.choice(alphabet)
            answer = _seeded_answer(rng, code, alphabet)
            for mode in PARSE_MODES:
                for parser, outcome in (
                    ("line", parse_single_line(text, book, mode=mode)),
                    ("answer", parse_single_answer(answer, code, mode=mode)),
                ):
                    key = _outcome_key(outcome)
                    digest.update(repr(key).encode())
                    kinds.add((parser, mode, key[1] or "ok"))
    assert len(kinds) == 19, sorted(kinds)
    assert digest.hexdigest() == "9898912e39b6aae9331fd314714b9c648a7e568d86e125c1b1c2ecf2dbcd2838"
