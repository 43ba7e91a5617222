"""Backends: configs, fingerprints, caching, retries, and the remote client."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import re
import socket
import sys
import threading
import time
import tracemalloc

import pytest
from chat import TLS_CERT, all_closed, chat_endpoint, chat_payload
from conftest import FIXTURES, base_config, make_vector, write_config

from themecoder.backends import (
    BACKEND_KINDS,
    AuditLog,
    BackendConfig,
    MockRulesBackend,
    RemoteChatBackend,
    ReplayBackend,
    ResponseCache,
    RetryPolicy,
    TokenBucket,
    _BaseBackend,
    cache_key,
    classify_with_retry,
    complete,
    make_backend,
    mock_rule_vector,
)
from themecoder.errors import BackendError, ConfigError
from themecoder.parsing import parse_single_line
from themecoder.pipeline import load_config
from themecoder.prompting import RenderedPrompt, ShotPolicy, load_template, render_prompt

MOCK_CFG = BackendConfig(kind="mock-rules", model="mock")

PROBE = RenderedPrompt(
    text="PROBE TEXT",
    template_version="v3-single-line",
    shots=0,
    target=("A",),
    post_id="p1",
    post_text="body",
)


def good_line(cb, positives=("B",)) -> str:
    from themecoder.prompting import canonical_line

    return canonical_line(make_vector(cb, positives), cb)


class ScriptedBackend(_BaseBackend):
    """Returns canned texts in order and records every message received."""

    kind = "scripted"

    def __init__(self, cfg: BackendConfig, texts, retry=None, audit=None) -> None:
        super().__init__(cfg, retry, audit)
        self.texts = list(texts)
        self.messages: list[str] = []

    def _raw(self, message, prompt, fingerprint, attempt):
        self.messages.append(message)
        return self.texts[len(self.messages) - 1]


class ExplodingBackend(_BaseBackend):
    kind = "exploding"

    def _raw(self, message, prompt, fingerprint, attempt):
        raise AssertionError("backend must not be called")


# --- configuration ---------------------------------------------------------------


def test_backend_kind_catalog():
    assert BACKEND_KINDS == ("remote-chat", "mock-rules", "replay")
    assert isinstance(make_backend(MOCK_CFG), MockRulesBackend)


def test_backend_config_validation(tmp_path):
    message = "unknown backend kind 'oracle'; known: remote-chat, mock-rules, replay"
    with pytest.raises(ConfigError, match=re.escape(message)):
        BackendConfig(kind="oracle")
    with pytest.raises(ConfigError, match="requires endpoint and model"):
        BackendConfig(kind="remote-chat", model="m")
    with pytest.raises(ConfigError, match="requires endpoint and model"):
        BackendConfig(kind="remote-chat", endpoint="http://x")
    with pytest.raises(ConfigError, match="requires replay_path"):
        BackendConfig(kind="replay")
    with pytest.raises(ConfigError, match="temperature"):
        BackendConfig(kind="mock-rules", temperature=-0.5)
    with pytest.raises(ConfigError, match="temperature"):
        BackendConfig(kind="mock-rules", temperature=float("nan"))
    with pytest.raises(ConfigError, match="in_flight_limit"):
        BackendConfig(kind="mock-rules", in_flight_limit=0)


def test_retry_policy_validation():
    with pytest.raises(ConfigError, match="max_attempts"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ConfigError, match=re.escape("transport_retries must be >= 0, got -1")):
        RetryPolicy(transport_retries=-1)


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("backend", "timeout", -1, "timeout must be finite and > 0, got -1"),
        ("backend", "timeout", 0, "timeout must be finite and > 0, got 0"),
        ("backend", "timeout", float("nan"), "timeout must be finite and > 0, got nan"),
        ("backend", "timeout", float("inf"), "timeout must be finite and > 0, got inf"),
        ("backend", "requests_per_second", float("nan"), "requests_per_second must be finite and >= 0, got nan"),
        ("backend", "requests_per_second", -0.5, "requests_per_second must be finite and >= 0, got -0.5"),
        ("backend", "max_output_tokens", 0, "max_output_tokens must be >= 1, got 0"),
        ("backend", "max_output_tokens", -5, "max_output_tokens must be >= 1, got -5"),
        # a request's max_tokens must stay a JSON integer that every reader holds exactly
        ("backend", "max_output_tokens", 2**53, f"max_output_tokens must be <= {2**53 - 1}, got {2**53}"),
        ("backend", "max_output_tokens", 10**30, f"max_output_tokens must be <= {2**53 - 1}, got {10**30}"),
        ("retry", "backoff_initial", -1, "backoff_initial must be finite and >= 0, got -1"),
        ("retry", "backoff_multiplier", float("nan"), "backoff_multiplier must be finite and >= 0, got nan"),
        ("retry", "backoff_cap", -1, "backoff_cap must be finite and >= 0, got -1"),
        ("retry", "backoff_cap", float("inf"), "backoff_cap must be finite and >= 0, got inf"),
        # math.isfinite raises OverflowError on an integer too large for a float
        ("backend", "timeout", 10**400, "backend.timeout must fit in a float, got an integer of 401 digits"),
        ("backend", "temperature", -(10**400), "backend.temperature must fit in a float, got an integer of 401 digits"),
        ("backend", "requests_per_second", 10**400,
         "backend.requests_per_second must fit in a float, got an integer of 401 digits"),
        ("retry", "backoff_initial", 10**400,
         "retry.backoff_initial must fit in a float, got an integer of 401 digits"),
        ("retry", "backoff_multiplier", 10**400,
         "retry.backoff_multiplier must fit in a float, got an integer of 401 digits"),
        ("retry", "backoff_cap", 10**400, "retry.backoff_cap must fit in a float, got an integer of 401 digits"),
        # time.sleep and socket.settimeout raise OverflowError on waits far above one day
        ("backend", "timeout", 86_401, "timeout must be <= 86400 s, got 86401"),
        ("backend", "timeout", 1.0e12, "timeout must be <= 86400 s, got 1000000000000.0"),
        ("retry", "backoff_cap", 1.0e12, "backoff_cap must be <= 86400 s, got 1000000000000.0"),
        ("backend", "requests_per_second", 1.0e-12, "requests_per_second must be 0 or >= 1/86400, got 1e-12"),
        ("backend", "requests_per_second", 1 / 86_401,
         f"requests_per_second must be 0 or >= 1/86400, got {1 / 86_401}"),
        # one worker thread and one connection per slot: checked at load, before any is made
        ("backend", "in_flight_limit", 0, "in_flight_limit must be >= 1, got 0"),
        ("backend", "in_flight_limit", 257, "in_flight_limit must be <= 256, got 257"),
        ("backend", "in_flight_limit", 10**6, "in_flight_limit must be <= 256, got 1000000"),
    ],
)
def test_out_of_range_backend_and_retry_numbers_fail_at_load(tmp_path, section, key, value, message):
    remote = {"kind": "remote-chat", "model": "m", "endpoint": "http://127.0.0.1:9/v1/chat"}
    sections = base_config(tmp_path, FIXTURES / "posts_50.jsonl", backend=remote)
    sections.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=f"^{message}$") as exc:
        load_config(write_config(tmp_path / "run.yaml", **sections))
    assert exc.value.exit_code == 1


def test_backend_and_retry_numbers_at_their_bounds_load(tmp_path):
    remote = {
        "kind": "remote-chat", "model": "m", "endpoint": "http://127.0.0.1:9/v1/chat",
        "timeout": 86_400, "requests_per_second": 1 / 86_400, "temperature": 10**308,
        "max_output_tokens": 2**53 - 1, "in_flight_limit": 256,
    }
    sections = base_config(tmp_path, FIXTURES / "posts_50.jsonl", backend=remote)
    sections["retry"] = {"backoff_cap": 86_400.0, "backoff_initial": 10**300}
    cfg = load_config(write_config(tmp_path / "run.yaml", **sections))
    assert (cfg.backend.timeout, cfg.backend.requests_per_second) == (86_400, 1 / 86_400)
    assert cfg.backend.temperature == 10**308 and cfg.retry.backoff_cap == 86_400.0
    assert cfg.backend.max_output_tokens == 2**53 - 1 and cfg.backend.in_flight_limit == 256


# --- request fingerprints -----------------------------------------------------------


def test_cache_key_is_frozen():
    cfg = BackendConfig(kind="mock-rules", model="probe-model", temperature=0.25)
    assert cache_key(cfg, PROBE) == (
        "65edc5417e27b8be20f69503a2055660bf39a8faac2c0bf815984b22dc252fb9"
    )


def test_cache_key_sensitivity():
    cfg = BackendConfig(kind="mock-rules", model="m", temperature=0.0)
    base = cache_key(cfg, PROBE)
    assert len(base) == 64 and set(base) <= set("0123456789abcdef")
    assert cache_key(cfg, PROBE) == base
    assert cache_key(BackendConfig(kind="mock-rules", model="m2"), PROBE) != base
    warm = BackendConfig(kind="mock-rules", model="m", temperature=0.7)
    assert cache_key(warm, PROBE) != base
    other_text = RenderedPrompt(**{**PROBE.__dict__, "text": "OTHER"})
    assert cache_key(cfg, other_text) != base
    other_tpl = RenderedPrompt(**{**PROBE.__dict__, "template_version": "v1-per-theme"})
    assert cache_key(cfg, other_tpl) != base


def test_cache_key_ignores_non_request_fields():
    cfg = BackendConfig(kind="mock-rules", model="m")
    relabeled = RenderedPrompt(**{**PROBE.__dict__, "post_id": "p2", "post_text": "other"})
    assert cache_key(cfg, relabeled) == cache_key(cfg, PROBE)
    int_temp = BackendConfig(kind="mock-rules", model="m", temperature=0)
    float_temp = BackendConfig(kind="mock-rules", model="m", temperature=0.0)
    assert cache_key(int_temp, PROBE) == cache_key(float_temp, PROBE)


# --- mock rule table ------------------------------------------------------------------


def test_mock_rules_examples(cb):
    codes = cb.alphabet
    assert mock_rule_vector("started methadone last week", codes)["I"] == 1
    assert mock_rule_vector("started methadone last week", codes)["X"] == 0
    lurker = mock_rule_vector("saw xylazine on the news again", codes)
    assert lurker["K"] == 1 and lurker["X"] == 0
    wound = mock_rule_vector("tranq wound care on my arm, got a dressing", codes)
    assert wound["C"] == 1 and wound["D"] == 1
    assert wound["K"] == 0  # substantive signal suppresses K
    offtopic = mock_rule_vector("sourdough starter advice please", codes)
    assert offtopic["X"] == 1
    assert sum(offtopic.values()) == 1
    assert mock_rule_vector("METHADONE!", codes)["I"] == 1  # casefolded


def test_mock_rules_subset_of_codes():
    assert mock_rule_vector("wound dressing", ("D",)) == {"D": 1}
    # without A/C/D/H in scope, any xylazine mention reads as K
    assert mock_rule_vector("tranq dressing", ("K",)) == {"K": 1}


def test_mock_backend_full_line(cb):
    post_text = "muscling tranq dope, wound on my arm needs a dressing"
    prompt = RenderedPrompt(
        text="irrelevant scaffold",
        template_version="v3-single-line",
        shots=0,
        target=cb.alphabet,
        post_id="p1",
        post_text=post_text,
    )
    parsed = parse_single_line(complete(make_backend(MOCK_CFG), prompt), cb)
    assert parsed.ok
    assert parsed.vector == mock_rule_vector(post_text, cb.alphabet)


def test_mock_backend_single_answer(cb):
    prompt = RenderedPrompt(
        text="x",
        template_version="v1-per-theme",
        shots=0,
        target=("C",),
        post_id="p1",
        post_text="wound on my ankle",
    )
    assert complete(make_backend(MOCK_CFG), prompt) == "C=[1]"


def test_mock_backend_reads_post_not_prompt(cb):
    # scaffold text mentioning rule keywords must not leak into the decision
    post = render_prompt(
        type(
            "P",
            (),
            {
                "id": "p1",
                "title": "",
                "body": "completely unrelated gardening question",
            },
        )(),
        cb,
        load_template(),
        ShotPolicy(),
    )
    parsed = parse_single_line(complete(make_backend(MOCK_CFG), post), cb)
    assert parsed.ok
    assert parsed.vector == make_vector(cb, ("X",))


# --- replay backend ---------------------------------------------------------------------


def test_replay_serves_attempts_in_order(tmp_path):
    fp = cache_key(MOCK_CFG, PROBE)
    script = tmp_path / "script.json"
    script.write_text(json.dumps({fp: ["first", "second"]}), encoding="utf-8")
    backend = make_backend(BackendConfig(kind="replay", model="mock", replay_path=str(script)))
    assert complete(backend, PROBE, attempt=1) == "first"
    assert complete(backend, PROBE, attempt=2) == "second"
    with pytest.raises(BackendError, match="exhausted.*attempt 3 of 2"):
        complete(backend, PROBE, attempt=3)


def test_replay_missing_fingerprint(tmp_path):
    script = tmp_path / "script.json"
    script.write_text("{}", encoding="utf-8")
    cfg = BackendConfig(kind="replay", model="mock", replay_path=str(script))
    fp = cache_key(cfg, PROBE)
    with pytest.raises(BackendError, match=f"{fp[:12]}.*post p1"):
        complete(make_backend(cfg), PROBE)


def test_replay_script_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        ReplayBackend(BackendConfig(kind="replay", replay_path=str(tmp_path / "no.json")))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        ReplayBackend(BackendConfig(kind="replay", replay_path=str(bad)))


@pytest.mark.parametrize(
    "script,message",
    [
        ('["A=[1]"]', "must be a JSON object"),
        ('{"fp1": "A=[1]"}', "entry for fingerprint fp1 is not a list of strings"),
        ('{"fp1": ["A=[1]"], "fp2": [1]}', "entry for fingerprint fp2 is not a list of strings"),
    ],
    ids=["not-an-object", "entry-not-a-list", "entry-of-numbers"],
)
def test_replay_script_of_the_wrong_shape_is_a_config_error(tmp_path, script, message):
    path = tmp_path / "script.json"
    path.write_text(script, encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        ReplayBackend(BackendConfig(kind="replay", replay_path=str(path)))


# --- retry loop ------------------------------------------------------------------------


def line_parser(cb):
    return lambda raw: parse_single_line(raw, cb)


def full_prompt(cb, body="post body"):
    return RenderedPrompt(
        text="classify this",
        template_version="v3-single-line",
        shots=0,
        target=cb.alphabet,
        post_id="p1",
        post_text=body,
    )


def test_retry_success_first_attempt(cb):
    backend = ScriptedBackend(MOCK_CFG, [good_line(cb)])
    outcome, failures, attempts = classify_with_retry(backend, full_prompt(cb), line_parser(cb))
    assert outcome.vector == make_vector(cb, ("B",))
    assert failures == [] and attempts == 1
    assert backend.messages == ["classify this"]


def test_retry_appends_format_reminder(cb):
    prompt = full_prompt(cb)
    backend = ScriptedBackend(MOCK_CFG, ["no answer here", good_line(cb)])
    outcome, failures, attempts = classify_with_retry(backend, prompt, line_parser(cb))
    assert outcome.ok and [f.reason for f in failures] == ["no-line-found"]
    assert attempts == 2
    assert backend.messages[0] == prompt.text
    assert backend.messages[1] == f"{prompt.text}\n\n{prompt.format_reminder()}"


def test_retry_budget_exhaustion(cb):
    backend = ScriptedBackend(MOCK_CFG, ["junk one", "junk two", "junk three"], retry=RetryPolicy(max_attempts=3))
    outcome, failures, attempts = classify_with_retry(backend, full_prompt(cb), line_parser(cb))
    assert not outcome.ok and outcome.failure == failures[-1]
    assert [f.reason for f in failures] == ["no-line-found"] * 3
    assert attempts == 3


def test_reask_disabled_spends_one_attempt(cb):
    backend = ScriptedBackend(MOCK_CFG, ["junk", good_line(cb)], retry=RetryPolicy(max_attempts=1))
    outcome, _, attempts = classify_with_retry(backend, full_prompt(cb), line_parser(cb))
    assert not outcome.ok
    assert len(backend.messages) == 1
    assert attempts == 1


def audited_fingerprints(path) -> set[str]:
    return {json.loads(line)["fingerprint"] for line in path.read_text().splitlines()}


def test_retry_fingerprints_each_prompt_once(monkeypatch, tmp_path, cb):
    import themecoder.backends as backends

    fingerprints = []
    monkeypatch.setattr(
        backends, "cache_key", lambda cfg, prompt: fingerprints.append(cache_key(cfg, prompt)) or fingerprints[-1]
    )
    prompt = full_prompt(cb)
    with contextlib.closing(AuditLog(tmp_path / "audit.jsonl")) as audit:
        backend = ScriptedBackend(MOCK_CFG, ["junk", "junk", good_line(cb)], audit=audit)
        _, _, attempts = classify_with_retry(backend, prompt, line_parser(cb))
    assert attempts == 3
    assert fingerprints == [cache_key(MOCK_CFG, prompt)]
    assert audited_fingerprints(tmp_path / "audit.jsonl") == set(fingerprints)


def test_retry_uses_a_given_fingerprint_as_is(monkeypatch, tmp_path, cb):
    import themecoder.backends as backends

    monkeypatch.setattr(backends, "cache_key", lambda cfg, prompt: pytest.fail("cache_key called"))
    with contextlib.closing(AuditLog(tmp_path / "audit.jsonl")) as audit:
        backend = ScriptedBackend(MOCK_CFG, ["junk", good_line(cb)], audit=audit)
        _, _, attempts = classify_with_retry(backend, full_prompt(cb), line_parser(cb), fingerprint="f" * 64)
    assert attempts == 2 and audited_fingerprints(tmp_path / "audit.jsonl") == {"f" * 64}


def test_retry_audit_records_parse_failures(tmp_path, cb):
    audit = AuditLog(tmp_path / "audit.jsonl")
    backend = ScriptedBackend(MOCK_CFG, ["garbage", good_line(cb)], audit=audit)
    classify_with_retry(backend, full_prompt(cb), line_parser(cb))
    audit.close()
    records = [json.loads(l) for l in (tmp_path / "audit.jsonl").read_text().splitlines()]
    assert all("ts" in r for r in records)
    assert any(r.get("status") == "parse-failure" and r.get("reason") == "no-line-found" for r in records)
    assert any(r.get("status") == "ok" for r in records)


def test_retry_live_path_writes_its_exact_audit_and_cache_lines(tmp_path, cb):
    audit = AuditLog(tmp_path / "audit.jsonl")
    cache = ResponseCache(tmp_path / "cache.jsonl")
    first = full_prompt(cb)
    second = dataclasses.replace(first, text="classify that", post_id="p2")
    backend = ScriptedBackend(
        MOCK_CFG, ["garbage", good_line(cb), "junk a", "junk b"], retry=RetryPolicy(max_attempts=2), audit=audit
    )
    for prompt in (first, second):
        classify_with_retry(backend, prompt, line_parser(cb), cache=cache)
    audit.close()
    cache.close()
    records = [json.loads(l) for l in (tmp_path / "audit.jsonl").read_text().splitlines()]
    for record in records:
        assert isinstance(record.pop("ts"), float)
        if record["status"] == "ok":
            assert record.pop("latency") >= 0
    fp1, fp2 = cache_key(MOCK_CFG, first), cache_key(MOCK_CFG, second)
    ok = {"status": "ok", "kind": "scripted"}
    failed = {
        "status": "parse-failure",
        "reason": "no-line-found",
        "detail": "no classification assignments found",
        "kind": "scripted",
    }
    assert records == [
        {"fingerprint": fp1, "attempt": 1, **ok},
        {"fingerprint": fp1, "attempt": 1, **failed},
        {"fingerprint": fp1, "attempt": 2, **ok},
        {"fingerprint": fp2, "attempt": 1, **ok},
        {"fingerprint": fp2, "attempt": 1, **failed},
        {"fingerprint": fp2, "attempt": 2, **ok},
        {"fingerprint": fp2, "attempt": 2, **failed},
    ]
    # one line per prompt, success or failure, holding every attempt text in order
    assert [json.loads(l) for l in (tmp_path / "cache.jsonl").read_text().splitlines()] == [
        {"fingerprint": fp1, "attempts": ["garbage", good_line(cb)]},
        {"fingerprint": fp2, "attempts": ["junk a", "junk b"]},
    ]


@pytest.mark.parametrize(
    "tail,torn",
    [
        (b'{"attempt": 1, "sta', True),
        (b'{"detail": "' + b"x" * 200_000, True),  # longer than one step back from the end
        (b'{"attempt": 1, "status": "ok"}', False),  # whole record, newline missing
    ],
    ids=["half-record", "long-torn-line", "unterminated-record"],
)
def test_audit_log_ends_a_damaged_tail_reading_only_the_tail(tmp_path, tail, torn):
    path = tmp_path / "audit.jsonl"
    body = b"".join(b'{"attempt": 1, "n": %d, "status": "ok"}\n' % i for i in range(100_000))
    path.write_bytes(body + tail)
    tracemalloc.start()
    try:
        audit = AuditLog(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(tail) + 2**20  # the file is about 4 MB
    assert audit.torn == (len(tail) if torn else 0)
    audit.append(status="ok", attempt=2)
    audit.close()
    lines = path.read_bytes().split(b"\n")
    assert lines[-1] == b"" and len(lines) == 100_000 + (2 if torn else 3)
    assert all(isinstance(json.loads(line), dict) for line in lines[-3:-1])
    assert json.loads(lines[-2])["attempt"] == 2


# --- response cache -----------------------------------------------------------------------


def test_cache_hit_skips_backend(tmp_path, cb):
    cache = ResponseCache(tmp_path / "cache.jsonl")
    prompt = full_prompt(cb)
    live = ScriptedBackend(MOCK_CFG, ["junk", good_line(cb)])
    answer = classify_with_retry(live, prompt, line_parser(cb), cache=cache)
    assert answer[0].ok and answer[2] == 2
    replayed = classify_with_retry(ExplodingBackend(MOCK_CFG), prompt, line_parser(cb), cache=cache)
    cache.close()
    assert replayed == answer


def test_cache_stores_failures_too(tmp_path, cb):
    cache = ResponseCache(tmp_path / "cache.jsonl")
    prompt = full_prompt(cb)
    policy = RetryPolicy(max_attempts=2)
    live = ScriptedBackend(MOCK_CFG, ["junk a", "junk b"], retry=policy)
    failure = classify_with_retry(live, prompt, line_parser(cb), cache=cache)
    assert not failure[0].ok
    again = classify_with_retry(ExplodingBackend(MOCK_CFG, policy), prompt, line_parser(cb), cache=cache)
    cache.close()
    assert again == failure


def test_cache_respects_attempt_budget(tmp_path, cb):
    cache = ResponseCache(tmp_path / "cache.jsonl")
    prompt = full_prompt(cb)
    fp = cache_key(MOCK_CFG, prompt)
    cache.put(fp, ["junk", good_line(cb)])
    cache.close()
    policy = RetryPolicy(max_attempts=1)
    outcome, _, attempts = classify_with_retry(ExplodingBackend(MOCK_CFG, policy), prompt, line_parser(cb), cache=cache)
    assert not outcome.ok  # budget 1 never sees attempt 2
    assert attempts == 1


GOOD = object()  # stands for a line that parses


@pytest.mark.parametrize(
    "stored,max_attempts,decided",
    [
        (["junk", GOOD], 3, 2),
        (["junk a", "junk b", "junk c"], 3, 3),
        (["junk a", "junk b", GOOD], 2, 2),  # attempt 3 lies past the budget
        (["junk"], 3, 1),  # the replay stops where the entry ends
    ],
    ids=["succeeds-at-attempt-2", "every-attempt-fails", "longer-than-budget", "shorter-than-budget"],
)
def test_cache_hit_writes_one_audit_line_and_makes_no_backend(monkeypatch, tmp_path, cb, stored, max_attempts, decided):
    import themecoder.backends as backends

    prompt = full_prompt(cb)
    fp = cache_key(MOCK_CFG, prompt)
    texts = [good_line(cb) if text is GOOD else text for text in stored]
    cache = ResponseCache(tmp_path / "cache.jsonl")
    cache.put(fp, texts)
    audit = AuditLog(tmp_path / "audit.jsonl")
    backend = make_backend(MOCK_CFG, retry=RetryPolicy(max_attempts=max_attempts), audit=audit)
    monkeypatch.setattr(backend, "call", lambda *a, **k: pytest.fail("backend called on a hit"))
    monkeypatch.setattr(backends, "complete", lambda *a, **k: pytest.fail("complete called on a hit"))
    outcome, failures, attempts = classify_with_retry(backend, prompt, line_parser(cb), cache=cache)
    audit.close()
    cache.close()
    records = [json.loads(l) for l in (tmp_path / "audit.jsonl").read_text().splitlines()]
    assert [{k: v for k, v in r.items() if k != "ts"} for r in records] == [
        {"fingerprint": fp, "attempt": decided, "status": "cache-hit", "kind": "mock-rules"}
    ]
    parsed = [line_parser(cb)(text) for text in texts[:decided]]
    assert (outcome, failures, attempts) == (parsed[-1], [p.failure for p in parsed if not p.ok], decided)
    if stored[decided - 1] is GOOD:
        assert outcome.vector == make_vector(cb, ("B",))
    else:
        assert not outcome.ok and len(failures) == decided
    assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == 1  # a hit adds no cache line


def test_cache_persistence_and_isolation(tmp_path):
    path = tmp_path / "cache.jsonl"
    first = ResponseCache(path)
    first.put("fp-1", ["a", "b"])
    first.put("fp-1", ["a", "b"])  # identical re-put is a no-op
    assert len(path.read_text().splitlines()) == 1
    first.put("fp-1", ["a", "b", "c"])  # changed entry appends, last wins
    first.close()
    reloaded = ResponseCache(path)
    assert reloaded.get("fp-1") == ["a", "b", "c"]
    assert reloaded.get("fp-missing") is None
    copy = reloaded.get("fp-1")
    copy.append("mutate")
    assert reloaded.get("fp-1") == ["a", "b", "c"]


def test_audit_log_concurrent_appends(tmp_path):
    audit = AuditLog(tmp_path / "audit.jsonl")
    threads = [
        threading.Thread(target=lambda i=i: audit.append(worker=i, status="ok"))
        for i in range(16)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    audit.close()
    lines = (tmp_path / "audit.jsonl").read_text().splitlines()
    assert len(lines) == 16
    assert {json.loads(l)["worker"] for l in lines} == set(range(16))


# --- throttling -----------------------------------------------------------------------------


def test_token_bucket_disabled_is_free():
    bucket = TokenBucket(rate=0.0)
    started = time.monotonic()
    for _ in range(200):
        bucket.acquire()
    assert time.monotonic() - started < 0.2


def test_token_bucket_spaces_requests_without_a_burst():
    bucket = TokenBucket(rate=200.0)
    started = time.monotonic()
    for _ in range(11):  # one token at the start, then 10 at 5ms each
        bucket.acquire()
    assert time.monotonic() - started >= 0.03


# --- remote chat client ------------------------------------------------------------------


def remote_cfg(endpoint: str) -> BackendConfig:
    return BackendConfig(
        kind="remote-chat",
        model="test-model",
        endpoint=endpoint,
        credential_env="TC_TEST_KEY",
        timeout=5.0,
    )


FAST_RETRY = RetryPolicy(backoff_initial=0.01, backoff_cap=0.02, transport_retries=2)


def opened(cfg: BackendConfig, retry: RetryPolicy = FAST_RETRY, audit: AuditLog | None = None):
    """A backend for ``cfg`` that closes its connections when the with-block ends."""
    return contextlib.closing(make_backend(cfg, retry=retry, audit=audit))


def test_remote_requires_credential_before_network(monkeypatch):
    monkeypatch.delenv("TC_TEST_KEY", raising=False)
    # a dead endpoint: reaching the network would fail differently
    cfg = remote_cfg("http://127.0.0.1:9/v1/chat")
    with opened(cfg) as backend, pytest.raises(ConfigError, match="'TC_TEST_KEY' is not set"):
        complete(backend, PROBE)


def test_remote_success_request_shape(monkeypatch, chat_server):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["responses"].append((200, chat_payload("A=[1]")))
    with opened(remote_cfg(chat_server["endpoint"])) as backend:
        assert complete(backend, PROBE) == "A=[1]"
    (request,) = chat_server["requests"]
    assert request["auth"] == "Bearer sekret-value-123"
    assert request["type"] == "application/json"
    assert request["body"] == {
        "model": "test-model",
        "messages": [{"role": "user", "content": "PROBE TEXT"}],
        "temperature": 0.0,
        "max_tokens": 256,
    }


def test_remote_auth_failure_no_retry(monkeypatch, chat_server):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["responses"].append((401, {"error": "bad key"}))
    with opened(remote_cfg(chat_server["endpoint"])) as backend:
        with pytest.raises(BackendError, match="authentication failed .HTTP 401.") as exc:
            complete(backend, PROBE)
    assert len(chat_server["requests"]) == 1
    assert "sekret" not in str(exc.value)


def test_remote_retries_rate_limit_then_succeeds(monkeypatch, chat_server, tmp_path):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["responses"] += [(429, {}), (200, chat_payload("recovered"))]
    audit = AuditLog(tmp_path / "audit.jsonl")
    with opened(remote_cfg(chat_server["endpoint"]), audit=audit) as backend:
        text = complete(backend, PROBE)
    audit.close()
    assert text == "recovered"
    assert len(chat_server["requests"]) == 2
    log_text = (tmp_path / "audit.jsonl").read_text()
    records = [json.loads(l) for l in log_text.splitlines()]
    assert any(r.get("status") == "transport-retry" and r.get("detail") == "429" for r in records)
    assert "sekret" not in log_text  # credential never logged


def test_remote_server_errors_exhaust_retries(monkeypatch, chat_server):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["responses"] += [(500, {}), (503, {}), (500, {})]
    with opened(remote_cfg(chat_server["endpoint"])) as backend:
        with pytest.raises(BackendError, match="transport retries exhausted .last status: 500."):
            complete(backend, PROBE)
    assert len(chat_server["requests"]) == 3  # initial + 2 retries


def test_remote_requests_per_second_meters_each_request_transport_retries_included(monkeypatch, chat_server):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["answer"] = lambda request: (503, {})
    cfg = dataclasses.replace(remote_cfg(chat_server["endpoint"]), requests_per_second=4.0)
    policy = RetryPolicy(backoff_initial=0.01, backoff_cap=0.01, transport_retries=5)
    started = time.monotonic()
    with opened(cfg, policy) as backend, pytest.raises(BackendError, match="transport retries exhausted"):
        complete(backend, PROBE)
    assert len(chat_server["requests"]) == 6
    # one token at the start, then one each 0.25 s: about 1.25 s, where one token per call takes 0.25 s
    assert time.monotonic() - started >= 0.4


def test_remote_requests_per_second_spaces_requests_from_the_first(monkeypatch, chat_server):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    arrivals = []
    chat_server["answer"] = lambda request: arrivals.append(time.monotonic()) or (200, chat_payload("A=[1]"))
    cfg = dataclasses.replace(remote_cfg(chat_server["endpoint"]), requests_per_second=4.0, in_flight_limit=4)
    with opened(cfg) as backend:
        workers = [threading.Thread(target=complete, args=(backend, PROBE)) for _ in range(5)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    assert len(arrivals) == 5
    # 1/r is 0.25 s; a bucket that starts full would let the first four arrive at once
    assert min(b - a for a, b in zip(arrivals, arrivals[1:])) >= 0.2


def test_remote_malformed_response(monkeypatch, chat_server):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["responses"].append((200, b"this is not json"))
    with opened(remote_cfg(chat_server["endpoint"])) as backend:
        with pytest.raises(BackendError, match="malformed completion response"):
            complete(backend, PROBE)
        chat_server["responses"].append((200, {"unexpected": "shape"}))
        with pytest.raises(BackendError, match="malformed completion response"):
            complete(backend, PROBE)


@pytest.mark.parametrize(
    "content", [None, [{"type": "text", "text": "A=0"}], 7], ids=["null", "list", "number"]
)
def test_remote_reply_content_that_is_not_a_string_is_malformed(monkeypatch, chat_server, tmp_path, content):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["responses"].append((200, {"choices": [{"message": {"content": content}}]}))
    cache = ResponseCache(tmp_path / "cache.jsonl")
    audit = AuditLog(tmp_path / "audit.jsonl")
    with opened(remote_cfg(chat_server["endpoint"]), audit=audit) as backend:
        with pytest.raises(BackendError, match="malformed completion response: message content is .+, not a string"):
            classify_with_retry(backend, PROBE, lambda raw: pytest.fail("parser called"), cache=cache)
    cache.close()
    audit.close()
    assert len(chat_server["requests"]) == 1
    assert not (tmp_path / "cache.jsonl").exists()
    assert not (tmp_path / "audit.jsonl").exists()  # no ok line


@pytest.mark.parametrize("status", [400, 404])
def test_remote_other_error_status_names_it_without_retry(monkeypatch, chat_server, status):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["responses"].append((status, {"error": {"message": "body-not-echoed"}}))
    with opened(remote_cfg(chat_server["endpoint"])) as backend, pytest.raises(BackendError) as excinfo:
        complete(backend, PROBE)
    assert str(excinfo.value) == f"endpoint answered HTTP {status}"
    assert len(chat_server["requests"]) == 1


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_remote_never_follows_a_redirect(monkeypatch, chat_server, status):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    with chat_endpoint() as elsewhere:
        location = elsewhere["endpoint"].replace("127.0.0.1", "localhost")

        def redirect(handler):
            handler.send_response(status)
            handler.send_header("Location", location)
            handler.send_header("Content-Length", "0")
            handler.end_headers()

        chat_server["responses"].append(redirect)
        with opened(remote_cfg(chat_server["endpoint"])) as backend, pytest.raises(BackendError) as exc:
            complete(backend, PROBE)
    assert elsewhere["requests"] == []  # the credential went to the endpoint only
    assert len(chat_server["requests"]) == 1
    assert str(exc.value).startswith(f"endpoint redirected (HTTP {status} to {location})")
    assert exc.value.exit_code == 3


def retry_details(path) -> list[str]:
    """The ``detail`` of each transport-retry record in an audit log."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return [r["detail"] for r in records if r["status"] == "transport-retry"]


def test_remote_connection_refused(monkeypatch, tmp_path):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        dead_port = s.getsockname()[1]
    cfg = remote_cfg(f"http://127.0.0.1:{dead_port}/v1/chat")
    policy = RetryPolicy(backoff_initial=0.01, backoff_cap=0.01, transport_retries=1)
    audit = AuditLog(tmp_path / "audit.jsonl")
    with opened(cfg, policy, audit) as backend:
        with pytest.raises(BackendError, match=r"transport retries exhausted \(last status: ConnectionRefusedError\)"):
            complete(backend, PROBE)
    audit.close()
    # the audit names the socket error, not the urllib wrapper around it
    assert retry_details(tmp_path / "audit.jsonl") == ["ConnectionRefusedError"]


def test_remote_ignores_netrc(monkeypatch, chat_server, tmp_path):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login u password p\n")
    netrc.chmod(0o600)
    monkeypatch.setenv("NETRC", str(netrc))
    with opened(remote_cfg(chat_server["endpoint"])) as backend:
        complete(backend, PROBE)
    (request,) = chat_server["requests"]
    assert request["auth"] == "Bearer sekret-value-123"


@pytest.mark.parametrize("endpoint", ["file:///etc/hostname", "ftp://127.0.0.1/v1/chat"])
def test_remote_endpoint_must_be_http(tmp_path, endpoint):
    backend = {"kind": "remote-chat", "model": "m", "endpoint": endpoint}
    path = write_config(tmp_path / "run.yaml", **base_config(tmp_path, FIXTURES / "posts_50.jsonl", backend=backend))
    with pytest.raises(ConfigError, match="must be an http or https URL") as exc:
        load_config(path)
    assert exc.value.exit_code == 1


PROXY_VARS = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")
UNRESOLVABLE = "chat.invalid"


PROXY_USERINFO = "us%40er:p%3Ass"  # user "us@er", password "p:ss", both percent-escaped
PROXY_AUTH = "Basic dXNAZXI6cDpzcw=="  # base64 of "us@er:p:ss"


@pytest.fixture()
def proxy_env(monkeypatch):
    """No proxy variables set, a credential, and ``UNRESOLVABLE`` failing at once."""
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    for var in PROXY_VARS:
        monkeypatch.delenv(var, raising=False)
        monkeypatch.delenv(var.upper(), raising=False)
    real_lookup = socket.getaddrinfo

    def lookup(host, *args, **kwargs):
        # fail at once, so a request that skips the proxy never leaves this machine
        if host == UNRESOLVABLE:
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")
        return real_lookup(host, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", lookup)
    return monkeypatch


def test_remote_honours_http_proxy_and_no_proxy(proxy_env, chat_server):
    proxy_env.setenv("http_proxy", chat_server["endpoint"].removesuffix("/v1/chat/completions"))
    cfg = remote_cfg(f"http://{UNRESOLVABLE}/v1/chat/completions")
    with opened(cfg) as backend:
        assert complete(backend, PROBE) == "fallback"
    (request,) = chat_server["requests"]
    assert request["path"] == cfg.endpoint  # a proxy is sent the absolute URL
    assert request["auth"] == "Bearer sekret-value-123"

    proxy_env.setenv("no_proxy", UNRESOLVABLE)
    with opened(cfg) as backend:
        with pytest.raises(BackendError, match=r"transport retries exhausted \(last status: gaierror\)"):
            complete(backend, PROBE)
    assert len(chat_server["requests"]) == 1


def test_remote_sends_proxy_credentials_with_the_bearer_token(proxy_env, chat_server):
    proxy = chat_server["endpoint"].removesuffix("/v1/chat/completions").replace("//", f"//{PROXY_USERINFO}@")
    proxy_env.setenv("http_proxy", proxy)
    cfg = remote_cfg(f"http://{UNRESOLVABLE}/v1/chat/completions")
    with opened(cfg) as backend:
        assert complete(backend, PROBE) == "fallback"
    (request,) = chat_server["requests"]
    assert request["path"] == cfg.endpoint
    assert request["proxy_auth"] == PROXY_AUTH
    assert request["auth"] == "Bearer sekret-value-123"


@contextlib.contextmanager
def tunnel_proxy():
    """An https proxy on 127.0.0.1: it records the head of each CONNECT,
    answers 200 and relays bytes both ways until either side closes.
    Yields the proxy's port and the list of heads."""
    heads: list[str] = []
    stop = threading.Event()
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)

    def relay(src, dst):
        with contextlib.suppress(OSError):
            while data := src.recv(65536):
                dst.sendall(data)
            dst.shutdown(socket.SHUT_WR)

    def tunnel(client):
        head = b""
        while b"\r\n\r\n" not in head and (chunk := client.recv(4096)):
            head += chunk
        heads.append(head.decode("latin-1"))
        host, port = head.split()[1].decode().rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as upstream:
            client.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
            back = threading.Thread(target=relay, args=(upstream, client))
            back.start()
            relay(client, upstream)
            back.join(timeout=5)

    def serve():
        while not stop.is_set():
            try:
                client, _ = listener.accept()
            except TimeoutError:
                continue
            with client:
                client.settimeout(5)
                tunnel(client)

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        yield listener.getsockname()[1], heads
    finally:
        stop.set()
        thread.join(timeout=15)
        listener.close()
    assert not thread.is_alive()


@pytest.mark.parametrize("chat_server", ["tls"], indirect=True)
def test_remote_https_goes_through_one_authenticated_connect(proxy_env, chat_server):
    proxy_env.setenv("SSL_CERT_FILE", str(TLS_CERT))
    cfg = remote_cfg(chat_server["endpoint"])
    target = cfg.endpoint.split("/")[2]
    with tunnel_proxy() as (port, heads):
        proxy_env.setenv("https_proxy", f"http://{PROXY_USERINFO}@127.0.0.1:{port}")
        with opened(cfg) as backend:
            assert complete(backend, PROBE) == "fallback"
    (head,) = heads
    request_line, *header_lines = head.split("\r\n")
    assert request_line.startswith(f"CONNECT {target} ")
    headers = {name.strip().lower(): value.strip() for name, _, value in (h.partition(":") for h in header_lines if h)}
    assert headers["proxy-authorization"] == PROXY_AUTH
    (request,) = chat_server["requests"]  # the endpoint sees the token, never the proxy's credentials
    assert request["auth"] == "Bearer sekret-value-123"
    assert request["proxy_auth"] is None


def cut_short(handler):
    """A 200 reply that promises more body than it sends, then hangs up."""
    handler.send_response(200)
    handler.send_header("Content-Length", "1000")
    handler.end_headers()
    handler.wfile.write(b'{"choices": [')


def test_remote_cut_off_reply_is_transport_retry(monkeypatch, chat_server, tmp_path):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["responses"] += [cut_short, (200, chat_payload("whole"))]
    audit = AuditLog(tmp_path / "audit.jsonl")
    with opened(remote_cfg(chat_server["endpoint"]), audit=audit) as backend:
        text = complete(backend, PROBE)
    audit.close()
    assert text == "whole"
    assert len(chat_server["requests"]) == 2
    assert retry_details(tmp_path / "audit.jsonl") == ["IncompleteRead"]


def stall_before_headers(handler):
    time.sleep(0.6)


def stall_in_body(handler):
    handler.send_response(200)
    handler.send_header("Content-Length", "1000")
    handler.end_headers()
    time.sleep(0.6)


@pytest.mark.parametrize("stall", [stall_before_headers, stall_in_body])
def test_remote_read_timeout_is_transport_retry(monkeypatch, chat_server, tmp_path, stall):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["responses"] += [stall, stall]
    cfg = dataclasses.replace(remote_cfg(chat_server["endpoint"]), timeout=0.2)
    policy = RetryPolicy(backoff_initial=0.01, backoff_cap=0.01, transport_retries=1)
    audit = AuditLog(tmp_path / "audit.jsonl")
    with opened(cfg, policy, audit) as backend:
        with pytest.raises(BackendError, match=r"transport retries exhausted \(last status: TimeoutError\)"):
            complete(backend, PROBE)
    audit.close()
    assert len(chat_server["requests"]) == 2
    assert retry_details(tmp_path / "audit.jsonl") == ["TimeoutError"]


@pytest.mark.parametrize("chat_server", ["tls"], indirect=True)
def test_remote_https_trusts_the_system_store_or_ssl_cert_file(monkeypatch, chat_server):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    cfg = remote_cfg(chat_server["endpoint"])
    with opened(cfg) as backend, pytest.raises(BackendError, match=r"last status: SSLCertVerificationError"):
        complete(backend, PROBE)
    assert chat_server["requests"] == []
    monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
    with opened(cfg) as backend:  # the trust store is read when a backend is made
        assert complete(backend, PROBE) == "fallback"
    assert len(chat_server["requests"]) == 1


# --- kept-alive connections -----------------------------------------------------------


def test_remote_in_flight_limit_bounds_requests_and_connections(monkeypatch, chat_server):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["keep_alive"] = True

    def slow(request):
        time.sleep(0.02)
        return 200, chat_payload("A=[1]")

    chat_server["answer"] = slow
    answers = []
    with opened(dataclasses.replace(remote_cfg(chat_server["endpoint"]), in_flight_limit=2)) as backend:
        threads = [threading.Thread(target=lambda: answers.append(complete(backend, PROBE))) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert answers == ["A=[1]"] * 8
    assert 1 <= chat_server["peak"] <= 2  # requests the server holds at once
    assert chat_server["connections"] <= 2
    assert all_closed(chat_server)


def test_remote_workers_share_idle_connections_without_a_lost_update(monkeypatch, chat_server, tmp_path):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["keep_alive"] = True
    cfg = dataclasses.replace(remote_cfg(chat_server["endpoint"]), in_flight_limit=3)
    audit = AuditLog(tmp_path / "audit.jsonl")
    backend = make_backend(cfg, retry=FAST_RETRY, audit=audit)

    def worker():
        for _ in range(25):
            complete(backend, PROBE)

    threads = [threading.Thread(target=worker) for _ in range(8)]  # more workers than slots and cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with contextlib.closing(backend):
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    audit.close()
    assert not any(t.is_alive() for t in threads)
    statuses = [json.loads(line)["status"] for line in (tmp_path / "audit.jsonl").read_text().splitlines()]
    assert statuses == ["ok"] * 200  # two requests on one connection at once would fail and retry
    assert chat_server["connections"] <= 3
    assert all_closed(chat_server)


def cut_short_and_hang_up(handler):
    """``cut_short`` on a kept-alive connection: the server hangs up after it."""
    cut_short(handler)
    handler.close_connection = True


def test_remote_reply_cut_off_on_a_reused_connection_is_a_transport_retry_not_a_reconnect(
    monkeypatch, chat_server, tmp_path
):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["keep_alive"] = True
    chat_server["responses"] += [(200, chat_payload("first")), cut_short_and_hang_up, (200, chat_payload("whole"))]
    audit = AuditLog(tmp_path / "audit.jsonl")
    with opened(remote_cfg(chat_server["endpoint"]), audit=audit) as backend:
        assert complete(backend, PROBE) == "first"
        assert complete(backend, PROBE) == "whole"  # the cut reply came on the reused connection
    audit.close()
    assert len(chat_server["requests"]) == 3  # the cut request was sent once
    assert chat_server["connections"] == 2
    statuses = [json.loads(line)["status"] for line in (tmp_path / "audit.jsonl").read_text().splitlines()]
    assert "reconnect" not in statuses
    assert retry_details(tmp_path / "audit.jsonl") == ["IncompleteRead"]


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="socket has no TCP_QUICKACK here")
def test_remote_kept_alive_connection_does_not_wait_on_a_delayed_ack(monkeypatch, chat_server):
    # BaseHTTPRequestHandler writes a reply's head and body as two sends with
    # Nagle's algorithm on, so on a reused connection the body waits until
    # the client acknowledges the head: a delayed ACK holds it for 40 ms
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["keep_alive"] = True
    with opened(remote_cfg(chat_server["endpoint"])) as backend:
        complete(backend, PROBE)  # opens the connection
        started = time.perf_counter()
        for _ in range(20):
            assert complete(backend, PROBE) == "fallback"
        elapsed = time.perf_counter() - started
    assert chat_server["connections"] == 1
    assert elapsed < 0.4  # delayed ACKs alone would take at least 20 * 40 ms


# --- the request head and the reply framings -------------------------------------------


@pytest.mark.parametrize(
    "chat_server, route",
    [(None, "direct"), (None, "default-port"), (None, "http-proxy"), ("tls", "tunnel")],
    indirect=["chat_server"],
)
def test_remote_request_head_carries_the_host_http_client_would_send(proxy_env, chat_server, route):
    port = int(chat_server["endpoint"].split("/")[2].rpartition(":")[2])
    endpoint, host = chat_server["endpoint"], f"127.0.0.1:{port}"
    if route == "default-port":  # port 80 is reached at the server's port, and left out of Host
        real_connect = socket.create_connection

        def connect(address, *args, **kwargs):
            return real_connect(("127.0.0.1", port) if address == ("127.0.0.1", 80) else address, *args, **kwargs)

        proxy_env.setattr(socket, "create_connection", connect)
        endpoint, host = "http://127.0.0.1:80/v1/chat/completions", "127.0.0.1"
    elif route == "http-proxy":  # Host names the endpoint, not the proxy
        proxy_env.setenv("http_proxy", f"http://127.0.0.1:{port}")
        endpoint, host = f"http://{UNRESOLVABLE}/v1/chat/completions", UNRESOLVABLE
    with contextlib.ExitStack() as stack:
        if route == "tunnel":
            proxy_env.setenv("SSL_CERT_FILE", str(TLS_CERT))
            tunnel_port, heads = stack.enter_context(tunnel_proxy())
            proxy_env.setenv("https_proxy", f"http://{PROXY_USERINFO}@127.0.0.1:{tunnel_port}")
        backend = stack.enter_context(opened(remote_cfg(endpoint)))
        assert complete(backend, PROBE) == "fallback"
    (request,) = chat_server["requests"]
    assert request["path"] == (endpoint if route == "http-proxy" else "/v1/chat/completions")
    assert request["host"] == host
    assert request["accept_encoding"] == "identity"
    assert request["length"] == str(len(json.dumps(request["body"]).encode()))
    assert request["type"] == "application/json"
    assert request["auth"] == "Bearer sekret-value-123"
    assert request["proxy_auth"] is None  # the tunnel's credentials went to the proxy only
    if route == "tunnel":
        assert len(heads) == 1


def test_remote_request_goes_out_in_one_send(monkeypatch, chat_server):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["keep_alive"] = True
    sends = []
    real_sendall = socket.socket.sendall

    def counted(sock, data, *args):
        if threading.current_thread() is threading.main_thread():  # the client's, not the server's
            sends.append(len(data))
        return real_sendall(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", counted)
    with opened(remote_cfg(chat_server["endpoint"])) as backend:
        for _ in range(3):
            assert complete(backend, PROBE) == "fallback"
    assert len(sends) == 3  # head and body together: the server wakes once per request


@pytest.mark.parametrize("secret", ["sekret\r\nX-Injected: 1", "sekret\n", "sekret-€"])
def test_remote_credential_that_cannot_be_a_header_line_fails_before_network(monkeypatch, secret):
    monkeypatch.setenv("TC_TEST_KEY", secret)
    cfg = remote_cfg("http://127.0.0.1:9/v1/chat")  # a dead endpoint: reaching the network would fail differently
    with opened(cfg) as backend, pytest.raises(ConfigError, match="must hold one line of Latin-1 text") as exc:
        complete(backend, PROBE)
    assert "sekret" not in str(exc.value)


@pytest.mark.parametrize(
    "endpoint", ["http://127.0.0.1/v1/chat completions", "http://127.0.0.1/v1/chät", "http://127.0.0.1/v1\r\nX: 1"]
)
def test_remote_endpoint_that_cannot_be_a_request_target_fails_at_load(endpoint):
    with pytest.raises(ConfigError, match="must be printable ASCII without spaces") as exc:
        BackendConfig(kind="remote-chat", model="m", endpoint=endpoint)
    assert exc.value.exit_code == 1


def raw_reply(data: bytes):
    """A ``chat_server`` response that writes ``data`` as the whole reply."""
    return lambda handler: handler.wfile.write(data)


def reply_head(*fields: str, status: str = "200 OK") -> bytes:
    return "".join(f"{line}\r\n" for line in (f"HTTP/1.1 {status}", *fields, "")).encode()


CHAT_JSON = json.dumps(chat_payload("chunked A=[1]")).encode()


def test_remote_chunked_reply_with_an_extension_and_a_trailer(monkeypatch, chat_server, tmp_path):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["keep_alive"] = True
    first, rest = CHAT_JSON[:10], CHAT_JSON[10:]
    # Content-Length is wrong on purpose: chunked framing wins over it
    body = b"%x;name=value\r\n%s\r\n%x\r\n%s\r\n0\r\nX-Trailer: 1\r\n\r\n" % (len(first), first, len(rest), rest)
    chunked = reply_head("Transfer-Encoding: chunked", "Content-Length: 3") + body
    chat_server["responses"] += [raw_reply(chunked), raw_reply(chunked)]
    audit = AuditLog(tmp_path / "audit.jsonl")
    with opened(remote_cfg(chat_server["endpoint"]), audit=audit) as backend:
        assert complete(backend, PROBE) == "chunked A=[1]"
        assert complete(backend, PROBE) == "chunked A=[1]"  # the trailer was read to its end
    audit.close()
    assert chat_server["connections"] == 1
    statuses = [json.loads(line)["status"] for line in (tmp_path / "audit.jsonl").read_text().splitlines()]
    assert statuses == ["ok", "ok"]
    assert all_closed(chat_server)


def test_remote_chunked_reply_cut_off_mid_chunk_is_one_transport_retry(monkeypatch, chat_server, tmp_path):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    cut = reply_head("Transfer-Encoding: chunked") + b"%x\r\n%s" % (len(CHAT_JSON), CHAT_JSON[:10])
    chat_server["responses"] += [raw_reply(cut), (200, chat_payload("whole"))]
    audit = AuditLog(tmp_path / "audit.jsonl")
    with opened(remote_cfg(chat_server["endpoint"]), audit=audit) as backend:
        assert complete(backend, PROBE) == "whole"
    audit.close()
    assert len(chat_server["requests"]) == 2
    assert retry_details(tmp_path / "audit.jsonl") == ["IncompleteRead"]


def test_remote_interim_reply_is_skipped(monkeypatch, chat_server, tmp_path):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["keep_alive"] = True
    body = json.dumps(chat_payload("after continue")).encode()
    continued = reply_head(status="100 Continue") + reply_head(f"Content-Length: {len(body)}") + body
    chat_server["responses"].append(raw_reply(continued))
    audit = AuditLog(tmp_path / "audit.jsonl")
    with opened(remote_cfg(chat_server["endpoint"]), audit=audit) as backend:
        assert complete(backend, PROBE) == "after continue"
        assert complete(backend, PROBE) == "fallback"
    audit.close()
    assert chat_server["connections"] == 1
    statuses = [json.loads(line)["status"] for line in (tmp_path / "audit.jsonl").read_text().splitlines()]
    assert statuses == ["ok", "ok"]


def test_remote_connection_close_reply_makes_the_next_request_open_a_new_connection(
    monkeypatch, chat_server, tmp_path
):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["keep_alive"] = True

    def closing_reply(handler):
        data = json.dumps(chat_payload("last on this connection")).encode()
        handler.send_response(200)
        handler.send_header("Connection", "close")  # the server hangs up after this reply
        handler.send_header("Content-Length", str(len(data)))
        handler.end_headers()
        handler.wfile.write(data)

    chat_server["responses"].append(closing_reply)
    audit = AuditLog(tmp_path / "audit.jsonl")
    with opened(remote_cfg(chat_server["endpoint"]), audit=audit) as backend:
        assert complete(backend, PROBE) == "last on this connection"
        assert complete(backend, PROBE) == "fallback"
    audit.close()
    assert chat_server["connections"] == 2
    statuses = [json.loads(line)["status"] for line in (tmp_path / "audit.jsonl").read_text().splitlines()]
    assert statuses == ["ok", "ok"]  # no reconnect: the closed connection was never reused
    assert all_closed(chat_server)


def test_remote_204_reply_has_no_body_and_keeps_the_connection(monkeypatch, chat_server):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["keep_alive"] = True
    chat_server["responses"].append(raw_reply(reply_head(status="204 No Content")))
    with opened(remote_cfg(chat_server["endpoint"])) as backend:
        with pytest.raises(BackendError, match="malformed completion response"):
            complete(backend, PROBE)
        assert complete(backend, PROBE) == "fallback"
    assert chat_server["connections"] == 1  # no body was waited for


def test_remote_reply_without_length_ends_where_the_server_hangs_up(monkeypatch, chat_server, tmp_path):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["keep_alive"] = True

    def close_delimited(handler):
        handler.wfile.write(reply_head() + json.dumps(chat_payload("up to the close")).encode())
        handler.close_connection = True

    chat_server["responses"].append(close_delimited)
    audit = AuditLog(tmp_path / "audit.jsonl")
    with opened(remote_cfg(chat_server["endpoint"]), audit=audit) as backend:
        assert complete(backend, PROBE) == "up to the close"
        assert complete(backend, PROBE) == "fallback"
    audit.close()
    assert chat_server["connections"] == 2
    statuses = [json.loads(line)["status"] for line in (tmp_path / "audit.jsonl").read_text().splitlines()]
    assert statuses == ["ok", "ok"]  # no reconnect: the client closed the connection the body ended with
    assert all_closed(chat_server)


@pytest.mark.parametrize(
    "head, detail",
    [
        (reply_head("X-Long: " + "a" * 65_536), "LineTooLong"),
        (reply_head(*(f"X-Field-{i}: 1" for i in range(101))), "HTTPException"),
        (b"ICY 200 OK\r\n\r\n", "BadStatusLine"),
        (b"HTTP/2.0 200 OK\r\n\r\n", "UnknownProtocol"),
        (reply_head("Transfer-Encoding: chunked") + b"zz\r\n", "IncompleteRead"),  # a chunk size that is not hex
        (b"", "RemoteDisconnected"),  # on a new connection: retried as a transport error, not reconnected
    ],
    ids=["long-line", "101-headers", "not-http", "http-2", "chunk-size-not-hex", "hang-up-on-first-request"],
)
def test_remote_reply_head_beyond_the_limits_is_a_transport_retry(monkeypatch, chat_server, tmp_path, head, detail):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["responses"].append(raw_reply(head))
    audit = AuditLog(tmp_path / "audit.jsonl")
    with opened(remote_cfg(chat_server["endpoint"]), audit=audit) as backend:
        assert complete(backend, PROBE) == "fallback"
    audit.close()
    assert len(chat_server["requests"]) == 2
    assert retry_details(tmp_path / "audit.jsonl") == [detail]
