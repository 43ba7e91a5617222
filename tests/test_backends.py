"""Backends: configs, fingerprints, caching, retries, and the remote client."""

from __future__ import annotations

import dataclasses
import json
import socket
import ssl
import threading
import time
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from conftest import FIXTURES, base_config, write_config

from themecoder.backends import (
    BACKEND_KINDS,
    AuditLog,
    BackendConfig,
    ClassificationFailure,
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
from themecoder.codebook import LabelVector
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
    from conftest import make_vector
    from themecoder.prompting import canonical_line

    return canonical_line(make_vector(cb, positives), cb)


class ScriptedBackend(_BaseBackend):
    """Returns canned texts in order and records every message received."""

    kind = "scripted"

    def __init__(self, cfg: BackendConfig, texts) -> None:
        super().__init__(cfg)
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
    with pytest.raises(ConfigError, match="unknown backend kind"):
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
    with pytest.raises(ConfigError, match="transport_retries"):
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
        ("retry", "backoff_initial", -1, "backoff_initial must be finite and >= 0, got -1"),
        ("retry", "backoff_multiplier", float("nan"), "backoff_multiplier must be finite and >= 0, got nan"),
        ("retry", "backoff_cap", -1, "backoff_cap must be finite and >= 0, got -1"),
        ("retry", "backoff_cap", float("inf"), "backoff_cap must be finite and >= 0, got inf"),
    ],
)
def test_out_of_range_backend_and_retry_numbers_fail_at_load(tmp_path, section, key, value, message):
    remote = {"kind": "remote-chat", "model": "m", "endpoint": "http://127.0.0.1:9/v1/chat"}
    sections = base_config(tmp_path, FIXTURES / "posts_50.jsonl", backend=remote)
    sections.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=f"^{message}$") as exc:
        load_config(write_config(tmp_path / "run.yaml", **sections))
    assert exc.value.exit_code == 1


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
    result = complete(MOCK_CFG, prompt)
    assert result.backend_kind == "mock-rules"
    parsed = parse_single_line(result.raw_text, cb)
    assert parsed.ok
    assert parsed.vector.as_dict() == mock_rule_vector(post_text, cb.alphabet)


def test_mock_backend_single_answer(cb):
    prompt = RenderedPrompt(
        text="x",
        template_version="v1-per-theme",
        shots=0,
        target=("C",),
        post_id="p1",
        post_text="wound on my ankle",
    )
    assert complete(MOCK_CFG, prompt).raw_text == "C=[1]"


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
    result = complete(MOCK_CFG, post)
    parsed = parse_single_line(result.raw_text, cb)
    assert parsed.ok
    assert parsed.vector.positives() == ("X",)


# --- replay backend ---------------------------------------------------------------------


def test_replay_serves_attempts_in_order(tmp_path):
    fp = cache_key(MOCK_CFG, PROBE)
    script = tmp_path / "script.json"
    script.write_text(json.dumps({fp: ["first", "second"]}), encoding="utf-8")
    cfg = BackendConfig(kind="replay", model="mock", replay_path=str(script))
    assert complete(cfg, PROBE, attempt=1).raw_text == "first"
    assert complete(cfg, PROBE, attempt=2).raw_text == "second"
    with pytest.raises(BackendError, match="exhausted.*attempt 3 of 2"):
        complete(cfg, PROBE, attempt=3)


def test_replay_missing_fingerprint(tmp_path):
    script = tmp_path / "script.json"
    script.write_text("{}", encoding="utf-8")
    cfg = BackendConfig(kind="replay", model="mock", replay_path=str(script))
    fp = cache_key(cfg, PROBE)
    with pytest.raises(BackendError, match=f"{fp[:12]}.*post p1"):
        complete(cfg, PROBE)


def test_replay_script_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        ReplayBackend(BackendConfig(kind="replay", replay_path=str(tmp_path / "no.json")))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        ReplayBackend(BackendConfig(kind="replay", replay_path=str(bad)))


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
    vector, result = classify_with_retry(
        MOCK_CFG, RetryPolicy(), full_prompt(cb), line_parser(cb), backend=backend
    )
    assert isinstance(vector, LabelVector)
    assert vector.positives() == ("B",)
    assert result.attempts == 1 and not result.cache_hit
    assert backend.messages == ["classify this"]


def test_retry_appends_format_reminder(cb):
    prompt = full_prompt(cb)
    backend = ScriptedBackend(MOCK_CFG, ["no answer here", good_line(cb)])
    vector, result = classify_with_retry(
        MOCK_CFG, RetryPolicy(), prompt, line_parser(cb), backend=backend
    )
    assert isinstance(vector, LabelVector)
    assert result.attempts == 2
    assert backend.messages[0] == prompt.text
    assert backend.messages[1] == f"{prompt.text}\n\n{prompt.format_reminder()}"


def test_retry_budget_exhaustion(cb):
    backend = ScriptedBackend(MOCK_CFG, ["junk one", "junk two", "junk three"])
    failure, result = classify_with_retry(
        MOCK_CFG, RetryPolicy(max_attempts=3), full_prompt(cb), line_parser(cb), backend=backend
    )
    assert isinstance(failure, ClassificationFailure)
    assert failure.reasons == ("no-line-found",) * 3
    assert [raw for raw, _ in failure.attempts] == backend.texts
    assert result.attempts == 3


def test_reask_disabled_spends_one_attempt(cb):
    backend = ScriptedBackend(MOCK_CFG, ["junk", good_line(cb)])
    policy = RetryPolicy(max_attempts=3, reask_on_parse_failure=False)
    failure, result = classify_with_retry(
        MOCK_CFG, policy, full_prompt(cb), line_parser(cb), backend=backend
    )
    assert isinstance(failure, ClassificationFailure)
    assert len(backend.messages) == 1
    assert result.attempts == 1


def test_retry_fingerprints_each_prompt_once(monkeypatch, cb):
    import themecoder.backends as backends

    fingerprints = []
    monkeypatch.setattr(
        backends, "cache_key", lambda cfg, prompt: fingerprints.append(cache_key(cfg, prompt)) or fingerprints[-1]
    )
    backend = ScriptedBackend(MOCK_CFG, ["junk", "junk", good_line(cb)])
    prompt = full_prompt(cb)
    _, result = classify_with_retry(MOCK_CFG, RetryPolicy(), prompt, line_parser(cb), backend=backend)
    assert result.attempts == 3
    assert fingerprints == [cache_key(MOCK_CFG, prompt)] == [result.fingerprint]


def test_retry_audit_records_parse_failures(tmp_path, cb):
    audit = AuditLog(tmp_path / "audit.jsonl")
    backend = ScriptedBackend(MOCK_CFG, ["garbage", good_line(cb)])
    classify_with_retry(
        MOCK_CFG, RetryPolicy(), full_prompt(cb), line_parser(cb),
        backend=backend, audit=audit,
    )
    audit.close()
    records = [json.loads(l) for l in (tmp_path / "audit.jsonl").read_text().splitlines()]
    assert all("ts" in r for r in records)
    assert any(r.get("status") == "parse-failure" and r.get("reason") == "no-line-found" for r in records)
    assert any(r.get("status") == "ok" for r in records)


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
    vector, result = classify_with_retry(
        MOCK_CFG, RetryPolicy(), prompt, line_parser(cb), backend=live, cache=cache
    )
    assert result.attempts == 2 and not result.cache_hit
    replayed, cached_result = classify_with_retry(
        MOCK_CFG, RetryPolicy(), prompt, line_parser(cb),
        backend=ExplodingBackend(MOCK_CFG), cache=cache,
    )
    cache.close()
    assert replayed == vector
    assert cached_result.cache_hit
    assert cached_result.attempts == 2
    assert cached_result.latency == 0.0


def test_cache_stores_failures_too(tmp_path, cb):
    cache = ResponseCache(tmp_path / "cache.jsonl")
    prompt = full_prompt(cb)
    policy = RetryPolicy(max_attempts=2)
    live = ScriptedBackend(MOCK_CFG, ["junk a", "junk b"])
    failure, _ = classify_with_retry(
        MOCK_CFG, policy, prompt, line_parser(cb), backend=live, cache=cache
    )
    assert isinstance(failure, ClassificationFailure)
    again, result = classify_with_retry(
        MOCK_CFG, policy, prompt, line_parser(cb),
        backend=ExplodingBackend(MOCK_CFG), cache=cache,
    )
    cache.close()
    assert isinstance(again, ClassificationFailure)
    assert again.reasons == failure.reasons
    assert result.cache_hit


def test_cache_respects_attempt_budget(tmp_path, cb):
    cache = ResponseCache(tmp_path / "cache.jsonl")
    prompt = full_prompt(cb)
    fp = cache_key(MOCK_CFG, prompt)
    cache.put(fp, ["junk", good_line(cb)])
    cache.close()
    policy = RetryPolicy(max_attempts=3, reask_on_parse_failure=False)
    failure, result = classify_with_retry(
        MOCK_CFG, policy, prompt, line_parser(cb),
        backend=ExplodingBackend(MOCK_CFG), cache=cache,
    )
    assert isinstance(failure, ClassificationFailure)  # budget 1 never sees attempt 2
    assert result.attempts == 1


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


def test_token_bucket_throttles_beyond_burst():
    bucket = TokenBucket(rate=200.0)
    started = time.monotonic()
    for _ in range(210):  # 200 burst tokens, then 10 at 5ms each
        bucket.acquire()
    assert time.monotonic() - started >= 0.03


def test_in_flight_limit_bounds_concurrency(cb):
    class SlowBackend(_BaseBackend):
        kind = "slow"

        def __init__(self, cfg):
            super().__init__(cfg)
            self.active = 0
            self.peak = 0
            self._l = threading.Lock()

        def _raw(self, message, prompt, fingerprint, attempt):
            with self._l:
                self.active += 1
                self.peak = max(self.peak, self.active)
            time.sleep(0.02)
            with self._l:
                self.active -= 1
            return "ok"

    backend = SlowBackend(BackendConfig(kind="mock-rules", in_flight_limit=2))
    threads = [
        threading.Thread(target=lambda: backend.call("m", PROBE, "fp", 1))
        for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert 1 <= backend.peak <= 2


# --- remote chat client ------------------------------------------------------------------


def chat_payload(content: str) -> dict:
    return {"choices": [{"message": {"content": content}}]}


# A self-signed certificate for 127.0.0.1, valid until 2126, made with
#   openssl req -x509 -newkey rsa:2048 -nodes -keyout tls_key.pem -out tls_cert.pem \
#     -days 36500 -subj /CN=127.0.0.1 -addext subjectAltName=IP:127.0.0.1
TLS_CERT = FIXTURES / "tls_cert.pem"
TLS_KEY = FIXTURES / "tls_key.pem"


@pytest.fixture()
def chat_server(request):
    """A chat endpoint that serves ``responses`` in order: (HTTP status,
    payload) pairs, or a callable that writes the whole reply itself.
    Parametrized with "tls", it serves https with ``TLS_CERT``."""
    state = {"requests": [], "responses": []}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length) or b"{}")
            state["requests"].append(
                {
                    "auth": self.headers.get("Authorization"),
                    "type": self.headers.get("Content-Type"),
                    "body": body,
                    "path": self.path,
                }
            )
            if state["responses"]:
                entry = state["responses"].pop(0)
            else:
                entry = 200, chat_payload("fallback")
            if callable(entry):
                return entry(self)
            status, payload = entry
            data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    scheme = "http"
    if getattr(request, "param", None) == "tls":
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(TLS_CERT, TLS_KEY)
        httpd.socket = context.wrap_socket(httpd.socket, server_side=True)
        scheme = "https"
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    state["endpoint"] = f"{scheme}://127.0.0.1:{httpd.server_port}/v1/chat/completions"
    try:
        yield state
    finally:
        httpd.shutdown()
        httpd.server_close()


def remote_cfg(endpoint: str) -> BackendConfig:
    return BackendConfig(
        kind="remote-chat",
        model="test-model",
        endpoint=endpoint,
        credential_env="TC_TEST_KEY",
        timeout=5.0,
    )


FAST_RETRY = RetryPolicy(backoff_initial=0.01, backoff_cap=0.02, transport_retries=2)


def test_remote_requires_credential_before_network(monkeypatch):
    monkeypatch.delenv("TC_TEST_KEY", raising=False)
    # a dead endpoint: reaching the network would fail differently
    cfg = remote_cfg("http://127.0.0.1:9/v1/chat")
    with pytest.raises(ConfigError, match="'TC_TEST_KEY' is not set"):
        complete(cfg, PROBE, retry=FAST_RETRY)


def test_remote_success_request_shape(monkeypatch, chat_server):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["responses"].append((200, chat_payload("A=[1]")))
    cfg = remote_cfg(chat_server["endpoint"])
    result = complete(cfg, PROBE, retry=FAST_RETRY)
    assert result.raw_text == "A=[1]"
    assert result.backend_kind == "remote-chat"
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
    cfg = remote_cfg(chat_server["endpoint"])
    with pytest.raises(BackendError, match="authentication failed .HTTP 401.") as exc:
        complete(cfg, PROBE, retry=FAST_RETRY)
    assert len(chat_server["requests"]) == 1
    assert "sekret" not in str(exc.value)


def test_remote_retries_rate_limit_then_succeeds(monkeypatch, chat_server, tmp_path):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["responses"] += [(429, {}), (200, chat_payload("recovered"))]
    audit = AuditLog(tmp_path / "audit.jsonl")
    cfg = remote_cfg(chat_server["endpoint"])
    result = complete(cfg, PROBE, retry=FAST_RETRY, audit=audit)
    audit.close()
    assert result.raw_text == "recovered"
    assert len(chat_server["requests"]) == 2
    log_text = (tmp_path / "audit.jsonl").read_text()
    records = [json.loads(l) for l in log_text.splitlines()]
    assert any(r.get("status") == "transport-retry" and r.get("detail") == "429" for r in records)
    assert "sekret" not in log_text  # credential never logged


def test_remote_server_errors_exhaust_retries(monkeypatch, chat_server):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["responses"] += [(500, {}), (503, {}), (500, {})]
    cfg = remote_cfg(chat_server["endpoint"])
    with pytest.raises(BackendError, match="transport retries exhausted .last status: 500."):
        complete(cfg, PROBE, retry=FAST_RETRY)
    assert len(chat_server["requests"]) == 3  # initial + 2 retries


def test_remote_malformed_response(monkeypatch, chat_server):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["responses"].append((200, b"this is not json"))
    cfg = remote_cfg(chat_server["endpoint"])
    with pytest.raises(BackendError, match="malformed completion response"):
        complete(cfg, PROBE, retry=FAST_RETRY)
    chat_server["responses"].append((200, {"unexpected": "shape"}))
    with pytest.raises(BackendError, match="malformed completion response"):
        complete(cfg, PROBE, retry=FAST_RETRY)


@pytest.mark.parametrize("status", [400, 404])
def test_remote_other_error_status_names_it_without_retry(monkeypatch, chat_server, status):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    chat_server["responses"].append((status, {"error": {"message": "body-not-echoed"}}))
    cfg = remote_cfg(chat_server["endpoint"])
    with pytest.raises(BackendError) as excinfo:
        complete(cfg, PROBE, retry=FAST_RETRY)
    assert str(excinfo.value) == f"endpoint answered HTTP {status}"
    assert len(chat_server["requests"]) == 1


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_remote_never_follows_a_redirect(monkeypatch, chat_server, status):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    reached = []

    class Elsewhere(BaseHTTPRequestHandler):
        def do_GET(self):
            reached.append(self.headers.get("Authorization"))
            self.send_response(200)
            self.send_header("Content-Length", "0")
            self.end_headers()

        do_POST = do_GET

        def log_message(self, *args):
            pass

    other = ThreadingHTTPServer(("127.0.0.1", 0), Elsewhere)
    thread = threading.Thread(target=other.serve_forever, daemon=True)
    thread.start()
    location = f"http://localhost:{other.server_port}/v1/chat/completions"

    def redirect(handler):
        handler.send_response(status)
        handler.send_header("Location", location)
        handler.send_header("Content-Length", "0")
        handler.end_headers()

    chat_server["responses"].append(redirect)
    try:
        with pytest.raises(BackendError) as exc:
            complete(remote_cfg(chat_server["endpoint"]), PROBE, retry=FAST_RETRY)
    finally:
        other.shutdown()
        other.server_close()
    assert reached == []  # the credential went to the endpoint only
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
    with pytest.raises(BackendError, match=r"transport retries exhausted \(last status: ConnectionRefusedError\)"):
        complete(cfg, PROBE, retry=policy, audit=audit)
    audit.close()
    # the audit names the socket error, not the urllib wrapper around it
    assert retry_details(tmp_path / "audit.jsonl") == ["ConnectionRefusedError"]


def test_remote_ignores_netrc(monkeypatch, chat_server, tmp_path):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login u password p\n")
    netrc.chmod(0o600)
    monkeypatch.setenv("NETRC", str(netrc))
    complete(remote_cfg(chat_server["endpoint"]), PROBE, retry=FAST_RETRY)
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


def test_remote_honours_http_proxy_and_no_proxy(monkeypatch, chat_server):
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
    monkeypatch.setenv("http_proxy", chat_server["endpoint"].removesuffix("/v1/chat/completions"))
    cfg = remote_cfg(f"http://{UNRESOLVABLE}/v1/chat/completions")
    assert complete(cfg, PROBE, retry=FAST_RETRY).raw_text == "fallback"
    (request,) = chat_server["requests"]
    assert request["path"] == cfg.endpoint  # a proxy is sent the absolute URL
    assert request["auth"] == "Bearer sekret-value-123"

    monkeypatch.setenv("no_proxy", UNRESOLVABLE)
    with pytest.raises(BackendError, match=r"transport retries exhausted \(last status: gaierror\)"):
        complete(cfg, PROBE, retry=FAST_RETRY)
    assert len(chat_server["requests"]) == 1


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
    result = complete(remote_cfg(chat_server["endpoint"]), PROBE, retry=FAST_RETRY, audit=audit)
    audit.close()
    assert result.raw_text == "whole"
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
    with pytest.raises(BackendError, match=r"transport retries exhausted \(last status: TimeoutError\)"):
        complete(cfg, PROBE, retry=policy, audit=audit)
    audit.close()
    assert len(chat_server["requests"]) == 2
    assert retry_details(tmp_path / "audit.jsonl") == ["TimeoutError"]


@pytest.mark.parametrize("chat_server", ["tls"], indirect=True)
def test_remote_https_trusts_the_system_store_or_ssl_cert_file(monkeypatch, chat_server):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    cfg = remote_cfg(chat_server["endpoint"])
    with pytest.raises(BackendError, match=r"last status: SSLCertVerificationError"):
        complete(cfg, PROBE, retry=FAST_RETRY)
    assert chat_server["requests"] == []
    monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
    assert complete(cfg, PROBE, retry=FAST_RETRY).raw_text == "fallback"
    assert len(chat_server["requests"]) == 1
