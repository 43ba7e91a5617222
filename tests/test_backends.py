"""Backends: configs, fingerprints, caching, retries, and the remote client."""

from __future__ import annotations

import json
import socket
import threading
import time
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

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


@pytest.fixture()
def chat_server():
    state = {"requests": [], "responses": []}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length) or b"{}")
            state["requests"].append(
                {"auth": self.headers.get("Authorization"), "body": body}
            )
            if state["responses"]:
                status, payload = state["responses"].pop(0)
            else:
                status, payload = 200, chat_payload("fallback")
            data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    state["endpoint"] = f"http://127.0.0.1:{httpd.server_port}/v1/chat/completions"
    try:
        yield state
    finally:
        httpd.shutdown()


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


def test_remote_connection_refused(monkeypatch):
    monkeypatch.setenv("TC_TEST_KEY", "sekret-value-123")
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        dead_port = s.getsockname()[1]
    cfg = remote_cfg(f"http://127.0.0.1:{dead_port}/v1/chat")
    policy = RetryPolicy(backoff_initial=0.01, backoff_cap=0.01, transport_retries=1)
    with pytest.raises(BackendError, match="transport retries exhausted"):
        complete(cfg, PROBE, retry=policy)
