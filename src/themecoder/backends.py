"""Completion backends: remote chat services and offline substitutes.

Three kinds. ``remote-chat`` POSTs a chat-completion request to a
vendor-compatible endpoint with a bearer credential from the environment.
``mock-rules`` is a transparent keyword-to-theme function of the post text,
useful only for exercising the pipeline offline. ``replay`` serves canned
attempt texts from a script file keyed by request fingerprint.

The retry loop re-asks on parse failures with a one-line format reminder
appended; transport failures are retried with exponential backoff. Every
call lands in an append-only audit log, and an optional response cache
makes identical reruns free of backend calls.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Callable, Mapping, Sequence
from urllib.parse import urlsplit

from .errors import BackendError, ConfigError, DataError
from .jsonl import JsonLines
from .parsing import ParseFailure, ParseOutcome
from .prompting import RenderedPrompt

BACKEND_KINDS = ("remote-chat", "mock-rules", "replay")


@dataclass(frozen=True)
class BackendConfig:
    kind: str
    model: str = ""
    endpoint: str = ""
    temperature: float = 0.0
    max_output_tokens: int = 256
    credential_env: str = "THEMECODER_API_KEY"
    timeout: float = 30.0
    replay_path: str | None = None
    in_flight_limit: int = 4
    requests_per_second: float = 0.0  # 0 means unlimited

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ConfigError(f"unknown backend kind {self.kind!r}")
        if not math.isfinite(self.temperature) or self.temperature < 0:
            raise ConfigError(f"temperature must be finite and >= 0, got {self.temperature}")
        if self.kind == "remote-chat" and (not self.endpoint or not self.model):
            raise ConfigError("remote-chat backend requires endpoint and model")
        if self.kind == "remote-chat" and urlsplit(self.endpoint).scheme not in ("http", "https"):
            raise ConfigError(f"remote-chat endpoint must be an http or https URL, got {self.endpoint!r}")
        if self.kind == "replay" and not self.replay_path:
            raise ConfigError("replay backend requires replay_path")
        if self.in_flight_limit < 1:
            raise ConfigError("in_flight_limit must be >= 1")
        if not math.isfinite(self.timeout) or self.timeout <= 0:
            raise ConfigError(f"timeout must be finite and > 0, got {self.timeout}")
        if not math.isfinite(self.requests_per_second) or self.requests_per_second < 0:
            raise ConfigError(f"requests_per_second must be finite and >= 0, got {self.requests_per_second}")


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    reask_on_parse_failure: bool = True
    backoff_initial: float = 0.5
    backoff_multiplier: float = 2.0
    backoff_cap: float = 8.0
    transport_retries: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.transport_retries < 0:
            raise ConfigError("transport_retries must be >= 0")
        for name in ("backoff_initial", "backoff_multiplier", "backoff_cap"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class CompletionResult:
    raw_text: str
    attempts: int
    backend_kind: str
    latency: float
    cache_hit: bool
    fingerprint: str


@dataclass(frozen=True)
class ClassificationFailure:
    """Terminal outcome when no attempt parsed; keeps every raw attempt."""

    attempts: tuple[tuple[str, ParseFailure], ...]

    @property
    def reasons(self) -> tuple[str, ...]:
        return tuple(f.reason for _, f in self.attempts)


def cache_key(cfg: BackendConfig, prompt: RenderedPrompt) -> str:
    """Stable fingerprint of one request: model, temperature, template
    version, and the base prompt text. Identical across runs and machines."""
    payload = json.dumps(
        {
            "model": cfg.model,
            "temperature": repr(float(cfg.temperature)),
            "template_version": prompt.template_version,
            "prompt": prompt.text,
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return sha256(payload.encode("utf-8")).hexdigest()


class AuditLog(JsonLines):
    """Append-only JSON-lines log of every backend interaction.

    It is never read back, so only its final line is checked: a torn one
    is cut off before the first append."""

    def __init__(self, path: str | Path) -> None:
        super().__init__(path)
        self.scan_tail()

    def append(self, **record) -> None:
        record.setdefault("ts", time.time())
        self.write(record)


class ResponseCache(JsonLines):
    """Fingerprint -> list of raw attempt texts, persisted as JSON lines.

    A hit replays the original attempt sequence locally, so a rerun of an
    identical manifest issues zero backend calls.
    """

    def __init__(self, path: str | Path) -> None:
        super().__init__(path)
        self._entries: dict[str, list[str]] = {}
        for lineno, rec in self.read_numbered():
            fingerprint, attempts = rec.get("fingerprint"), rec.get("attempts")
            if not (
                isinstance(fingerprint, str)
                and isinstance(attempts, list)
                and attempts
                and all(isinstance(text, str) for text in attempts)
            ):
                raise DataError(
                    f"{self.path} line {lineno}: cache record needs a string fingerprint "
                    "and a non-empty list of string attempts"
                )
            self._entries[fingerprint] = attempts

    def get(self, fingerprint: str) -> list[str] | None:
        with self._lock:
            entry = self._entries.get(fingerprint)
            return list(entry) if entry is not None else None

    def put(self, fingerprint: str, attempts: Sequence[str]) -> None:
        with self._lock:
            if self._entries.get(fingerprint) == list(attempts):
                return
            self._entries[fingerprint] = list(attempts)
            self.write({"fingerprint": fingerprint, "attempts": list(attempts)})


class TokenBucket:
    """Simple thread-safe token bucket; rate <= 0 disables limiting."""

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.capacity = max(rate, 1.0)
        self.tokens = self.capacity
        self.updated = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        if self.rate <= 0:
            return
        while True:
            with self._lock:
                now = time.monotonic()
                self.tokens = min(self.capacity, self.tokens + (now - self.updated) * self.rate)
                self.updated = now
                if self.tokens >= 1.0:
                    self.tokens -= 1.0
                    return
                wait = (1.0 - self.tokens) / self.rate
            time.sleep(wait)


# --- mock rule table ---------------------------------------------------------
# Transparent keyword -> theme rules (casefolded substring matches on the
# post text). Exists purely to exercise the pipeline offline; no fidelity
# claim to any model.

MOCK_RULES: Mapping[str, tuple[str, ...]] = {
    "A": ("inject", "snort", "muscling", "shooting up"),
    "B": ("fentanyl", "fenty", "oxycodone", "benzo", "heroin", "percocet", "speedball"),
    "C": ("forearm", "thigh", "ankle", "shin", "on my arm", "on my leg", "my hand", "my foot"),
    "D": ("dressing", "bandage", "antibiotic", "debride", "wound care", "hospital", "amputat", "saline"),
    "E": ("zombie", "rotting", "flesh-eating", "flesh eating", "apocalypse"),
    "F": ("rehab", "detox", "treatment center", "waitlist"),
    "G": ("alpha-2", "alpha 2", "receptor", "krokodil", "vasoconstrict", "agonist"),
    "H": ("tranq withdrawal", "xylazine withdrawal", "coming off tranq"),
    "I": ("methadone", "buprenorphine", "bupe", "suboxone", "sublocade"),
    "J": ("gabapentin", "clonidine", "hydroxyzine", "tizanidine"),
    "L": ("philadelphia", "philly", "kensington", "in my city", "in my state", "my area"),
}
_XYLAZINE_TERMS = ("xylazine", "tranq")


def mock_rule_vector(post_text: str, codes: Sequence[str]) -> dict[str, int]:
    """Evaluate the mock rule table over one post text for the given codes.

    K fires for xylazine mentions with no use/wound/withdrawal signal; X
    fires when nothing at all matched and no xylazine term is present.
    """
    folded = post_text.casefold()
    values: dict[str, int] = {}
    for code in codes:
        keywords = MOCK_RULES.get(code, ())
        values[code] = 1 if any(kw in folded for kw in keywords) else 0
    xyl = any(term in folded for term in _XYLAZINE_TERMS)
    if "K" in values:
        substantive = any(values.get(c, 0) for c in ("A", "C", "D", "H"))
        values["K"] = 1 if (xyl and not substantive) else 0
    if "X" in values:
        anything = any(v for c, v in values.items() if c != "X")
        values["X"] = 0 if (xyl or anything) else 1
    return values


# --- backend implementations -------------------------------------------------


class _BaseBackend:
    kind = "base"
    waits_on_io = False  # True when calls wait on the network, so threads can overlap them

    def __init__(self, cfg: BackendConfig) -> None:
        self.cfg = cfg
        self._bucket = TokenBucket(cfg.requests_per_second)
        self._slots = threading.Semaphore(cfg.in_flight_limit)

    def call(self, message: str, prompt: RenderedPrompt, fingerprint: str, attempt: int) -> str:
        self._bucket.acquire()
        with self._slots:
            return self._raw(message, prompt, fingerprint, attempt)

    def _raw(self, message: str, prompt: RenderedPrompt, fingerprint: str, attempt: int) -> str:
        raise NotImplementedError


class MockRulesBackend(_BaseBackend):
    kind = "mock-rules"

    def _raw(self, message: str, prompt: RenderedPrompt, fingerprint: str, attempt: int) -> str:
        values = mock_rule_vector(prompt.post_text, prompt.target)
        if len(prompt.target) == 1:
            code = prompt.target[0]
            return f"{code}=[{values[code]}]"
        return ", ".join(f"{c}={values[c]}" for c in prompt.target)


class ReplayBackend(_BaseBackend):
    kind = "replay"

    def __init__(self, cfg: BackendConfig) -> None:
        super().__init__(cfg)
        path = Path(cfg.replay_path)
        try:
            self._script: dict[str, list[str]] = {
                fp: list(texts) for fp, texts in json.loads(path.read_text(encoding="utf-8")).items()
            }
        except FileNotFoundError:
            raise ConfigError(f"replay script not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"replay script {path} is not valid JSON: {exc}") from exc

    def _raw(self, message: str, prompt: RenderedPrompt, fingerprint: str, attempt: int) -> str:
        texts = self._script.get(fingerprint)
        if texts is None:
            raise BackendError(
                f"replay script has no entry for fingerprint {fingerprint[:12]}... "
                f"(post {prompt.post_id})"
            )
        if attempt > len(texts):
            raise BackendError(
                f"replay script exhausted for fingerprint {fingerprint[:12]}... "
                f"(attempt {attempt} of {len(texts)} scripted)"
            )
        return texts[attempt - 1]


class RemoteChatBackend(_BaseBackend):
    """POSTs to ``cfg.endpoint`` through one urllib opener, one connection
    per request. Proxies come from the environment; netrc is not read, and
    a redirect is never followed, so the credential goes to the endpoint only."""

    kind = "remote-chat"
    waits_on_io = True

    def __init__(self, cfg: BackendConfig, retry: RetryPolicy | None = None, audit: AuditLog | None = None) -> None:
        # imported here, not at module level: urllib.request loads ssl, which
        # offline runs never need
        import http.client
        import ssl
        import urllib.request

        super().__init__(cfg)
        self.retry = retry or RetryPolicy()
        self.audit = audit
        # one context for every connection: building one loads the trust store
        context = ssl.create_default_context() if urlsplit(cfg.endpoint).scheme == "https" else None
        # no HTTPErrorProcessor or HTTPRedirectHandler: every status, a 3xx
        # included, comes back as the reply itself
        self._opener = urllib.request.OpenerDirector()
        for handler in (
            urllib.request.ProxyHandler(),
            urllib.request.UnknownHandler(),
            urllib.request.HTTPHandler(),
            urllib.request.HTTPSHandler(context=context),
        ):
            self._opener.add_handler(handler)
        self._request = urllib.request.Request
        self._transport_errors = (OSError, http.client.HTTPException)

    def _credential(self) -> str:
        secret = os.environ.get(self.cfg.credential_env, "")
        if not secret:
            raise ConfigError(
                f"credential environment variable {self.cfg.credential_env!r} is not set"
            )
        return secret

    def _raw(self, message: str, prompt: RenderedPrompt, fingerprint: str, attempt: int) -> str:
        secret = self._credential()  # resolved before any network activity
        data = json.dumps(
            {
                "model": self.cfg.model,
                "messages": [{"role": "user", "content": message}],
                "temperature": self.cfg.temperature,
                "max_tokens": self.cfg.max_output_tokens,
            }
        ).encode("utf-8")
        headers = {"Authorization": f"Bearer {secret}", "Content-Type": "application/json"}
        delay = self.retry.backoff_initial
        last_status: object = None
        for i in range(self.retry.transport_retries + 1):
            request = self._request(self.cfg.endpoint, data=data, headers=headers, method="POST")
            try:
                with self._opener.open(request, timeout=self.cfg.timeout) as resp:
                    status, location, reply = resp.status, resp.headers.get("Location"), resp.read()
            except self._transport_errors as exc:
                reason = getattr(exc, "reason", None)  # the error a URLError wraps
                last_status = type(reason if isinstance(reason, Exception) else exc).__name__
            else:
                if status in (401, 403):
                    raise BackendError(f"authentication failed (HTTP {status})")
                if 300 <= status < 400:
                    raise BackendError(
                        f"endpoint redirected (HTTP {status} to {location}); "
                        "redirects are not followed, so set the endpoint to the final URL"
                    )
                if status == 429 or status >= 500:
                    last_status = status
                elif not 200 <= status < 300:  # the body of an error reply is not echoed
                    raise BackendError(f"endpoint answered HTTP {status}")
                else:
                    try:
                        return json.loads(reply)["choices"][0]["message"]["content"]
                    except (ValueError, KeyError, IndexError, TypeError) as exc:
                        raise BackendError(f"malformed completion response: {exc}") from exc
            if i < self.retry.transport_retries:
                if self.audit is not None:
                    self.audit.append(
                        fingerprint=fingerprint,
                        attempt=attempt,
                        status="transport-retry",
                        detail=str(last_status),
                        kind=self.kind,
                    )
                time.sleep(min(delay, self.retry.backoff_cap))
                delay *= self.retry.backoff_multiplier
        raise BackendError(f"transport retries exhausted (last status: {last_status})")


def make_backend(cfg: BackendConfig, retry: RetryPolicy | None = None, audit: AuditLog | None = None) -> _BaseBackend:
    if cfg.kind == "mock-rules":
        return MockRulesBackend(cfg)
    if cfg.kind == "replay":
        return ReplayBackend(cfg)
    return RemoteChatBackend(cfg, retry=retry, audit=audit)


def complete(
    cfg: BackendConfig,
    prompt: RenderedPrompt,
    *,
    attempt: int = 1,
    message: str | None = None,
    backend: _BaseBackend | None = None,
    retry: RetryPolicy | None = None,
    audit: AuditLog | None = None,
    fingerprint: str | None = None,
) -> CompletionResult:
    """Issue one completion request and return the verbatim text; ``fingerprint``
    defaults to ``cache_key(cfg, prompt)``."""
    be = backend if backend is not None else make_backend(cfg, retry=retry, audit=audit)
    fp = fingerprint if fingerprint is not None else cache_key(cfg, prompt)
    text = message if message is not None else prompt.text
    started = time.monotonic()
    raw = be.call(text, prompt, fp, attempt)
    latency = time.monotonic() - started
    if audit is not None:
        audit.append(fingerprint=fp, attempt=attempt, status="ok", latency=latency, kind=be.kind)
    return CompletionResult(
        raw_text=raw,
        attempts=attempt,
        backend_kind=be.kind,
        latency=latency,
        cache_hit=False,
        fingerprint=fp,
    )


def classify_with_retry(
    cfg: BackendConfig,
    policy: RetryPolicy,
    prompt: RenderedPrompt,
    parser: Callable[[str], ParseOutcome],
    *,
    backend: _BaseBackend | None = None,
    cache: ResponseCache | None = None,
    audit: AuditLog | None = None,
):
    """Classify one prompt, re-asking on parse failures.

    Returns ``(LabelVector, CompletionResult)`` on success or
    ``(ClassificationFailure, CompletionResult)`` after the attempt budget
    is spent. Re-asks resend the prompt with a one-line format reminder
    appended; the fingerprint always reflects the base prompt, so cached
    and replayed attempt lists line up across runs.
    """
    fp = cache_key(cfg, prompt)
    budget = policy.max_attempts if policy.reask_on_parse_failure else 1

    cached = cache.get(fp) if cache is not None else None
    if cached is not None:
        texts = cached[:budget]
        failures: list[tuple[str, ParseFailure]] = []
        for i, raw in enumerate(texts, start=1):
            outcome = parser(raw)
            if outcome.ok:
                if audit is not None:
                    audit.append(fingerprint=fp, attempt=i, status="cache-hit", kind=cfg.kind)
                return outcome.vector, CompletionResult(
                    raw_text=raw, attempts=i, backend_kind=cfg.kind,
                    latency=0.0, cache_hit=True, fingerprint=fp,
                )
            failures.append((raw, outcome.failure))
        if audit is not None:
            audit.append(fingerprint=fp, attempt=len(texts), status="cache-hit", kind=cfg.kind)
        return ClassificationFailure(attempts=tuple(failures)), CompletionResult(
            raw_text=texts[-1] if texts else "", attempts=max(len(texts), 1),
            backend_kind=cfg.kind, latency=0.0, cache_hit=True, fingerprint=fp,
        )

    be = backend if backend is not None else make_backend(cfg, retry=policy, audit=audit)
    attempt_texts: list[str] = []
    failures = []
    last: CompletionResult | None = None
    for attempt in range(1, budget + 1):
        message = prompt.text if attempt == 1 else f"{prompt.text}\n\n{prompt.format_reminder()}"
        last = complete(
            cfg, prompt, attempt=attempt, message=message, backend=be, retry=policy, audit=audit,
            fingerprint=fp,
        )
        attempt_texts.append(last.raw_text)
        outcome = parser(last.raw_text)
        if outcome.ok:
            if cache is not None:
                cache.put(fp, attempt_texts)
            return outcome.vector, last
        failures.append((last.raw_text, outcome.failure))
        if audit is not None:
            audit.append(
                fingerprint=fp, attempt=attempt, status="parse-failure",
                reason=outcome.failure.reason, detail=outcome.failure.detail, kind=be.kind,
            )
    if cache is not None:
        cache.put(fp, attempt_texts)
    return ClassificationFailure(attempts=tuple(failures)), last
