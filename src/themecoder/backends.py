"""Completion backends: remote chat services and offline substitutes.

Three kinds. ``remote-chat`` POSTs a chat-completion request to a
vendor-compatible endpoint with a bearer credential from the environment.
``mock-rules`` is a transparent keyword-to-theme function of the post text,
useful only for exercising the pipeline offline. ``replay`` serves canned
attempt texts from a script file keyed by request fingerprint.

A backend owns its config, retry policy and audit log, and ``complete``
and ``classify_with_retry`` read them from it. The retry loop re-asks on
parse failures with a one-line format reminder appended; transport
failures are retried with exponential backoff. Every call lands in the
audit log, and an optional response cache makes identical reruns free of
backend calls.
"""

from __future__ import annotations

import json
import math
import os
import queue
import threading
import time
from dataclasses import dataclass
from functools import lru_cache
from hashlib import sha256
from json.encoder import encode_basestring
from pathlib import Path
from typing import BinaryIO, Callable, Mapping, Sequence
from urllib.parse import unquote, urlsplit

from .errors import BackendError, ConfigError, DataError
from .jsonl import JsonLines, holds_surrogate, read_text
from .parsing import ParseFailure, ParseOutcome, render_answer, render_line
from .prompting import RenderedPrompt

MAX_WAIT_S = 86_400  # one day: the longest timeout, backoff or wait between requests a setting may ask for
# worker threads and remote-chat connections: an OS may refuse to start many more
# threads, and each connection holds about 0.5 KB before it opens (10**6: 500 MB)
MAX_IN_FLIGHT = 256
MAX_JSON_INT = 2**53 - 1  # RFC 8259 section 6: the largest integer every JSON reader holds exactly


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
            raise ConfigError(f"unknown backend kind {self.kind!r}; known: {', '.join(BACKEND_KINDS)}")
        if not math.isfinite(self.temperature) or self.temperature < 0:
            raise ConfigError(f"temperature must be finite and >= 0, got {self.temperature}")
        if self.kind == "remote-chat" and (not self.endpoint or not self.model):
            raise ConfigError("remote-chat backend requires endpoint and model")
        if self.kind == "remote-chat" and urlsplit(self.endpoint).scheme not in ("http", "https"):
            raise ConfigError(f"remote-chat endpoint must be an http or https URL, got {self.endpoint!r}")
        if self.kind == "remote-chat" and not all("!" <= c <= "~" for c in self.endpoint):
            # it is written into each request's head as it is
            raise ConfigError(
                f"remote-chat endpoint must be printable ASCII without spaces (percent-escape the rest), "
                f"got {self.endpoint!r}"
            )
        if self.kind == "replay" and not self.replay_path:
            raise ConfigError("replay backend requires replay_path")
        if self.in_flight_limit < 1:
            raise ConfigError(f"in_flight_limit must be >= 1, got {self.in_flight_limit}")
        if self.in_flight_limit > MAX_IN_FLIGHT:  # one worker thread and one connection each
            raise ConfigError(f"in_flight_limit must be <= {MAX_IN_FLIGHT}, got {self.in_flight_limit}")
        if self.max_output_tokens < 1:
            raise ConfigError(f"max_output_tokens must be >= 1, got {self.max_output_tokens}")
        if self.max_output_tokens > MAX_JSON_INT:  # it is sent as the request's max_tokens
            raise ConfigError(f"max_output_tokens must be <= {MAX_JSON_INT}, got {self.max_output_tokens}")
        if not math.isfinite(self.timeout) or self.timeout <= 0:
            raise ConfigError(f"timeout must be finite and > 0, got {self.timeout}")
        if self.timeout > MAX_WAIT_S:
            raise ConfigError(f"timeout must be <= {MAX_WAIT_S} s, got {self.timeout}")
        if not math.isfinite(self.requests_per_second) or self.requests_per_second < 0:
            raise ConfigError(f"requests_per_second must be finite and >= 0, got {self.requests_per_second}")
        if 0 < self.requests_per_second < 1 / MAX_WAIT_S:
            raise ConfigError(f"requests_per_second must be 0 or >= 1/{MAX_WAIT_S}, got {self.requests_per_second}")


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    backoff_initial: float = 0.5
    backoff_multiplier: float = 2.0
    backoff_cap: float = 8.0
    transport_retries: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.transport_retries < 0:
            raise ConfigError(f"transport_retries must be >= 0, got {self.transport_retries}")
        for name in ("backoff_initial", "backoff_multiplier", "backoff_cap"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if self.backoff_cap > MAX_WAIT_S:
            raise ConfigError(f"backoff_cap must be <= {MAX_WAIT_S} s, got {self.backoff_cap}")


def _request_json(cfg: BackendConfig, template_version: str, prompt_text: str) -> str:
    """The JSON text whose SHA-256 is a request's fingerprint."""
    return json.dumps(
        {
            "model": cfg.model,
            "temperature": repr(float(cfg.temperature)),
            "template_version": template_version,
            "prompt": prompt_text,
        },
        sort_keys=True,
        ensure_ascii=False,
    )


def cache_key(cfg: BackendConfig, prompt: RenderedPrompt) -> str:
    """Stable fingerprint of one request: model, temperature, template
    version, and the base prompt text. Identical across runs and machines."""
    return sha256(_request_json(cfg, prompt.template_version, prompt.text).encode("utf-8")).hexdigest()


_PROMPT_SLOT = "<<prompt>>"  # a stand-in prompt that JSON leaves as it is


def frame_fingerprints(
    cfg: BackendConfig, template_version: str, frames: Sequence[str]
) -> Callable[[str], list[str]]:
    """Return ``fingerprints(payload)``: for each frame, the ``cache_key`` of
    the prompt that frame gives with every ``{{post}}`` replaced by ``payload``.

    SHA-256 is fed left to right, so the hash state after the fixed head of
    each frame (the JSON before the prompt, then the frame up to its first
    ``{{post}}``) is taken once here and copied per post. JSON escapes a
    string one character at a time, so the escaped frame pieces and the
    escaped payload join to the escaped prompt.
    """
    # keys are sorted, so the prompt follows the model: its slot is the last one
    head, _, tail = _request_json(cfg, template_version, _PROMPT_SLOT).rpartition(_PROMPT_SLOT)
    prepared = []
    for frame in frames:
        pieces = [_escape(piece) for piece in frame.split("{{post}}")]
        pieces[-1] += tail
        pieces[0] = head + pieces[0]
        prepared.append((sha256(pieces[0].encode("utf-8")), [piece.encode("utf-8") for piece in pieces[1:]]))

    def fingerprints(payload: str) -> list[str]:
        slot = _escape(payload).encode("utf-8")
        digests = []
        for state, rest in prepared:
            digest = state.copy()
            for piece in rest:
                digest.update(slot)
                digest.update(piece)
            digests.append(digest.hexdigest())
        return digests

    return fingerprints


def _escape(text: str) -> str:
    """``text`` as ``json.dumps(..., ensure_ascii=False)`` writes it inside quotes."""
    return encode_basestring(text)[1:-1]


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
    """Thread-safe request spacing: requests leave at least ``1 / rate`` seconds
    apart, in the order they called ``acquire``, with no burst (the generic cell
    rate algorithm, ITU-T I.371, as virtual scheduling); rate <= 0 disables limiting."""

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.next_send = time.monotonic()  # the earliest time the next request may leave
        self._lock = threading.Lock()

    def acquire(self) -> None:
        if self.rate <= 0:
            return
        with self._lock:
            now = time.monotonic()
            at = max(now, self.next_send)
            self.next_send = at + 1.0 / self.rate
        time.sleep(at - now)


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


@lru_cache(maxsize=64)
def _mock_rules(codes: tuple[str, ...]) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Each code with its keywords, looked up once per code tuple."""
    return tuple((code, MOCK_RULES.get(code, ())) for code in codes)


def mock_rule_vector(post_text: str, codes: Sequence[str]) -> dict[str, int]:
    """Evaluate the mock rule table over one post text for the given codes,
    keyed in the order of ``codes``.

    K fires for xylazine mentions with no use/wound/withdrawal signal; X
    fires when nothing at all matched and no xylazine term is present.
    """
    folded = post_text.casefold()
    values: dict[str, int] = {}
    for code, keywords in _mock_rules(tuple(codes)):
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
    """Owns all of a call's state: the config its requests and fingerprints
    come from, the retry policy (re-ask budget and transport retries) and the
    audit log, which may be set once the log is open. It bounds no calls from
    many threads; only ``RemoteChatBackend``'s connections and rate limit
    bound requests."""

    kind = "base"
    waits_on_io = False  # True when calls wait on the network, so threads can overlap them

    def __init__(self, cfg: BackendConfig, retry: RetryPolicy | None = None, audit: AuditLog | None = None) -> None:
        self.cfg = cfg
        self.retry = retry or RetryPolicy()
        self.audit = audit

    def call(self, message: str, prompt: RenderedPrompt, fingerprint: str, attempt: int) -> str:
        return self._raw(message, prompt, fingerprint, attempt)

    def _raw(self, message: str, prompt: RenderedPrompt, fingerprint: str, attempt: int) -> str:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend holds open; local backends hold nothing."""

    def _audit(self, fingerprint: str, attempt: int, status: str, **fields) -> None:
        """Write one audit line, if the backend has an audit log."""
        if self.audit is not None:
            self.audit.append(fingerprint=fingerprint, attempt=attempt, status=status, kind=self.kind, **fields)


class MockRulesBackend(_BaseBackend):
    kind = "mock-rules"

    def _raw(self, message: str, prompt: RenderedPrompt, fingerprint: str, attempt: int) -> str:
        values = mock_rule_vector(prompt.post_text, prompt.target)
        if len(prompt.target) == 1:
            return render_answer(prompt.target[0], values[prompt.target[0]])
        return render_line(values, values.values())


class ReplayBackend(_BaseBackend):
    kind = "replay"

    def __init__(self, cfg: BackendConfig, retry: RetryPolicy | None = None, audit: AuditLog | None = None) -> None:
        super().__init__(cfg, retry, audit)
        path = Path(cfg.replay_path)
        try:
            script = json.loads(read_text(path, "replay script", ConfigError))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"replay script {path} is not valid JSON: {exc}") from exc
        if not isinstance(script, dict):
            raise ConfigError(f"replay script {path} must be a JSON object")
        for fp, texts in script.items():
            if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
                raise ConfigError(f"replay script {path}: the entry for fingerprint {fp} is not a list of strings")
        if holds_surrogate(script):  # no cache or audit line could hold it
            raise ConfigError(f"replay script {path}: a \\u escape gives a lone surrogate, not valid Unicode")
        self._script: dict[str, list[str]] = script

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


class _Connection:
    """One of ``RemoteChatBackend``'s connections. ``opener``, an unopened
    ``http.client`` connection, opens it: TCP with ``TCP_NODELAY``, the
    CONNECT to a proxy, TLS with the hostname check. Each request is then
    written to ``sock`` and its reply read from ``reader``, one buffered
    reader of that socket; both are None while the connection is closed."""

    __slots__ = ("opener", "sock", "reader")

    def __init__(self, opener) -> None:
        self.opener = opener
        self.sock = self.reader = None

    def open(self) -> None:
        self.opener.connect()
        self.sock = self.opener.sock
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        # the socket's file descriptor stays open until its reader is closed too
        if self.reader is not None:
            self.reader.close()
        self.opener.close()
        self.sock = self.reader = None


# http.client's limits on a reply's head: bytes in one line, and header
# lines, the blank line that ends them included
_MAX_LINE = 65_536
_MAX_HEADERS = 100


def _read_reply(reader: BinaryIO) -> tuple[int, str | None, bytes, bool]:
    """Read one whole reply: ``(status, Location, body, whether the
    connection stays open)``, skipping any interim (1xx) reply first.

    The body is framed by chunked transfer coding, which wins over
    Content-Length (RFC 9112 section 6.3), else by Content-Length, else by
    the server closing the connection. An HTTP/1.1 reply keeps the
    connection open unless it says ``Connection: close``; an HTTP/1.0 reply
    closes it unless it asks for keep-alive. A failure raises the exception
    ``http.client`` raises for it."""
    status, persistent, fields = _read_head(reader)
    while status < 200:
        status, persistent, fields = _read_head(reader)
    connection = fields.get(b"connection", b"").lower()
    if persistent:
        keep_alive = b"close" not in connection
    else:
        keep_alive = b"keep-alive" in fields or b"keep-alive" in connection
    coding = fields.get(b"transfer-encoding")
    length = fields.get(b"content-length", b"")
    if status in (204, 304):
        body = b""
    elif coding is not None and coding.rpartition(b",")[2].strip().lower() == b"chunked":
        body = _read_chunked(reader)
    elif coding is None and length.isdigit():
        size = int(length)
        body = reader.read(size)
        if len(body) < size:
            raise _reply_error("IncompleteRead", body, size - len(body))
    else:  # only the server closing the connection ends the body
        body, keep_alive = reader.read(), False
    location = fields.get(b"location")
    return status, None if location is None else location.decode("iso-8859-1"), body, keep_alive


def _read_head(reader: BinaryIO) -> tuple[int, bool, dict[bytes, bytes]]:
    """Read a status line and the header lines after it: ``(status, whether
    the version is HTTP/1.1 or later, the fields)``."""
    line = _read_line(reader, "status line")
    if not line:
        raise _reply_error("RemoteDisconnected", "Remote end closed connection without response")
    words = line.split(None, 2)
    version = words[0] if words else b""
    status = words[1] if len(words) > 1 else b""
    if not version.startswith(b"HTTP/") or not status.isdigit() or not 100 <= int(status) <= 999:
        raise _reply_error("BadStatusLine", str(line, "iso-8859-1"))
    persistent = version not in (b"HTTP/1.0", b"HTTP/0.9")
    if persistent and not version.startswith(b"HTTP/1."):
        raise _reply_error("UnknownProtocol", str(version, "iso-8859-1"))
    return int(status), persistent, _read_fields(reader)


def _read_fields(reader: BinaryIO) -> dict[bytes, bytes]:
    """Read header or trailer lines up to the blank line that ends them:
    ``{lower-case name: its first value}``."""
    fields: dict[bytes, bytes] = {}
    for count in range(1, _MAX_HEADERS + 2):
        line = _read_line(reader, "header line")
        if count > _MAX_HEADERS:
            raise _reply_error("HTTPException", f"got more than {_MAX_HEADERS} headers")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        fields.setdefault(name.strip().lower(), value.strip())
    return fields


def _read_chunked(reader: BinaryIO) -> bytes:
    """Read a chunked body and the trailer after it, dropping chunk
    extensions and trailer fields."""
    parts: list[bytes] = []
    while True:
        size = _read_line(reader, "chunk size").partition(b";")[0].strip()
        if not size or size.strip(b"0123456789abcdefABCDEF"):
            raise _reply_error("IncompleteRead", b"".join(parts))
        size = int(size, 16)
        if size == 0:
            _read_fields(reader)  # the trailer
            return b"".join(parts)
        data = reader.read(size + 2)  # the chunk and the CRLF that ends it
        if len(data) < size + 2:
            raise _reply_error("IncompleteRead", b"".join(parts) + data[:size], size + 2 - len(data))
        parts.append(data[:size])


def _read_line(reader: BinaryIO, what: str) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise _reply_error("LineTooLong", what)
    return line


def _reply_error(name: str, *args) -> Exception:
    """``http.client``'s exception ``name``: the module is imported only by
    a remote-chat backend, which every reply read comes from."""
    import http.client

    return getattr(http.client, name)(*args)


class RemoteChatBackend(_BaseBackend):
    """POSTs to ``cfg.endpoint`` over kept-alive HTTP/1.1 connections.

    The backend holds exactly ``in_flight_limit`` connections, made here and
    each opened on its first request by ``http.client`` (TCP, a proxy's
    CONNECT, TLS). The backend writes each request in one send, its head
    fields that never change built here, and reads the reply through one
    buffered reader kept per socket. A request waits for an idle connection
    and reads the whole reply before the connection goes back for the next
    request, so no more than ``in_flight_limit`` requests are ever in
    flight; ``close`` closes them all. Each request written, a transport
    retry or a reconnect's resend included, first waits for the send time
    it reserves under ``requests_per_second``. A reply with ``Connection: close``,
    or an HTTP/1.0 reply without keep-alive, closes its connection. A reused
    connection that the server has closed meanwhile fails before any byte
    of the reply arrives; it is reopened and the request sent once more,
    with a ``reconnect`` audit line. Proxies come from the environment, read
    once here; netrc is not read, and a redirect is never followed, so the
    credential goes to the endpoint only."""

    kind = "remote-chat"
    waits_on_io = True

    def __init__(self, cfg: BackendConfig, retry: RetryPolicy | None = None, audit: AuditLog | None = None) -> None:
        # imported here, not at module level: offline runs never need the
        # HTTP client or ssl
        import base64
        import http.client
        import socket
        import ssl
        from urllib.request import getproxies, proxy_bypass

        super().__init__(cfg, retry, audit)
        self._bucket = TokenBucket(cfg.requests_per_second)
        endpoint = urlsplit(cfg.endpoint)
        host, tls, tunnel_headers, host_field = endpoint.netloc, endpoint.scheme == "https", None, None
        target = endpoint.path + (f"?{endpoint.query}" if endpoint.query else "")
        fields = {"Content-Type": "application/json"}
        proxy = getproxies().get(endpoint.scheme)
        if proxy and not proxy_bypass(endpoint.netloc):
            via = urlsplit(proxy if "://" in proxy else f"{endpoint.scheme}://{proxy}")
            host = via.netloc.rpartition("@")[2]
            auth = {}
            if via.username and via.password:
                userpass = f"{unquote(via.username)}:{unquote(via.password)}".encode()
                auth["Proxy-Authorization"] = f"Basic {base64.b64encode(userpass).decode('ascii')}"
            if tls:  # a CONNECT tunnel: only the proxy sees its credentials
                tunnel_headers = auth
            else:  # the proxy is sent the absolute URL
                target, host_field = cfg.endpoint.partition("#")[0], endpoint.netloc
                fields.update(auth)
                tls = via.scheme == "https"
        connection, options = http.client.HTTPConnection, {"timeout": cfg.timeout}
        if tls:  # one context for every connection: building one loads the trust store
            connection, options["context"] = http.client.HTTPSConnection, ssl.create_default_context()
        if host_field is None:  # as http.client sends it: the endpoint's host, and its port unless the default
            origin = connection(endpoint.netloc, **options)  # unopened; it parses host and port
            host_field = f"[{origin.host.partition('%')[0]}]" if ":" in origin.host else origin.host  # IPv6: no zone
            if origin.port != origin.default_port:
                host_field += f":{origin.port}"
        head = [f"POST {target or '/'} HTTP/1.1", f"Host: {host_field}", "Accept-Encoding: identity"]
        head += [f"{name}: {value}" for name, value in fields.items()]
        self._head = "".join(f"{line}\r\n" for line in head).encode("ascii")
        self._connections = tuple(_Connection(connection(host, **options)) for _ in range(cfg.in_flight_limit))
        self._idle: queue.LifoQueue = queue.LifoQueue()  # the last connection used is the first reused
        for conn in self._connections:
            if tunnel_headers is not None:
                conn.opener.set_tunnel(endpoint.netloc, headers=tunnel_headers)
            self._idle.put(conn)
        # After each send the socket acknowledges at once. A server that writes
        # a reply's head and body as two sends with Nagle's algorithm on holds
        # the body back until the head is acknowledged, and on a kept-alive
        # connection a delayed ACK makes that wait up to 40 ms.
        quickack = getattr(socket, "TCP_QUICKACK", None)
        self._quickack = (socket.IPPROTO_TCP, quickack, 1) if quickack is not None else None
        self._transport_errors = (OSError, http.client.HTTPException)

    def close(self) -> None:
        """Close every connection this backend holds."""
        for conn in self._connections:
            conn.close()

    def _credential(self) -> bytes:
        name = self.cfg.credential_env
        secret = os.environ.get(name, "")
        if not secret:
            raise ConfigError(f"credential environment variable {name!r} is not set")
        if "\r" in secret or "\n" in secret or max(secret) > "\xff":  # it is sent in a header line
            raise ConfigError(f"credential environment variable {name!r} must hold one line of Latin-1 text")
        return secret.encode("latin-1")

    def _send(self, conn: _Connection, request: bytes) -> tuple[int, str | None, bytes]:
        if conn.sock is None:
            conn.open()
        conn.sock.sendall(request)
        if self._quickack is not None:
            conn.sock.setsockopt(*self._quickack)
        status, location, body, keep_alive = _read_reply(conn.reader)
        if not keep_alive:
            conn.close()
        return status, location, body

    def _exchange(self, request: bytes, fingerprint: str, attempt: int) -> tuple[int, str | None, bytes]:
        """Send one request on an idle connection and read its whole reply:
        ``(status, Location, body)``. A transport error closes the connection
        before it goes back idle."""
        self._bucket.acquire()  # before a connection is taken, so a wait holds none
        conn = self._idle.get()
        try:
            reused = conn.sock is not None
            try:
                return self._send(conn, request)
            except (BrokenPipeError, ConnectionResetError) as exc:  # http.client's RemoteDisconnected included
                if not reused:
                    raise
                conn.close()
                self._audit(fingerprint, attempt, "reconnect", detail=type(exc).__name__)
                self._bucket.acquire()
                return self._send(conn, request)
        except BaseException:
            conn.close()
            raise
        finally:
            self._idle.put(conn)

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
        request = b"%sContent-Length: %d\r\nAuthorization: Bearer %s\r\n\r\n%s" % (self._head, len(data), secret, data)
        delay = self.retry.backoff_initial
        last_status: object = None
        for i in range(self.retry.transport_retries + 1):
            try:
                status, location, reply = self._exchange(request, fingerprint, attempt)
            except self._transport_errors as exc:
                last_status = type(exc).__name__
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
                        content = json.loads(reply)["choices"][0]["message"]["content"]
                        if not isinstance(content, str):
                            raise TypeError(f"message content is {type(content).__name__}, not a string")
                        if holds_surrogate(content):  # no cache line could hold it
                            raise ValueError("message content holds a lone surrogate, not valid Unicode")
                        return content
                    except (ValueError, KeyError, IndexError, TypeError) as exc:
                        raise BackendError(f"malformed completion response: {exc}") from exc
            if i < self.retry.transport_retries:
                self._audit(fingerprint, attempt, "transport-retry", detail=str(last_status))
                time.sleep(min(delay, self.retry.backoff_cap))
                delay *= self.retry.backoff_multiplier
        raise BackendError(f"transport retries exhausted (last status: {last_status})")


_BACKENDS = {cls.kind: cls for cls in (RemoteChatBackend, MockRulesBackend, ReplayBackend)}
BACKEND_KINDS = tuple(_BACKENDS)


def make_backend(cfg: BackendConfig, retry: RetryPolicy | None = None, audit: AuditLog | None = None) -> _BaseBackend:
    return _BACKENDS[cfg.kind](cfg, retry, audit)


def complete(
    backend: _BaseBackend,
    prompt: RenderedPrompt,
    *,
    attempt: int = 1,
    message: str | None = None,
    fingerprint: str | None = None,
) -> str:
    """Issue one completion request through ``backend`` and return the
    verbatim reply text, with an ``ok`` line in the backend's audit log;
    ``fingerprint`` defaults to ``cache_key(backend.cfg, prompt)``."""
    fp = fingerprint if fingerprint is not None else cache_key(backend.cfg, prompt)
    started = time.monotonic()
    raw = backend.call(message if message is not None else prompt.text, prompt, fp, attempt)
    backend._audit(fp, attempt, "ok", latency=time.monotonic() - started)
    return raw


def classify_with_retry(
    backend: _BaseBackend,
    prompt: RenderedPrompt,
    parser: Callable[[str], ParseOutcome],
    *,
    cache: ResponseCache | None = None,
    fingerprint: str | None = None,
) -> tuple[ParseOutcome, list[ParseFailure], int]:
    """Classify one prompt through ``backend``, re-asking on parse failures
    up to its retry policy's ``max_attempts``.

    Returns ``(outcome, failures, attempts)``: the ParseOutcome of the
    attempt that decided (the first that parsed, else the last one asked),
    the ParseFailure of each attempt that did not parse, and the number of
    attempts. Re-asks resend the prompt with a one-line format reminder
    appended; the fingerprint always reflects the base prompt, so cached
    and replayed attempt lists line up across runs. ``fingerprint``
    defaults to ``cache_key(backend.cfg, prompt)``.

    A cache hit runs the same loop over the stored attempt texts, without
    calling the backend, up to the budget or the end of the entry; it
    writes one ``cache-hit`` audit line at the attempt that decided.
    """
    fp = fingerprint if fingerprint is not None else cache_key(backend.cfg, prompt)
    stored = cache.get(fp) if cache is not None else None  # a hit replays these instead of calling
    texts: list[str] = []
    failures: list[ParseFailure] = []
    for attempt in range(1, backend.retry.max_attempts + 1):
        if stored is None:
            message = prompt.text if attempt == 1 else f"{prompt.text}\n\n{prompt.format_reminder()}"
            text = complete(backend, prompt, attempt=attempt, message=message, fingerprint=fp)
        elif attempt <= len(stored):
            text = stored[attempt - 1]
        else:
            break
        texts.append(text)
        outcome = parser(text)
        if outcome.ok:
            break
        failures.append(outcome.failure)
        if stored is None:
            backend._audit(fp, attempt, "parse-failure", reason=outcome.failure.reason, detail=outcome.failure.detail)
    if stored is None and cache is not None:
        cache.put(fp, texts)
    if stored is not None:
        backend._audit(fp, len(texts), "cache-hit")
    return outcome, failures, len(texts)
