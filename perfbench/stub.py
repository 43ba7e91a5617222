"""Local OpenAI-style chat-completion stub for the remote-latency workload.

    python3 perfbench/stub.py --port-file PATH --seed N --codes ABCDEFGHIJKLX

Binds an ephemeral port on 127.0.0.1, writes the port number to
``--port-file`` and serves until SIGTERM, SIGINT, or its parent exits.

``POST /v1/chat/completions`` answers every request after a fixed service
time. The reply text is a pure function of the request body (given the
seed and the code alphabet): the classification line for the post, wrapped
in chatter that lenient parsing accepts. A seeded share of base prompts get
an unparseable first reply, which forces a re-ask, and a seeded share get
one HTTP 503 on their first request, which forces a transport retry.

``GET /stats`` returns the counters since the last ``POST /reset``:
connections, requests, replies, 503s, the largest number of requests in
service at once, and the measured service time of every reply.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import threading
import time
from hashlib import sha256
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from gen import WORKLOADS
from workload import SERVICE_MS

REASK_SHARE = WORKLOADS["remote-latency"]["reask_share"]
HTTP_503_SHARE = WORKLOADS["remote-latency"]["http_503_share"]
COMPLETIONS_PATH = "/v1/chat/completions"
# markers of the v3 single-line template around the post slot
_POST_START = "Reddit Post:\n"
_POST_END = "\n\nRelevance Categories:"
_REASK_MARK = "\n\nReminder: "
UNPARSEABLE_REPLY = "I'm sorry, I can't tell which of the categories apply to this post."


def post_text(message: str) -> str:
    """The post slot of a rendered v3 prompt, re-ask reminder or not."""
    start = message.index(_POST_START) + len(_POST_START)
    return message[start:message.index(_POST_END, start)]


def _unit(*parts) -> float:
    """Deterministic draw in [0, 1) from the given parts."""
    digest = sha256("\0".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def vector(text: str, codes: str, seed: int) -> dict[str, int]:
    """The stub's classification of a post: about one code in five positive."""
    digest = sha256(f"vector\0{seed}\0{text}".encode("utf-8")).digest()
    return {code: int(digest[i] < 52) for i, code in enumerate(codes)}


def needs_reask(text: str, seed: int) -> bool:
    return _unit("reask", seed, text) < REASK_SHARE


def gets_503(text: str, seed: int) -> bool:
    return _unit("503", seed, text) < HTTP_503_SHARE


def reply(message: str, codes: str, seed: int) -> str:
    text = post_text(message)
    if _REASK_MARK not in message and needs_reask(text, seed):
        return UNPARSEABLE_REPLY
    values = vector(text, codes, seed)
    line = ", ".join(f"{c}={values[c]}" for c in codes)
    return f"Sure, here is the classification:\n{line}\nLet me know if you need anything else."


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.connections = 0
        self.requests = 0
        self.replies = 0
        self.http_503 = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.service_ms: list[float] = []
        self.failed_once: set[str] = set()

    def snapshot(self) -> dict:
        return {
            "connections": self.connections,
            "requests": self.requests,
            "replies": self.replies,
            "http_503": self.http_503,
            "max_in_flight": self.max_in_flight,
            "service_ms": list(self.service_ms),
        }


def make_handler(args, stats: Stats):
    service_s = SERVICE_MS / 1000.0

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive for clients that reuse connections

        def setup(self) -> None:
            super().setup()
            self.counted = False

        def log_message(self, format, *a) -> None:  # no per-request logging
            pass

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:
            if self.path != "/stats":
                return self._send(404, {"error": "not found"})
            with stats.lock:
                snap = stats.snapshot()
            self._send(200, snap)

        def do_POST(self) -> None:
            started = time.perf_counter()
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                with stats.lock:
                    stats.reset()
                return self._send(200, {"ok": True})
            if self.path != COMPLETIONS_PATH:
                return self._send(404, {"error": "not found"})
            message = json.loads(raw)["messages"][0]["content"]
            with stats.lock:
                if not self.counted:
                    self.counted = True
                    stats.connections += 1
                stats.requests += 1
                fail = (
                    _REASK_MARK not in message
                    and message not in stats.failed_once
                    and gets_503(post_text(message), args.seed)
                )
                if fail:
                    stats.failed_once.add(message)
                    stats.http_503 += 1
                else:
                    stats.in_flight += 1
                    stats.max_in_flight = max(stats.max_in_flight, stats.in_flight)
            if fail:
                return self._send(503, {"error": "overloaded"})
            try:
                content = reply(message, args.codes, args.seed)
                remaining = started + service_s - time.perf_counter()
                if remaining > 0:
                    time.sleep(remaining)
                self._send(200, {"choices": [{"message": {"role": "assistant", "content": content}}]})
            finally:
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                with stats.lock:
                    stats.in_flight -= 1
                    stats.replies += 1
                    stats.service_ms.append(elapsed_ms)

    return Handler


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--port-file", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--codes", required=True)
    args = ap.parse_args()

    stats = Stats()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(args, stats))
    server.daemon_threads = True

    def stop(*_):
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    parent = os.getppid()

    def watch_parent() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        stop()

    threading.Thread(target=watch_parent, daemon=True).start()
    port_file = Path(args.port_file)
    tmp = port_file.with_suffix(".tmp")
    tmp.write_text(str(server.server_address[1]), encoding="utf-8")
    tmp.replace(port_file)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
