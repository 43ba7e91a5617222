"""A chat-completions endpoint on 127.0.0.1 for the remote-chat tests.

It imports neither pytest, numpy, statistics nor requests, so a child
process that checks what the package loads can import it too.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

# A self-signed certificate for 127.0.0.1, valid until 2126, made with
#   openssl req -x509 -newkey rsa:2048 -nodes -keyout tls_key.pem -out tls_cert.pem \
#     -days 36500 -subj /CN=127.0.0.1 -addext subjectAltName=IP:127.0.0.1
TLS_CERT = Path(__file__).parent / "fixtures" / "tls_cert.pem"
TLS_KEY = Path(__file__).parent / "fixtures" / "tls_key.pem"

# a request record's key, and the head field it holds (None when absent)
HEAD_FIELDS = {
    "auth": "Authorization",
    "proxy_auth": "Proxy-Authorization",
    "type": "Content-Type",
    "host": "Host",
    "accept_encoding": "Accept-Encoding",
    "length": "Content-Length",
}


def chat_payload(content) -> dict:
    return {"choices": [{"message": {"content": content}}]}


@contextlib.contextmanager
def chat_endpoint(tls: bool = False):
    """Serve a chat endpoint on 127.0.0.1 and yield its state dict:

    - ``endpoint``: its URL; with ``tls`` it serves https with ``TLS_CERT``.
    - ``requests``: a record of each request, whatever its method: the
      ``HEAD_FIELDS``, its ``path`` and its JSON ``body``.
    - ``answer(record)``: the reply to a request. It is ``(HTTP status,
      payload)``, with a payload of bytes or of JSON, or a callable that takes
      the request handler and writes the whole reply itself. The default
      pops ``responses`` and, once they run out, answers 200 "fallback".
    - ``keep_alive``: answer in HTTP/1.1 and keep the connection for the
      next request; when false, answer in HTTP/1.0 and close after each reply.
    - ``drop_first``: hang up the first connection after its first reply,
      as a server drops an idle one.
    - ``connections`` and ``open``: the connections accepted, and those
      still open.
    - ``active`` and ``peak``: the requests inside ``answer``, and the most
      at once."""
    lock = threading.Lock()
    state = {
        "requests": [], "responses": [], "keep_alive": False, "drop_first": False,
        "connections": 0, "open": 0, "active": 0, "peak": 0,
    }

    def next_response(record):
        with lock:
            return state["responses"].pop(0) if state["responses"] else (200, chat_payload("fallback"))

    state["answer"] = next_response

    class Handler(BaseHTTPRequestHandler):
        def setup(self):
            if state["keep_alive"]:
                self.protocol_version = "HTTP/1.1"
                self.timeout = 5  # a connection the client leaves open ends the wait, not the test run
            with lock:
                state["connections"] += 1
                state["open"] += 1
                self.drops = state["drop_first"] and state["connections"] == 1
            super().setup()

        def finish(self):
            try:
                super().finish()
            finally:
                with lock:
                    state["open"] -= 1

        def do_POST(self):
            record = {key: self.headers.get(field) for key, field in HEAD_FIELDS.items()}
            record["body"] = json.loads(self.rfile.read(int(record["length"] or 0)) or b"{}")
            record["path"] = self.path
            with lock:
                state["requests"].append(record)
                state["active"] += 1
                state["peak"] = max(state["peak"], state["active"])
            try:
                reply = state["answer"](record)
            finally:
                with lock:
                    state["active"] -= 1
            if callable(reply):
                reply(self)
            else:
                status, payload = reply
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
            self.close_connection |= self.drops

        do_GET = do_POST

        def log_message(self, *args):
            pass

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    scheme = "http"
    if tls:
        import ssl

        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(TLS_CERT, TLS_KEY)
        httpd.socket = context.wrap_socket(httpd.socket, server_side=True)
        scheme = "https"
    # shutdown() waits for serve_forever's next poll, 0.5 s apart by default
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    state["endpoint"] = f"{scheme}://127.0.0.1:{httpd.server_port}/v1/chat/completions"
    try:
        yield state
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join()


def all_closed(state: dict) -> bool:
    """Whether an endpoint's ``open`` connection count falls to 0 within two seconds."""
    deadline = time.monotonic() + 2.0
    while state["open"] and time.monotonic() < deadline:
        time.sleep(0.01)
    return state["open"] == 0
