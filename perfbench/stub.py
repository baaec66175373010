"""OpenAI-compatible chat-completions stub for the live-style workload.

Runs in its own process, bound to 127.0.0.1, and answers
``POST /chat/completions`` through ``mocks.gold_echo_responder``. Each answer
waits a per-request latency derived from the seed and the request text, and a
seeded share of first attempts gets a short malformed answer so that the
program's format-reminder retry runs. ``GET /stats`` returns what the stub
served since the previous ``GET /stats``: request count, malformed answers,
summed service time, the in-flight maximum and a digest over the distinct
request texts received.

Usage (prints ``port <n>`` once listening):
    python3 perfbench/stub.py CORPUS_DIR SPLIT_FILE --seed N
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from atc_icl.corpus import load_corpus
from atc_icl.gateway import ChatRequest
from atc_icl.mocks import gold_echo_responder
from atc_icl.prompting import FORMAT_REMINDER

# First attempts answered with MALFORMED_ANSWER, and the injected latency.
MALFORMED_SHARE = 0.1
MALFORMED_ANSWER = "Sorry, I cannot classify these."
LATENCY_BASE_MS = 20.0
LATENCY_JITTER_MS = 10.0


def request_text_digest(system_text: str, user_text: str) -> str:
    return hashlib.sha256(f"{system_text}\x00{user_text}".encode("utf-8")).hexdigest()


def text_set_digest(digests: list[str]) -> str:
    """Digest over the distinct per-request digests.

    Order-free, so concurrency cannot change it, and blind to repeats, so the
    requests a store answers and the ones that reach the stub digest alike.
    """
    return hashlib.sha256("\n".join(sorted(set(digests))).encode("ascii")).hexdigest()


def stub_behaviour(seed: int, system_text: str, user_text: str, reminder_marker: str) -> tuple[bool, float]:
    """(answer malformed?, latency in seconds) for one request, fixed by seed and text."""
    h = hashlib.sha256(f"{seed}\x00{system_text}\x00{user_text}".encode("utf-8")).digest()
    first_attempt = reminder_marker not in user_text
    malformed = first_attempt and int.from_bytes(h[:8], "big") < MALFORMED_SHARE * 2**64
    jitter = int.from_bytes(h[8:16], "big") / 2**64
    return malformed, (LATENCY_BASE_MS + LATENCY_JITTER_MS * jitter) / 1000.0


class StubState:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.inflight = 0
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.malformed = 0
        self.service_s = 0.0
        self.inflight_max = 0
        self.digests: list[str] = []

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "malformed": self.malformed,
            "service_s": self.service_s,
            "inflight_max": self.inflight_max,
            "request_digest": text_set_digest(self.digests),
        }


def make_server(corpus_dir: Path, split_file: Path, seed: int) -> ThreadingHTTPServer:
    respond = gold_echo_responder(load_corpus(corpus_dir, split_file))
    marker = FORMAT_REMINDER.split("{")[0]
    state = StubState()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib signature
            pass

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + body)  # one write per response

        def do_GET(self) -> None:
            if not self.path.startswith("/stats"):
                self._send(404, {"error": "not found"})
                return
            with state.lock:
                snapshot = state.snapshot()
                state.reset()
            self._send(200, snapshot)

        def do_POST(self) -> None:
            body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
            started = time.monotonic()
            with state.lock:
                state.inflight += 1
                state.inflight_max = max(state.inflight_max, state.inflight)
            try:
                payload = json.loads(body)
                messages = {m["role"]: m["content"] for m in payload["messages"]}
                request = ChatRequest(
                    system_text=messages.get("system", ""),
                    user_text=messages["user"],
                    model_name=payload["model"],
                    temperature=float(payload.get("temperature", 0.0)),
                    max_output_tokens=int(payload.get("max_tokens", 1024)),
                )
                malformed, latency = stub_behaviour(
                    seed, request.system_text, request.user_text, marker
                )
                text = MALFORMED_ANSWER if malformed else respond(request)
                time.sleep(latency)
            except (KeyError, TypeError, ValueError) as exc:
                with state.lock:
                    state.inflight -= 1
                self._send(400, {"error": str(exc)})
                return
            # Count before answering, so a /stats that follows the answer sees this request.
            with state.lock:
                state.inflight -= 1
                state.requests += 1
                state.malformed += int(malformed)
                state.service_s += time.monotonic() - started
                state.digests.append(request_text_digest(request.system_text, request.user_text))
            self._send(200, {
                "object": "chat.completion",
                "model": request.model_name,
                "choices": [{"index": 0, "finish_reason": "stop",
                             "message": {"role": "assistant", "content": text}}],
                "usage": {"prompt_tokens": len(request.user_text.split()),
                          "completion_tokens": len(text.split())},
            })

    class Server(ThreadingHTTPServer):
        daemon_threads = True
        # At most one handler thread per CPU; further connections wait in the backlog.
        slots = threading.BoundedSemaphore(os.cpu_count() or 1)

        def process_request(self, request, client_address) -> None:
            self.slots.acquire()
            super().process_request(request, client_address)

        def process_request_thread(self, request, client_address) -> None:
            try:
                super().process_request_thread(request, client_address)
            finally:
                self.slots.release()

    return Server(("127.0.0.1", 0), Handler)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("corpus_dir", type=Path)
    parser.add_argument("split_file", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    server = make_server(args.corpus_dir, args.split_file, args.seed)
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    sys.exit(0)


if __name__ == "__main__":
    main()
