"""Shared fixtures: handcrafted essays with frozen offsets, synthetic corpora, and a
local OpenAI-compatible server."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import socket
import ssl
import sys
import threading
import time
from collections import Counter, deque
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import pytest

from atc_icl import cli
from atc_icl.corpus import Corpus, Essay, Label, load_corpus, parse_essay
from atc_icl.gateway import (BackendTag, ChatRequest, ChatResponse, EmbeddingVector, HashEmbeddingBackend,
                             HttpSession, Usage, embedding_digest)
from atc_icl.mocks import gold_echo_responder
from atc_icl.prompting import FORMAT_REMINDER
from atc_icl.synth import PE_SHAPE, SPLIT_FILE_NAME, generate_corpus, small_shape

# Handcrafted essay with offsets computed independently of the parser
# (frozen from str.index over the literal text).
PARK_TEXT = (
    "Keeping city parks open at night\n"
    "\n"
    "Many residents enjoy parks. City parks should stay open at night.\n"
    "Night closures reduce access for shift workers. Parks calm busy minds, "
    "and they cost little to keep open.\n"
    "In short, open parks help everyone. Open parks are a small investment, "
    "e.g. modest lighting costs.\n"
)
PARK_ANN = (
    "T1\tMajorClaim 62 98\tCity parks should stay open at night\n"
    "T2\tClaim 100 146\tNight closures reduce access for shift workers\n"
    "T3\tPremise 175 204\tthey cost little to keep open\n"
    "T4\tClaim 216 240\topen parks help everyone\n"
    "R1\tsupports Arg1:T3 Arg2:T2\n"
    "A1\tStance T1 For\n"
)


def build_essay_files(title: str, paragraphs: list[list[tuple[str, Label | None]]]) -> tuple[str, str]:
    """Assemble (.txt, .ann) contents from labeled text segments.

    Each paragraph is a list of (text, label) segments concatenated verbatim;
    a non-None label marks the segment as an argument component. Offsets are
    computed here, independently of the parser under test.
    """
    raw = title + "\n\n"
    entities = []
    for paragraph in paragraphs:
        for segment, label in paragraph:
            if label is not None:
                entities.append((label, len(raw), len(raw) + len(segment), segment))
            raw += segment
        raw += "\n"
    ann_lines = [
        f"T{i}\t{label.value} {start} {end}\t{segment}"
        for i, (label, start, end, segment) in enumerate(entities, start=1)
    ]
    return raw, "\n".join(ann_lines) + ("\n" if ann_lines else "")


def build_essay(essay_id: str, title: str, paragraphs: list[list[tuple[str, Label | None]]]) -> Essay:
    text, ann = build_essay_files(title, paragraphs)
    return parse_essay(text, ann, essay_id)


def simple_essay(essay_id: str, title: str, labels: list[Label]) -> Essay:
    """One-paragraph-per-component essay for selection/prompting tests."""
    paragraphs = [
        [("Opening line about the topic. ", None), (f"statement number {i} holds", label), (".", None)]
        for i, label in enumerate(labels, start=1)
    ]
    return build_essay(essay_id, title, paragraphs)


def user_texts(prompt) -> tuple[str, ...]:
    """The user text of each of ``prompt``'s calls: its context followed by one instruction."""
    return tuple("".join(prompt.pieces) + instruction for instruction in prompt.instructions)


def rebuilt(request: ChatRequest, **changes) -> ChatRequest:
    """A request built through the constructor from the five fields of ``request``, with ``changes``."""
    fields = dict(system_text=request.system_text, user_text=request.user_text, model_name=request.model_name,
                  temperature=request.temperature, max_output_tokens=request.max_output_tokens)
    return ChatRequest(**{**fields, **changes})


# How a chat record that names a context file starts, up to that file's digest; how it goes on
# after the digest, up to the escaped rest of its user text; how a context file ends after its escaped user text.
CONTEXT_RECORD_HEAD = b'{\n  "request": {\n    "context": "'
CONTEXT_RECORD_REST = b'",\n    "user_text_rest": "'
CONTEXT_FILE_END = b'"\n  }\n}\n'


def inline_chat_record(store: Path, data: bytes) -> bytes:
    """The bytes of the chat record ``data`` of ``store`` as a request built whole gets them.

    A record that names a context file gets its bytes up to the escaped rest
    of its user text replaced by the context file's bytes up to the end of
    its escaped user text; any other record is returned as it is.
    """
    if not data.startswith(CONTEXT_RECORD_HEAD):
        return data
    end = len(CONTEXT_RECORD_HEAD) + 64  # of the context file's digest
    assert data.startswith(CONTEXT_RECORD_REST, end)
    context = (store / "chat-context" / f"{data[end - 64 : end].decode('ascii')}.json").read_bytes()
    assert context.endswith(CONTEXT_FILE_END)
    return context[: -len(CONTEXT_FILE_END)] + data[end + len(CONTEXT_RECORD_REST) :]


def inline_chat_records(store: Path) -> dict[str, bytes]:
    """Every chat record of ``store`` by its file name, as :func:`inline_chat_record` rebuilds it."""
    return {path.name: inline_chat_record(store, path.read_bytes()) for path in (store / "chat").iterdir()}


class MappingEmbeddingBackend:
    """Mock embeddings from an explicit text-to-vector mapping."""

    def __init__(self, mapping: dict[str, Sequence[float]], model_name: str = "mock-embed") -> None:
        self.mapping = mapping
        self.model_name = model_name
        self.calls = 0

    def embed(self, text: str) -> tuple[EmbeddingVector, BackendTag]:
        self.calls += 1
        if text not in self.mapping:
            raise RuntimeError(f"mock embedding backend has no vector for {text!r}")
        vector = EmbeddingVector(
            values=tuple(float(x) for x in self.mapping[text]),
            source_text_digest=embedding_digest(self.model_name, text),
        )
        return vector, BackendTag.MOCK


class ScriptedChatBackend:
    """Mock chat answers taken in order from a fixed list."""

    def __init__(self, script: Sequence[str]) -> None:
        self.script = list(script)
        self.calls = 0

    def complete(self, request) -> ChatResponse:
        self.calls += 1
        if not self.script:
            raise RuntimeError("scripted chat backend has no response left")
        return ChatResponse(text=self.script.pop(0), usage=Usage(), backend_tag=BackendTag.MOCK)


@pytest.fixture()
def park_essay() -> Essay:
    return parse_essay(PARK_TEXT, PARK_ANN, "essay001")


def write_corpus_dir(root: Path, essays: dict[str, tuple[str, str]], split: dict[str, str]) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    for essay_id, (text, ann) in essays.items():
        (root / f"{essay_id}.txt").write_text(text, encoding="utf-8")
        (root / f"{essay_id}.ann").write_text(ann, encoding="utf-8")
    lines = ['"ID";"SET"'] + [f'"{eid}";"{tag}"' for eid, tag in split.items()]
    (root / SPLIT_FILE_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return root


@pytest.fixture(scope="session")
def synth_dir(tmp_path_factory) -> Path:
    """Full-size synthetic corpus matching the published dataset shape."""
    out = tmp_path_factory.mktemp("synth-full")
    generate_corpus(out, PE_SHAPE, seed=20240817)
    return out


@pytest.fixture(scope="session")
def synth_corpus(synth_dir: Path) -> Corpus:
    return load_corpus(synth_dir, synth_dir / SPLIT_FILE_NAME)


@pytest.fixture(scope="session")
def small_dir(tmp_path_factory) -> Path:
    """Twelve-essay synthetic corpus (8 train / 4 test) for quick CLI runs."""
    out = tmp_path_factory.mktemp("synth-small")
    generate_corpus(out, small_shape(12, 8), seed=7)
    return out


@pytest.fixture(scope="session")
def small_corpus(small_dir: Path) -> Corpus:
    return load_corpus(small_dir, small_dir / SPLIT_FILE_NAME)


class Invocation(NamedTuple):
    """What ``atc-icl argv`` did: its exit code, what it printed, and what its command raised (None if nothing)."""

    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(argv: list[str], catch_exceptions: bool = True) -> Invocation:
    """Run ``cli.main(argv)`` in standalone mode, as the ``atc-icl`` script does, and capture stdout and stderr.

    What the command raised is kept as ``exception``, whether ``main`` reported it as an ``error:`` line or let it
    through, as a bug, which a process exits 1 on; with ``catch_exceptions=False`` it is raised here instead. It is
    seen through each command's ``callback``, which ``main`` looks up at each call.
    """
    raised: list[BaseException] = []

    def recording(callback):
        def call(**kwargs):
            try:
                return callback(**kwargs)
            except BaseException as exc:
                raised.append(exc)
                raise
        return call

    callbacks = {name: command.callback for name, command in cli.COMMANDS.items()}
    out, err = io.StringIO(), io.StringIO()
    try:
        for name, callback in callbacks.items():
            cli.COMMANDS[name].callback = recording(callback)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            exit_code = cli.main(argv)
    except Exception as exc:  # what main lets through: the process would exit 1 with its traceback
        exit_code, raised = 1, raised or [exc]
    finally:
        for name, callback in callbacks.items():
            cli.COMMANDS[name].callback = callback
    if raised and not catch_exceptions:
        raise raised[0]
    return Invocation(exit_code, out.getvalue(), err.getvalue(), raised[0] if raised else None)


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        print(f"[acceptance] {name}: {status}", flush=True)


class OpenAIServer:
    """An OpenAI-compatible endpoint on 127.0.0.1 for live runs, in a thread of this process.

    ``POST /chat/completions`` answers with the query essay's gold labels (gold
    echo) after ``latency_s``, except that a seeded ``malformed_share`` of first
    attempts (requests without a format reminder) get an answer that does not
    parse, so that the reminder retry runs. Usage is the word count of the
    user text and of the answer. A user text for which ``fail_when`` holds is
    answered 400. ``POST /embeddings`` serves the hash embedder's vectors at
    ``dim``. While ``answers`` holds canned (status, headers, raw body)
    answers, each POST is answered with the next one instead; a canned
    ``None`` hangs up without an answer.
    ``requests`` counts the requests per (path, text), ``received`` lists each
    request's target, headers and JSON body as they arrived, ``connections``
    counts the connections accepted, and ``peak_connections`` the most open at
    once. Given a ``certfile`` and its ``keyfile``, it serves HTTPS.
    """

    KEY_ENV = "ATC_LOCAL_SERVER_KEY"
    MALFORMED = "Sorry, I cannot classify these."

    def __init__(self, corpus: Corpus, dim: int = 8, malformed_share: float = 0.25,
                 latency_s: float = 0.003, seed: int = 0, certfile: Path | None = None,
                 keyfile: Path | None = None) -> None:
        self.malformed_share = malformed_share
        self.fail_when: Callable[[str], bool] | None = None
        self.answers: deque[tuple[int, dict[str, str], bytes] | None] = deque()
        self.requests: Counter[tuple[str, str]] = Counter()
        self.received: list[tuple[str, Message, dict]] = []
        self.connections = 0
        self.peak_connections = 0
        self._open: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._closing = threading.Event()
        respond = gold_echo_responder(corpus)
        embedder = HashEmbeddingBackend(dim)
        reminder = FORMAT_REMINDER.split("{")[0]
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib signature
                pass

            def _send_raw(self, status: int, headers: dict[str, str], body: bytes) -> None:
                self.send_response(status)
                for name, value in {"Content-Type": "application/json", **headers}.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _send(self, status: int, payload: dict) -> None:
                self._send_raw(status, {}, json.dumps(payload).encode("utf-8"))

            def do_POST(self) -> None:
                payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                server.received.append((self.path, self.headers, payload))
                if server.answers:
                    answer = server.answers.popleft()
                    if answer is None:
                        self.close_connection = True
                    else:
                        self._send_raw(*answer)
                    return
                if self.path.endswith("/embeddings"):
                    (text,) = payload["input"]
                    server._count(self.path, text)
                    vector, _ = embedder.embed(text)
                    self._send(200, {"data": [{"embedding": list(vector.values)}]})
                    return
                messages = {m["role"]: m["content"] for m in payload["messages"]}
                user = messages["user"]
                server._count(self.path, user)
                server._closing.wait(latency_s)
                if server.fail_when is not None and server.fail_when(user):
                    self._send(400, {"error": "refused by the test"})
                    return
                draw = int.from_bytes(hashlib.sha256(f"{seed}\x00{user}".encode("utf-8")).digest()[:8], "big")
                if reminder not in user and draw < server.malformed_share * 2**64:
                    text = server.MALFORMED
                else:
                    text = respond(ChatRequest(messages["system"], user, payload["model"]))
                self._send(200, {
                    "choices": [{"message": {"role": "assistant", "content": text}}],
                    "usage": {"prompt_tokens": len(user.split()), "completion_tokens": len(text.split())},
                })

        class Server(ThreadingHTTPServer):
            daemon_threads = True

            def process_request(self, request, client_address) -> None:
                with server._lock:
                    server._open.add(request)
                    server.connections += 1
                    server.peak_connections = max(server.peak_connections, len(server._open))
                super().process_request(request, client_address)

            def process_request_thread(self, request, client_address) -> None:
                try:
                    super().process_request_thread(request, client_address)
                finally:
                    with server._lock:
                        server._open.discard(request)

            def handle_error(self, request, client_address) -> None:
                if not isinstance(sys.exc_info()[1], ConnectionError):  # a client that hung up
                    super().handle_error(request, client_address)

        self._server = Server(("127.0.0.1", 0), Handler)
        scheme = "http"
        if certfile is not None:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(certfile, keyfile)
            self._server.socket = context.wrap_socket(self._server.socket, server_side=True)
            scheme = "https"
        self.url = f"{scheme}://127.0.0.1:{self._server.server_address[1]}/v1"
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.01,), daemon=True)
        self._thread.start()

    def _count(self, path: str, text: str) -> None:
        with self._lock:
            self.requests[path.rsplit("/", 1)[-1], text] += 1

    def texts(self, kind: str) -> Counter[str]:
        """How often each text was asked of ``kind``, ``completions`` or ``embeddings``."""
        return Counter({text: n for (path, text), n in self.requests.items() if path == kind})

    def wait_closed(self) -> int:
        """Wait, at most 5 s, until no connection is open; return how many still are."""
        deadline = time.monotonic() + 5.0
        while self._open and time.monotonic() < deadline:
            time.sleep(0.005)
        return len(self._open)

    def reset(self) -> None:
        """Forget what was served, once the connections of earlier runs have closed."""
        self.wait_closed()
        with self._lock:
            self.requests.clear()
            self.peak_connections = len(self._open)

    def drop_connections(self) -> None:
        """Close every open connection from the server's side, as a server does to idle keep-alive ones."""
        with self._lock:
            open_now = list(self._open)
        for request in open_now:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self.wait_closed()

    def close(self) -> None:
        self._closing.set()
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()


@pytest.fixture()
def openai_server(small_corpus, monkeypatch):
    """A local OpenAI-compatible server over the small corpus; its key variable is set."""
    monkeypatch.setenv(OpenAIServer.KEY_ENV, "sk-local-test")
    server = OpenAIServer(small_corpus)
    yield server
    server.close()


@pytest.fixture()
def session(openai_server):
    """An :class:`HttpSession` to ``openai_server``."""
    session = HttpSession(openai_server.url, OpenAIServer.KEY_ENV)
    yield session
    session.close()
