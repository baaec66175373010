"""Uniform gateway to chat-completion and text-embedding services.

All network effects in the system pass through this module. Backends for
both chat and embeddings:

* live:   HTTP JSON calls through an :class:`HttpSession`, the run's one
          OpenAI-compatible endpoint, bound to its ``base_url``,
* mock:   computed responses for tests and offline runs
          (the hash embeddings are the offline embedding mock),
* store:  :class:`StoreChatBackend` and :class:`StoreEmbeddingBackend` serve
          answers from an on-disk :class:`ResponseStore`. Given an upstream
          backend they act as the read-through *cache* (one upstream fetch per
          distinct request, ever); given none they act as *replay*, where a
          miss is fatal and never falls through to the network.

The store is content-addressed: chat records are keyed by a digest over
(model name, system text, user text, temperature, max output tokens),
embeddings by a digest over (model name, text), so recorded fixtures can be
committed to a repository and replayed bit-identically. A request keeps its
hash state and the bytes its chat record starts with, and
:meth:`ChatRequest.extend` carries them on, so the requests of one prompting
round, extended from one request over the context they share, hash and
escape only their own instructions; their digests are the same as without it.
:meth:`ResponseStore.get_chat` serves a hit by comparing the record's request
half with the request byte for byte and parsing only the answer; a record of
another layout is parsed whole, and one recorded for another request is
refused. A round context that several requests share is filed once, and an
extended request joins its user text only when something reads it, so a
replayed one-by-one round reads and compares its context once.
An embedding record holds its vector as packed little-endian float64 (hex
text), so a replay reads it back with no decimal parsing; records written
earlier, with a JSON list of floats, still replay. ``atc-icl embed`` also
writes one *pack* per embedding model, a single file of every title's
float64 row and of the norms of and distances between those rows, from which
a kNN replay ranks the whole pool without opening a record or unpacking a
vector per title.
:class:`Gateway` counts the calls each (operation, backend tag) served, and
retries transport errors and 429s with jittered exponential backoff, waiting
at least as long as a 429's ``Retry-After`` unless it asks for more than
:data:`MAX_RETRY_AFTER_S`.

A live run asks several essays at once, one thread each, so backends and a
store may be shared between threads. Each thread counts on a
:class:`Gateway` of its own over the shared backends. The live backends of
one run share its one :class:`HttpSession`, which keeps one keep-alive
connection to ``base_url`` for each thread that posts, so a run holds at most
as many as it has threads. A
:class:`StoreEmbeddingBackend` fetches a missed text under a lock, after
reading the store again, so threads that miss the same title at once fetch
it once. Store writes go through uniquely named temp files.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import itertools
import json
import math
import operator
import os
import random
import select
import struct
import threading
import time
import urllib.parse
import weakref
from collections import Counter
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, MutableMapping, NamedTuple, Protocol, Sequence

from .errors import AtcError, masked_url


class TransportError(AtcError):
    """Network-level failure; retriable."""


class RateLimited(AtcError):
    """The remote endpoint throttled the request; retriable.

    ``retry_after`` is the wait in seconds the endpoint asked for, if it named one.
    """

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ReplayMiss(AtcError):
    """Replay backend has no recorded entry for the request; fatal."""


class GatewayConfigError(AtcError):
    """Gateway misconfiguration (missing key, bad endpoint, bad request)."""


class DimensionMismatch(AtcError):
    """Cosine similarity over vectors of different lengths."""


class ZeroNorm(AtcError):
    """Cosine similarity is undefined for zero-norm vectors."""


class NonFiniteCosine(AtcError):
    """A vector has a non-finite entry, or a norm or dot product overflows."""


class BackendTag(Enum):
    LIVE = "live"
    CACHE = "cache"
    REPLAY = "replay"
    MOCK = "mock"

    # Members are singletons compared by identity; Enum's own __hash__ is Python code run on every count.
    __hash__ = object.__hash__


class Usage(NamedTuple):
    prompt_tokens: int = 0
    completion_tokens: int = 0


def escape_piece(text: str) -> bytes:
    """The UTF-8 of ``text`` as JSON writes it inside quotes, non-ASCII characters as they are.

    This is what a :class:`ChatRequest` hashes for ``text``. A lone surrogate has no
    UTF-8 and raises :class:`UnicodeEncodeError`.
    """
    return json.dumps(text, ensure_ascii=False)[1:-1].encode("utf-8")


def _render_record(record: dict) -> str:
    """A store record as it is written to its file."""
    return json.dumps(record, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


# How a chat record (see _render_record) goes on after the escaped user text,
# up to its response, and how it ends after the response.
_CHAT_RECORD_MIDDLE = b'"\n  },\n  "response": '
_CHAT_RECORD_END = b"\n}\n"
# Decodes one JSON value that starts at the first character: json.loads with no whitespace skipped around it.
_decode_json = json.JSONDecoder().raw_decode
# How the record of a request extended from a shared round context starts, up
# to the digest that names the context's file, and goes on up to the escaped
# rest of its user text; and how a context file ends after its escaped user text.
_CONTEXT_RECORD_HEAD = b'{\n  "request": {\n    "context": "'
_CONTEXT_RECORD_REST = b'",\n    "user_text_rest": "'
_CONTEXT_FILE_END = b'"\n  }\n}\n'


def _request_fields(request: ChatRequest, user_text: str) -> dict:
    """The ``request`` object of a chat record."""
    return {
        "model_name": request.model_name,
        "system_text": request.system_text,
        "user_text": user_text,
        "temperature": request.temperature,
        "max_output_tokens": request.max_output_tokens,
    }


class ChatRequest:
    """One chat completion request.

    Its store key (see :func:`chat_request_digest`) ends with its user text,
    and so does the part of its chat record before the response. JSON escapes
    each character on its own, so the escape of a user text that goes on is
    the escape of the text before followed by that of the rest. So the
    request keeps the SHA-256 state after its digest payload up to the end of
    the escaped user text, and its record's bytes up to the same point, both
    made on first use, and :meth:`extend` carries them on by the rest alone.
    The requests of one prompting round are extended from one request over
    the round's shared context, so each hashes and escapes only its own
    instruction. An extended request keeps its user text as the pieces it
    was extended by, and joins them when the text is first read, so a
    request that only a store serves never copies the context. None of this
    takes part in equality, hash or repr, or is stored. What is set after a
    request is made (its key, its joined text, and on a shared context the
    store that checked its file) is set whole, and threads that race to set
    it set values that hold alike, so threads may share a request.
    """

    _fields = ("system_text", "user_text", "model_name", "temperature", "max_output_tokens")
    # The hash state and the record's UTF-8 in chunks, None until first keyed (see _key).
    _state: hashlib._Hash | None = None
    _record_start: tuple[bytes, ...] | None = None
    # An extended request's user text, in pieces; it is joined on first read (see __getattr__).
    _text_parts: tuple[str, ...] | None = None
    # For a round context that several requests extend (see extend's shared): what each of their
    # chat records holds before its own escaped part. It names the context's file (see ResponseStore).
    _shared: bytes | None = None
    # The shared round context this request was extended from, if any.
    _context: ChatRequest | None = None
    # On a shared context: the store whose context file was found or written to hold it.
    _checked: ResponseStore | None = None

    def __init__(self, system_text: str, user_text: str, model_name: str, temperature: float = 0.0,
                 max_output_tokens: int = 1024) -> None:
        if not math.isfinite(temperature) or temperature < 0:
            raise ValueError(f"temperature must be finite and non-negative, not {temperature!r}")
        if max_output_tokens <= 0:
            raise ValueError("max_output_tokens must be positive")
        self.__dict__.update(system_text=system_text, user_text=user_text, model_name=model_name,
                             temperature=temperature, max_output_tokens=max_output_tokens)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is ChatRequest else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"ChatRequest({', '.join(map('{}={!r}'.format, self._fields, self._values()))})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __getattr__(self, name: str):
        # Called only for what the instance lacks: an extended request's user text before its first read.
        if name != "user_text" or self._text_parts is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        text = "".join(self._text_parts)
        object.__setattr__(self, "user_text", text)
        return text

    def extend(
        self, pieces: Sequence[str], escapes: MutableMapping[str, bytes] | None = None, shared: bool = False
    ) -> ChatRequest:
        """The request of these fields whose user text is this one's followed by ``pieces``.

        Each piece is escaped by :func:`escape_piece` through ``escapes``, a
        memo keyed by the piece's text, which a caller keeps for pieces that
        recur. Only those escapes are hashed and appended, so the new
        request's digest and record are those of a request built with the
        whole user text at once.

        ``shared`` marks the new request as a round context that more than
        one request extends: a :class:`ResponseStore` then files its text
        once, and the records of those requests hold only their own parts.
        """
        if escapes is None:
            escapes = {}
        parts = []
        for piece in pieces:
            escaped = escapes.get(piece)
            if escaped is None:
                escaped = escapes[piece] = escape_piece(piece)
            parts.append(escaped)
        tail = b"".join(parts)
        state, record_start = self._key()
        state = state.copy()
        state.update(tail)
        # Built without copy.copy or __init__, which would check the fields again: this is on every chat call.
        request = object.__new__(ChatRequest)
        request.__dict__.update(
            system_text=self.system_text, model_name=self.model_name, temperature=self.temperature,
            max_output_tokens=self.max_output_tokens, _state=state, _record_start=(*record_start, tail),
            _text_parts=(*(self._text_parts or (self.user_text,)), *pieces),
            _context=self if self._shared is not None else self._context,
        )
        if shared:
            head = (_CONTEXT_RECORD_HEAD, chat_request_digest(request).encode("ascii"), _CONTEXT_RECORD_REST)
            object.__setattr__(request, "_shared", b"".join(head))
        return request

    def _key(self) -> tuple[hashlib._Hash, tuple[bytes, ...]]:
        """The hash state and record chunks of the request, made on first use.

        Threads that race to make them keep equal values, so no lock is taken.
        """
        if self._state is None:
            fields = {
                "model": self.model_name,
                "system": self.system_text,
                "temperature": self.temperature,
                "max_output_tokens": self.max_output_tokens,
                "user": "",
            }
            # "user" sorts last: the payload ends with its opening quote, then '"}'.
            head = json.dumps(fields, sort_keys=True, ensure_ascii=False)[:-2]
            # "user_text" sorts last too: the record so far ends with its opening quote.
            record_head = _render_record({"request": _request_fields(self, "")})[: -len('"\n  }\n}\n')]
            escaped = escape_piece(self.user_text)
            object.__setattr__(self, "_record_start", (record_head.encode("utf-8"), escaped))
            object.__setattr__(self, "_state", hashlib.sha256(head.encode("utf-8") + escaped))
        return self._state, self._record_start


class ChatResponse(NamedTuple):
    text: str
    usage: Usage
    backend_tag: BackendTag


class EmbeddingVector:
    """A text's embedding and the digest it is stored under; equal in both, and never assigned."""

    def __init__(self, values: tuple[float, ...], source_text_digest: str) -> None:
        self.__dict__.update(values=values, source_text_digest=source_text_digest)

    def __eq__(self, other: object) -> bool:
        if type(other) is not EmbeddingVector:
            return NotImplemented
        return (self.values, self.source_text_digest) == (other.values, other.source_text_digest)

    def __hash__(self) -> int:
        return hash((self.values, self.source_text_digest))

    def __repr__(self) -> str:
        return f"EmbeddingVector(values={self.values!r}, source_text_digest={self.source_text_digest!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    @functools.cached_property
    def norm(self) -> float:
        """Euclidean length, computed on first use and kept with the vector."""
        return math.sqrt(math.fsum(map(operator.mul, self.values, self.values)))


def chat_request_digest(request: ChatRequest) -> str:
    """The store key of ``request``: SHA-256 of the UTF-8 of ``json.dumps({"max_output_tokens",
    "model", "system", "temperature", "user"}, sort_keys=True, ensure_ascii=False)``.

    It finishes the request's hash state (see :class:`ChatRequest`) with the payload's closing ``"}``.
    """
    state = request._key()[0].copy()
    state.update(b'"}')
    return state.hexdigest()


def embedding_digest(model_name: str, text: str) -> str:
    return hashlib.sha256(f"{model_name}\x00{text}".encode("utf-8")).hexdigest()


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """dot(a, b) / (|a| |b|), clamped into [-1, 1].

    An inf or NaN entry or an overflowing norm makes the product of the norms
    inf or NaN (inf * 0 is NaN), so that product and the dot product are checked.
    """
    if len(a.values) != len(b.values):
        raise DimensionMismatch(f"{len(a.values)} vs {len(b.values)}")
    try:
        norms = a.norm * b.norm
        dot = math.fsum(map(operator.mul, a.values, b.values))
        finite = math.isfinite(norms) and math.isfinite(dot)
    except (OverflowError, ValueError):  # fsum overflowed, or met both +inf and -inf
        finite = False
    if not finite:
        digests = f"{a.source_text_digest} and {b.source_text_digest}"
        raise NonFiniteCosine(f"cosine of embeddings {digests} is not finite: inf or NaN entry, or overflow")
    if a.norm == 0.0 or b.norm == 0.0:
        raise ZeroNorm("cosine similarity undefined for zero-norm vectors")
    return max(-1.0, min(1.0, dot / norms))


def write_atomic(path: Path, data: str | bytes | Iterable[bytes]) -> None:
    """Replace ``path`` with ``data`` so no reader or crash sees a partial file.

    ``data`` is text (written as UTF-8), bytes, or chunks of bytes, which are
    written in order as they are made. The data goes to a uniquely named
    temp file next to ``path``, which is then renamed over it; on any
    failure, one in making a chunk too, the temp file is removed and
    ``path`` keeps its previous content.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as handle:
            for chunk in [data] if isinstance(data, bytes) else data:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# The bytes one read of a store record asks for; a chat record takes one read and one more for EOF.
_READ_SIZE = 1 << 16


def _close_descriptors(fds: dict[str, int]) -> None:
    while fds:
        os.close(fds.popitem()[1])


class ResponseStore:
    """Content-addressed on-disk store of request/response JSON records.

    Layout: ``<dir>/chat/<digest>.json`` and ``<dir>/embed/<digest>.json``,
    where the store works each digest out from what the record holds (see
    :func:`chat_request_digest` and :func:`embedding_digest`). Each chat record
    keeps the full request next to the response so fixtures are auditable, and
    a read checks it against the request asked (see :meth:`get_chat`). A
    request extended from a shared round context (see
    :meth:`ChatRequest.extend`) is recorded in two parts: the context once, as
    ``<dir>/chat-context/<digest>.json``, the record of the context request
    with no response, and a record ``{"request": {"context",
    "user_text_rest"}, "response"}`` naming that file by its digest. Its
    bytes up to the escape of ``user_text_rest``, replaced by the context
    file's up to the end of its user text's escape, are the record of the
    request built whole. Each
    embedding record keeps its model name and text next to ``vector_f64``, the
    vector as little-endian IEEE-754 float64 in hex text. :meth:`get_embedding`
    reads it back, as it does a record written before vectors were packed,
    whose ``vector`` is a JSON float list.

    ``embed/`` may also hold one pack per embedding model (see
    :meth:`embedding_pack_path`): a JSON header line ``{"digests", "dim",
    "distances", "model_name"}`` followed by one row of ``dim`` little-endian
    float64 values per listed digest, in header order, and then, when
    ``distances`` is true, the distance block of those rows (see
    :class:`_EmbeddingPack`). The pack headers are read on the first
    embedding read, and a digest a pack lists is served from its row; any
    other digest falls back to its record. Records and packs are written with
    :func:`write_atomic`, so writers that share a store, in one process or
    several, never see or leave a partial file.

    Records are read through a descriptor of their kind's directory, opened
    on the first read that finds the directory; :meth:`close` releases them,
    and so does a store that goes unclosed, when it goes, as a pack does.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        # "<dir><digest>.json" names a record. A plain string: a Path would intern every
        # digest's file name, and the interpreter's intern table then grows, and resizes, with reads.
        self._dirs = {kind: os.path.join(self.root, kind, "") for kind in ("chat", "chat-context", "embed")}
        self._dir_fds: dict[str, int] = {}  # kind -> descriptor of its directory, once one was found
        weakref.finalize(self, _close_descriptors, self._dir_fds)
        # digest -> (pack, index of its row); None until the first embedding read
        self._pack_rows: dict[str, tuple[_EmbeddingPack, int]] | None = None

    def _read(self, kind: str, digest: str) -> bytes | None:
        """The bytes of a record, or None when there is no such file.

        Any other failure to read it (a directory in its place, a permission
        or I/O error) raises :class:`AtcError` naming the file.
        """
        # The record is opened by name in its kind's directory, so no read resolves the
        # store's path again, and read to EOF with no fstat. A directory not there yet is
        # looked for again on the next read: a cache run's first write makes it.
        try:
            dir_fd = self._dir_fds.get(kind)
            if dir_fd is None:
                dir_fd = os.open(self._dirs[kind], os.O_RDONLY | os.O_DIRECTORY)
                # Threads that open it at once all use the descriptor stored first.
                if self._dir_fds.setdefault(kind, dir_fd) != dir_fd:
                    os.close(dir_fd)
                    dir_fd = self._dir_fds[kind]
            fd = os.open(f"{digest}.json", os.O_RDONLY, dir_fd=dir_fd)
            try:
                chunks = []
                while chunk := os.read(fd, _READ_SIZE):
                    chunks.append(chunk)
            finally:
                os.close(fd)
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise AtcError(f"cannot read store record {self._dirs[kind]}{digest}.json: {exc.strerror or exc}") from exc
        return b"".join(chunks)

    def close(self) -> None:
        """Release the directory descriptors that reads opened; a later read opens them again."""
        _close_descriptors(self._dir_fds)

    def _parse(self, kind: str, digest: str, data: bytes) -> dict:
        try:
            return json.loads(data)
        except ValueError as exc:
            raise AtcError(f"corrupt store record {self._dirs[kind]}{digest}.json: {exc}") from exc

    def _write(self, kind: str, digest: str, data: str | bytes) -> None:
        os.makedirs(self._dirs[kind], exist_ok=True)
        write_atomic(Path(f"{self._dirs[kind]}{digest}.json"), data)

    def get_chat(self, request: ChatRequest) -> tuple[str, Usage] | None:
        """The response text and token counts stored for ``request``, or None.

        A record whose bytes up to the response are the ones :meth:`put_chat`
        writes for ``request``, or for the request built whole, and which ends
        as it writes it, is served by parsing only its response; one that
        names a context file compares only the request's own part, and the
        file once per round (see :meth:`_check_context`). Any other record,
        such as one of another layout, is parsed whole: one that does not
        decode raises :class:`AtcError` naming the file; one that lacks the
        answer, or holds it with the wrong types, or holds no request or
        another request than ``request``, raises :class:`AtcError` naming the
        digest.
        """
        digest = chat_request_digest(request)
        data = self._read("chat", digest)
        if data is None:
            return None
        # A record naming the context's file holds its _shared in place of the context's own chunks.
        context = request._context
        if context is not None and data.startswith(context._shared):
            start = _after(data, request._record_start, len(context._record_start), len(context._shared))
        else:
            context, start = None, _after(data, request._record_start)
        if start is not None and data.startswith(_CHAT_RECORD_MIDDLE, start) and data.endswith(_CHAT_RECORD_END):
            try:
                answer = data[start + len(_CHAT_RECORD_MIDDLE) : -len(_CHAT_RECORD_END)].decode("utf-8")
                response, end = _decode_json(answer)
            except ValueError:
                pass  # parsed whole below, which reports it
            else:
                if end == len(answer):
                    if context is not None:
                        self._check_context(context)
                    return _record_answer(response, digest)
        record = self._parse("chat", digest, data)
        if not isinstance(record, dict) or "response" not in record:
            raise AtcError(f"malformed chat record {digest}: no 'response' field")
        answer = _record_answer(record["response"], digest)
        self._check_record_request(record, request, digest)
        return answer

    def put_chat(self, request: ChatRequest, response: ChatResponse) -> None:
        """Write the record of ``request`` and ``response``.

        Its bytes are :func:`_render_record` of ``{"request", "response"}``,
        made from the record bytes the request keeps, so that
        :meth:`get_chat` reads back exactly what was written. The record of a
        request extended from a shared round context names the context's
        file, written first, once per context request.
        """
        usage = {"prompt_tokens": response.usage.prompt_tokens, "completion_tokens": response.usage.completion_tokens}
        answer = json.dumps({"text": response.text, "usage": usage}, sort_keys=True, ensure_ascii=False, indent=2)
        # A JSON string holds no raw newline, so this indents only the layout.
        answer = answer.replace("\n", "\n  ").encode("utf-8")
        context = request._context
        if context is None:
            start = request._key()[1]
        else:
            if context._checked is not self:
                text = b"".join((*context._record_start, _CONTEXT_FILE_END))
                self._write("chat-context", chat_request_digest(context), text)
                object.__setattr__(context, "_checked", self)
            start = _context_record_start(request)
        record = b"".join((*start, _CHAT_RECORD_MIDDLE, answer, _CHAT_RECORD_END))
        self._write("chat", chat_request_digest(request), record)

    def _check_context(self, context: ChatRequest) -> None:
        """Raise :class:`AtcError` naming the file unless the file of a shared round context holds it, byte for byte.

        A match is kept on the context request, so each store reads the file once per round.
        """
        if context._checked is self:
            return
        digest = chat_request_digest(context)
        data = self._read("chat-context", digest)
        expected = (*context._record_start, _CONTEXT_FILE_END)
        if data is None or _after(data, expected) != len(data):
            state = "is missing" if data is None else "does not hold the round context of the request asked"
            raise AtcError(f"chat context file {self._dirs['chat-context']}{digest}.json {state}")
        object.__setattr__(context, "_checked", self)

    def _check_record_request(self, record: dict, request: ChatRequest, digest: str) -> None:
        """Raise :class:`AtcError` unless the chat record holds ``request``, field for field.

        A record that names a context file holds the user text of the context
        file's request followed by its ``user_text_rest``.
        """
        stored = record.get("request")
        if not isinstance(stored, dict):
            raise AtcError(f"malformed chat record {digest}: no 'request' object")
        if "context" in stored:
            name, rest = stored["context"], stored.get("user_text_rest")
            # A digest, so that the name points into chat-context/ and nowhere else.
            if not isinstance(name, str) or len(name) != 64 or name.strip("0123456789abcdef"):
                raise AtcError(f"malformed chat record {digest}: its context is not a digest")
            if not isinstance(rest, str):
                raise AtcError(f"malformed chat record {digest}: no 'user_text_rest' string")
            path = f"{self._dirs['chat-context']}{name}.json"
            data = self._read("chat-context", name)
            if data is None:
                raise AtcError(f"chat record {digest} names the chat context file {path}, which is missing")
            context = self._parse("chat-context", name, data).get("request")
            if not isinstance(context, dict) or not isinstance(context.get("user_text"), str):
                raise AtcError(f"malformed chat context file {path}: no 'request' object with a 'user_text' string")
            stored = {**context, "user_text": context["user_text"] + rest}
        for name, value in _request_fields(request, request.user_text).items():
            if name not in stored:
                raise AtcError(f"malformed chat record {digest}: no {name!r} field")
            # The type too: 1024 and 1024.0 are different requests with different digests.
            if type(stored[name]) is not type(value) or stored[name] != value:
                raise AtcError(f"chat record {digest} was recorded for another request: its {name} differs")

    def get_embedding(self, digest: str) -> tuple[float, ...] | None:
        """The vector stored for ``digest``, bit for bit as it was stored, or None.

        A digest listed by a pack is read from its row; any other from its
        record file. A record that does not decode raises :class:`AtcError`
        naming the digest.
        """
        row = self._packs().get(digest)
        if row is not None:
            pack, index = row
            return pack.row(index)
        data = self._read("embed", digest)
        return None if data is None else _record_vector(self._parse("embed", digest, data), digest)

    def put_embedding(self, model_name: str, text: str, values: Sequence[float]) -> None:
        packed = struct.pack(f"<{len(values)}d", *values).hex()
        self._write("embed", embedding_digest(model_name, text), _render_record({"model_name": model_name, "text": text, "vector_f64": packed}))

    def embedding_pack_path(self, model_name: str) -> Path:
        """Where ``model_name``'s pack lives; the name never matches ``*.json``."""
        return self.root / "embed" / f"pack-{hashlib.sha256(model_name.encode('utf-8')).hexdigest()}.f64"

    def _packs(self) -> dict[str, tuple[_EmbeddingPack, int]]:
        if self._pack_rows is None:
            rows = {}
            embed_dir = self.root / "embed"
            try:
                with os.scandir(embed_dir) as entries:
                    names = sorted(e.name for e in entries if e.name.startswith("pack-") and e.name.endswith(".f64"))
            except OSError:
                names = []  # as Path.glob, a missing or unlistable directory holds no pack
            for name in names:
                path = embed_dir / name
                pack = _EmbeddingPack(path)
                if path != self.embedding_pack_path(pack.model_name):
                    raise AtcError(f"embedding pack {path} holds model {pack.model_name!r}, which is not filed there")
                for index, digest in enumerate(pack.digests):
                    rows[digest] = (pack, index)
            self._pack_rows = rows
        return self._pack_rows

    def embedding_distances(self, digest: str, others: Sequence[str]) -> list[tuple[float, float] | None] | None:
        """(|v|, |u - v|) for each of ``others`` whose vector v is a row of the pack that lists ``digest``, whose row is u.

        Both values are read from that pack's distance block, with one read
        for ``digest``'s distances; they are the floats ``math.hypot(*v)``
        and ``math.dist(u, v)`` return. A digest of ``others`` that the pack
        does not list gets None, and so does the whole list when no pack with
        a distance block lists ``digest``.
        """
        rows = self._packs()
        row = rows.get(digest)
        if row is None or row[0].norms is None:
            return None
        pack, index = row
        distances, norms = pack.distances(index), pack.norms
        found = []
        for other in others:
            row = rows.get(other)
            found.append((norms[row[1]], distances[row[1]]) if row is not None and row[0] is pack else None)
        return found

    def put_embedding_pack(self, model_name: str, digests: Iterable[str]) -> bool:
        """Rewrite ``model_name``'s pack with the rows it holds plus the vectors of ``digests``, and their distance block.

        Every row is read through :meth:`get_embedding`, so a digest with
        neither a pack row nor a record raises :class:`AtcError`, and all
        vectors must have one length. Returns False, and writes nothing, when
        there are no rows, or when the pack already holds exactly these rows
        and a distance block; that is decided from its header alone. The new
        pack is streamed to its temp file; the rows are held packed, and only
        a few of them unpacked at a time (see :func:`_distance_block`).
        """
        current = next((pack for pack, _ in self._packs().values() if pack.model_name == model_name), None)
        held = current.digests if current is not None else []
        order = list(dict.fromkeys([*held, *digests]))
        if not order or (len(order) == len(held) and current.norms is not None):
            return False
        rows = []
        encoder = None
        for digest in order:
            values = self.get_embedding(digest)
            if values is None:
                raise AtcError(f"no embedding record for digest {digest} to pack")
            if encoder is None:
                encoder = struct.Struct(f"<{len(values)}d")
            elif len(values) * 8 != encoder.size:
                raise AtcError(
                    f"embedding {digest} has {len(values)} values, but the pack of model"
                    f" {model_name!r} has rows of {encoder.size // 8}"
                )
            rows.append(encoder.pack(*values))
        fields = {"digests": order, "dim": encoder.size // 8, "distances": True, "model_name": model_name}
        header = (json.dumps(fields, sort_keys=True) + "\n").encode("utf-8")
        path = self.embedding_pack_path(model_name)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, itertools.chain([header], rows, _distance_block(rows, encoder)))
        self._pack_rows = None
        return True


# How many rows of a pack are unpacked at once while its distance block is made.
_PACK_CHUNK = 16


def _distance_block(rows: list[bytes], decoder: struct.Struct) -> Iterator[bytes]:
    """The distance block of a pack of ``rows``, in two chunks of little-endian float64 values.

    The first holds each row's ``math.hypot``; the second, row-major, the
    ``math.dist`` from each row to every row. ``math.dist`` is symmetric, so
    each pair is computed once, with at most _PACK_CHUNK + 1 rows unpacked.
    """
    n = len(rows)
    yield struct.pack(f"<{n}d", *(math.hypot(*decoder.unpack(row)) for row in rows))
    block = bytearray(8 * n * n)
    put = struct.Struct("<d").pack_into
    for start in range(0, n, _PACK_CHUNK):
        chunk = [decoder.unpack(row) for row in rows[start : start + _PACK_CHUNK]]
        for j in range(start, n):
            other = decoder.unpack(rows[j])
            for i, vector in enumerate(chunk[: j + 1 - start], start):
                distance = math.dist(vector, other)
                put(block, 8 * (i * n + j), distance)
                put(block, 8 * (j * n + i), distance)
    yield block


def _record_answer(response: object, digest: str) -> tuple[str, Usage]:
    """The answer of a chat record's parsed ``response``: its text and token counts."""
    try:
        text, usage = response["text"], response["usage"]
        prompt_tokens, completion_tokens = usage["prompt_tokens"], usage["completion_tokens"]
    except KeyError as exc:
        raise AtcError(f"malformed chat record {digest}: no {exc} field") from None
    except TypeError as exc:
        raise AtcError(f"malformed chat record {digest}: {exc}") from exc
    if type(text) is not str:
        raise AtcError(f"malformed chat record {digest}: text is {type(text).__name__}, not a string")
    if type(prompt_tokens) is not int or type(completion_tokens) is not int:
        raise AtcError(
            f"malformed chat record {digest}: token counts {(prompt_tokens, completion_tokens)} are not integers"
        )
    return text, Usage(prompt_tokens, completion_tokens)


def _context_record_start(request: ChatRequest) -> tuple[bytes, ...]:
    """The record bytes of a request extended from a shared round context, up to the end of its own escaped part."""
    context = request._context
    return (context._shared, *request._record_start[len(context._record_start) :])


def _after(data: bytes, chunks: Sequence[bytes], first: int = 0, start: int = 0) -> int | None:
    """Where ``data`` goes on after holding ``chunks[first:]``, one after another, from ``start``; None if it does not."""
    for index in range(first, len(chunks)):
        if not data.startswith(chunks[index], start):
            return None
        start += len(chunks[index])
    return start


def _record_vector(record: dict, digest: str) -> tuple[float, ...]:
    """The vector of an embedding record: packed ``vector_f64``, else a legacy ``vector`` float list."""
    try:
        if "vector_f64" in record:
            raw = bytes.fromhex(record["vector_f64"])
            if len(raw) % 8:
                raise ValueError(f"{len(raw)} bytes are not a whole number of float64 values")
            return struct.unpack(f"<{len(raw) // 8}d", raw)
        return tuple(map(float, record["vector"]))
    except KeyError:
        raise AtcError(f"malformed embedding record {digest}: no vector_f64 or vector field") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise AtcError(f"malformed embedding record {digest}: {exc}") from exc


class _EmbeddingPack:
    """One open pack file: its header, its rows read one at a time, and its distance block if it has one.

    A header whose ``distances`` is true declares the distance block after
    the rows, N + 1 rows of N little-endian float64 values for the N rows of
    the pack: first each row's ``math.hypot``, kept as :attr:`norms`, then,
    for each row, ``math.dist`` from it to every row, which
    :meth:`distances` reads. The file stays open, so a pack replaced after
    its header was read still serves the rows that header lists; it is closed
    when the object goes. A header that does not parse, or a length other
    than header + rows x dim x 8 bytes, plus (N + 1) x N x 8 with the block,
    raises :class:`AtcError` naming the file.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        handle = open(path, "rb")
        weakref.finalize(self, handle.close)
        self._fd = handle.fileno()
        line = handle.readline()
        if not line.endswith(b"\n"):
            raise AtcError(f"truncated embedding pack {path}: no complete header line")
        try:
            header = json.loads(line)
            self.model_name, dim, self.digests = header["model_name"], header["dim"], header["digests"]
            distances = header.get("distances", False)
            if not isinstance(self.model_name, str) or not isinstance(self.digests, list):
                raise TypeError("model_name must be a string and digests a list")
            if not all(isinstance(digest, str) for digest in self.digests):
                raise TypeError("every digest must be a string")
            if type(dim) is not int or dim < 0:
                raise TypeError(f"dim must be a non-negative integer, not {dim!r}")
            if type(distances) is not bool:
                raise TypeError(f"distances must be true or false, not {distances!r}")
            if len(set(self.digests)) != len(self.digests):
                raise ValueError("a digest is listed twice")
        except (ValueError, KeyError, TypeError) as exc:
            raise AtcError(f"corrupt embedding pack {path}: {exc}") from exc
        n = len(self.digests)
        self.decoder = struct.Struct(f"<{dim}d")
        self.first_row = len(line)
        self._block = self.first_row + n * self.decoder.size
        self._block_row = struct.Struct(f"<{n}d")
        size = os.fstat(self._fd).st_size
        expected = self._block + ((n + 1) * self._block_row.size if distances else 0)
        if size != expected:
            block = f" and their distance block of {n + 1} x {n}" if distances else ""
            raise AtcError(
                f"truncated or inconsistent embedding pack {path}: {size} bytes, but its header"
                f" lists {n} rows of {dim} float64 values{block} ({expected} bytes)"
            )
        self.norms = self._read(self._block, self._block_row) if distances else None

    def _read(self, offset: int, decoder: struct.Struct) -> tuple[float, ...]:
        raw = os.pread(self._fd, decoder.size, offset)
        if len(raw) != decoder.size:
            raise AtcError(f"truncated embedding pack {self.path}: row at byte {offset} is cut short")
        return decoder.unpack(raw)

    def row(self, index: int) -> tuple[float, ...]:
        return self._read(self.first_row + index * self.decoder.size, self.decoder)

    def distances(self, index: int) -> tuple[float, ...]:
        """``math.dist`` from row ``index`` to every row, in row order, from the distance block."""
        return self._read(self._block + (index + 1) * self._block_row.size, self._block_row)


class ChatBackend(Protocol):
    def complete(self, request: ChatRequest) -> ChatResponse: ...


class EmbeddingBackend(Protocol):
    model_name: str

    def embed(self, text: str) -> tuple[EmbeddingVector, BackendTag]: ...


class MockChatBackend:
    """Mock chat backend: each answer is what ``responder`` makes of the request."""

    def __init__(self, responder: Callable[[ChatRequest], str]) -> None:
        self._responder = responder

    def complete(self, request: ChatRequest) -> ChatResponse:
        return ChatResponse(text=self._responder(request), usage=Usage(), backend_tag=BackendTag.MOCK)


def _retry_after(value: str | None) -> float | None:
    """Seconds from a numeric ``Retry-After`` header; None when it is missing or not a number."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if math.isfinite(seconds) and seconds >= 0 else None


# Seconds a live request may take before it fails as a transport error.
HTTP_TIMEOUT_S = 120.0


def _closed_by_peer(sock) -> bool:
    """Whether an idle keep-alive socket has something to read: the server closed it, or broke protocol."""
    try:
        return bool(select.select([sock], [], [], 0)[0])
    except (OSError, ValueError):
        return True


class HttpSession:
    """The run's one endpoint: authenticated JSON POSTs to the OpenAI-compatible API at ``base_url``.

    Each thread that posts gets one keep-alive connection to ``base_url`` (or
    to its proxy), made on its first request and kept for the next ones; so
    the threads of a run bound its connections. A connection whose request
    failed, or that the server closed while it was idle, is closed before
    the thread's next request, which reopens it. A request is never sent
    twice: a failure raises :class:`TransportError`, which the
    :class:`Gateway` may retry.

    HTTPS verifies the certificate and the host name against one
    ``ssl.create_default_context()``: the system's trust store, or what
    ``SSL_CERT_FILE`` and ``SSL_CERT_DIR`` name. The proxy is read from the
    environment (``HTTP_PROXY``, ``HTTPS_PROXY``, ``NO_PROXY``) through
    ``urllib.request`` once, here: an ``http`` endpoint is reached through its
    proxy in absolute form, an ``https`` one through a ``CONNECT`` tunnel. A
    proxy variable that names no host and port raises
    :class:`GatewayConfigError`, with any user info in it masked. The API key
    is read from ``api_key_env`` on each request.
    """

    def __init__(self, base_url: str, api_key_env: str) -> None:
        # Imported here, so that a replay or mock run, which builds no session, never loads them.
        import http.client
        import urllib.request

        self.base_url = base_url.rstrip("/")
        self.api_key_env = api_key_env
        parts = urllib.parse.urlsplit(self.base_url)
        scheme, host, port = parts.scheme, parts.hostname, parts.port or (443 if parts.scheme == "https" else 80)
        self._target = parts.path  # what goes before each request's path
        self._headers = {"Content-Type": "application/json"}
        proxy = urllib.request.getproxies().get(scheme)
        if proxy and urllib.request.proxy_bypass(host):
            proxy = None
        address, auth = (host, port), {}
        if proxy:
            proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            try:
                proxy_port = proxy_url.port or 80
            except ValueError:  # a port that is not a number
                proxy_port = None
            if not proxy_url.hostname or proxy_port is None:
                raise GatewayConfigError(
                    f"the {scheme} proxy {masked_url(proxy)!r} set in the environment names no host and port"
                )
            address = (proxy_url.hostname, proxy_port)
            if proxy_url.username is not None:
                user = f"{urllib.parse.unquote(proxy_url.username)}:{urllib.parse.unquote(proxy_url.password or '')}"
                auth["Proxy-Authorization"] = "Basic " + base64.b64encode(user.encode("utf-8")).decode("ascii")
        if scheme == "http":
            if proxy:
                self._target = f"http://{parts.netloc}{parts.path}"
                self._headers.update(auth)
            self._connect = lambda: http.client.HTTPConnection(*address, timeout=HTTP_TIMEOUT_S)
        else:
            import ssl

            context = ssl.create_default_context()

            def connect():
                connection = http.client.HTTPSConnection(*address, timeout=HTTP_TIMEOUT_S, context=context)
                if proxy:
                    connection.set_tunnel(host, port, headers=auth)
                return connection

            self._connect = connect
        self._local = threading.local()  # this thread's connection
        self._opened: list = []  # every thread's, for close()
        self._lock = threading.Lock()

    def post(self, path: str, payload: dict) -> dict:
        """POST ``payload`` as JSON to ``base_url + path`` and return the decoded JSON answer.

        A missing API key, and an answer that is not 2xx and neither a 429
        nor a 5xx (a redirect, a 4xx), raise :class:`GatewayConfigError`. A
        429 raises :class:`RateLimited` with the wait its ``Retry-After``
        names. A 5xx, a body that is not JSON, and a connection or protocol
        failure (the timeout among them) raise :class:`TransportError`.
        """
        import http.client

        key = os.environ.get(self.api_key_env)
        if not key:
            raise GatewayConfigError(f"environment variable {self.api_key_env} is not set")
        headers = {**self._headers, "Authorization": f"Bearer {key}"}
        body = json.dumps(payload).encode("utf-8")
        connection = self._connection()
        try:
            connection.request("POST", self._target + path, body, headers)
            # http.client itself closes a connection whose answer says it will close.
            answer = connection.getresponse()
            status, retry_after, content = answer.status, answer.headers.get("Retry-After"), answer.read()
        except (OSError, http.client.HTTPException) as exc:
            connection.close()  # so that the next request opens it again
            raise TransportError(f"POST {self.base_url}{path}: {type(exc).__name__}: {exc}") from exc
        if status == 429:
            raise RateLimited(f"429 from {path}", _retry_after(retry_after))
        if status >= 500:
            raise TransportError(f"{status} from {path}")
        if not 200 <= status < 300:
            raise GatewayConfigError(f"{status} from {path}: {content.decode('utf-8', 'replace')[:200]}")
        try:
            return json.loads(content)
        except ValueError as exc:
            raise TransportError(f"non-JSON body from {path}: {exc}") from exc

    def _connection(self):
        """This thread's connection, made on its first request; closed first if the server closed it while idle.

        http.client reopens a closed connection on its next request.
        """
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._connect()
            with self._lock:
                self._opened.append(connection)
        elif connection.sock is not None and _closed_by_peer(connection.sock):
            connection.close()
        return connection

    def close(self) -> None:
        """Close every thread's connection; call it once no thread is posting."""
        with self._lock:
            opened = list(self._opened)
        for connection in opened:
            connection.close()


class LiveChatBackend:
    """OpenAI-compatible chat completions, asked through ``session``."""

    def __init__(self, session: HttpSession) -> None:
        self.session = session

    def complete(self, request: ChatRequest) -> ChatResponse:
        body = self.session.post(
            "/chat/completions",
            {
                "model": request.model_name,
                "messages": [
                    {"role": "system", "content": request.system_text},
                    {"role": "user", "content": request.user_text},
                ],
                "temperature": request.temperature,
                "max_tokens": request.max_output_tokens,
            },
        )
        try:
            text = body["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"message content is {type(text).__name__}, not a string")
            usage = body.get("usage") or {}
            tokens = Usage(int(usage.get("prompt_tokens", 0)), int(usage.get("completion_tokens", 0)))
        except (KeyError, IndexError, TypeError, AttributeError, ValueError, OverflowError) as exc:
            raise TransportError(f"malformed chat completion body: {exc}") from exc
        return ChatResponse(text=text, usage=tokens, backend_tag=BackendTag.LIVE)


class StoreChatBackend:
    """Chat answers served from a :class:`ResponseStore`.

    A stored answer comes back tagged ``CACHE`` when an upstream exists and
    ``REPLAY`` when none does. A miss asks the upstream once and stores its
    answer; with no upstream a miss raises :class:`ReplayMiss` and never
    falls through to the network.
    """

    def __init__(self, store: ResponseStore, upstream: ChatBackend | None = None) -> None:
        self.store = store
        self.upstream = upstream
        self._hit_tag = BackendTag.REPLAY if upstream is None else BackendTag.CACHE

    def complete(self, request: ChatRequest) -> ChatResponse:
        answer = self.store.get_chat(request)
        if answer is not None:
            return ChatResponse(*answer, self._hit_tag)
        if self.upstream is None:
            raise ReplayMiss(f"no recorded chat response for digest {chat_request_digest(request)}")
        response = self.upstream.complete(request)
        self.store.put_chat(request, response)
        return response


class HashEmbeddingBackend:
    """Deterministic pseudo-embeddings derived from a content hash.

    Gives offline runs a stable, platform-independent similarity structure
    with no semantic meaning. Vectors are unit-norm, never zero.
    """

    def __init__(self, dim: int = 8) -> None:
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.model_name = f"hash-embed-{dim}"

    def embed(self, text: str) -> tuple[EmbeddingVector, BackendTag]:
        seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
        rng = random.Random(seed)
        raw = [rng.gauss(0.0, 1.0) for _ in range(self.dim)]
        norm = math.sqrt(math.fsum(x * x for x in raw)) or 1.0
        vector = EmbeddingVector(
            values=tuple(x / norm for x in raw),
            source_text_digest=embedding_digest(self.model_name, text),
        )
        return vector, BackendTag.MOCK


class LiveEmbeddingBackend:
    """An OpenAI-compatible embeddings endpoint, asked through ``session``."""

    def __init__(self, session: HttpSession, model_name: str) -> None:
        self.session = session
        self.model_name = model_name

    def embed(self, text: str) -> tuple[EmbeddingVector, BackendTag]:
        body = self.session.post("/embeddings", {"model": self.model_name, "input": [text]})
        try:
            embedding = body["data"][0]["embedding"]
            # type(), not isinstance(): a bool is an int, but no vector entry.
            if type(embedding) is not list or not embedding or any(type(x) not in (int, float) for x in embedding):
                raise TypeError("embedding is not a non-empty list of numbers")
            values = tuple(map(float, embedding))
            if not all(map(math.isfinite, values)):
                raise ValueError("embedding has an inf or NaN entry")
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise TransportError(f"malformed embeddings body: {exc}") from exc
        vector = EmbeddingVector(values=values, source_text_digest=embedding_digest(self.model_name, text))
        return vector, BackendTag.LIVE


class StoreEmbeddingBackend:
    """Embeddings served from a :class:`ResponseStore`, keyed by ``model_name``.

    Hits, misses and tags behave as in :class:`StoreChatBackend`. With an
    upstream, ``model_name`` must be the upstream's, so that stored vectors
    are filed under the model that produced them. A miss reads the store again
    under a lock before it asks the upstream, so threads that miss one text
    at the same time fetch it once.
    """

    def __init__(
        self, store: ResponseStore, model_name: str, upstream: EmbeddingBackend | None = None
    ) -> None:
        self.store = store
        self.model_name = model_name
        self.upstream = upstream
        self._hit_tag = BackendTag.REPLAY if upstream is None else BackendTag.CACHE
        self._fetch_lock = threading.Lock()

    def embed(self, text: str) -> tuple[EmbeddingVector, BackendTag]:
        digest = embedding_digest(self.model_name, text)
        values = self.store.get_embedding(digest)
        if values is None:
            if self.upstream is None:
                raise ReplayMiss(f"no recorded embedding for digest {digest}")
            with self._fetch_lock:
                values = self.store.get_embedding(digest)  # another thread may have fetched it
                if values is None:
                    vector, tag = self.upstream.embed(text)
                    self.store.put_embedding(self.model_name, text, vector.values)
                    return vector, tag
        return EmbeddingVector(values=values, source_text_digest=digest), self._hit_tag


# Earlier names, still imported by perfbench/.
CacheChatBackend = StoreChatBackend
ReplayEmbeddingBackend = StoreEmbeddingBackend


# The longest Retry-After a run waits for; a 429 asking for more fails at once.
MAX_RETRY_AFTER_S = 300.0


class RetryPolicy:
    """Bounded exponential backoff with jitter, on transport and rate-limit errors only.

    The wait after the i-th failed attempt (from 0) is ``draw(b / 2, b)`` with
    ``b = base_delay * 2**i``, a uniform draw by default, so that threads
    which fail together do not retry together. A 429 that names a
    ``Retry-After`` waits at least that long, unless it asks for more than
    :data:`MAX_RETRY_AFTER_S`, which is not retried.
    """

    def __init__(self, attempts: int = 3, base_delay: float = 1.0, sleep: Callable[[float], None] = time.sleep,
                 draw: Callable[[float, float], float] = random.uniform) -> None:
        self.attempts = attempts
        self.base_delay = base_delay
        self.sleep = sleep
        self.draw = draw

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)


class Gateway:
    """Facade over one chat backend and one embedding backend.

    Counts calls per (operation, backend tag) so tests and run manifests can
    assert which backends actually served a run, in particular that
    replay-only runs performed zero network operations. ``tokens`` adds up
    the ``prompt`` and ``completion`` token counts of every chat response; a
    stored answer carries the counts its record holds. ``session`` is the
    :class:`HttpSession` the live backends share, if the gateway owns one;
    :meth:`close` closes it.
    """

    def __init__(self, chat_backend: ChatBackend | None = None, embedding_backend: EmbeddingBackend | None = None,
                 retry: RetryPolicy | None = None, counts: Counter[tuple[str, BackendTag]] | None = None,
                 tokens: Counter[str] | None = None, session: HttpSession | None = None) -> None:
        self.chat_backend = chat_backend
        self.embedding_backend = embedding_backend
        self.retry = RetryPolicy() if retry is None else retry
        self.counts = Counter() if counts is None else counts
        self.tokens = Counter() if tokens is None else tokens
        self.session = session

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    def _with_retry(self, operation: Callable, argument):
        """``operation(argument)``, retried by :attr:`retry` on transport errors and 429s."""
        last: Exception | None = None
        for attempt in range(self.retry.attempts):
            try:
                return operation(argument)
            except (TransportError, RateLimited) as exc:
                last = exc
                retry_after = getattr(exc, "retry_after", None) or 0.0
                if retry_after > MAX_RETRY_AFTER_S:
                    raise RateLimited(
                        f"{exc}: Retry-After asks for {retry_after:g} s, more than the"
                        f" {MAX_RETRY_AFTER_S:g} s a run waits",
                        retry_after,
                    ) from exc
                if attempt + 1 < self.retry.attempts:
                    backoff = self.retry.base_delay * (2**attempt)
                    self.retry.sleep(max(self.retry.draw(backoff / 2, backoff), retry_after))
        assert last is not None
        raise last

    def chat(self, request: ChatRequest) -> ChatResponse:
        if self.chat_backend is None:
            raise GatewayConfigError("no chat backend configured")
        # An extended request's text is not joined for this: it is empty exactly when each of its parts is.
        if not any(request._text_parts or (request.user_text,)):
            raise ValueError("cannot ask with empty user text")
        response = self._with_retry(self.chat_backend.complete, request)
        self.counts["chat", response.backend_tag] += 1
        self.tokens["prompt"] += response.usage.prompt_tokens
        self.tokens["completion"] += response.usage.completion_tokens
        return response

    def embed(self, text: str) -> EmbeddingVector:
        if self.embedding_backend is None:
            raise GatewayConfigError("no embedding backend configured")
        if not text:
            raise ValueError("cannot embed empty text")
        vector, tag = self._with_retry(self.embedding_backend.embed, text)
        self.counts["embed", tag] += 1
        return vector

    def stored_distances(
        self, query: EmbeddingVector, texts: Sequence[str]
    ) -> list[tuple[float, float] | None] | None:
        """(|v|, |query - v|) for each of ``texts`` whose stored vector v shares a pack with ``query``, else None.

        ``query`` is a vector :meth:`embed` returned. The two values are read
        from the pack's distance block (see
        :meth:`ResponseStore.embedding_distances`), and each text found counts
        as one embed call, as :meth:`embed` would have counted it;
        :meth:`stored_embedding` reads its vector later without counting
        again. The whole list is None when the embedding backend is not a
        :class:`StoreEmbeddingBackend`, or no pack with a distance block
        holds ``query``. Title-kNN bounds only the texts found here; it
        embeds and scores every other text exactly.
        """
        backend = self.embedding_backend
        if not isinstance(backend, StoreEmbeddingBackend):
            return None
        digests = [embedding_digest(backend.model_name, text) for text in texts]
        found = backend.store.embedding_distances(query.source_text_digest, digests)
        if found is not None:
            self.counts["embed", backend._hit_tag] += len(found) - found.count(None)
        return found

    def stored_embedding(self, text: str) -> EmbeddingVector:
        """The vector of a text :meth:`stored_distances` found, read without counting a call."""
        vector, _ = self.embedding_backend.embed(text)
        return vector

    def calls(self, operation: str) -> int:
        return sum(n for (op, _), n in self.counts.items() if op == operation)

    def tags_used(self) -> set[BackendTag]:
        return {tag for _, tag in self.counts}

    def close(self) -> None:
        """Close the HTTP session the gateway owns, and every connection it holds, and its backends' stores."""
        if self.session is not None:
            self.session.close()
        for backend in (self.chat_backend, self.embedding_backend):
            if isinstance(backend, (StoreChatBackend, StoreEmbeddingBackend)):
                backend.store.close()
