"""Uniform gateway to chat-completion and text-embedding services.

All network effects in the system pass through this module. Backends for
both chat and embeddings:

* live:   HTTP JSON calls against an OpenAI-compatible endpoint,
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
committed to a repository and replayed bit-identically. An embedding record
holds its vector as packed little-endian float64 (hex text), so a replay
reads it back with no decimal parsing; records written earlier, with a JSON
list of floats, still replay. ``atc-icl embed`` also writes one *pack* per
embedding model, a single file of every title's float64 row, from which a
kNN replay reads the whole pool without opening a record per title.
:class:`Gateway` counts the calls each (operation, backend tag) served, and
retries transport errors and 429s with exponential backoff, waiting at least
as long as a 429's ``Retry-After`` unless it asks for more than
:data:`MAX_RETRY_AFTER_S`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
import os
import struct
import time
import weakref
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Protocol, Sequence

from .errors import AtcError


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


@dataclass(frozen=True)
class Usage:
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass(frozen=True)
class ChatRequest:
    system_text: str
    user_text: str
    model_name: str
    temperature: float = 0.0
    max_output_tokens: int = 1024

    def __post_init__(self) -> None:
        if not self.user_text:
            raise ValueError("user_text must be non-empty")
        if not math.isfinite(self.temperature) or self.temperature < 0:
            raise ValueError(f"temperature must be finite and non-negative, not {self.temperature!r}")
        if self.max_output_tokens <= 0:
            raise ValueError("max_output_tokens must be positive")


@dataclass(frozen=True)
class ChatResponse:
    text: str
    usage: Usage
    backend_tag: BackendTag


@dataclass(frozen=True)
class EmbeddingVector:
    values: tuple[float, ...]
    source_text_digest: str

    @functools.cached_property
    def norm(self) -> float:
        """Euclidean length, computed on first use and kept with the vector."""
        return math.sqrt(math.fsum(map(operator.mul, self.values, self.values)))


def chat_request_digest(request: ChatRequest) -> str:
    payload = json.dumps(
        {
            "model": request.model_name,
            "system": request.system_text,
            "user": request.user_text,
            "temperature": request.temperature,
            "max_output_tokens": request.max_output_tokens,
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


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


def write_atomic(path: Path, data: str | bytes) -> None:
    """Replace ``path`` with ``data`` (text as UTF-8) so no reader or crash sees a partial file.

    The data goes to a uniquely named temp file next to ``path``, which is
    then renamed over it; on any failure the temp file is removed and
    ``path`` keeps its previous content.
    """
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as handle:
            handle.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class ResponseStore:
    """Content-addressed on-disk store of request/response JSON records.

    Layout: ``<dir>/chat/<digest>.json`` and ``<dir>/embed/<digest>.json``.
    Each chat record keeps the full request next to the response so fixtures
    are auditable. Each embedding record keeps its model name and text next
    to ``vector_f64``, the vector as little-endian IEEE-754 float64 in hex
    text. :meth:`get_embedding` reads it back, as it does a record written
    before vectors were packed, whose ``vector`` is a JSON float list.

    ``embed/`` may also hold one pack per embedding model (see
    :meth:`embedding_pack_path`): a JSON header line ``{"digests", "dim",
    "model_name"}`` followed by one row of ``dim`` little-endian float64
    values per listed digest, in header order. The pack headers are read on
    the first embedding read, and a digest a pack lists is served from its
    row; any other digest falls back to its record. Records and packs are
    written with :func:`write_atomic`, so writers that share a store, in one
    process or several, never see or leave a partial file.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        # digest -> (pack, offset of its row); None until the first embedding read
        self._pack_rows: dict[str, tuple[_EmbeddingPack, int]] | None = None

    def _path(self, kind: str, digest: str) -> Path:
        return self.root / kind / f"{digest}.json"

    def _read(self, kind: str, digest: str) -> dict | None:
        # A plain string: a Path would intern every digest's file name, and
        # the interpreter's intern table then grows, and resizes, with reads.
        path = os.path.join(self.root, kind, f"{digest}.json")
        try:
            with open(path, "rb") as handle:
                return json.loads(handle.read())
        except FileNotFoundError:
            return None
        except ValueError as exc:
            raise AtcError(f"corrupt store record {path}: {exc}") from exc

    def _write(self, kind: str, digest: str, record: dict) -> None:
        path = self._path(kind, digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, json.dumps(record, sort_keys=True, ensure_ascii=False, indent=2) + "\n")

    def get_chat(self, digest: str) -> dict | None:
        return self._read("chat", digest)

    def put_chat(self, digest: str, request: ChatRequest, response: ChatResponse) -> None:
        self._write(
            "chat",
            digest,
            {
                "request": {
                    "model_name": request.model_name,
                    "system_text": request.system_text,
                    "user_text": request.user_text,
                    "temperature": request.temperature,
                    "max_output_tokens": request.max_output_tokens,
                },
                "response": {
                    "text": response.text,
                    "usage": {
                        "prompt_tokens": response.usage.prompt_tokens,
                        "completion_tokens": response.usage.completion_tokens,
                    },
                },
            },
        )

    def get_embedding(self, digest: str) -> tuple[float, ...] | None:
        """The vector stored for ``digest``, bit for bit as it was stored, or None.

        A digest listed by a pack is read from its row; any other from its
        record file. A record that does not decode raises :class:`AtcError`
        naming the digest.
        """
        row = self._packs().get(digest)
        if row is not None:
            pack, offset = row
            return pack.row(offset)
        record = self._read("embed", digest)
        return None if record is None else _record_vector(record, digest)

    def put_embedding(self, digest: str, model_name: str, text: str, values: Sequence[float]) -> None:
        packed = struct.pack(f"<{len(values)}d", *values).hex()
        self._write("embed", digest, {"model_name": model_name, "text": text, "vector_f64": packed})

    def embedding_pack_path(self, model_name: str) -> Path:
        """Where ``model_name``'s pack lives; the name never matches ``*.json``."""
        return self.root / "embed" / f"pack-{hashlib.sha256(model_name.encode('utf-8')).hexdigest()}.f64"

    def _packs(self) -> dict[str, tuple[_EmbeddingPack, int]]:
        if self._pack_rows is None:
            rows = {}
            for path in sorted((self.root / "embed").glob("pack-*.f64")):
                pack = _EmbeddingPack(path)
                if path != self.embedding_pack_path(pack.model_name):
                    raise AtcError(f"embedding pack {path} holds model {pack.model_name!r}, which is not filed there")
                for index, digest in enumerate(pack.digests):
                    rows[digest] = (pack, pack.first_row + index * pack.decoder.size)
            self._pack_rows = rows
        return self._pack_rows

    def put_embedding_pack(self, model_name: str, digests: Iterable[str]) -> bool:
        """Rewrite ``model_name``'s pack with the rows it holds plus the vectors of ``digests``.

        Every row is read through :meth:`get_embedding`, so a digest with
        neither a pack row nor a record raises :class:`AtcError`, and all
        vectors must have one length. Returns False, and writes nothing, when
        the pack already holds exactly these rows or there are none.
        """
        held = [digest for digest, (pack, _) in self._packs().items() if pack.model_name == model_name]
        order = list(dict.fromkeys([*held, *digests]))
        if not order:
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
        header = json.dumps({"digests": order, "dim": encoder.size // 8, "model_name": model_name}, sort_keys=True)
        data = b"".join([(header + "\n").encode("utf-8"), *rows])
        path = self.embedding_pack_path(model_name)
        try:
            if path.read_bytes() == data:
                return False
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, data)
        self._pack_rows = None
        return True


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
    """One open pack file: its header, and its rows read one at a time.

    The file stays open, so a pack replaced after its header was read still
    serves the rows that header lists; it is closed when the object goes. A
    header that does not parse, or a length other than header + rows x dim x
    8 bytes, raises :class:`AtcError` naming the file.
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
            if not isinstance(self.model_name, str) or not isinstance(self.digests, list):
                raise TypeError("model_name must be a string and digests a list")
            if not all(isinstance(digest, str) for digest in self.digests):
                raise TypeError("every digest must be a string")
            if type(dim) is not int or dim < 0:
                raise TypeError(f"dim must be a non-negative integer, not {dim!r}")
            if len(set(self.digests)) != len(self.digests):
                raise ValueError("a digest is listed twice")
        except (ValueError, KeyError, TypeError) as exc:
            raise AtcError(f"corrupt embedding pack {path}: {exc}") from exc
        self.decoder = struct.Struct(f"<{dim}d")
        self.first_row = len(line)
        size = os.fstat(self._fd).st_size
        expected = self.first_row + len(self.digests) * self.decoder.size
        if size != expected:
            raise AtcError(
                f"truncated or inconsistent embedding pack {path}: {size} bytes, but its header"
                f" lists {len(self.digests)} rows of {dim} float64 values ({expected} bytes)"
            )

    def row(self, offset: int) -> tuple[float, ...]:
        raw = os.pread(self._fd, self.decoder.size, offset)
        if len(raw) != self.decoder.size:
            raise AtcError(f"truncated embedding pack {self.path}: row at byte {offset} is cut short")
        return self.decoder.unpack_from(raw)


class ChatBackend(Protocol):
    def complete(self, request: ChatRequest) -> ChatResponse: ...


class EmbeddingBackend(Protocol):
    model_name: str

    def embed(self, text: str) -> tuple[EmbeddingVector, BackendTag]: ...


class MockChatBackend:
    """Mock chat backend: each answer is what ``responder`` makes of the request."""

    def __init__(self, responder: Callable[[ChatRequest], str]) -> None:
        self._responder = responder
        self.calls = 0

    def complete(self, request: ChatRequest) -> ChatResponse:
        self.calls += 1
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


class _OpenAIHttp:
    """Base of the live backends: authenticated JSON POSTs to an OpenAI-compatible endpoint.

    Maps transport failures and 429/5xx answers to the retriable gateway
    errors, and other 4xx answers to :class:`GatewayConfigError`.
    """

    def __init__(
        self,
        base_url: str,
        api_key_env: str = "OPENAI_API_KEY",
        session=None,
    ) -> None:
        import requests

        self.base_url = base_url.rstrip("/")
        self.api_key_env = api_key_env
        self._session = session or requests.Session()

    def _headers(self) -> dict[str, str]:
        key = os.environ.get(self.api_key_env)
        if not key:
            raise GatewayConfigError(f"environment variable {self.api_key_env} is not set")
        return {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}

    def _post(self, path: str, payload: dict) -> dict:
        import requests

        try:
            response = self._session.post(
                f"{self.base_url}{path}", json=payload, headers=self._headers(), timeout=HTTP_TIMEOUT_S
            )
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        if response.status_code == 429:
            raise RateLimited(f"429 from {path}", _retry_after(response.headers.get("Retry-After")))
        if response.status_code >= 500:
            raise TransportError(f"{response.status_code} from {path}")
        if response.status_code >= 400:
            raise GatewayConfigError(f"{response.status_code} from {path}: {response.text[:200]}")
        try:
            return response.json()
        except ValueError as exc:
            raise TransportError(f"non-JSON body from {path}: {exc}") from exc


class LiveChatBackend(_OpenAIHttp):
    """OpenAI-compatible chat completions over HTTP JSON."""

    def complete(self, request: ChatRequest) -> ChatResponse:
        body = self._post(
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
        digest = chat_request_digest(request)
        record = self.store.get_chat(digest)
        if record is not None:
            try:
                response = record["response"]
                text, usage = response["text"], response["usage"]
                counts = usage["prompt_tokens"], usage["completion_tokens"]
                if not isinstance(text, str):
                    raise TypeError(f"text is {type(text).__name__}, not a string")
                if any(type(count) is not int for count in counts):
                    raise TypeError(f"token counts {counts} are not integers")
                tokens = Usage(*counts)
            except KeyError as exc:
                raise AtcError(f"malformed chat record {digest}: no {exc} field") from None
            except TypeError as exc:
                raise AtcError(f"malformed chat record {digest}: {exc}") from exc
            return ChatResponse(text=text, usage=tokens, backend_tag=self._hit_tag)
        if self.upstream is None:
            raise ReplayMiss(f"no recorded chat response for digest {digest}")
        response = self.upstream.complete(request)
        self.store.put_chat(digest, request, response)
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
        self.calls = 0

    def embed(self, text: str) -> tuple[EmbeddingVector, BackendTag]:
        import random

        self.calls += 1
        seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
        rng = random.Random(seed)
        raw = [rng.gauss(0.0, 1.0) for _ in range(self.dim)]
        norm = math.sqrt(math.fsum(x * x for x in raw)) or 1.0
        vector = EmbeddingVector(
            values=tuple(x / norm for x in raw),
            source_text_digest=embedding_digest(self.model_name, text),
        )
        return vector, BackendTag.MOCK


class LiveEmbeddingBackend(_OpenAIHttp):
    """OpenAI-compatible embeddings endpoint."""

    def __init__(
        self,
        base_url: str,
        model_name: str,
        api_key_env: str = "OPENAI_API_KEY",
        session=None,
    ) -> None:
        super().__init__(base_url, api_key_env, session)
        self.model_name = model_name

    def embed(self, text: str) -> tuple[EmbeddingVector, BackendTag]:
        body = self._post("/embeddings", {"model": self.model_name, "input": [text]})
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
    are filed under the model that produced them.
    """

    def __init__(
        self, store: ResponseStore, model_name: str, upstream: EmbeddingBackend | None = None
    ) -> None:
        self.store = store
        self.model_name = model_name
        self.upstream = upstream
        self._hit_tag = BackendTag.REPLAY if upstream is None else BackendTag.CACHE

    def embed(self, text: str) -> tuple[EmbeddingVector, BackendTag]:
        digest = embedding_digest(self.model_name, text)
        values = self.store.get_embedding(digest)
        if values is not None:
            return EmbeddingVector(values=values, source_text_digest=digest), self._hit_tag
        if self.upstream is None:
            raise ReplayMiss(f"no recorded embedding for digest {digest}")
        vector, tag = self.upstream.embed(text)
        self.store.put_embedding(digest, self.model_name, text, vector.values)
        return vector, tag


# Earlier names, still imported by perfbench/.
CacheChatBackend = StoreChatBackend
ReplayEmbeddingBackend = StoreEmbeddingBackend


# The longest Retry-After a run waits for; a 429 asking for more fails at once.
MAX_RETRY_AFTER_S = 300.0


@dataclass
class RetryPolicy:
    """Bounded exponential backoff on transport and rate-limit errors only.

    A 429 that names a ``Retry-After`` waits at least that long, unless it
    asks for more than :data:`MAX_RETRY_AFTER_S`, which is not retried.
    """

    attempts: int = 3
    base_delay: float = 1.0
    sleep: Callable[[float], None] = time.sleep


@dataclass
class Gateway:
    """Facade over one chat backend and one embedding backend.

    Counts calls per (operation, backend tag) so tests and run manifests can
    assert which backends actually served a run, in particular that
    replay-only runs performed zero network operations.
    """

    chat_backend: ChatBackend | None = None
    embedding_backend: EmbeddingBackend | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    counts: Counter[tuple[str, BackendTag]] = field(default_factory=Counter)

    def _with_retry(self, operation: Callable):
        last: Exception | None = None
        for attempt in range(self.retry.attempts):
            try:
                return operation()
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
                    self.retry.sleep(max(backoff, retry_after))
        assert last is not None
        raise last

    def chat(self, request: ChatRequest) -> ChatResponse:
        if self.chat_backend is None:
            raise GatewayConfigError("no chat backend configured")
        response = self._with_retry(lambda: self.chat_backend.complete(request))
        self.counts["chat", response.backend_tag] += 1
        return response

    def embed(self, text: str) -> EmbeddingVector:
        if self.embedding_backend is None:
            raise GatewayConfigError("no embedding backend configured")
        if not text:
            raise ValueError("cannot embed empty text")
        vector, tag = self._with_retry(lambda: self.embedding_backend.embed(text))
        self.counts["embed", tag] += 1
        return vector

    def calls(self, operation: str) -> int:
        return sum(n for (op, _), n in self.counts.items() if op == operation)

    def tags_used(self) -> set[BackendTag]:
        return {tag for _, tag in self.counts}
