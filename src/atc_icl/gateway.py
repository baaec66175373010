"""Uniform gateway to chat-completion and text-embedding services.

All network effects in the system pass through this module. Backends for
both chat and embeddings:

* live:   HTTP JSON calls against an OpenAI-compatible endpoint,
* mock:   scripted or computed responses for tests and offline runs
          (the hash embeddings are the offline embedding mock),
* store:  :class:`StoreChatBackend` and :class:`StoreEmbeddingBackend` serve
          answers from an on-disk :class:`ResponseStore`. Given an upstream
          backend they act as the read-through *cache* (one upstream fetch per
          distinct request, ever); given none they act as *replay*, where a
          miss is fatal and never falls through to the network.

The store is content-addressed: chat records are keyed by a digest over
(model name, system text, user text, temperature, max output tokens),
embeddings by a digest over (model name, text), so recorded fixtures can be
committed to a repository and replayed bit-identically. :class:`Gateway`
counts the calls each (operation, backend tag) served.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Protocol, Sequence

from .errors import AtcError


class TransportError(AtcError):
    """Network-level failure; retriable."""


class RateLimited(AtcError):
    """The remote endpoint throttled the request; retriable."""


class ReplayMiss(AtcError):
    """Replay backend has no recorded entry for the request; fatal."""


class GatewayConfigError(AtcError):
    """Gateway misconfiguration (missing key, bad endpoint, bad request)."""


class DimensionMismatch(AtcError):
    """Cosine similarity over vectors of different lengths."""


class ZeroNorm(AtcError):
    """Cosine similarity is undefined for zero-norm vectors."""


class BackendTag(Enum):
    LIVE = "live"
    CACHE = "cache"
    REPLAY = "replay"
    MOCK = "mock"


@dataclass(frozen=True)
class Usage:
    prompt_tokens: int = 0
    completion_tokens: int = 0

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


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
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
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
    model_name: str
    source_text_digest: str


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
    """dot(a, b) / (|a| |b|), clamped into [-1, 1]."""
    if len(a.values) != len(b.values):
        raise DimensionMismatch(f"{len(a.values)} vs {len(b.values)}")
    norm_a = math.sqrt(math.fsum(x * x for x in a.values))
    norm_b = math.sqrt(math.fsum(x * x for x in b.values))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroNorm("cosine similarity undefined for zero-norm vectors")
    dot = math.fsum(x * y for x, y in zip(a.values, b.values))
    return max(-1.0, min(1.0, dot / (norm_a * norm_b)))


class ResponseStore:
    """Content-addressed on-disk store of request/response JSON records.

    Layout: ``<dir>/chat/<digest>.json`` and ``<dir>/embed/<digest>.json``.
    Each chat record keeps the full request next to the response so fixtures
    are auditable. Each write goes to a uniquely named temp file in the target
    directory and is renamed into place, so writers that share a store, in
    one process or several, never see or leave a partial record.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)

    def _path(self, kind: str, digest: str) -> Path:
        return self.root / kind / f"{digest}.json"

    def _read(self, kind: str, digest: str) -> dict | None:
        path = self._path(kind, digest)
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except ValueError as exc:
            raise AtcError(f"corrupt store record {path}: {exc}") from exc

    def _write(self, kind: str, digest: str, record: dict) -> None:
        path = self._path(kind, digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
        try:
            with open(tmp, "x", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True, ensure_ascii=False, indent=2) + "\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

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

    def get_embedding(self, digest: str) -> dict | None:
        return self._read("embed", digest)

    def put_embedding(self, digest: str, model_name: str, text: str, values: Sequence[float]) -> None:
        self._write(
            "embed",
            digest,
            {"model_name": model_name, "text": text, "vector": list(values)},
        )


class ChatBackend(Protocol):
    def complete(self, request: ChatRequest) -> ChatResponse: ...


class EmbeddingBackend(Protocol):
    model_name: str

    def embed(self, text: str) -> tuple[EmbeddingVector, BackendTag]: ...


class MockChatBackend:
    """Scripted chat backend: consumes a response list, then a responder fn."""

    def __init__(
        self,
        script: Sequence[str] | None = None,
        responder: Callable[[ChatRequest], str] | None = None,
    ) -> None:
        self._script = list(script or [])
        self._responder = responder
        self.calls = 0

    def complete(self, request: ChatRequest) -> ChatResponse:
        self.calls += 1
        if self._script:
            text = self._script.pop(0)
        elif self._responder is not None:
            text = self._responder(request)
        else:
            raise RuntimeError("mock chat backend has no scripted response left")
        return ChatResponse(text=text, usage=Usage(), backend_tag=BackendTag.MOCK)


class _OpenAIHttp:
    """Base of the live backends: authenticated JSON POSTs to an OpenAI-compatible endpoint.

    Maps transport failures and 429/5xx answers to the retriable gateway
    errors, and other 4xx answers to :class:`GatewayConfigError`.
    """

    def __init__(
        self,
        base_url: str,
        api_key_env: str = "OPENAI_API_KEY",
        timeout: float = 120.0,
        session=None,
    ) -> None:
        import requests

        self.base_url = base_url.rstrip("/")
        self.api_key_env = api_key_env
        self.timeout = timeout
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
                f"{self.base_url}{path}", json=payload, headers=self._headers(), timeout=self.timeout
            )
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        if response.status_code == 429:
            raise RateLimited(f"429 from {path}")
        if response.status_code >= 500:
            raise TransportError(f"{response.status_code} from {path}")
        if response.status_code >= 400:
            raise GatewayConfigError(f"{response.status_code} from {path}: {response.text[:200]}")
        return response.json()


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
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed chat completion body: {exc}") from exc
        usage = body.get("usage") or {}
        return ChatResponse(
            text=text,
            usage=Usage(
                prompt_tokens=int(usage.get("prompt_tokens", 0)),
                completion_tokens=int(usage.get("completion_tokens", 0)),
            ),
            backend_tag=BackendTag.LIVE,
        )


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
            usage = record["response"]["usage"]
            return ChatResponse(
                text=record["response"]["text"],
                usage=Usage(usage["prompt_tokens"], usage["completion_tokens"]),
                backend_tag=self._hit_tag,
            )
        if self.upstream is None:
            raise ReplayMiss(f"no recorded chat response for digest {digest}")
        response = self.upstream.complete(request)
        self.store.put_chat(digest, request, response)
        return response


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
            model_name=self.model_name,
            source_text_digest=embedding_digest(self.model_name, text),
        )
        return vector, BackendTag.MOCK


class HashEmbeddingBackend:
    """Deterministic pseudo-embeddings derived from a content hash.

    Gives offline runs a stable, platform-independent similarity structure
    with no semantic meaning. Vectors are unit-norm, never zero.
    """

    def __init__(self, dim: int = 8, model_name: str | None = None) -> None:
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.model_name = model_name or f"hash-embed-{dim}"
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
            model_name=self.model_name,
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
        timeout: float = 120.0,
        session=None,
    ) -> None:
        super().__init__(base_url, api_key_env, timeout, session)
        self.model_name = model_name

    def embed(self, text: str) -> tuple[EmbeddingVector, BackendTag]:
        body = self._post("/embeddings", {"model": self.model_name, "input": [text]})
        try:
            values = body["data"][0]["embedding"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed embeddings body: {exc}") from exc
        vector = EmbeddingVector(
            values=tuple(float(x) for x in values),
            model_name=self.model_name,
            source_text_digest=embedding_digest(self.model_name, text),
        )
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
        record = self.store.get_embedding(digest)
        if record is not None:
            vector = EmbeddingVector(
                values=tuple(float(x) for x in record["vector"]),
                model_name=record["model_name"],
                source_text_digest=digest,
            )
            return vector, self._hit_tag
        if self.upstream is None:
            raise ReplayMiss(f"no recorded embedding for digest {digest}")
        vector, tag = self.upstream.embed(text)
        self.store.put_embedding(digest, self.model_name, text, vector.values)
        return vector, tag


# Earlier names, still imported by perfbench/.
CacheChatBackend = StoreChatBackend
ReplayEmbeddingBackend = StoreEmbeddingBackend


@dataclass
class RetryPolicy:
    """Bounded exponential backoff on transport and rate-limit errors only."""

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
                if attempt + 1 < self.retry.attempts:
                    self.retry.sleep(self.retry.base_delay * (2**attempt))
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

    def live_calls(self) -> int:
        return sum(n for (_, tag), n in self.counts.items() if tag is BackendTag.LIVE)
