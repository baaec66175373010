"""Gateway backends: mock/cache/replay semantics, cosine, retries."""

from __future__ import annotations

import math
import os

import pytest
from hypothesis import assume, given, strategies as st

from atc_icl.errors import AtcError
from atc_icl.gateway import (
    BackendTag,
    ChatRequest,
    ChatResponse,
    DimensionMismatch,
    EmbeddingVector,
    Gateway,
    GatewayConfigError,
    HashEmbeddingBackend,
    LiveChatBackend,
    LiveEmbeddingBackend,
    MappingEmbeddingBackend,
    MockChatBackend,
    RateLimited,
    ReplayMiss,
    ResponseStore,
    RetryPolicy,
    StoreChatBackend,
    StoreEmbeddingBackend,
    TransportError,
    Usage,
    ZeroNorm,
    cosine_similarity,
    chat_request_digest,
    embedding_digest,
)


def req(user="classify this", model="gpt-4", temperature=0.0, max_output_tokens=1024):
    return ChatRequest(system_text="sys", user_text=user, model_name=model, temperature=temperature,
                       max_output_tokens=max_output_tokens)


def vec(*values, model="m"):
    return EmbeddingVector(values=tuple(float(v) for v in values), model_name=model, source_text_digest="d")


def no_sleep_policy(attempts=3):
    return RetryPolicy(attempts=attempts, base_delay=0.0, sleep=lambda _: None)


class CountingChatBackend:
    def __init__(self, text="1. Premise"):
        self.calls = 0
        self.text = text

    def complete(self, request):
        self.calls += 1
        return ChatResponse(text=self.text, usage=Usage(10, 2), backend_tag=BackendTag.LIVE)


class FlakyChatBackend:
    def __init__(self, failures, exc=TransportError):
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc("boom")
        return ChatResponse(text="1. Claim", usage=Usage(), backend_tag=BackendTag.LIVE)


def test_mock_scripted_response():
    backend = MockChatBackend(script=["1. Premise"])
    response = backend.complete(req())
    assert response.text == "1. Premise"
    assert response.backend_tag is BackendTag.MOCK


def test_chat_request_validation():
    with pytest.raises(ValueError):
        ChatRequest(system_text="s", user_text="", model_name="m")
    with pytest.raises(ValueError):
        ChatRequest(system_text="s", user_text="u", model_name="m", temperature=-1.0)
    with pytest.raises(ValueError):
        ChatRequest(system_text="s", user_text="u", model_name="m", max_output_tokens=0)


def _chat_case(store, upstream):
    backend = StoreChatBackend(store, upstream)

    def call(key):
        response = backend.complete(req(user=key))
        return (response.text, response.usage), response.backend_tag

    return call, "chat", lambda key: chat_request_digest(req(user=key))


def _embedding_case(store, upstream):
    backend = StoreEmbeddingBackend(store, "m", upstream)

    def call(key):
        vector, tag = backend.embed(key)
        assert vector.model_name == "m"
        return vector.values, tag

    return call, "embed", lambda key: embedding_digest("m", key)


@pytest.mark.parametrize("with_upstream", [True, False], ids=["cache", "replay"])
@pytest.mark.parametrize("operation", ["chat", "embedding"])
def test_store_backend_hits_misses_and_writes(tmp_path, operation, with_upstream):
    store = ResponseStore(tmp_path / "store")
    if operation == "chat":
        upstream = CountingChatBackend()
        expected, upstream_tag, make = ("1. Premise", Usage(10, 2)), BackendTag.LIVE, _chat_case
    else:
        upstream = MappingEmbeddingBackend({"T": [0.5, 0.5], "U": [1.0, 0.0]}, model_name="m")
        expected, upstream_tag, make = (0.5, 0.5), BackendTag.MOCK, _embedding_case

    record, kind, digest = make(store, upstream)

    def stored():
        return sorted(p.stem for p in (tmp_path / "store" / kind).glob("*"))

    # Recording through the upstream: one fetch, one store write under the request digest.
    assert record("T") == (expected, upstream_tag)
    assert upstream.calls == 1
    assert stored() == [digest("T")]

    call, _, _ = make(store, upstream if with_upstream else None)
    hit_tag = BackendTag.CACHE if with_upstream else BackendTag.REPLAY
    assert call("T") == (expected, hit_tag)
    assert call("T") == (expected, hit_tag)
    assert upstream.calls == 1

    if with_upstream:
        call("U")
        assert upstream.calls == 2
        assert stored() == sorted([digest("T"), digest("U")])
    else:
        with pytest.raises(ReplayMiss):
            call("U")
        assert upstream.calls == 1
        assert stored() == [digest("T")]


def test_cache_key_separates_models_and_temperatures(tmp_path):
    store = ResponseStore(tmp_path / "store")
    inner = CountingChatBackend()
    cache = StoreChatBackend(store, inner)
    requests = [req(model="gpt-4"), req(model="gpt-3.5-turbo"), req(model="gpt-4", temperature=0.7),
                req(model="gpt-4", max_output_tokens=16)]
    for request in requests:
        cache.complete(request)
    assert inner.calls == 4
    assert len({chat_request_digest(request) for request in requests}) == 4


def test_corrupt_store_record_names_the_file(tmp_path):
    store = ResponseStore(tmp_path / "store")
    path = tmp_path / "store" / "chat" / f"{chat_request_digest(req())}.json"
    path.parent.mkdir(parents=True)
    path.write_text('{"response": {"text": "1. Prem', encoding="utf-8")
    with pytest.raises(AtcError, match="corrupt store record .*" + path.name):
        StoreChatBackend(store).complete(req())


def test_store_writers_sharing_a_directory_do_not_collide(tmp_path, monkeypatch):
    # A second writer records the same request between the first writer's
    # temp-file write and its rename, as another process sharing the store may.
    first, second = ResponseStore(tmp_path / "store"), ResponseStore(tmp_path / "store")
    response = ChatResponse(text="1. Claim", usage=Usage(3, 1), backend_tag=BackendTag.LIVE)
    digest = chat_request_digest(req())
    real_replace = os.replace
    interleaved = []

    def replace(src, dst):
        if not interleaved:
            interleaved.append(src)
            second.put_chat(digest, req(), response)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    first.put_chat(digest, req(), response)
    assert interleaved
    assert first.get_chat(digest)["response"]["text"] == "1. Claim"
    assert [p.name for p in (tmp_path / "store" / "chat").iterdir()] == [f"{digest}.json"]


def test_replay_only_gateway_performs_zero_network_calls(tmp_path):
    store = ResponseStore(tmp_path / "store")
    StoreChatBackend(store, CountingChatBackend()).complete(req())
    gateway = Gateway(chat_backend=StoreChatBackend(store), retry=no_sleep_policy())
    gateway.chat(req())
    gateway.chat(req())
    assert gateway.live_calls() == 0
    assert gateway.tags_used() == {BackendTag.REPLAY}


def test_retry_recovers_from_transient_failures():
    backend = FlakyChatBackend(failures=2)
    slept = []
    gateway = Gateway(
        chat_backend=backend,
        retry=RetryPolicy(attempts=3, base_delay=1.0, sleep=slept.append),
    )
    response = gateway.chat(req())
    assert response.text == "1. Claim"
    assert backend.calls == 3
    assert slept == [1.0, 2.0]  # exponential backoff


def test_retry_gives_up_after_budget():
    backend = FlakyChatBackend(failures=10, exc=RateLimited)
    gateway = Gateway(chat_backend=backend, retry=no_sleep_policy())
    with pytest.raises(RateLimited):
        gateway.chat(req())
    assert backend.calls == 3


def test_non_retriable_errors_pass_through():
    class Broken:
        calls = 0

        def complete(self, request):
            self.calls += 1
            raise GatewayConfigError("bad request")

    backend = Broken()
    gateway = Gateway(chat_backend=backend, retry=no_sleep_policy())
    with pytest.raises(GatewayConfigError):
        gateway.chat(req())
    assert backend.calls == 1


def test_cosine_identical_and_orthogonal():
    assert cosine_similarity(vec(1, 2, 3), vec(1, 2, 3)) == pytest.approx(1.0, abs=1e-9)
    assert cosine_similarity(vec(1, 0), vec(0, 1)) == pytest.approx(0.0, abs=1e-12)


def test_cosine_hand_computed_value():
    # Independent oracle: dot = 4 + 10 + 18 = 32; |a| = sqrt(14), |b| = sqrt(77).
    expected = 32 / math.sqrt(14 * 77)
    assert expected == pytest.approx(0.974631846, abs=1e-6)
    assert cosine_similarity(vec(1, 2, 3), vec(4, 5, 6)) == pytest.approx(expected, abs=1e-9)


def test_cosine_errors():
    with pytest.raises(DimensionMismatch):
        cosine_similarity(vec(1, 2), vec(1, 2, 3))
    with pytest.raises(ZeroNorm):
        cosine_similarity(vec(0, 0), vec(1, 0))


@given(
    st.lists(
        st.floats(min_value=-50, max_value=50).map(lambda v: round(v, 3)),
        min_size=2,
        max_size=6,
    ),
    st.floats(min_value=0.01, max_value=100),
)
def test_cosine_symmetric_and_scale_invariant(values, scale):
    assume(any(v != 0 for v in values))
    assume(any(v + 1 != 0 for v in values))
    a = vec(*values)
    b = vec(*[v + 1 for v in values])
    assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a), abs=1e-9)
    scaled = vec(*[v * scale for v in values])
    assert cosine_similarity(scaled, b) == pytest.approx(cosine_similarity(a, b), abs=1e-9)


def test_embed_empty_text_rejected():
    gateway = Gateway(embedding_backend=HashEmbeddingBackend(dim=4))
    with pytest.raises(ValueError):
        gateway.embed("")


def test_hash_embeddings_are_deterministic_and_unit_norm():
    a1, _ = HashEmbeddingBackend(dim=8).embed("Some title")
    a2, _ = HashEmbeddingBackend(dim=8).embed("Some title")
    b, _ = HashEmbeddingBackend(dim=8).embed("Another title")
    assert a1.values == a2.values
    assert a1.values != b.values
    assert math.fsum(x * x for x in a1.values) == pytest.approx(1.0, abs=1e-9)


def test_mapping_backend_unknown_text_fails_loudly():
    backend = MappingEmbeddingBackend({})
    with pytest.raises(RuntimeError):
        backend.embed("missing")


class FakeHttpResponse:
    def __init__(self, status_code=200, body=None, text=""):
        self.status_code = status_code
        self._body = body or {}
        self.text = text

    def json(self):
        return self._body


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append((url, json))
        return self.responses.pop(0)


def test_live_chat_backend_parses_openai_shape(monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "sk-test")
    session = FakeSession(
        [
            FakeHttpResponse(
                body={
                    "choices": [{"message": {"content": "1. Premise"}}],
                    "usage": {"prompt_tokens": 12, "completion_tokens": 4},
                }
            )
        ]
    )
    backend = LiveChatBackend("https://example.test/v1", api_key_env="TEST_API_KEY", session=session)
    response = backend.complete(req())
    assert response.text == "1. Premise"
    assert response.usage == Usage(12, 4)
    assert response.backend_tag is BackendTag.LIVE
    url, payload = session.requests[0]
    assert url.endswith("/chat/completions")
    assert payload["messages"][1]["content"] == "classify this"


def test_live_chat_backend_maps_status_codes(monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "sk-test")

    def backend_with(status):
        return LiveChatBackend(
            "https://example.test/v1",
            api_key_env="TEST_API_KEY",
            session=FakeSession([FakeHttpResponse(status_code=status)]),
        )

    with pytest.raises(RateLimited):
        backend_with(429).complete(req())
    with pytest.raises(TransportError):
        backend_with(503).complete(req())
    with pytest.raises(GatewayConfigError):
        backend_with(400).complete(req())


def test_live_backend_requires_api_key(monkeypatch):
    monkeypatch.delenv("MISSING_KEY", raising=False)
    backend = LiveChatBackend("https://example.test/v1", api_key_env="MISSING_KEY", session=FakeSession([]))
    with pytest.raises(GatewayConfigError):
        backend.complete(req())


def test_live_embedding_backend_parses_openai_shape(monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "sk-test")
    session = FakeSession([FakeHttpResponse(body={"data": [{"embedding": [0.1, 0.2]}]})])
    backend = LiveEmbeddingBackend(
        "https://example.test/v1", "text-embedding-ada-002", api_key_env="TEST_API_KEY", session=session
    )
    vector, tag = backend.embed("A title")
    assert vector.values == (0.1, 0.2)
    assert vector.model_name == "text-embedding-ada-002"
    assert tag is BackendTag.LIVE
