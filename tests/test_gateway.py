"""Gateway backends: mock/cache/replay semantics, cosine, retries."""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import struct
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from atc_icl import gateway as gateway_module
from atc_icl.errors import AtcError
from atc_icl.gateway import (
    MAX_RETRY_AFTER_S,
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
    MockChatBackend,
    NonFiniteCosine,
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
from conftest import MappingEmbeddingBackend, OpenAIServer, inline_chat_record, rebuilt


def req(user="classify this", model="gpt-4", temperature=0.0, max_output_tokens=1024):
    return ChatRequest(system_text="sys", user_text=user, model_name=model, temperature=temperature,
                       max_output_tokens=max_output_tokens)


def vec(*values):
    return EmbeddingVector(values=tuple(float(v) for v in values), source_text_digest="d")


def no_sleep_policy(attempts=3):
    return RetryPolicy(attempts=attempts, base_delay=0.0, sleep=lambda _: None)


def longest(low, high):
    """A backoff draw that always waits the full backoff, so the waits are exact."""
    return high


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


def test_mock_chat_backend_answers_through_its_responder():
    backend = MockChatBackend(responder=lambda request: "1. Premise")
    response = backend.complete(req())
    assert response.text == "1. Premise"
    assert response.backend_tag is BackendTag.MOCK


def test_chat_request_validation():
    for temperature in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="temperature must be finite and non-negative"):
            ChatRequest(system_text="s", user_text="u", model_name="m", temperature=temperature)
    with pytest.raises(ValueError):
        ChatRequest(system_text="s", user_text="u", model_name="m", max_output_tokens=0)


# Store keys computed by the code that recorded the existing stores. A change
# to any of them makes every recorded request miss.
CHAT_KEY_GOLDEN = [
    (("sys", "classify this", "gpt-4", 0.0, 1024),
     "1751d3d5afbd72745bb278c1b9d7c0c335e0968b2db65a53aab1eadb36a19a2c"),
    (("Say \"yes\" or 'no'", 'a "quoted" C:\\path\\ and \\" escape', "gpt-4", 0.0, 1024),
     "1d034213e970451815e6c4ef3fd04de9758e5d3da45bf9934c4e6e6568415828"),
    (("sys", "tab\there\nnew line\r\x00\x08\x1b\x1f\x7f end", "gpt-4", 0.7, 1024),
     "bcc169e3f9434ac36422d81261b46188b863e4fe938576daa3520bc15f8a1b0c"),
    (("sys", "line\u2028separator\u2029 and \U0001F600 \U0001D518", "gpt-4", 1e-07, 1024),
     "f86b1e5ee21cba1ed726aa83c5782f7bc288eab522dedebaee4cd56de58a7421"),
    (("syst\u00e8me", "caf\u00e9", "mod\u00e8le-\u00e9\u2028\U0001F600", 0.7, 256),
     "e3fc9352eaf879f46f69585df75c131599d1dc679c48285aa514c2aa967bf2cc"),
    (("sys", "classify this", "gpt-4", 0.0, 1),
     "e96fbc47270c4ca64f04ecefb2c97d76a113ce385cbd426968176bb4cc2e0e92"),
]
EMBEDDING_KEY_GOLDEN = [
    (("text-embedding-ada-002", "A title"),
     "9ea936fa47104992c40edcbe00cff3e5459d91ccd06765ad46673c2e8b5648f7"),
    (("text-embedding-ada-002", 'a "quoted" C:\\path\\ \t\n\x00\x1f'),
     "b394acd0046cf62847edf558524cee97c4369cfd6a7e604159868718be344c4f"),
    (("text-embedding-ada-002", "line\u2028separator \U0001F600"),
     "3dca04ec1f944f98fd1c3bf11420903890ce3d43edf94a2d6217d0143a90d535"),
    (("mod\u00e8le-\u00e9", "caf\u00e9"),
     "18c103475e4fd876c26b656d90d87204a7ef55725c568b5fd20dcb2d8d609b78"),
    (("hash-embed-8", "\x00"),
     "85db5da1051616969d82c4794cef3e8abb398e44f6b31d67e6c7571b8e7b256e"),
]


@pytest.mark.parametrize("fields, expected", CHAT_KEY_GOLDEN)
def test_chat_request_digest_is_pinned(fields, expected):
    system, user, model, temperature, max_output_tokens = fields
    request = ChatRequest(system_text=system, user_text=user, model_name=model,
                          temperature=temperature, max_output_tokens=max_output_tokens)
    assert chat_request_digest(request) == expected


@pytest.mark.parametrize("fields, expected", EMBEDDING_KEY_GOLDEN)
def test_embedding_digest_is_pinned(fields, expected):
    assert embedding_digest(*fields) == expected


def full_payload_digest(request):
    """The store key as the code that recorded the existing stores computed it: the whole payload at once."""
    payload = json.dumps(
        {"model": request.model_name, "system": request.system_text, "user": request.user_text,
         "temperature": request.temperature, "max_output_tokens": request.max_output_tokens},
        sort_keys=True, ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def record_bytes(request):
    """The bytes a request's chat record starts with, up to the end of its user text."""
    return b"".join(request._key()[1])


@pytest.mark.parametrize("fields, expected", CHAT_KEY_GOLDEN)
def test_extend_keeps_the_golden_digests_at_every_cut(fields, expected):
    system, user, model, temperature, max_output_tokens = fields
    plain = ChatRequest(system_text=system, user_text=user, model_name=model, temperature=temperature,
                        max_output_tokens=max_output_tokens)
    for cut in range(len(user) + 1):
        head = ChatRequest(system_text=system, user_text=user[:cut], model_name=model, temperature=temperature,
                           max_output_tokens=max_output_tokens)
        request = head.extend([user[cut:]])
        assert request == plain and head.user_text == user[:cut]
        assert chat_request_digest(request) == expected
        assert record_bytes(request) == record_bytes(plain)
    # Over several steps, one character each, from an empty user text.
    request = rebuilt(plain, user_text="")
    for character in user:
        request = request.extend([character])
    assert request == plain and chat_request_digest(request) == expected
    assert record_bytes(request) == record_bytes(plain)


# Characters JSON escapes, or writes as they are although they need care.
AWKWARD = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\r", "\t", "\u2028", "\u2029",
                           "\U0001F600", "\U0001D518", "\u00e9", "/"])
KEY_TEXT = st.text(st.characters(codec="utf-8") | AWKWARD, max_size=40)
# Pieces also draw lone surrogates, which have no UTF-8.
PIECE_TEXT = st.text(st.characters(codec="utf-8") | AWKWARD | st.sampled_from(["\ud800", "\udfff", "\u00a0"]),
                     max_size=30)


@given(
    context=KEY_TEXT,
    steps=st.lists(st.lists(PIECE_TEXT, max_size=4), min_size=1, max_size=3),
    model=KEY_TEXT,
    system=KEY_TEXT,
    temperature=st.floats(min_value=0.0, max_value=2.0) | st.sampled_from([0.0, 0.7, 1e-07, 1.0, 0, 1, 2]),
    max_output_tokens=st.integers(min_value=1, max_value=2**40),
)
@example(context="caf\u00e9 \"quoted\" ", steps=[["line\u2028separator ", "\U0001F600\n"], ['say "yes"']],
         model="gpt-4", system="syst\u00e8me \"x\"\n", temperature=0.7, max_output_tokens=256)
def test_an_extended_request_is_keyed_as_one_built_directly(context, steps, model, system, temperature,
                                                           max_output_tokens):
    """Digest and record bytes, whether the user text comes whole or in pieces over several extends."""
    fields = dict(system_text=system, model_name=model, temperature=temperature, max_output_tokens=max_output_tokens)
    user = context + "".join(piece for step in steps for piece in step)
    direct = ChatRequest(user_text=user, **fields)
    try:
        expected = chat_request_digest(direct)
    except UnicodeEncodeError as exc:
        assert exc.reason == "surrogates not allowed"
        with pytest.raises(UnicodeEncodeError, match="surrogates not allowed"):
            request = ChatRequest(user_text=context, **fields)
            for step in steps:
                request = request.extend(step)
        return
    assert expected == full_payload_digest(direct)
    request, escapes = ChatRequest(user_text=context, **fields), {}
    for step in steps:
        before = request
        request = request.extend(step, escapes)
        assert before.user_text + "".join(step) == request.user_text  # the request extended is left as it was
    assert request == direct and chat_request_digest(request) == expected
    assert record_bytes(request) == record_bytes(direct)
    assert escapes == {piece: gateway_module.escape_piece(piece) for step in steps for piece in step}


def test_a_pieces_escape_is_its_json_string_body_in_utf8():
    pieces = ["shared \"context\"\n", "café\n\n"]
    escapes = {}
    request = req(user="").extend(pieces, escapes).extend(["classify"])
    assert escapes == dict(zip(pieces, [b'shared \\"context\\"\\n', "café\\n\\n".encode("utf-8")]))
    assert chat_request_digest(request) == full_payload_digest(req(user="".join(pieces) + "classify"))


def test_a_request_cannot_be_given_its_key_from_outside():
    for name in ("_state", "_record_start"):
        with pytest.raises(TypeError, match=name):
            ChatRequest(system_text="sys", user_text="classify this", model_name="gpt-4", **{name: None})


def test_a_directly_built_request_is_keyed_only_when_first_asked():
    request = req()
    assert (request._state, request._record_start) == (None, None)
    digest = chat_request_digest(request)
    assert request._state is not None and chat_request_digest(request) == digest


def test_replacing_a_field_of_an_extended_request_keys_its_new_fields():
    keyed = req(user="classify ").extend(["this"])
    copy = rebuilt(keyed)
    assert copy == keyed and chat_request_digest(copy) == chat_request_digest(keyed) == chat_request_digest(req())
    for changes in ({"user_text": "classify that"}, {"model_name": "gpt-3.5"}, {"system_text": "other"},
                    {"temperature": 0.7}, {"max_output_tokens": 16}):
        other = rebuilt(keyed, **changes)
        assert chat_request_digest(other) == full_payload_digest(other) != chat_request_digest(keyed)
        assert canonical(chat_record(other, "1. Claim", Usage())).startswith(record_bytes(other) + b'"\n  },')


def test_equality_hash_and_repr_ignore_the_key():
    plain = req()
    keyed = req(user="classify ").extend(["this"])
    assert keyed == plain
    assert hash(keyed) == hash(plain)
    assert repr(keyed) == repr(plain)
    assert "_state" not in repr(keyed) and "_record_start" not in repr(keyed)


def test_one_request_shared_by_eight_threads_gives_the_sequential_digests():
    context = "shared context \u2028 \"quoted\" \U0001F600\n\n" * 500
    instructions = [f"Which class is argument component {j} of 64?" for j in range(1, 65)]

    def digest(shared, instruction):
        return chat_request_digest(shared.extend([instruction]))

    shared = req(user=context)
    sequential = [digest(shared, instruction) for instruction in instructions]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(4):
                shared = req(user=context)  # keyed first by whichever thread gets there
                assert list(pool.map(digest, [shared] * 64, instructions, timeout=60)) == sequential
    finally:
        sys.setswitchinterval(switch_interval)
    assert sequential == [full_payload_digest(req(user=context + instruction)) for instruction in instructions]
    assert len(set(sequential)) == 64


def test_the_key_is_not_stored(tmp_path):
    store = ResponseStore(tmp_path)
    keyed = req(user="classify ").extend(["this"])
    StoreChatBackend(store, CountingChatBackend()).complete(keyed)
    (record_file,) = (tmp_path / "chat").iterdir()
    assert record_file.name == f"{chat_request_digest(req())}.json"
    assert set(json.loads(record_file.read_text(encoding="utf-8"))["request"]) == {
        "model_name", "system_text", "user_text", "temperature", "max_output_tokens"}


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
        assert vector.source_text_digest == embedding_digest("m", key)
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


@pytest.mark.parametrize("kind", ["chat", "chat-context"])
def test_a_record_that_cannot_be_read_names_the_file(tmp_path, kind):
    context = ChatRequest("sys", "", "gpt-4").extend(["the round's context, "], shared=True)
    request = context.extend(["classify this"])
    ResponseStore(tmp_path).put_chat(request, ChatResponse("1. Premise", Usage(3, 2), BackendTag.LIVE))
    path = tmp_path / kind / f"{chat_request_digest(request if kind == 'chat' else context)}.json"
    path.unlink()
    path.mkdir()  # a directory where the record should be
    with pytest.raises(AtcError, match=f"^cannot read store record {re.escape(str(path))}: Is a directory$"):
        StoreChatBackend(ResponseStore(tmp_path)).complete(context.extend(["classify this"]))


def test_a_store_serves_what_it_wrote_into_directories_its_first_reads_did_not_find(tmp_path):
    store = ResponseStore(tmp_path / "store")  # no chat/, chat-context/ or embed/ yet, as for a first cache run
    chat = StoreChatBackend(store, CountingChatBackend())
    context = req(user="").extend(["the round's context, "], shared=True)
    for request in (req(), context.extend(["classify this"])):  # filed inline, and with a context file
        assert chat.complete(request).backend_tag is BackendTag.LIVE
        assert chat.complete(request).backend_tag is BackendTag.CACHE
    assert chat.upstream.calls == 2
    embedder = StoreEmbeddingBackend(store, "hash-embed-8", HashEmbeddingBackend())
    assert [embedder.embed("T")[1] for _ in range(2)] == [BackendTag.MOCK, BackendTag.CACHE]
    store.close()
    assert chat.complete(req()).backend_tag is BackendTag.CACHE  # a read after close opens chat/ again


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")
def test_a_store_opens_each_directory_once_and_closing_the_gateway_releases_it(tmp_path):
    def open_descriptors():
        return len(os.listdir("/proc/self/fd"))

    store = ResponseStore(tmp_path)
    chat = StoreChatBackend(store, CountingChatBackend())
    embedder = StoreEmbeddingBackend(store, "hash-embed-8", HashEmbeddingBackend())
    before = open_descriptors()
    for _ in range(3):
        chat.complete(req())
        embedder.embed("T")
    assert open_descriptors() == before + 2  # chat/ and embed/
    Gateway(chat_backend=chat, embedding_backend=embedder).close()
    assert open_descriptors() == before
    unclosed = ResponseStore(tmp_path)
    assert unclosed.get_chat(req()) is not None and open_descriptors() == before + 1
    del unclosed  # released when it goes
    assert open_descriptors() == before


_USAGE = {"prompt_tokens": 3, "completion_tokens": 2}


MALFORMED_RECORDS = pytest.mark.parametrize(
    "record, message",
    [({}, "no 'response' field"),
     ({"response": {"text": "1. Premise"}}, "no 'usage' field"),
     ({"response": {"usage": _USAGE}}, "no 'text' field"),
     ({"response": {"text": "1. Premise", "usage": {"completion_tokens": 2}}}, "no 'prompt_tokens' field"),
     ({"response": {"text": "1. Premise", "usage": {"prompt_tokens": 3}}}, "no 'completion_tokens' field"),
     ({"response": "1. Premise"}, "string indices"),
     ({"response": {"text": None, "usage": _USAGE}}, "text is NoneType, not a string"),
     ({"response": {"text": ["1. Premise"], "usage": _USAGE}}, "text is list, not a string"),
     ({"response": {"text": "1. Premise", "usage": {"prompt_tokens": "3", "completion_tokens": 2}}},
      "token counts .* are not integers"),
     ({"response": {"text": "1. Premise", "usage": {"prompt_tokens": 3, "completion_tokens": 2.5}}},
      "token counts .* are not integers"),
     ({"response": {"text": "1. Premise", "usage": {"prompt_tokens": 3, "completion_tokens": None}}},
      "token counts .* are not integers"),
     ({"response": {"text": "1. Premise", "usage": {"prompt_tokens": True, "completion_tokens": 2}}},
      "token counts .* are not integers")],
    ids=["empty", "no-usage", "no-text", "no-prompt-tokens", "no-completion-tokens", "response-not-a-mapping",
         "null-text", "list-text", "string-count", "float-count", "null-count", "bool-count"],
)


@MALFORMED_RECORDS
def test_malformed_chat_record_names_its_digest(tmp_path, record, message):
    digest = chat_request_digest(req())
    path = tmp_path / "chat" / f"{digest}.json"
    path.parent.mkdir()
    path.write_text(json.dumps(record), encoding="utf-8")
    upstream = CountingChatBackend()
    for backend in (StoreChatBackend(ResponseStore(tmp_path)), StoreChatBackend(ResponseStore(tmp_path), upstream)):
        with pytest.raises(AtcError, match=f"malformed chat record {digest}: {message}"):
            backend.complete(req())
    assert upstream.calls == 0


@MALFORMED_RECORDS
@pytest.mark.parametrize("layout", ["inline", "context"])
def test_a_malformed_answer_in_the_layout_put_chat_writes_is_reported_as_a_whole_parse_reports_it(
    tmp_path, monkeypatch, record, message, layout
):
    if layout == "inline":
        request = req()
    else:
        context = ChatRequest("sys", "", "gpt-4").extend(["the round's context, "], shared=True)
        request = context.extend(["classify this"])
    store = ResponseStore(tmp_path)
    store.put_chat(request, ChatResponse("1. Premise", Usage(3, 2), BackendTag.LIVE))  # and the context file
    digest = chat_request_digest(request)
    path = tmp_path / "chat" / f"{digest}.json"
    written = json.loads(path.read_bytes())

    def render(answer):
        return (json.dumps({**answer, "request": written["request"]}, sort_keys=True, ensure_ascii=False, indent=2)
                + "\n").encode("utf-8")

    assert render({"response": written["response"]}) == path.read_bytes()  # the layout put_chat writes
    path.write_bytes(render(record))
    real_loads, parsed = json.loads, []
    monkeypatch.setattr(json, "loads", lambda data, **kwargs: parsed.append(data) or real_loads(data, **kwargs))
    with pytest.raises(AtcError, match=f"^malformed chat record {digest}: {message}"):
        ResponseStore(tmp_path).get_chat(request)
    # Every case with a response is refused from its response alone; only "empty" is parsed whole.
    assert len(parsed) == ("response" not in record)


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
            second.put_chat(req(), response)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    first.put_chat(req(), response)
    assert interleaved
    assert first.get_chat(req()) == ("1. Claim", Usage(3, 1))
    assert [p.name for p in (tmp_path / "store" / "chat").iterdir()] == [f"{digest}.json"]


def chat_record(request, text, usage):
    """A chat record as a dict, the way every store so far was written."""
    return {
        "request": {"model_name": request.model_name, "system_text": request.system_text,
                    "user_text": request.user_text, "temperature": request.temperature,
                    "max_output_tokens": request.max_output_tokens},
        "response": {"text": text, "usage": {"prompt_tokens": usage.prompt_tokens,
                                             "completion_tokens": usage.completion_tokens}},
    }


def canonical(record, **layout):
    return (json.dumps(record, **{"sort_keys": True, "ensure_ascii": False, "indent": 2, **layout}) + "\n").encode()


def write_record(root, request, data):
    """File ``data`` as the chat record of ``request``; return the request's digest."""
    digest = chat_request_digest(request)
    path = root / "chat" / f"{digest}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return digest


def no_full_parse(*args):
    raise AssertionError("the record was parsed whole")


@given(context=KEY_TEXT, rest=KEY_TEXT.filter(bool), system=KEY_TEXT, text=KEY_TEXT, extended=st.booleans())
def test_a_chat_record_is_its_canonical_json_and_is_served_without_a_full_parse(context, rest, system, text,
                                                                                 extended):
    if extended:
        request = ChatRequest(system_text=system, user_text=context, model_name="gpt-4", temperature=0.7,
                              max_output_tokens=256).extend([rest])
    else:
        request = ChatRequest(system_text=system, user_text=context + rest, model_name="gpt-4", temperature=0.7,
                              max_output_tokens=256)
    with tempfile.TemporaryDirectory() as root:
        store = ResponseStore(root)
        digest = chat_request_digest(request)
        store.put_chat(request, ChatResponse(text, Usage(5, 2), BackendTag.LIVE))
        with open(os.path.join(root, "chat", f"{digest}.json"), "rb") as handle:
            assert handle.read() == canonical(chat_record(request, text, Usage(5, 2)))
        store._parse = no_full_parse
        assert store.get_chat(request) == (text, Usage(5, 2))


@pytest.mark.parametrize("layout", [{"indent": 4}, {"ensure_ascii": True}, {"indent": None}, {"sort_keys": False}],
                         ids=["indent-4", "ascii", "one-line", "unsorted"])
def test_a_record_of_another_layout_still_replays_through_a_full_parse(tmp_path, layout):
    request = req(user="café   \"classify\" this")
    digest = write_record(tmp_path, request, canonical(chat_record(request, "1. Cläim", Usage(3, 1)), **layout))
    store = ResponseStore(tmp_path)
    parsed = []
    real_parse = store._parse
    store._parse = lambda *args: parsed.append(args[1]) or real_parse(*args)
    assert StoreChatBackend(store).complete(request) == ChatResponse("1. Cläim", Usage(3, 1), BackendTag.REPLAY)
    assert parsed == [digest]


@pytest.mark.parametrize("cut", [lambda data: data[:-12], lambda data: data[:-30] + b"\n}\n"],
                         ids=["end-cut", "response-cut"])
def test_a_canonical_head_before_a_truncated_response_is_a_corrupt_record(tmp_path, cut):
    digest = write_record(tmp_path, req(), cut(canonical(chat_record(req(), "1. Claim", Usage(3, 1)))))
    with pytest.raises(AtcError, match=f"corrupt store record .*{digest}.json"):
        StoreChatBackend(ResponseStore(tmp_path)).complete(req())


def test_an_invalid_utf8_byte_in_the_request_is_a_corrupt_record(tmp_path):
    data = canonical(chat_record(req(), "1. Claim", Usage(3, 1)))
    digest = write_record(tmp_path, req(), data.replace(b"classify", b"classif\xff", 1))
    with pytest.raises(AtcError, match=f"corrupt store record .*{digest}.json"):
        StoreChatBackend(ResponseStore(tmp_path)).complete(req())


@pytest.mark.parametrize(
    "other, field",
    [(req(user="classify that"), "user_text"), (req(model="gpt-3.5-turbo"), "model_name"),
     (ChatRequest(system_text="other", user_text="classify this", model_name="gpt-4"), "system_text"),
     (req(temperature=0.7), "temperature"), (req(max_output_tokens=16), "max_output_tokens")],
)
def test_a_record_filed_under_another_requests_digest_is_refused(tmp_path, other, field):
    # Recorded for ``other``, then copied over the record of req().
    digest = write_record(tmp_path, req(), canonical(chat_record(other, "1. Claim", Usage(3, 1))))
    upstream = CountingChatBackend()
    for backend in (StoreChatBackend(ResponseStore(tmp_path)), StoreChatBackend(ResponseStore(tmp_path), upstream)):
        with pytest.raises(AtcError, match=f"^chat record {digest} was recorded for another request: its {field} "):
            backend.complete(req())
    assert upstream.calls == 0


@pytest.mark.parametrize(
    "edit, message",
    [(lambda record: record.pop("request"), "no 'request' object"),
     (lambda record: record.update(request="classify this"), "no 'request' object"),
     (lambda record: record["request"].pop("user_text"), "no 'user_text' field"),
     (lambda record: record["request"].update(max_output_tokens=1024.0),
      "was recorded for another request: its max_output_tokens differs")],
    ids=["no-request", "request-not-a-mapping", "no-user-text", "float-token-limit"],
)
def test_a_record_without_its_request_is_refused(tmp_path, edit, message):
    record = chat_record(req(), "1. Claim", Usage(3, 1))
    edit(record)
    digest = write_record(tmp_path, req(), canonical(record))
    with pytest.raises(AtcError, match=f"chat record {digest}.* {message}"):
        StoreChatBackend(ResponseStore(tmp_path)).complete(req())


def test_a_hit_and_a_miss_each_escape_the_instruction_once(tmp_path, monkeypatch):
    context = req(user="").extend(["shared \"context\" \u2028\n"])
    instruction = "Which class is \"component\" 2 of 3?\t\U0001F600"
    real_escape, escaped = gateway_module.escape_piece, []
    monkeypatch.setattr(gateway_module, "escape_piece", lambda text: escaped.append(text) or real_escape(text))
    backend = StoreChatBackend(ResponseStore(tmp_path), CountingChatBackend())
    miss = backend.complete(context.extend([instruction]))
    assert miss.backend_tag is BackendTag.LIVE and escaped == [instruction]
    escaped.clear()
    hit = backend.complete(context.extend([instruction]))
    assert hit.backend_tag is BackendTag.CACHE and escaped == [instruction]
    assert (hit.text, hit.usage) == (miss.text, miss.usage)


def test_a_record_read_in_short_pieces_is_served_as_one_read_serves_it(tmp_path, monkeypatch):
    request = req(user="caf\u00e9 context ").extend(["classify this"])
    digest = chat_request_digest(request)
    store = ResponseStore(tmp_path)
    store.put_chat(request, ChatResponse("1. Cl\u00e4im", Usage(3, 1), BackendTag.LIVE))
    data = (tmp_path / "chat" / f"{digest}.json").read_bytes()
    assert store._read("chat", digest) == data
    real_read, sizes = os.read, []

    def short_read(fd, n):
        piece = real_read(fd, min(n, 7))
        sizes.append(len(piece))
        return piece

    monkeypatch.setattr(gateway_module.os, "read", short_read)
    assert store._read("chat", digest) == data
    assert len(sizes) == -(-len(data) // 7) + 1 and sizes[-1] == 0  # read on to EOF
    assert store.get_chat(request) == ("1. Cl\u00e4im", Usage(3, 1))


FIXTURE_STORE = Path(__file__).parent / "data" / "replay_fixture" / "store"
FIXTURE_CHAT = sorted((FIXTURE_STORE / "chat").glob("*.json"))


@pytest.mark.parametrize("path", FIXTURE_CHAT, ids=lambda path: path.stem[:12])
def test_every_fixture_chat_record_is_served_without_a_full_parse(path, monkeypatch):
    record = json.loads(path.read_bytes())
    fields = record["request"]
    user = fields["user_text"]
    head = ChatRequest(fields["system_text"], user[: len(user) // 2], fields["model_name"], fields["temperature"],
                       fields["max_output_tokens"])
    keyed = head.extend([user[len(user) // 2:]])
    assert chat_request_digest(keyed) == path.stem
    store = ResponseStore(path.parent.parent)
    expected = record["response"]["text"], Usage(**record["response"]["usage"])
    real_loads, real_decode, parsed = json.loads, gateway_module._decode_json, []
    monkeypatch.setattr(json, "loads", lambda data, **kwargs: parsed.append(data) or real_loads(data, **kwargs))
    monkeypatch.setattr(gateway_module, "_decode_json", lambda text: parsed.append(text) or real_decode(text))
    assert store.get_chat(keyed) == expected
    assert len(parsed) == 1 and '"request"' not in parsed[0]


@pytest.mark.parametrize("extended", [False, True], ids=["plain", "extended"])
def test_the_fixture_recorded_again_gets_its_committed_names_and_bytes(tmp_path, extended):
    """Every fixture record, written again into an empty store, is filed where it was, with the bytes it has.

    Two embedding records hold a legacy JSON ``vector`` list; written again,
    they keep their names and vectors, now packed.
    """
    store, committed = ResponseStore(tmp_path), ResponseStore(FIXTURE_STORE)
    for path in FIXTURE_CHAT:
        record = json.loads(path.read_bytes())
        fields, response = record["request"], record["response"]
        user = fields["user_text"]
        split = len(user) // 2 if extended else len(user)
        request = ChatRequest(fields["system_text"], user[:split], fields["model_name"], fields["temperature"],
                              fields["max_output_tokens"])
        if extended:
            request = request.extend([user[split:]])
        store.put_chat(request, ChatResponse(response["text"], Usage(**response["usage"]), BackendTag.LIVE))
        assert (tmp_path / "chat" / path.name).read_bytes() == path.read_bytes()
    legacy = []
    for path in sorted((FIXTURE_STORE / "embed").glob("*.json")):
        record = json.loads(path.read_bytes())
        store.put_embedding(record["model_name"], record["text"], committed.get_embedding(path.stem))
        if "vector_f64" in record:
            assert (tmp_path / "embed" / path.name).read_bytes() == path.read_bytes()
        else:
            legacy.append(path.stem)
            assert store.get_embedding(path.stem) == committed.get_embedding(path.stem)
    assert len(legacy) == 2
    for kind in ("chat", "embed"):
        names = sorted(path.name for path in (FIXTURE_STORE / kind).glob("*.json"))
        assert sorted(path.name for path in (tmp_path / kind).iterdir()) == names


def shared_round(context="shared \"context\" café  \n\n", rests=("Which is 1?", "Which is 2?", "Which is 3?"),
                 system="sys"):
    """A round context that several requests share, marked so, and the request of each of ``rests``."""
    head = ChatRequest(system_text=system, user_text="", model_name="gpt-4", temperature=0.7, max_output_tokens=256)
    shared = head.extend([context], shared=True)
    return shared, [shared.extend([rest]) for rest in rests]


def context_file_bytes(shared):
    """What a shared round context's file holds: the record of its request, with no response."""
    fields = {"model_name": shared.model_name, "system_text": shared.system_text, "user_text": shared.user_text,
              "temperature": shared.temperature, "max_output_tokens": shared.max_output_tokens}
    return canonical({"request": fields})


@given(context=KEY_TEXT, rests=st.lists(KEY_TEXT, min_size=2, max_size=3), system=KEY_TEXT, text=KEY_TEXT)
def test_a_shared_rounds_records_rebuild_the_records_of_requests_built_whole(context, rests, system, text):
    shared, requests = shared_round(context, rests, system)
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        store = ResponseStore(root)
        for request in requests:
            store.put_chat(request, ChatResponse(text, Usage(5, 2), BackendTag.LIVE))
        (context_file,) = (root / "chat-context").iterdir()
        assert context_file.name == f"{chat_request_digest(shared)}.json"
        assert context_file.read_bytes() == context_file_bytes(shared)
        for request, rest in zip(requests, rests):
            data = (root / "chat" / f"{chat_request_digest(request)}.json").read_bytes()
            answer = {"text": text, "usage": {"prompt_tokens": 5, "completion_tokens": 2}}
            assert data == canonical({"request": {"context": context_file.stem, "user_text_rest": rest},
                                      "response": answer})
            assert inline_chat_record(root, data) == canonical(chat_record(request, text, Usage(5, 2)))
        # A new round over the same context reads its file once, and parses no record whole.
        _, again = shared_round(context, rests, system)
        store = ResponseStore(root)
        real_read, reads = store._read, []
        store._read = lambda kind, digest: reads.append(kind) or real_read(kind, digest)
        store._parse = no_full_parse
        assert [store.get_chat(request) for request in again] == [(text, Usage(5, 2))] * len(rests)
        assert reads.count("chat-context") == 1 and reads.count("chat") == len(rests)
        assert not any("user_text" in vars(request) for request in again)  # served without joining a text


@settings(max_examples=150)
@given(data=st.data())
def test_a_cut_context_file_or_record_is_refused_naming_it_or_serves_its_whole_answer(data):
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        store = ResponseStore(root)
        _, requests = shared_round()
        for j, request in enumerate(requests):
            store.put_chat(request, ChatResponse(f"{j + 1}. Claim", Usage(j, 1), BackendTag.LIVE))
        path = data.draw(st.sampled_from(sorted((root / "chat-context").iterdir()) + sorted((root / "chat").iterdir())))
        whole = path.read_bytes()
        path.write_bytes(whole[: data.draw(st.integers(0, len(whole) - 1))])
        _, again = shared_round()
        store = ResponseStore(root)
        for j, request in enumerate(again):
            try:
                answer = store.get_chat(request)
            except AtcError as exc:
                assert path.stem in str(exc)  # its digest, or its path
            else:
                assert answer == (f"{j + 1}. Claim", Usage(j, 1))


@pytest.mark.parametrize("edit, state", [(lambda path, other: path.write_bytes(other.read_bytes()),
                                          "does not hold the round context of the request asked"),
                                         (lambda path, other: path.unlink(), "is missing")],
                         ids=["another-rounds", "missing"])
def test_a_record_whose_context_file_does_not_hold_its_rounds_context_is_refused_naming_it(tmp_path, edit, state):
    store = ResponseStore(tmp_path)
    (first, firsts), (second, seconds) = shared_round("first context\n"), shared_round("second context\n")
    for request in firsts + seconds:
        store.put_chat(request, ChatResponse("1. Claim", Usage(3, 1), BackendTag.LIVE))
    path, other = (tmp_path / "chat-context" / f"{chat_request_digest(shared)}.json" for shared in (first, second))
    edit(path, other)
    upstream = CountingChatBackend()
    for backend in (StoreChatBackend(ResponseStore(tmp_path)), StoreChatBackend(ResponseStore(tmp_path), upstream)):
        _, again = shared_round("first context\n")
        with pytest.raises(AtcError, match=f"^chat context file {re.escape(str(path))} {state}$"):
            backend.complete(again[0])
    assert upstream.calls == 0
    _, again = shared_round("second context\n")
    assert ResponseStore(tmp_path).get_chat(again[0]) == ("1. Claim", Usage(3, 1))


def test_a_record_that_names_another_context_file_is_refused_naming_its_digest(tmp_path):
    store = ResponseStore(tmp_path)
    (_, firsts), (_, seconds) = shared_round("first context\n"), shared_round("second context\n")
    for request in firsts + seconds:
        store.put_chat(request, ChatResponse("1. Claim", Usage(3, 1), BackendTag.LIVE))
    for copied, request in ((firsts[1], firsts[0]), (seconds[0], firsts[0])):  # of its round, and of another
        digest = chat_request_digest(request)
        target = tmp_path / "chat" / f"{digest}.json"
        target.write_bytes((tmp_path / "chat" / f"{chat_request_digest(copied)}.json").read_bytes())
        _, again = shared_round("first context\n")
        with pytest.raises(AtcError, match=f"^chat record {digest} was recorded for another request: its user_text "):
            ResponseStore(tmp_path).get_chat(again[0])


@pytest.mark.parametrize("context, message", [(".." + "0" * 62, "its context is not a digest"),
                                              (None, "its context is not a digest"),
                                              ("0" * 64, "names the chat context file .*, which is missing")])
def test_a_record_that_names_no_context_file_of_the_store_is_refused(tmp_path, context, message):
    request = req()
    record = {"request": {"context": context, "user_text_rest": "this"},
              "response": {"text": "1. Claim", "usage": {"prompt_tokens": 3, "completion_tokens": 1}}}
    digest = write_record(tmp_path, request, canonical(record))
    with pytest.raises(AtcError, match=f"chat record {digest}.* {message}"):
        ResponseStore(tmp_path).get_chat(request)


def test_two_threads_that_write_one_rounds_context_at_once_leave_one_file_of_its_bytes(tmp_path, monkeypatch):
    barrier, real_replace = threading.Barrier(2, timeout=30), os.replace

    def replace(src, dst):
        if "chat-context" in str(dst):
            barrier.wait()  # both temp files are written before either is renamed
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    backend = StoreChatBackend(ResponseStore(tmp_path), CountingChatBackend())
    # Each thread holds the round's context as a request of its own, so each writes its file.
    (first, firsts), (_, seconds) = shared_round(), shared_round()
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert [r.backend_tag for r in pool.map(backend.complete, [firsts[0], seconds[1]], timeout=60)] == \
            [BackendTag.LIVE] * 2
    (context_file,) = (tmp_path / "chat-context").iterdir()
    assert context_file.read_bytes() == context_file_bytes(first)
    assert all(path.suffix == ".json" for kind in ("chat", "chat-context") for path in (tmp_path / kind).iterdir())
    _, again = shared_round()
    assert [backend.complete(again[j]).backend_tag for j in (0, 1)] == [BackendTag.CACHE] * 2


def test_a_one_instruction_round_or_a_request_built_whole_keeps_its_record_inline(tmp_path):
    store = ResponseStore(tmp_path)
    head = req(user="")
    for request in (head.extend(["shared context\n"]).extend(["classify this"]), req(user="classify that")):
        store.put_chat(request, ChatResponse("1. Claim", Usage(3, 1), BackendTag.LIVE))
        data = (tmp_path / "chat" / f"{chat_request_digest(request)}.json").read_bytes()
        assert data == canonical(chat_record(request, "1. Claim", Usage(3, 1)))
    assert not (tmp_path / "chat-context").exists()


def test_an_inline_record_serves_a_request_of_a_shared_round_and_a_context_record_one_built_whole(tmp_path):
    """Records written before context files replay a one-by-one round; a context record replays a direct request."""
    _, requests = shared_round()
    write_record(tmp_path, requests[0], canonical(chat_record(requests[0], "1. Claim", Usage(3, 1))))
    store = ResponseStore(tmp_path)
    store._parse = no_full_parse
    assert store.get_chat(requests[0]) == ("1. Claim", Usage(3, 1))
    assert not (tmp_path / "chat-context").exists()
    store.put_chat(requests[1], ChatResponse("2. Premise", Usage(4, 1), BackendTag.LIVE))
    whole = rebuilt(requests[1])
    assert whole._text_parts is None and whole == requests[1]
    assert ResponseStore(tmp_path).get_chat(whole) == ("2. Premise", Usage(4, 1))


def test_an_extended_request_joins_its_user_text_when_it_is_first_read():
    shared = req(user="shared ").extend(["context "], shared=True)
    request = shared.extend(["classify ", "this"])
    assert "user_text" not in vars(request) and "user_text" not in vars(shared)
    assert request == req(user="shared context classify this")  # equality reads it
    assert vars(request)["user_text"] == "shared context classify this"
    assert request.user_text is vars(request)["user_text"]  # joined once, then kept
    assert "user_text" not in vars(shared)
    with pytest.raises(AttributeError, match="no attribute 'other'"):
        request.other  # noqa: B018


def test_replay_only_gateway_performs_zero_network_calls(tmp_path):
    store = ResponseStore(tmp_path / "store")
    StoreChatBackend(store, CountingChatBackend()).complete(req())
    gateway = Gateway(chat_backend=StoreChatBackend(store), retry=no_sleep_policy())
    gateway.chat(req())
    gateway.chat(req())
    assert sum(n for (_, tag), n in gateway.counts.items() if tag is BackendTag.LIVE) == 0
    assert gateway.tags_used() == {BackendTag.REPLAY}


def test_retry_recovers_from_transient_failures():
    backend = FlakyChatBackend(failures=2)
    slept = []
    gateway = Gateway(
        chat_backend=backend,
        retry=RetryPolicy(attempts=3, base_delay=1.0, sleep=slept.append, draw=longest),
    )
    response = gateway.chat(req())
    assert response.text == "1. Claim"
    assert backend.calls == 3
    assert slept == [1.0, 2.0]  # exponential backoff


def test_backoff_waits_a_draw_between_half_and_all_of_the_backoff_and_never_less_than_retry_after():
    asked, slept = [], []

    def draw(low, high):
        asked.append((low, high))
        return random.uniform(low, high)

    backend = FlakyChatBackend(failures=4)
    gateway = Gateway(chat_backend=backend,
                      retry=RetryPolicy(attempts=5, base_delay=1.0, sleep=slept.append, draw=draw))
    assert gateway.chat(req()).text == "1. Claim"
    assert asked == [(0.5, 1.0), (1.0, 2.0), (2.0, 4.0), (4.0, 8.0)]
    assert all(low <= wait <= high for (low, high), wait in zip(asked, slept))

    # The default draw is uniform over the same bounds, and a Retry-After above it wins.
    for retry_after in (None, 0.7, 3.0):
        slept.clear()
        backend = FlakyChatBackend(failures=2, exc=lambda message: RateLimited(message, retry_after))
        gateway = Gateway(chat_backend=backend, retry=RetryPolicy(attempts=3, base_delay=1.0, sleep=slept.append))
        for _ in range(20):
            backend.failures, backend.calls = 2, 0
            gateway.chat(req())
        firsts, seconds = slept[0::2], slept[1::2]
        floor = retry_after or 0.0
        assert all(max(0.5, floor) <= wait <= max(1.0, floor) for wait in firsts)
        assert all(max(1.0, floor) <= wait <= max(2.0, floor) for wait in seconds)
        if retry_after is None:
            assert len(set(slept)) > 2  # jittered, not one fixed wait


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


@pytest.mark.parametrize(
    "values",
    [
        (math.nan, 1.0),  # NaN passes the [-1, 1] clamp as 1.0
        (math.inf, -math.inf),  # fsum raises ValueError on inf + -inf
        (2.0**511.5, 2.0**511.5),  # fsum overflows summing the squares
        (2.0**600, 1.0),  # a square overflows, so the norm is inf
    ],
)
def test_cosine_rejects_non_finite_and_overflowing_vectors(values):
    bad = EmbeddingVector(values=values, source_text_digest="bad-digest")
    good = EmbeddingVector(values=(1.0, 1.0), source_text_digest="good-digest")
    for a, b in ((bad, good), (good, bad)):
        with pytest.raises(NonFiniteCosine, match="good-digest") as raised:
            cosine_similarity(a, b)
        assert "bad-digest" in str(raised.value)


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


@pytest.mark.parametrize("dim", [8, 1536])
def test_cosine_with_cached_norms_is_bit_identical_to_inline_formula(dim):
    backend = HashEmbeddingBackend(dim=dim)
    vectors = [backend.embed(f"Title {i}")[0] for i in range(12)]

    def inline(a, b):  # the formula before norms were cached on the vector
        norm_a = math.sqrt(math.fsum(x * x for x in a.values))
        norm_b = math.sqrt(math.fsum(x * x for x in b.values))
        dot = math.fsum(x * y for x, y in zip(a.values, b.values))
        return max(-1.0, min(1.0, dot / (norm_a * norm_b)))

    for a in vectors:
        for b in vectors:
            assert cosine_similarity(a, b) == inline(a, b)


def test_cached_norm_leaves_equality_and_hash_alone():
    a, b = vec(3, 4), vec(3, 4)
    assert a.norm == 5.0
    assert "norm" in vars(a) and "norm" not in vars(b)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_embed_empty_text_rejected():
    gateway = Gateway(embedding_backend=HashEmbeddingBackend(dim=4))
    with pytest.raises(ValueError):
        gateway.embed("")


def test_chat_refuses_an_empty_user_text_before_any_backend_is_called():
    backend = CountingChatBackend()
    gateway = Gateway(chat_backend=backend)
    shared = req(user="").extend(["", ""], shared=True)
    for request in (req(user=""), req(user="").extend([]), req(user="").extend([""]), shared.extend([""])):
        with pytest.raises(ValueError, match="cannot ask with empty user text"):
            gateway.chat(request)
        assert request._text_parts is None or "user_text" not in vars(request)  # told without joining it
    assert backend.calls == 0 and not gateway.counts
    assert gateway.chat(shared.extend(["", "x"])).text == "1. Premise" and backend.calls == 1


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


def canned(status=200, body=None, text="", headers=None):
    """A canned answer of the local server: ``body`` as JSON, or else ``text`` as it is."""
    return status, headers or {}, (text if body is None else json.dumps(body)).encode("utf-8")


def test_live_chat_backend_parses_openai_shape(openai_server, session):
    openai_server.answers.append(
        canned(
            body={
                "choices": [{"message": {"content": "1. Premise"}}],
                "usage": {"prompt_tokens": 12, "completion_tokens": 4},
            }
        )
    )
    response = LiveChatBackend(session).complete(req())
    assert response.text == "1. Premise"
    assert response.usage == Usage(12, 4)
    assert response.backend_tag is BackendTag.LIVE
    ((target, headers, payload),) = openai_server.received
    assert target == "/v1/chat/completions"
    assert headers["Authorization"] == "Bearer sk-local-test"
    assert payload["messages"][1]["content"] == "classify this"


def test_live_chat_backend_maps_status_codes(openai_server, session):
    backend = LiveChatBackend(session)
    for status, error, message in [(429, RateLimited, "^429 from /chat/completions$"),
                                   (503, TransportError, "^503 from /chat/completions$"),
                                   (400, GatewayConfigError, "^400 from /chat/completions: bad request$")]:
        openai_server.answers.append(canned(status, text="bad request"))
        with pytest.raises(error, match=message):
            backend.complete(req())


def test_live_backend_requires_api_key(openai_server, session, monkeypatch):
    monkeypatch.delenv(OpenAIServer.KEY_ENV)
    with pytest.raises(GatewayConfigError, match=f"^environment variable {OpenAIServer.KEY_ENV} is not set$"):
        LiveChatBackend(session).complete(req())
    assert not openai_server.received


def test_live_embedding_backend_parses_openai_shape(openai_server, session):
    openai_server.answers.append(canned(body={"data": [{"embedding": [0.1, 0.2]}]}))
    backend = LiveEmbeddingBackend(session, "text-embedding-ada-002")
    vector, tag = backend.embed("A title")
    assert vector.values == (0.1, 0.2)
    assert vector.source_text_digest == embedding_digest("text-embedding-ada-002", "A title")
    assert tag is BackendTag.LIVE


@pytest.mark.parametrize(
    "header, expected",
    [({"Retry-After": "7"}, 7.0), ({"Retry-After": "0.25"}, 0.25), ({}, None),
     ({"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, None), ({"Retry-After": "nan"}, None),
     ({"Retry-After": "-3"}, None)],
    ids=["seconds", "fraction", "missing", "http-date", "nan", "negative"],
)
def test_rate_limit_carries_a_numeric_retry_after(openai_server, session, header, expected):
    openai_server.answers.append(canned(429, headers=header))
    with pytest.raises(RateLimited) as raised:
        LiveChatBackend(session).complete(req())
    assert raised.value.retry_after == expected


def test_retry_waits_at_least_the_retry_after(openai_server, session):
    openai_server.answers.extend([
        canned(429, headers={"Retry-After": "5"}),  # longer than the backoff
        canned(429, headers={"Retry-After": "0.5"}),  # shorter than the backoff
        canned(429, headers={"Retry-After": "soon"}),  # not a number
        canned(body={"choices": [{"message": {"content": "1. Claim"}}]}),
    ])
    slept = []
    gateway = Gateway(
        chat_backend=LiveChatBackend(session),
        retry=RetryPolicy(attempts=4, base_delay=1.0, sleep=slept.append, draw=longest),
    )
    assert gateway.chat(req()).text == "1. Claim"
    assert slept == [5.0, 2.0, 4.0]
    assert not openai_server.answers


def _f64(values):
    return struct.pack(f"<{len(values)}d", *values)


EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREMES),
                min_size=1, max_size=64))
def test_packed_records_replay_bit_identically(values):
    with tempfile.TemporaryDirectory() as tmp:
        store = ResponseStore(tmp)
        store.put_embedding("m", "T", values)
        record = json.loads((store.root / "embed" / f"{embedding_digest('m', 'T')}.json").read_text())
        assert set(record) == {"model_name", "text", "vector_f64"}
        vector, tag = StoreEmbeddingBackend(store, "m").embed("T")
    assert tag is BackendTag.REPLAY
    assert isinstance(vector.values, tuple)
    assert _f64(vector.values) == _f64(values)


def test_legacy_float_list_record_still_replays(tmp_path):
    values = [0.1, -0.0, 5e-324, 1.7976931348623157e308, -2.5, 1 / 3]
    path = tmp_path / "embed" / f"{embedding_digest('m', 'T')}.json"
    path.parent.mkdir()
    path.write_text(json.dumps({"model_name": "m", "text": "T", "vector": values}, indent=2), encoding="utf-8")
    vector, tag = StoreEmbeddingBackend(ResponseStore(tmp_path), "m").embed("T")
    assert tag is BackendTag.REPLAY
    assert vector.values == tuple(values)
    assert _f64(vector.values) == _f64(values)


@pytest.mark.parametrize(
    "fields, message",
    [({"vector_f64_": "00" * 8}, "no vector_f64 or vector field"),
     ({"vector_f64": "zz" * 8}, "non-hexadecimal"),
     ({"vector_f64": "00" * 12}, "12 bytes"),
     ({"values": [1.0, 2.0]}, "no vector_f64 or vector field")],
    ids=["no-vector", "bad-hex", "not-a-multiple-of-8", "pack-field-in-a-record"],
)
def test_malformed_embedding_record_names_its_digest(tmp_path, fields, message):
    digest = embedding_digest("m", "T")
    path = tmp_path / "embed" / f"{digest}.json"
    path.parent.mkdir()
    path.write_text(json.dumps({"model_name": "m", "text": "T", **fields}), encoding="utf-8")
    with pytest.raises(AtcError, match=f"malformed embedding record {digest}: .*{message}"):
        StoreEmbeddingBackend(ResponseStore(tmp_path), "m").embed("T")
    with pytest.raises(AtcError, match=f"malformed embedding record {digest}: .*{message}"):
        ResponseStore(tmp_path).get_embedding(digest)


def record_and_pack(root, texts_values, model="m"):
    """A store holding one record per (text, values), packed into ``model``'s pack."""
    store = ResponseStore(root)
    for text, values in texts_values:
        store.put_embedding(model, text, values)
    assert store.put_embedding_pack(model, [embedding_digest(model, text) for text, _ in texts_values])
    return store


@st.composite
def pack_rows(draw):
    dim = draw(st.integers(1, 32))
    value = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREMES + [math.inf, math.nan])
    return draw(st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=1, max_size=5))


@given(pack_rows())
def test_pack_rows_replay_bit_identically(rows):
    texts = [f"T{i}" for i in range(len(rows))]
    with tempfile.TemporaryDirectory() as tmp:
        store = record_and_pack(tmp, list(zip(texts, rows)))
        for path in (store.root / "embed").glob("*.json"):
            path.unlink()  # only the pack can serve the vectors now
        backend = StoreEmbeddingBackend(ResponseStore(tmp), "m")
        served = [backend.embed(text) for text in texts]
        replay = Gateway(embedding_backend=backend)
        distances = [replay.stored_distances(vector, texts) for vector, _ in served]
    assert all(tag is BackendTag.REPLAY and isinstance(vector.values, tuple) for vector, tag in served)
    assert [_f64(vector.values) for vector, _ in served] == [_f64(values) for values in rows]
    # The distance block holds what math.hypot and math.dist make of the rows, bit for bit.
    unpacked = [vector.values for vector, _ in served]
    expected = [[(math.hypot(*v), math.dist(u, v)) for v in unpacked] for u in unpacked]
    assert [[_f64(pair) for pair in found] for found in distances] == [[_f64(pair) for pair in row] for row in expected]


def test_a_digest_the_pack_does_not_list_falls_back_to_its_record(tmp_path):
    store = record_and_pack(tmp_path, [("T0", [1.0, 2.0]), ("T1", [3.0, 4.0])])
    store.put_embedding("m", "T2", [5.0, 6.0])  # embedded after packing
    (tmp_path / "embed" / f"{embedding_digest('m', 'T0')}.json").unlink()
    replay = ResponseStore(tmp_path)
    assert replay.get_embedding(embedding_digest("m", "T0")) == (1.0, 2.0)  # from the pack, its record gone
    assert replay.get_embedding(embedding_digest("m", "T2")) == (5.0, 6.0)  # from its record
    assert replay.get_embedding(embedding_digest("m", "T3")) is None
    backend = StoreEmbeddingBackend(replay, "m")
    assert [backend.embed(text)[0].values for text in ("T0", "T1", "T2")] == [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]
    with pytest.raises(ReplayMiss):
        backend.embed("T3")


def test_rewriting_a_pack_keeps_its_rows_and_adds_new_ones_once(tmp_path):
    store = record_and_pack(tmp_path, [("T0", [1.0]), ("T1", [2.0])])
    store.put_embedding("m", "T2", [3.0])
    (tmp_path / "embed" / f"{embedding_digest('m', 'T0')}.json").unlink()  # still held by the pack
    assert store.put_embedding_pack("m", [embedding_digest("m", "T2"), embedding_digest("m", "T1")])
    pack = store.embedding_pack_path("m")
    header = json.loads(pack.read_bytes().split(b"\n", 1)[0])
    assert header == {"digests": [embedding_digest("m", t) for t in ("T0", "T1", "T2")], "dim": 1,
                      "distances": True, "model_name": "m"}
    # Rows 1.0, 2.0 and 3.0, then their norms and the 3 x 3 distances between them.
    assert pack.read_bytes().split(b"\n", 1)[1] == struct.pack("<15d", 1, 2, 3, 1, 2, 3, 0, 1, 2, 1, 0, 1, 2, 1, 0)
    written = pack.read_bytes()
    assert not ResponseStore(tmp_path).put_embedding_pack("m", [embedding_digest("m", "T1")])
    assert pack.read_bytes() == written
    with pytest.raises(AtcError, match="no embedding record for digest"):
        store.put_embedding_pack("m", [embedding_digest("m", "never embedded")])
    assert not pack.name.endswith(".json")


def test_a_pack_refuses_vectors_of_two_lengths_under_one_model(tmp_path):
    store = ResponseStore(tmp_path)
    digests = [embedding_digest("m", text) for text in ("T0", "T1")]
    store.put_embedding("m", "T0", [0.5, 0.5])
    store.put_embedding("m", "T1", [0.5, 0.5, 0.5])
    with pytest.raises(AtcError, match="has 3 values, but the pack of model 'm' has rows of 2"):
        store.put_embedding_pack("m", digests)
    assert not store.embedding_pack_path("m").exists()


def test_an_old_layout_pack_serves_its_rows_and_is_rewritten_with_a_distance_block(tmp_path):
    """A pack written before packs held distances: its header has no ``distances`` and its rows end the file."""
    store = record_and_pack(tmp_path, [("T0", [3.0, 4.0]), ("T1", [0.0, 1.0])])
    pack = store.embedding_pack_path("m")
    header, rows = pack.read_bytes().split(b"\n", 1)
    fields = json.loads(header)
    del fields["distances"]
    pack.write_bytes(json.dumps(fields, sort_keys=True).encode("utf-8") + b"\n" + rows[: 2 * 16])
    (tmp_path / "embed" / f"{embedding_digest('m', 'T0')}.json").unlink()  # only the pack holds it now
    old = ResponseStore(tmp_path)
    vector = Gateway(embedding_backend=StoreEmbeddingBackend(old, "m")).embed("T0")
    assert vector.values == (3.0, 4.0)
    assert old.embedding_distances(vector.source_text_digest, [embedding_digest("m", "T1")]) is None
    digests = [embedding_digest("m", text) for text in ("T0", "T1")]
    assert old.put_embedding_pack("m", digests)  # the same rows, now with their block
    assert pack.read_bytes() == b"".join([header, b"\n", rows])
    upgraded = Gateway(embedding_backend=StoreEmbeddingBackend(ResponseStore(tmp_path), "m"))
    found = upgraded.stored_distances(vector, ["T0", "T1", "T2"])
    assert found == [(5.0, 0.0), (1.0, math.dist((3, 4), (0, 1))), None]
    assert upgraded.counts == {("embed", BackendTag.REPLAY): 2}  # each title found, once


def test_a_pack_that_holds_these_rows_and_a_block_is_left_alone_without_making_the_block(tmp_path, monkeypatch):
    store = record_and_pack(tmp_path, [("T0", [1.0, 2.0]), ("T1", [3.0, 4.0])])
    pack = store.embedding_pack_path("m")
    written = pack.stat().st_mtime_ns, pack.read_bytes()

    def no_block(rows, decoder):
        raise AssertionError("the distance block was made again")

    monkeypatch.setattr(gateway_module, "_distance_block", no_block)
    reads = []
    monkeypatch.setattr(ResponseStore, "get_embedding", lambda self, digest: reads.append(digest))
    for digests in ([], [embedding_digest("m", "T1")], [embedding_digest("m", t) for t in ("T1", "T0")]):
        assert not ResponseStore(tmp_path).put_embedding_pack("m", digests)
    assert reads == []  # decided from the header alone
    assert (pack.stat().st_mtime_ns, pack.read_bytes()) == written


def test_a_pack_is_streamed_to_its_file_in_chunks(tmp_path, monkeypatch):
    store = ResponseStore(tmp_path)
    texts = [f"T{i}" for i in range(3)]
    for i, text in enumerate(texts):
        store.put_embedding("m", text, [float(i), 1.0])
    chunks = []
    write = gateway_module.write_atomic
    monkeypatch.setattr(gateway_module, "write_atomic",
                        lambda path, data: write(path, (chunks.append(len(chunk)) or chunk for chunk in data)))
    assert store.put_embedding_pack("m", [embedding_digest("m", text) for text in texts])
    header = len(store.embedding_pack_path("m").read_bytes().split(b"\n", 1)[0]) + 1
    assert chunks == [header] + [16] * 3 + [24, 72]  # header, rows, norms, the distances between rows


def test_a_store_without_embed_lists_no_pack_and_other_names_are_not_packs(tmp_path):
    store = ResponseStore(tmp_path)
    digest = embedding_digest("m", "T0")
    assert store.get_embedding(digest) is None and store.embedding_distances(digest, [digest]) is None
    assert not store.put_embedding_pack("m", [])
    (tmp_path / "embed").mkdir()
    for name in ("pack-1.f64.tmp", "old-pack-1.f64", "pack-1.json", "pack.f64"):
        (tmp_path / "embed" / name).write_bytes(b"not a pack")
    assert ResponseStore(tmp_path).get_embedding(digest) is None


def test_a_pack_filed_under_another_model_is_refused(tmp_path):
    store = record_and_pack(tmp_path, [("T0", [1.0, 2.0])])
    misfiled = store.embedding_pack_path("n")
    store.embedding_pack_path("m").rename(misfiled)
    message = f"embedding pack {misfiled} holds model 'm', which is not filed there"
    with pytest.raises(AtcError, match=f"^{re.escape(message)}$"):
        ResponseStore(tmp_path).get_embedding(embedding_digest("m", "T0"))


@pytest.mark.parametrize(
    "corrupt, message",
    [(lambda data: data[: data.index(b"\n") + 1 + 8], "truncated or inconsistent embedding pack {pack}: "),
     (lambda data: data[:-8], "truncated or inconsistent embedding pack {pack}: "),
     (lambda data: data[: data.index(b"\n") + 1 + 2 * 16], "truncated or inconsistent embedding pack {pack}: "),
     (lambda data: data + b"\0", "truncated or inconsistent embedding pack {pack}: "),
     (lambda data: data + bytes(16), "truncated or inconsistent embedding pack {pack}: "),
     (lambda data: data.replace(b'"distances": true', b'"distances": false'),
      "truncated or inconsistent embedding pack {pack}: "),
     (lambda data: data.replace(b'"distances": true', b'"distances": 1'), "corrupt embedding pack {pack}: "),
     (lambda data: data.replace(b'"distances": true', b'"distances": "true"'), "corrupt embedding pack {pack}: "),
     (lambda data: data.replace(b'"distances": true', b'"distances": null'), "corrupt embedding pack {pack}: "),
     (lambda data: data[: data.index(b"\n")], "truncated embedding pack {pack}: "),
     (lambda data: b"", "truncated embedding pack {pack}: "),
     (lambda data: b"{not json\n" + data.split(b"\n", 1)[1], "corrupt embedding pack {pack}: "),
     (lambda data: data.replace(b'"dim": 2', b'"dim": 2.0'), "corrupt embedding pack {pack}: "),
     (lambda data: data.replace(b'"model_name": "m"', b'"model_name": "n"'), "embedding pack {pack} holds model 'n'")],
    ids=["rows-cut", "block-cut", "no-block", "extra-byte", "block-too-long", "undeclared-block", "int-block-flag",
         "string-block-flag", "null-block-flag", "header-cut", "empty", "header-not-json", "float-dim", "other-model"],
)
def test_a_corrupt_pack_raises_naming_its_file(tmp_path, corrupt, message):
    store = record_and_pack(tmp_path, [("T0", [1.0, 2.0]), ("T1", [3.0, 4.0])])
    pack = store.embedding_pack_path("m")
    pack.write_bytes(corrupt(pack.read_bytes()))
    with pytest.raises(AtcError, match=re.escape(message.format(pack=pack))):
        StoreEmbeddingBackend(ResponseStore(tmp_path), "m").embed("T0")


@pytest.mark.parametrize("retry_after", [MAX_RETRY_AFTER_S + 0.5, 86400.0])
def test_retry_after_beyond_the_ceiling_fails_at_once(retry_after):
    class Throttled:
        calls = 0

        def complete(self, request):
            self.calls += 1
            raise RateLimited("429 from /chat/completions", retry_after)

    backend, slept = Throttled(), []
    gateway = Gateway(chat_backend=backend, retry=RetryPolicy(attempts=3, base_delay=1.0, sleep=slept.append))
    wait = f"429 from /chat/completions: Retry-After asks for {retry_after:g} s"
    with pytest.raises(RateLimited, match=wait) as raised:
        gateway.chat(req())
    assert raised.value.retry_after == retry_after
    assert backend.calls == 1 and slept == []


def test_retry_after_at_the_ceiling_is_still_waited_for():
    backend = FlakyChatBackend(failures=1, exc=lambda message: RateLimited(message, MAX_RETRY_AFTER_S))
    slept = []
    gateway = Gateway(chat_backend=backend,
                      retry=RetryPolicy(attempts=3, base_delay=1.0, sleep=slept.append, draw=longest))
    assert gateway.chat(req()).text == "1. Claim"
    assert slept == [MAX_RETRY_AFTER_S]


def live_backends(session):
    return {
        "/chat/completions": lambda: LiveChatBackend(session).complete(req()),
        "/embeddings": lambda: LiveEmbeddingBackend(session, "ada").embed("A title"),
    }


def chat_body(content="1. Claim", **fields):
    return {"choices": [{"message": {"content": content}}], **fields}


@pytest.mark.parametrize("path", ["/chat/completions", "/embeddings"])
@pytest.mark.parametrize("text", ["<html><body>502 Bad Gateway</body></html>", ""], ids=["html", "empty"])
def test_non_json_answer_is_a_transport_error_naming_the_path(openai_server, session, path, text):
    openai_server.answers.append(canned(text=text))
    with pytest.raises(TransportError, match=f"non-JSON body from {path}: Expecting value"):
        live_backends(session)[path]()


def test_non_json_answer_is_retried(openai_server, session):
    openai_server.answers.extend([canned(text="<html>proxy error</html>"), canned(body=chat_body())])
    gateway = Gateway(chat_backend=LiveChatBackend(session), retry=no_sleep_policy())
    assert gateway.chat(req()).text == "1. Claim"
    assert not openai_server.answers


@pytest.mark.parametrize(
    "body",
    [chat_body(None), chat_body(usage=[12, 4]), chat_body(usage="12 tokens"),
     chat_body(usage={"prompt_tokens": "many"}), chat_body(usage={"prompt_tokens": None}),
     chat_body(usage={"completion_tokens": [4]}), chat_body(usage={"completion_tokens": float("inf")})],
    ids=["null-content", "list-usage", "string-usage", "word-count", "null-count", "list-count", "inf-count"],
)
def test_malformed_chat_body_is_a_transport_error(openai_server, session, body):
    openai_server.answers.append(canned(body=body))
    with pytest.raises(TransportError, match="malformed chat completion body"):
        live_backends(session)["/chat/completions"]()


@pytest.mark.parametrize(
    "embedding",
    [[1.0, None], [1.0, {}], ["a", 1.0], "123", [], [True, 1.0], {"0": 1.0}, None, [1.0, [2.0]], [10**400],
     [float("nan"), 1.0], [1.0, float("inf")], [-float("inf"), 1.0]],
    ids=["null-entry", "object-entry", "string-entry", "string", "empty", "bool-entry", "object", "null",
         "nested-list", "huge-int", "nan-entry", "inf-entry", "minus-inf-entry"],
)
def test_malformed_embeddings_body_is_a_transport_error_and_stores_nothing(openai_server, session, tmp_path,
                                                                           embedding):
    openai_server.answers.append(canned(body={"data": [{"embedding": embedding}]}))
    live = LiveEmbeddingBackend(session, "ada")
    store = ResponseStore(tmp_path)
    with pytest.raises(TransportError, match="malformed embeddings body: "):
        StoreEmbeddingBackend(store, "ada", live).embed("A title")
    assert not (tmp_path / "embed").exists()


def test_store_record_of_invalid_utf8_names_the_file(tmp_path):
    digest = embedding_digest("m", "T")
    path = tmp_path / "embed" / f"{digest}.json"
    path.parent.mkdir()
    path.write_bytes(b'{"model_name": "m", "text": "\xff\xfe", "vector_f64": ""}')
    with pytest.raises(AtcError, match=f"corrupt store record .*{path.name}"):
        StoreEmbeddingBackend(ResponseStore(tmp_path), "m").embed("T")
