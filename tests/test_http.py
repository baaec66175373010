"""The live backends' HTTP client against a local OpenAI-compatible server: keep-alive
reuse, the connection bound, proxies from the environment, TLS verification,
status and timeout mapping, and no third-party HTTP stack loaded."""

from __future__ import annotations

import base64
import json
import os
import shutil
import socket
import subprocess
import sys
import threading
from contextlib import closing
from pathlib import Path

import pytest
from click.testing import CliRunner

from atc_icl import cli, gateway
from atc_icl.gateway import (BackendTag, ChatRequest, Gateway, GatewayConfigError, HttpSession, LiveChatBackend,
                             LiveEmbeddingBackend, RetryPolicy, TransportError)
from atc_icl.mocks import gold_echo_responder
from atc_icl.prompting import QUERY_HEADER, TITLE_LINE

from conftest import OpenAIServer
from test_live import live_config


def chat_request(corpus) -> ChatRequest:
    """A chat request the server answers with the gold labels of the corpus's first essay."""
    title = corpus.essays[0].title
    return ChatRequest("sys", f"{QUERY_HEADER}\n{TITLE_LINE.format(title=title)}\n", "gpt-4")


def embedder(session: HttpSession) -> LiveEmbeddingBackend:
    return LiveEmbeddingBackend(session, "ada")


def never_sleep(seconds: float) -> None:
    raise AssertionError(f"retried after {seconds} s")


@pytest.fixture()
def no_proxy_env(monkeypatch):
    """No proxy variable of the machine reaches the test, and no host but 127.0.0.1 is looked up."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    lookup = socket.getaddrinfo

    def local_only(host, *args, **kwargs):
        assert host == "127.0.0.1", f"looked up {host}"
        return lookup(host, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", local_only)


def test_a_connection_the_server_closed_while_idle_is_replaced_without_a_retry(openai_server, session):
    client = Gateway(embedding_backend=embedder(session), retry=RetryPolicy(sleep=never_sleep))
    first = client.embed("A title")
    assert client.embed("Another title") != first and openai_server.connections == 1  # kept alive
    openai_server.drop_connections()
    assert client.embed("A title") == first
    assert openai_server.connections == 2
    assert openai_server.texts("embeddings") == {"A title": 2, "Another title": 1}


def test_threads_share_at_most_connections_connections(openai_server, session):
    client = embedder(session)
    texts = [f"Title {i}" for i in range(24)]
    tags = []
    threads = [threading.Thread(target=lambda i=i: tags.extend(client.embed(t)[1] for t in texts[i::8]))
               for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert tags == [BackendTag.LIVE] * 24
    assert openai_server.peak_connections <= session.connections == 2
    assert openai_server.connections <= 2  # every connection was kept and reused
    assert set(openai_server.texts("embeddings")) == set(texts)


def test_an_http_proxy_gets_the_absolute_form_and_no_proxy_bypasses_it(openai_server, no_proxy_env, monkeypatch):
    origin = openai_server.url.removesuffix("/v1")
    monkeypatch.setenv("HTTP_PROXY", origin.replace("://", "://user:p%40ss@"))
    with closing(HttpSession("http://api.example.test/v1", OpenAIServer.KEY_ENV, 1)) as proxied:
        embedder(proxied).embed("A title")
    ((target, headers, _),) = openai_server.received
    assert target == "http://api.example.test/v1/embeddings"
    assert headers["Host"] == "api.example.test"
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode("ascii")

    monkeypatch.setenv("NO_PROXY", "example.test, 127.0.0.1")
    with closing(HttpSession(openai_server.url, OpenAIServer.KEY_ENV, 1)) as direct:
        embedder(direct).embed("A title")
    target, headers, _ = openai_server.received[1]
    assert target == "/v1/embeddings" and "Proxy-Authorization" not in headers


def test_a_base_url_path_prefix_goes_before_each_request_path(openai_server, small_corpus, no_proxy_env, monkeypatch):
    request = chat_request(small_corpus)
    origin = openai_server.url.removesuffix("/v1")
    with closing(HttpSession(f"{origin}/openai/v1", OpenAIServer.KEY_ENV, 1)) as direct:
        LiveChatBackend(direct).complete(request)
    monkeypatch.setenv("HTTP_PROXY", origin)
    with closing(HttpSession("http://api.example.test/openai/v1/", OpenAIServer.KEY_ENV, 1)) as proxied:
        LiveChatBackend(proxied).complete(request)
    targets = [target for target, _, _ in openai_server.received]
    assert targets == ["/openai/v1/chat/completions", "http://api.example.test/openai/v1/chat/completions"]


@pytest.mark.parametrize("proxy", ["http://proxy.example.test:eighty", "http://:3128"], ids=["port", "host"])
def test_a_proxy_without_a_host_and_port_is_a_config_error(
    small_dir, openai_server, tmp_path, no_proxy_env, monkeypatch, proxy
):
    monkeypatch.setenv("HTTP_PROXY", proxy)
    refused = f"^the http proxy '{proxy}' set in the environment names no host and port$"
    with pytest.raises(GatewayConfigError, match=refused):
        HttpSession(openai_server.url, OpenAIServer.KEY_ENV, 1)
    config = live_config(tmp_path, small_dir, openai_server, "out", 2)
    result = CliRunner().invoke(cli.main, ["run", "--config", str(config)])
    assert isinstance(result.exception, GatewayConfigError)
    assert not (tmp_path / "out").exists()
    assert not openai_server.received


@pytest.mark.parametrize("status", [301, 307])
def test_a_redirect_is_a_config_error_naming_the_status(openai_server, session, status):
    openai_server.answers.append((status, {"Location": "https://example.test/v1/embeddings"}, b"moved"))
    with pytest.raises(GatewayConfigError, match=f"^{status} from /embeddings: moved$"):
        embedder(session).embed("A title")


def test_a_server_that_stalls_is_a_transport_error(small_corpus, monkeypatch):
    monkeypatch.setenv(OpenAIServer.KEY_ENV, "sk-local-test")
    monkeypatch.setattr(gateway, "HTTP_TIMEOUT_S", 0.2)
    server = OpenAIServer(small_corpus, latency_s=30.0)
    try:
        with (closing(HttpSession(server.url, OpenAIServer.KEY_ENV, 1)) as session,
              pytest.raises(TransportError, match=f"^POST {server.url}/chat/completions: TimeoutError: timed out$")):
            LiveChatBackend(session).complete(chat_request(small_corpus))
    finally:
        server.close()


@pytest.fixture()
def tls_server(small_corpus, tmp_path, monkeypatch):
    """An HTTPS server whose certificate, for 127.0.0.1, is self-signed; returns it and the certificate."""
    if shutil.which("openssl") is None:
        pytest.skip("the openssl command, which makes the test certificate, is not on PATH")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
                    "-nodes", "-days", "1", "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
                    "-keyout", str(key), "-out", str(cert)], check=True, capture_output=True, timeout=60)
    monkeypatch.setenv(OpenAIServer.KEY_ENV, "sk-local-test")
    for name in ("SSL_CERT_FILE", "SSL_CERT_DIR"):
        monkeypatch.delenv(name, raising=False)
    server = OpenAIServer(small_corpus, certfile=cert, keyfile=key)
    yield server, cert
    server.close()


def test_https_verifies_the_certificate_against_ssl_cert_file(tls_server, small_corpus, no_proxy_env, monkeypatch):
    server, cert = tls_server
    assert server.url.startswith("https://")
    request = chat_request(small_corpus)
    untrusting = HttpSession(server.url, OpenAIServer.KEY_ENV, 1)
    with closing(untrusting), pytest.raises(TransportError, match="certificate verify failed"):
        LiveChatBackend(untrusting).complete(request)

    monkeypatch.setenv("SSL_CERT_FILE", str(cert))
    server.malformed_share = 0.0
    with closing(HttpSession(server.url, OpenAIServer.KEY_ENV, 1)) as trusting:
        response = LiveChatBackend(trusting).complete(request)
    assert response.text == gold_echo_responder(small_corpus)(request)


MODULES_LOADED = """
import json, sys
from atc_icl.cli import main
main(["run", "--config", sys.argv[1]], standalone_mode=False)
print(json.dumps({name: name in sys.modules for name in ("requests", "urllib3", "http.client")}))
"""


def test_live_runs_load_no_third_party_http_stack_and_replays_no_http_at_all(small_dir, openai_server, tmp_path):
    store = {"store_dir": str(tmp_path / "store")}
    recorded = live_config(tmp_path, small_dir, openai_server, "recorded", 2, chat="cache", embedding="cache", **store)
    replayed = live_config(tmp_path, small_dir, openai_server, "replayed", 2, chat="replay", embedding="replay",
                           **store)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    loaded = {}
    for name, config in (("recorded", recorded), ("replayed", replayed)):
        ran = subprocess.run([sys.executable, "-c", MODULES_LOADED, str(config)], env=env, capture_output=True,
                             text=True, timeout=120)
        assert ran.returncode == 0, ran.stderr
        loaded[name] = json.loads(ran.stdout.splitlines()[-1])
    assert openai_server.requests  # the recording run went to the server
    assert loaded == {"recorded": {"requests": False, "urllib3": False, "http.client": True},
                      "replayed": {"requests": False, "urllib3": False, "http.client": False}}
    records = [(tmp_path / name / "records.jsonl").read_bytes() for name in ("recorded", "replayed")]
    assert records[0] == records[1]
