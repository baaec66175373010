"""Declarative run configuration: YAML loading, digests, and row labels.

A run config names the corpus location, the experiment grid point (strategy,
k, n, prompt blocks, mode, model), and the backend wiring (live, cache,
replay, or mock, plus the on-disk response store). The semantic digest covers
exactly the fields that change what is computed, not where results are
written, which backend serves the responses or how many essays are asked at
once.
"""

from __future__ import annotations

import hashlib
import json
import re
import urllib.parse
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import yaml

from .ensemble import IclConfig
from .errors import ConfigError, masked_url
from .prompting import MAX_OUTPUT_TOKENS, PromptConfig, PromptMode
from .selection import SelectionStrategy

CHAT_BACKENDS = ("live", "cache", "replay", "mock")
EMBEDDING_BACKENDS = ("live", "cache", "replay", "hash")
MOCK_MODES = ("gold_echo", "constant")
# The most essays a live run asks at once (backend.workers).
MAX_WORKERS = 32
# What YAML counts as a line break when it numbers the lines of an error.
_YAML_LINE_BREAK = re.compile("\r\n|[\r\n\x85\u2028\u2029]")


def _is_http_url(url: str) -> bool:
    """Whether ``url`` is an absolute ``http://`` or ``https://`` URL with a host, and a number for a port.

    It may hold no user info, query or fragment: a request goes to its path
    followed by the request's own, which would drop each of them.
    """
    parts = urllib.parse.urlsplit(url)
    try:
        parts.port
    except ValueError:
        return False
    plain = "@" not in parts.netloc and "?" not in url and "#" not in url
    return parts.scheme in ("http", "https") and bool(parts.hostname) and plain


@dataclass(frozen=True)
class BackendConfig:
    chat: str = "mock"
    mock_mode: str = "gold_echo"
    cache_upstream: str = "live"  # inner backend when chat == "cache"
    embedding: str = "hash"
    embedding_upstream: str = "live"  # inner backend under "cache"; names the model "replay" reads
    embedding_model: str = "text-embedding-ada-002"
    embedding_dim: int = 8
    store_dir: Path | None = None
    base_url: str = "https://api.openai.com/v1"
    api_key_env: str = "OPENAI_API_KEY"
    workers: int = 2  # essays a live run asks at once, each thread on one keep-alive connection to base_url

    def __post_init__(self) -> None:
        if self.chat not in CHAT_BACKENDS:
            raise ConfigError(f"chat backend must be one of {CHAT_BACKENDS}")
        if self.embedding not in EMBEDDING_BACKENDS:
            raise ConfigError(f"embedding backend must be one of {EMBEDDING_BACKENDS}")
        if self.mock_mode not in MOCK_MODES:
            raise ConfigError(f"mock mode must be one of {MOCK_MODES}")
        if self.cache_upstream not in ("live", "mock"):
            raise ConfigError("cache_upstream must be 'live' or 'mock'")
        if self.embedding_upstream not in ("live", "hash"):
            raise ConfigError("embedding_upstream must be 'live' or 'hash'")
        needs_store = self.chat in ("cache", "replay") or self.embedding in ("cache", "replay")
        if needs_store and self.store_dir is None:
            raise ConfigError("cache/replay backends need backend.store_dir")
        # type(), not isinstance(): a bool is an int, but no count.
        if not (type(self.embedding_dim) is int and self.embedding_dim > 0):
            raise ConfigError(f"backend.embedding_dim must be a positive integer, not {self.embedding_dim!r}")
        if not (type(self.workers) is int and 1 <= self.workers <= MAX_WORKERS):
            raise ConfigError(f"backend.workers must be an integer from 1 to {MAX_WORKERS}, not {self.workers!r}")
        if not _is_http_url(self.base_url):
            raise ConfigError(
                "backend.base_url must be an absolute http:// or https:// URL with a host, not"
                f" {masked_url(self.base_url)!r}; it takes no user info, query or fragment"
            )

    @property
    def embedding_model_name(self) -> str:
        """The model whose vectors a run ranks titles with, and that a store files them under.

        ``hash-embed-<embedding_dim>`` when the vectors come from the hash
        embedder (directly, or as the upstream a ``cache`` or ``replay``
        names), and ``embedding_model`` otherwise.
        """
        stored = self.embedding in ("cache", "replay")
        hashed = (self.embedding_upstream if stored else self.embedding) == "hash"
        return f"hash-embed-{self.embedding_dim}" if hashed else self.embedding_model


@dataclass(frozen=True)
class RunConfig:
    corpus_dir: Path
    split_file: Path
    out_dir: Path
    icl: IclConfig
    backend: BackendConfig = field(default_factory=BackendConfig)


TOP_LEVEL_KEYS = ("corpus_dir", "split_file", "out_dir", "icl", "backend")
ICL_KEYS = ("strategy", "k", "n", "info", "essay", "fts", "mode", "model", "run_seed", "temperature")
BACKEND_KEYS = tuple(f.name for f in fields(BackendConfig))


def _checked(section: object, where: str, known: tuple[str, ...], path: Path | str) -> dict:
    """``section`` as a mapping of known keys; ``None`` (an empty section) is ``{}``."""
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: {where} must be a mapping")
    for key in section:
        if key not in known:
            raise ConfigError(f"{path}: unknown key {key!r} in {where}; known keys: {', '.join(known)}")
    return section


def _parse_icl(raw: dict, path: Path | str) -> IclConfig:
    """The ``icl`` section as an :class:`IclConfig`.

    A value of the wrong kind raises :class:`ConfigError` naming ``path`` and
    the key: booleans must be YAML booleans, counts and seeds integers (a
    float or bool is not truncated), and the temperature a number. A value
    :class:`IclConfig` refuses raises :class:`ConfigError` naming ``path``.
    """

    def value(key: str, default, kinds: tuple[type, ...], what: str):
        found = raw.get(key, default)
        if type(found) not in kinds:
            raise ConfigError(f"{path}: icl.{key} must be {what}, not {found!r}")
        return found

    def choice(key: str, default: str, enum):
        found = raw.get(key, default)
        try:
            return enum(found)
        except ValueError:
            known = ", ".join(member.value for member in enum)
            raise ConfigError(f"{path}: icl.{key} must be one of {known}, not {found!r}") from None

    prompt = PromptConfig(
        include_info=value("info", False, (bool,), "true or false"),
        include_essay=value("essay", False, (bool,), "true or false"),
        include_fts=value("fts", False, (bool,), "true or false"),
        mode=choice("mode", "all_at_once", PromptMode),
    )
    settings = dict(
        strategy=choice("strategy", "knn_title", SelectionStrategy),
        k=value("k", 5, (int,), "an integer"),
        n_rounds=value("n", 5, (int,), "an integer"),
        prompt=prompt,
        run_seed=value("run_seed", 0, (int,), "an integer"),
        model_name=value("model", "gpt-4", (str,), "a string"),
        temperature=float(value("temperature", 0.0, (int, float), "a number")),
    )
    try:
        return IclConfig(**settings)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_backend(raw: dict, path: Path | str, resolve: Callable[[str], Path]) -> BackendConfig:
    """The ``backend`` section as a :class:`BackendConfig`.

    A key left out or set to null takes its default there. Every value but
    the integers ``embedding_dim`` and ``workers``, which
    :class:`BackendConfig` checks (a float, bool or string is not converted),
    must be a string. A value of the wrong kind, or one :class:`BackendConfig`
    refuses, raises :class:`ConfigError` naming ``path``.
    """
    given = {key: found for key, found in raw.items() if found is not None}
    for key, found in given.items():
        if key not in ("embedding_dim", "workers") and not isinstance(found, str):
            raise ConfigError(f"{path}: backend.{key} must be a string, not {found!r}")
    if "store_dir" in given:
        given["store_dir"] = resolve(given["store_dir"])
    try:
        return BackendConfig(**given)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_run_config(path: Path | str) -> RunConfig:
    """Parse a YAML run config; relative paths resolve against the file.

    A key that is not a field of its section (the top level, ``icl`` or
    ``backend``) raises :class:`ConfigError` rather than being ignored, and so
    does a missing ``corpus_dir``, ``split_file`` or ``out_dir``, or one that
    is not a string. So does a file that is not UTF-8 or not valid YAML, the
    latter naming the line and column.
    """
    config_path = Path(path)
    try:
        text = config_path.read_text(encoding="utf-8")
        raw = yaml.safe_load(text)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    except yaml.reader.ReaderError as exc:
        # A character YAML refuses: the error holds its offset, not a line and column.
        lines = _YAML_LINE_BREAK.split(text[: exc.position])
        where = f", line {len(lines)}, column {len(lines[-1]) + 1}"
        problem = f"unacceptable character #x{exc.character:04x}: {exc.reason}"
        raise ConfigError(f"{path}{where}: not valid YAML ({problem})") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f", line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"{path}{where}: not valid YAML ({getattr(exc, 'problem', None) or exc})") from None
    raw = _checked(raw, "the top level", TOP_LEVEL_KEYS, path)
    base = config_path.parent

    def resolve(value: str) -> Path:
        p = Path(value)
        return p if p.is_absolute() else (base / p)

    paths = {}
    for key in ("corpus_dir", "split_file", "out_dir"):
        if key not in raw:
            raise ConfigError(f"{path}: missing required key {key!r}")
        if not isinstance(raw[key], str):
            raise ConfigError(f"{path}: {key} must be a string, not {raw[key]!r}")
        paths[key] = resolve(raw[key])

    backend_raw = _checked(raw.get("backend"), "section 'backend'", BACKEND_KEYS, path)
    backend = _parse_backend(backend_raw, path, resolve)
    return RunConfig(
        **paths,
        icl=_parse_icl(_checked(raw.get("icl"), "section 'icl'", ICL_KEYS, path), path),
        backend=backend,
    )


def config_digest(icl: IclConfig) -> str:
    """Digest over the semantically meaningful experiment fields only."""
    payload = json.dumps(
        {
            "strategy": icl.strategy.value,
            "k": icl.k,
            "n_rounds": icl.n_rounds,
            "run_seed": icl.run_seed,
            "info": icl.prompt.include_info,
            "essay": icl.prompt.include_essay,
            "fts": icl.prompt.include_fts,
            "mode": icl.prompt.mode.value,
            "model": icl.model_name,
            "temperature": icl.temperature,
            "max_output_tokens": MAX_OUTPUT_TOKENS,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_STRATEGY_SUFFIX = {
    SelectionStrategy.KNN_TITLE: "NN",
    SelectionStrategy.KNN_LEN: "NN^len",
    SelectionStrategy.KRN: "RN",
}


def run_label(icl: IclConfig) -> str:
    """Report row label in the published vocabulary, e.g. ``info + essay + 5NN + 5Ens``."""
    parts = []
    if icl.prompt.include_info:
        parts.append("info")
    if icl.prompt.include_essay:
        parts.append("essay")
    if icl.prompt.include_fts:
        parts.append("fts")
    if icl.k > 0:
        parts.append(f"{icl.k}{_STRATEGY_SUFFIX[icl.strategy]}")
        if icl.n_rounds > 1:
            parts.append(f"{icl.n_rounds}Ens")
    else:
        parts.append("no-demos")
    if icl.prompt.mode is PromptMode.ONE_BY_ONE:
        parts.append("one-by-one")
    return " + ".join(parts)
