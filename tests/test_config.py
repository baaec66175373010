"""Run-config parsing, semantic digests, and report row labels."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from atc_icl.config import BackendConfig, config_digest, load_run_config, run_label
from atc_icl.ensemble import IclConfig
from atc_icl.errors import ConfigError
from atc_icl.prompting import PromptConfig, PromptMode
from atc_icl.selection import SelectionStrategy


def icl(**overrides):
    base = dict(
        strategy=SelectionStrategy.KNN_TITLE,
        k=5,
        n_rounds=5,
        prompt=PromptConfig(include_info=True, include_essay=True),
        run_seed=0,
    )
    base.update(overrides)
    return IclConfig(**base)


def test_load_run_config_resolves_relative_paths(tmp_path):
    (tmp_path / "corpus").mkdir()
    config_file = tmp_path / "run.yaml"
    config_file.write_text(
        textwrap.dedent(
            """
            corpus_dir: corpus
            split_file: corpus/train-test-split.csv
            out_dir: runs/exp1
            icl:
              strategy: knn_len
              k: 3
              n: 3
              info: true
              essay: true
              fts: false
              mode: all_at_once
              model: gpt-4
              run_seed: 42
            backend:
              chat: mock
              mock_mode: gold_echo
            """
        ),
        encoding="utf-8",
    )
    config = load_run_config(config_file)
    assert config.corpus_dir == tmp_path / "corpus"
    assert config.out_dir == tmp_path / "runs" / "exp1"
    assert config.icl.strategy is SelectionStrategy.KNN_LEN
    assert config.icl.k == 3 and config.icl.n_rounds == 3
    assert config.icl.prompt.include_info and config.icl.prompt.include_essay
    assert not config.icl.prompt.include_fts
    assert config.icl.run_seed == 42
    assert config.backend.chat == "mock"


def test_load_run_config_missing_key(tmp_path):
    config_file = tmp_path / "run.yaml"
    config_file.write_text("corpus_dir: corpus\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_run_config(config_file)


def test_load_run_config_bad_strategy(tmp_path):
    config_file = tmp_path / "run.yaml"
    config_file.write_text(
        "corpus_dir: c\nsplit_file: s\nout_dir: o\nicl: {strategy: nearest}\n", encoding="utf-8"
    )
    with pytest.raises(ConfigError):
        load_run_config(config_file)


BASE_CONFIG = "corpus_dir: c\nsplit_file: s\nout_dir: o\n"


@pytest.mark.parametrize(
    "text, key, where",
    [(BASE_CONFIG + "icl: {n_rounds: 1}\n", "n_rounds", "section 'icl'"),
     (BASE_CONFIG + "backend: {chat: mock, store: s}\n", "store", "section 'backend'"),
     (BASE_CONFIG + "class_defs: d.txt\n", "class_defs", "the top level"),
     # Class definitions are fixed prompt text; the old override key is refused.
     (BASE_CONFIG + "class_definitions: d.txt\n", "class_definitions", "the top level"),
     # Every request has the same output limit; the old setting is refused.
     (BASE_CONFIG + "icl: {max_output_tokens: 1024}\n", "max_output_tokens", "section 'icl'")],
    ids=["icl", "backend", "top-level", "class-definitions", "max-output-tokens"],
)
def test_load_run_config_rejects_unknown_keys(tmp_path, text, key, where):
    config_file = tmp_path / "run.yaml"
    config_file.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{config_file}: unknown key '{key}' in {where}"):
        load_run_config(config_file)


@pytest.mark.parametrize(
    "icl_text, key",
    [("info: 'false'", "info"), ("essay: 1", "essay"), ("fts: 'no'", "fts"),
     ("strategy: nearest", "strategy"), ("mode: sideways", "mode"),
     ("k: 5.7", "k"), ("k: true", "k"), ("n: '3'", "n"), ("run_seed: 1.5", "run_seed"),
     ("temperature: hot", "temperature"), ("temperature: true", "temperature")],
)
def test_load_run_config_rejects_a_bad_icl_value_naming_file_and_key(tmp_path, icl_text, key):
    config_file = tmp_path / "run.yaml"
    config_file.write_text(BASE_CONFIG + f"icl: {{{icl_text}}}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{config_file}: icl.{key} must be "):
        load_run_config(config_file)


@pytest.mark.parametrize(
    "content, message",
    [(b"corpus_dir: [unclosed\n", ", line 2, column 1: not valid YAML \\(expected ',' or ']'"),
     (BASE_CONFIG.encode() + b"icl:\n\tk: 5\n",
      ", line 5, column 1: not valid YAML \\(found character .* that cannot start any token"),
     (BASE_CONFIG.encode() + b"# caf\xe9\n", ": not UTF-8 text")],
    ids=["unclosed-sequence", "tab-indent", "latin-1"],
)
def test_load_run_config_names_a_file_that_is_not_utf8_yaml(tmp_path, content, message):
    config_file = tmp_path / "run.yaml"
    config_file.write_bytes(content)
    with pytest.raises(ConfigError, match=f"^{config_file}{message}"):
        load_run_config(config_file)


@pytest.mark.parametrize(
    "content, where, character",
    [(b"corpus_dir: c\x00", "line 1, column 14", "0000"),
     (b"corpus_dir: c\r\nsplit_file: \x07s\n", "line 2, column 13", "0007"),
     ("# note\u2028\n  out_dir: \ufffe\n".encode(), "line 3, column 12", "fffe")],
    ids=["nul", "bell-after-crlf", "noncharacter-after-line-separator"],
)
def test_a_character_yaml_refuses_is_one_error_line_with_its_line_and_column(tmp_path, content, where, character):
    config_file = tmp_path / "run.yaml"
    config_file.write_bytes(content)
    with pytest.raises(ConfigError) as raised:
        load_run_config(config_file)
    assert str(raised.value) == (
        f"{config_file}, {where}: not valid YAML "
        f"(unacceptable character #x{character}: special characters are not allowed)"
    )


def test_load_run_config_takes_an_integer_temperature(tmp_path):
    config_file = tmp_path / "run.yaml"
    config_file.write_text(BASE_CONFIG + "icl: {temperature: 1, info: false, essay: true}\n", encoding="utf-8")
    config = load_run_config(config_file)
    assert config.icl.temperature == 1.0 and type(config.icl.temperature) is float
    assert (config.icl.prompt.include_info, config.icl.prompt.include_essay) == (False, True)


@pytest.mark.parametrize("section", ["icl", "backend"])
def test_load_run_config_rejects_a_section_that_is_not_a_mapping(tmp_path, section):
    config_file = tmp_path / "run.yaml"
    config_file.write_text(BASE_CONFIG + f"{section}: [k, 3]\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{config_file}: section '{section}' must be a mapping"):
        load_run_config(config_file)


@pytest.mark.parametrize(
    "section, key, message",
    [("backend: {embedding_dim: 8.9}", "backend.embedding_dim", "must be a positive integer, not 8.9"),
     ("backend: {embedding_dim: true}", "backend.embedding_dim", "must be a positive integer, not True"),
     ("backend: {embedding_dim: eight}", "backend.embedding_dim", "must be a positive integer, not 'eight'"),
     ("backend: {embedding_dim: 0}", "backend.embedding_dim", "must be a positive integer, not 0"),
     ("backend: {workers: 0}", "backend.workers", "must be an integer from 1 to 32, not 0"),
     ("backend: {workers: 33}", "backend.workers", "must be an integer from 1 to 32, not 33"),
     ("backend: {workers: true}", "backend.workers", "must be an integer from 1 to 32, not True"),
     ("backend: {workers: 2.0}", "backend.workers", "must be an integer from 1 to 32, not 2.0"),
     ("backend: {workers: '2'}", "backend.workers", "must be an integer from 1 to 32, not '2'"),
     ("backend: {base_url: 8080}", "backend.base_url", "must be a string, not 8080"),
     ("backend: {base_url: 'localhost:9/v1'}", "backend.base_url",
      "must be an absolute http:// or https:// URL with a host, not 'localhost:9/v1'"),
     ("backend: {base_url: /v1}", "backend.base_url", "must be an absolute http:// .* not '/v1'"),
     ("backend: {base_url: 'ftp://example.test/v1'}", "backend.base_url", "must be an absolute http:// "),
     ("backend: {base_url: 'http:///v1'}", "backend.base_url", "must be an absolute http:// "),
     ("backend: {base_url: 'https://example.test:port/v1'}", "backend.base_url", "must be an absolute http:// "),
     ("backend: {base_url: 'https://example.test/v1?api-version=2024-02-01'}", "backend.base_url",
      "must be an absolute http:// .* not 'https://example.test/v1\\?api-version=2024-02-01'; it takes no user info"),
     ("backend: {base_url: 'https://example.test/v1#frag'}", "backend.base_url",
      "must be an absolute http:// .*; it takes no user info, query or fragment$"),
     ("backend: {base_url: 'http://user:pw@example.test/v1'}", "backend.base_url",
      "must be an absolute http:// .* not 'http://\\*\\*\\*@example.test/v1'; it takes no user info, query or "
      "fragment$"),
     ("backend: {base_url: 'http://user:p/w@example.test/v1'}", "backend.base_url",
      "must be an absolute http:// .* not 'http://\\*\\*\\*@example.test/v1'; it takes no user info"),
     ("backend: {store_dir: [a, b]}", "backend.store_dir", "must be a string, not \\['a', 'b'\\]"),
     ("backend: {chat: carrier-pigeon}", "chat backend", "must be one of"),
     ("icl: {model: null}", "icl.model", "must be a string, not None"),
     ("icl: {model: 4}", "icl.model", "must be a string, not 4"),
     ("icl: {temperature: -1}", "temperature", "must be finite and non-negative, not -1.0"),
     ("icl: {temperature: .nan}", "temperature", "must be finite and non-negative, not nan"),
     ("icl: {k: -1}", "k", "must be non-negative"),
     ("icl: {n: 0}", "n_rounds", "must be positive"),
     ("corpus_dir: ~", "corpus_dir", "must be a string, not None"),
     ("corpus_dir: 5", "corpus_dir", "must be a string, not 5"),
     ("split_file: [a, b]", "split_file", "must be a string, not \\['a', 'b'\\]"),
     ("out_dir: true", "out_dir", "must be a string, not True")],
)
def test_load_run_config_rejects_a_bad_backend_or_model_value_naming_file_and_key(tmp_path, section, key, message):
    config_file = tmp_path / "run.yaml"
    # A top-level path key in ``section`` takes the place of its line in the base config.
    base = [line for line in BASE_CONFIG.splitlines() if line.split(":")[0] != section.split(":")[0]]
    config_file.write_text("\n".join([*base, section]) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{config_file}: {key} {message}"):
        load_run_config(config_file)


def test_a_null_backend_value_takes_its_default(tmp_path):
    config_file = tmp_path / "run.yaml"
    config_file.write_text(BASE_CONFIG + "backend: {base_url: null, embedding_dim: null, store_dir: null}\n",
                           encoding="utf-8")
    assert load_run_config(config_file).backend == BackendConfig()


@pytest.mark.parametrize("workers", [1, 32])
def test_workers_takes_an_integer_from_1_to_32_and_defaults_to_2(tmp_path, workers):
    config_file = tmp_path / "run.yaml"
    config_file.write_text(BASE_CONFIG + f"backend: {{workers: {workers}}}\n", encoding="utf-8")
    assert load_run_config(config_file).backend.workers == workers
    assert BackendConfig().workers == 2


def test_backend_config_validation():
    with pytest.raises(ConfigError):
        BackendConfig(chat="carrier-pigeon")
    with pytest.raises(ConfigError):
        BackendConfig(chat="replay")  # store_dir required
    with pytest.raises(ConfigError):
        BackendConfig(mock_mode="chaos")
    BackendConfig(chat="replay", store_dir="store")  # fine with a store


@pytest.mark.parametrize(
    "values, message",
    [({"workers": 0}, "backend.workers must be an integer from 1 to 32, not 0"),
     ({"workers": 33}, "backend.workers must be an integer from 1 to 32, not 33"),
     ({"workers": True}, "backend.workers must be an integer from 1 to 32, not True"),
     ({"embedding_dim": 0}, "backend.embedding_dim must be a positive integer, not 0"),
     ({"embedding_dim": 8.0}, "backend.embedding_dim must be a positive integer, not 8.0")],
)
def test_a_backend_config_built_in_code_is_range_checked_as_one_loaded_from_yaml(values, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        BackendConfig(chat="live", embedding="live", **values)


def test_digest_changes_iff_semantic_field_changes():
    base = icl()
    baseline = config_digest(base)
    changed = [
        icl(strategy=SelectionStrategy.KRN),
        icl(k=3),
        icl(n_rounds=3),
        icl(run_seed=1),
        icl(prompt=PromptConfig(include_info=False, include_essay=True)),
        icl(prompt=PromptConfig(include_info=True, include_essay=True, include_fts=True)),
        icl(model_name="gpt-3.5-turbo"),
        icl(temperature=0.7),
    ]
    digests = {config_digest(variant) for variant in changed}
    assert baseline not in digests
    assert len(digests) == len(changed)
    # Identical semantic content reproduces the digest.
    assert config_digest(icl()) == baseline


#: ``config_digest`` of each shipped config. A run directory resumes only
#: under the digest it was stamped with, so these values must never move.
SHIPPED_CONFIG_DIGESTS = {
    "gpt35_info_essay_5nn_5ens": "7abf221befc8429bc8c0a8b4ac1368bb9e0a44aebe85c358c18943e725a51819",
    "gpt4_essay_5nn_5ens": "552dadeb21872b6230d17490ddb4db79e066a0d08dce90257ea5694ebd254f68",
    "gpt4_info_essay_5nn_3ens": "aa812e71b85cfe7768e4b4f028ba56d6a77dc80c37b3446e33e1f6e00f7c427d",
    "gpt4_info_essay_5nn_5ens": "a58b057603463d257266e74936de08e05686e093674abbb8652dc0d87734c24a",
    "gpt4_info_essay_5nnlen": "cd978ae6360ddb0d76109dfc6563b4e5a6c89f52ba9907a7177092679b1ed0a3",
    "gpt4_info_essay_5nnlen_3ens": "d843fc32f828c859f5e5f825756e53f2b0db76ff4027d3153aeb3690669cc1d3",
    "gpt4_info_essay_fts_5nn_5ens": "5358f42e1704060402e0396688355524443756c1a702f57afc1aa1b66dfb38a3",
}


def test_shipped_configs_keep_their_golden_digests():
    configs = Path(__file__).resolve().parents[1] / "configs"
    found = {path.stem: config_digest(load_run_config(path).icl) for path in sorted(configs.glob("*.yaml"))}
    assert found == SHIPPED_CONFIG_DIGESTS


def test_row_labels_match_published_vocabulary():
    assert run_label(icl()) == "info + essay + 5NN + 5Ens"
    assert (
        run_label(icl(strategy=SelectionStrategy.KNN_LEN, k=5, n_rounds=3))
        == "info + essay + 5NN^len + 3Ens"
    )
    assert (
        run_label(icl(prompt=PromptConfig(include_essay=True), strategy=SelectionStrategy.KNN_TITLE))
        == "essay + 5NN + 5Ens"
    )
    assert (
        run_label(
            icl(prompt=PromptConfig(include_info=True, include_essay=True, include_fts=True))
        )
        == "info + essay + fts + 5NN + 5Ens"
    )
    assert run_label(icl(strategy=SelectionStrategy.KRN, k=3)) == "info + essay + 3RN + 5Ens"
    one_by_one = icl(
        prompt=PromptConfig(include_info=True, include_essay=True, mode=PromptMode.ONE_BY_ONE)
    )
    assert run_label(one_by_one).endswith("one-by-one")
    no_demos = icl(
        k=0, n_rounds=1, prompt=PromptConfig(mode=PromptMode.ONE_BY_ONE), model_name="ft:gpt-3.5"
    )
    assert "no-demos" in run_label(no_demos)
