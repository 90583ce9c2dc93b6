import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from hoplite.config import (
    ConfigError,
    default_config,
    encoder_config,
    eval_config,
    index_config,
    lho_config,
    lho_retrieval_config,
    pipeline_config,
    resolve_config,
    retrieval_config,
)
from hoplite.encoder import EncoderConfig
from hoplite.evaluation import EvalConfig
from hoplite.index import IndexConfig
from hoplite.pipeline import PipelineConfig
from hoplite.supervision import LhoConfig
from hoplite.util import derive_seed


def test_defaults_resolve_cleanly():
    cfg = resolve_config(environ={})
    assert cfg["seed"] == 0
    assert cfg["encoder"]["dim"] == 128
    assert cfg["retrieval"]["k"] == 25
    assert cfg["pipeline"]["variant"] == "condensed"


def test_default_config_is_a_copy():
    a = default_config()
    a["encoder"]["dim"] = 9999
    assert default_config()["encoder"]["dim"] == 128


def test_hover_preset():
    cfg = resolve_config(preset="hover", environ={})
    assert cfg["pipeline"]["per_hop_k"] == [25, 25, 25, 25]
    assert len(pipeline_config(cfg).per_hop_k) == 4
    assert cfg["supervision"]["k_hat"] == [20, None, None, None]
    assert cfg["eval"]["retrieval_k"] == 100


def test_hotpotqa_preset():
    cfg = resolve_config(preset="hotpotqa", environ={})
    assert cfg["pipeline"]["per_hop_k"] == [10, 40]
    assert len(pipeline_config(cfg).per_hop_k) == 2
    assert cfg["supervision"]["k_hat"] == [20, None]
    assert cfg["eval"]["retrieval_k"] == 20


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown preset"):
        resolve_config(preset="imaginary", environ={})


def test_file_overrides_preset(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"retrieval": {"k": 7}}), encoding="utf-8")
    cfg = resolve_config(preset="hover", config_path=path, environ={})
    assert cfg["retrieval"]["k"] == 7
    assert cfg["pipeline"]["per_hop_k"] == [25, 25, 25, 25]  # preset still applies elsewhere


def test_file_can_define_new_preset(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"presets": {"mine": {"seed": 42, "pipeline": {"per_hop_k": [5, 5]}}}}),
        encoding="utf-8",
    )
    cfg = resolve_config(preset="mine", config_path=path, environ={})
    assert cfg["seed"] == 42
    assert cfg["pipeline"]["per_hop_k"] == [5, 5]


def test_file_preset_shadows_builtin(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"presets": {"hover": {"seed": 123}}}), encoding="utf-8"
    )
    cfg = resolve_config(preset="hover", config_path=path, environ={})
    assert cfg["seed"] == 123
    assert cfg["pipeline"]["per_hop_k"] == [25, 25, 25, 25]  # defaults, not the builtin hover overlay


def test_unknown_keys_rejected_recursively(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"retrieval": {"kk": 7}}), encoding="utf-8")
    with pytest.raises(ConfigError, match="kk"):
        resolve_config(config_path=path, environ={})
    path.write_text(json.dumps({"retrievall": {}}), encoding="utf-8")
    with pytest.raises(ConfigError, match="retrievall"):
        resolve_config(config_path=path, environ={})
    for section, key in (
        ("retrieval", "candidate_source"),
        ("condenser", "scorer"),
        ("pipeline", "context_scorer"),
        ("index", "kmeans_iters"),
        ("index", "sample_factor"),
        ("pipeline", "hops"),
    ):
        path.write_text(json.dumps({section: {key: "x"}}), encoding="utf-8")
        with pytest.raises(ConfigError, match=key):
            resolve_config(config_path=path, environ={})
    with pytest.raises(ConfigError, match="HOPLITE_PIPELINE_HOPS"):
        resolve_config(environ={"HOPLITE_PIPELINE_HOPS": "2"})


def test_env_overrides():
    env = {
        "HOPLITE_SEED": "9",
        "HOPLITE_RETRIEVAL_K": "50",
        "HOPLITE_ENCODER_DIM": "64",
        "HOPLITE_PIPELINE_VARIANT": "rerank",
        "UNRELATED": "x",
    }
    cfg = resolve_config(environ=env)
    assert cfg["seed"] == 9
    assert cfg["retrieval"]["k"] == 50
    assert cfg["encoder"]["dim"] == 64
    assert cfg["pipeline"]["variant"] == "rerank"


def test_env_unknown_key_rejected():
    with pytest.raises(ConfigError, match="HOPLITE_BOGUS"):
        resolve_config(environ={"HOPLITE_BOGUS": "1"})


def test_env_json_values():
    env = {"HOPLITE_SUPERVISION_K_HAT": "[5, null]"}
    cfg = resolve_config(environ=env)
    assert cfg["supervision"]["k_hat"] == [5, None]


def test_precedence_flags_beat_env_beat_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "retrieval": {"k": 3}}), encoding="utf-8")
    cfg = resolve_config(
        config_path=path,
        overrides={"seed": 5},
        environ={"HOPLITE_SEED": "2", "HOPLITE_RETRIEVAL_K": "7"},
    )
    assert cfg["seed"] == 5  # flag wins
    assert cfg["retrieval"]["k"] == 7  # env beats file


def test_bad_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="object"):
        resolve_config(config_path=path, environ={})
    path.write_text("{broken", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON"):
        resolve_config(config_path=path, environ={})


def test_materializers_and_derived_seeds():
    cfg = resolve_config(overrides={"seed": 11}, environ={})
    enc = encoder_config(cfg)
    assert enc.dim == 128
    assert enc.seed == derive_seed(11, "encoder")
    idx = index_config(cfg)
    assert idx.seed == derive_seed(11, "kmeans")
    assert idx.variant == "ivf"
    ret = retrieval_config(cfg)
    assert ret.k == 25
    assert ret.focus.n_hat == 32
    assert ret.focus.l_hat == 8
    lho = lho_config(cfg)
    assert lho.seed == derive_seed(11, "supervision")
    assert lho.k_hat == (20, None, None, None)
    lret = lho_retrieval_config(cfg)
    assert lret.k == lho.k_retrieve
    assert lret.results_per_vector == 256
    ev = eval_config(cfg)
    assert ev.retrieval_k == 100
    assert ev.supported_only is None


def test_pipeline_config_variant_override():
    cfg = resolve_config(environ={})
    p = pipeline_config(cfg)
    assert p.variant == "condensed"
    assert p.per_hop_k == (25, 25, 25, 25)
    cfg["pipeline"]["variant"] = "hybrid"
    assert pipeline_config(cfg).variant == "hybrid"


def test_materialized_configs_validate():
    cfg = resolve_config(environ={})
    cfg["pipeline"]["per_hop_k"] = [25, 0]
    with pytest.raises(ValueError):
        pipeline_config(cfg)


def test_bool_keys_require_bools(tmp_path):
    with pytest.raises(ConfigError, match="pipeline.accumulate_facts"):
        resolve_config(environ={"HOPLITE_PIPELINE_ACCUMULATE_FACTS": "no"})
    path = tmp_path / "cfg.json"
    for bad in ("trivial", 1, None):
        path.write_text(json.dumps({"pipeline": {"verify": bad}}), encoding="utf-8")
        with pytest.raises(ConfigError, match="pipeline.verify"):
            resolve_config(config_path=path, environ={})
    cfg = resolve_config(environ={"HOPLITE_PIPELINE_ACCUMULATE_FACTS": "false"})
    assert cfg["pipeline"]["accumulate_facts"] is False
    assert pipeline_config(
        resolve_config(overrides={"pipeline": {"verify": True}}, environ={})
    ).verify


def test_int_keys_require_ints(tmp_path):
    with pytest.raises(ConfigError, match="retrieval.k"):
        resolve_config(environ={"HOPLITE_RETRIEVAL_K": "abc"})
    with pytest.raises(ConfigError, match="seed"):
        resolve_config(overrides={"seed": True}, environ={})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"encoder": {"dim": 64.0}}), encoding="utf-8")
    with pytest.raises(ConfigError, match="encoder.dim"):
        resolve_config(config_path=path, environ={})
    assert resolve_config(environ={"HOPLITE_RETRIEVAL_K": "2"})["retrieval"]["k"] == 2


def test_type_check_leaves_none_float_and_list_keys_alone():
    overrides = {
        "index": {"centroid_count": 8, "nprobe": 2},
        "condenser": {"tau": 0},
        "eval": {"supported_only": True},
        "supervision": {"k_hat": [5, None]},
    }
    cfg = resolve_config(overrides=overrides, environ={})
    assert cfg["condenser"]["tau"] == 0
    assert cfg["eval"]["supported_only"] is True


def test_old_verifier_key_is_unknown(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"pipeline": {"verifier": "trivial"}}), encoding="utf-8")
    with pytest.raises(ConfigError, match="verifier"):
        resolve_config(config_path=path, environ={})
    with pytest.raises(ConfigError, match="HOPLITE_PIPELINE_VERIFIER"):
        resolve_config(environ={"HOPLITE_PIPELINE_VERIFIER": "trivial"})


def test_threads_key_is_unknown(tmp_path):
    assert "threads" not in resolve_config(environ={})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"threads": 1}), encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key 'threads'"):
        resolve_config(config_path=path, environ={})
    with pytest.raises(ConfigError, match="unknown key 'threads'"):
        resolve_config(overrides={"threads": 1}, environ={})


def test_float_keys_require_numbers():
    for raw in ("true", "[0.1]"):
        with pytest.raises(ConfigError, match="condenser.tau"):
            resolve_config(environ={"HOPLITE_CONDENSER_TAU": raw})
    assert resolve_config(environ={"HOPLITE_CONDENSER_TAU": "1"})["condenser"]["tau"] == 1


# (environment variable, raw value, text the error must name)
BAD_VALUES = [
    ("HOPLITE_SUPERVISION_TRAINER", "bogus", "trainer 'bogus'"),
    ("HOPLITE_SUPERVISION_K_HAT", "[0, 5]", "k_hat"),
    ("HOPLITE_SUPERVISION_K_HAT", "[2.5, null]", "k_hat"),
    ("HOPLITE_PIPELINE_PER_HOP_K", "[25, true]", "per_hop_k"),
    # the default k_hat [20, ...] is deeper than 5; checked even for commands that skip lho
    ("HOPLITE_SUPERVISION_K_RETRIEVE", "5", "supervision: k_hat depth 20 exceeds k_retrieve 5"),
    ("HOPLITE_PIPELINE_VARIANT", "bogus", "variant 'bogus'"),
    ("HOPLITE_PIPELINE_HYBRID_TOTAL", "-1", "hybrid_total"),
    ("HOPLITE_RETRIEVAL_K", "0", "retrieval: k "),
    ("HOPLITE_RETRIEVAL_QUERY_FOCUS", "0", "query_focus"),
    ("HOPLITE_CONDENSER_TAU", "abc", "condenser.tau"),
    ("HOPLITE_INDEX_NPROBE", "abc", "nprobe"),
    ("HOPLITE_INDEX_CENTROID_COUNT", "abc", "centroid_count"),
    ("HOPLITE_EVAL_SUPPORTED_ONLY", "yes", "supported_only"),
    # `threads` is no config key: every window runs on the calling thread
    ("HOPLITE_THREADS", "2", "unknown key HOPLITE_THREADS"),
]


@pytest.mark.parametrize("name, raw, key", BAD_VALUES)
def test_resolve_checks_every_section(name, raw, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        resolve_config(environ={name: raw})


def test_defaults_are_the_typed_config_defaults():
    cfg = resolve_config(environ={})
    assert replace(encoder_config(cfg), seed=0) == EncoderConfig()
    assert replace(index_config(cfg), seed=0) == IndexConfig(variant="ivf")
    assert pipeline_config(cfg) == PipelineConfig()
    assert replace(lho_config(cfg), seed=0) == LhoConfig()
    assert eval_config(cfg) == EvalConfig()


def test_readme_config_block_is_the_default_config():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    assert json.loads(blocks[0]) == default_config()
