"""One JSON document configures everything.

Resolution order, lowest to highest precedence: built-in defaults, the
selected preset, top-level values from the config file, environment
variables (prefix HOPLITE_), explicit overrides (CLI flags). Unknown keys
are rejected at every layer rather than silently ignored.

A config file may carry its own `"presets": {name: overlay}` section;
those extend (and may shadow) the built-in presets. Environment variables
name a top-level key (HOPLITE_SEED=3) or a section field joined with an
underscore (HOPLITE_RETRIEVAL_K=50); values are parsed as JSON when they
parse, otherwise taken as strings. After every layer, a key whose default
is a bool must hold a bool and one whose default is an int an int.
"""

from __future__ import annotations

import copy
import json
import os
from pathlib import Path
from typing import Mapping

from .condenser import CondenserConfig
from .encoder import EncoderConfig
from .evaluation import EvalConfig
from .index import IndexConfig, TRAINING_RESULTS_PER_VECTOR
from .pipeline import PipelineConfig
from .retriever import RetrievalConfig
from .scoring import FocusParams
from .supervision import LhoConfig
from .util import derive_seed

ENV_PREFIX = "HOPLITE_"


class ConfigError(ValueError):
    pass


DEFAULTS: dict = {
    "seed": 0,
    "threads": 1,
    "encoder": {
        "dim": 128,
        "max_passage_tokens": 256,
        "max_query_tokens": 64,
        "max_overall_tokens": 512,
    },
    "index": {
        "variant": "ivf",
        "centroid_count": None,
        "nprobe": None,
    },
    "retrieval": {
        "k": 25,
        "results_per_vector": 512,
        "query_focus": 32,
        "fact_focus": 8,
    },
    "condenser": {"stage1_top_k_facts": 9, "tau": 0.1},
    "pipeline": {
        "per_hop_k": [25, 25, 25, 25],
        "variant": "condensed",
        "accumulate_facts": True,
        "hybrid_total": 100,
        "verify": False,
    },
    "supervision": {
        "k_retrieve": 1000,
        "k_hat": [20, None, None, None],
        "facts_per_expansion": 5,
        "trainer": "identity",
        "results_per_vector": TRAINING_RESULTS_PER_VECTOR,
    },
    "eval": {"retrieval_k": 100, "answer_k": 20, "supported_only": None},
}

# Dataset presets: hop counts and per-hop retrieval widths.
BUILTIN_PRESETS: dict[str, dict] = {
    "hover": {
        "pipeline": {"per_hop_k": [25, 25, 25, 25]},
        "supervision": {"k_hat": [20, None, None, None]},
        "eval": {"retrieval_k": 100},
    },
    "hotpotqa": {
        "pipeline": {"per_hop_k": [10, 40]},
        "supervision": {"k_hat": [20, None]},
        "eval": {"retrieval_k": 20},
    },
}


def default_config() -> dict:
    return copy.deepcopy(DEFAULTS)


def merge_overlay(base: dict, overlay: Mapping, where: str = "config") -> None:
    """Apply overlay onto base in place, rejecting keys base does not have."""
    for key, value in overlay.items():
        if key not in base:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, Mapping):
                raise ConfigError(f"{where}: {key!r} must be an object")
            merge_overlay(base[key], value, f"{where}.{key}")
        else:
            base[key] = value


def _parse_env_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_env(cfg: dict, environ: Mapping[str, str] | None = None) -> None:
    env = os.environ if environ is None else environ
    for name in sorted(env):
        if not name.startswith(ENV_PREFIX):
            continue
        suffix = name[len(ENV_PREFIX):].lower()
        value = _parse_env_value(env[name])
        if suffix in cfg and not isinstance(cfg[suffix], dict):
            cfg[suffix] = value
            continue
        section, _, field = suffix.partition("_")
        if section in cfg and isinstance(cfg[section], dict) and field in cfg[section]:
            cfg[section][field] = value
            continue
        raise ConfigError(f"environment: unknown key {name}")


def load_config_file(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def resolve_config(
    preset: str | None = None,
    config_path: str | Path | None = None,
    overrides: Mapping | None = None,
    environ: Mapping[str, str] | None = None,
) -> dict:
    cfg = default_config()
    file_doc: dict = {}
    presets = copy.deepcopy(BUILTIN_PRESETS)
    if config_path is not None:
        file_doc = load_config_file(config_path)
        file_presets = file_doc.pop("presets", {})
        if not isinstance(file_presets, dict):
            raise ConfigError(f"{config_path}: 'presets' must be an object")
        presets.update(file_presets)
    if preset is not None:
        if preset not in presets:
            raise ConfigError(
                f"unknown preset {preset!r} (have: {', '.join(sorted(presets))})"
            )
        merge_overlay(cfg, presets[preset], f"presets.{preset}")
    if file_doc:
        merge_overlay(cfg, file_doc, str(config_path))
    apply_env(cfg, environ)
    if overrides:
        merge_overlay(cfg, overrides, "flags")
    _check_types(cfg, DEFAULTS)
    return cfg


def _check_types(cfg: dict, defaults: Mapping, where: str = "") -> None:
    """Bool defaults demand a bool, int defaults an int; None, float, list defaults are free."""
    for key, default in defaults.items():
        value, name = cfg[key], f"{where}{key}"
        if isinstance(default, dict):
            _check_types(value, default, f"{name}.")
        elif type(default) in (bool, int) and type(value) is not type(default):
            kind = "true or false" if type(default) is bool else "an integer"
            raise ConfigError(f"{name} must be {kind}, got {value!r}")


# Materializers from the resolved document to typed configs. Sub-seeds are
# derived per component so e.g. changing kmeans seeding cannot perturb the
# encoder basis. A section whose keys are exactly its dataclass's fields is
# passed whole: merge_overlay admits no key the defaults lack.


def encoder_config(cfg: dict) -> EncoderConfig:
    return EncoderConfig(**cfg["encoder"], seed=derive_seed(cfg["seed"], "encoder"))


def index_config(cfg: dict) -> IndexConfig:
    return IndexConfig(**cfg["index"], seed=derive_seed(cfg["seed"], "kmeans"))


def retrieval_config(cfg: dict) -> RetrievalConfig:
    sub = cfg["retrieval"]
    return RetrievalConfig(
        k=sub["k"],
        results_per_vector=sub["results_per_vector"],
        focus=FocusParams(n_hat=sub["query_focus"], l_hat=sub["fact_focus"]),
    )


def condenser_config(cfg: dict) -> CondenserConfig:
    return CondenserConfig(**cfg["condenser"])


def pipeline_config(cfg: dict) -> PipelineConfig:
    sub = cfg["pipeline"]
    return PipelineConfig(
        per_hop_k=tuple(sub["per_hop_k"]),
        variant=sub["variant"],
        retrieval=retrieval_config(cfg),
        condenser=condenser_config(cfg),
        accumulate_facts=sub["accumulate_facts"],
        hybrid_total=sub["hybrid_total"],
        verify=sub["verify"],
    )


def lho_config(cfg: dict) -> LhoConfig:
    sub = cfg["supervision"]
    return LhoConfig(
        k_retrieve=sub["k_retrieve"],
        k_hat=tuple(sub["k_hat"]),
        facts_per_expansion=sub["facts_per_expansion"],
        trainer=sub["trainer"],
        seed=derive_seed(cfg["seed"], "supervision"),
    )


def lho_retrieval_config(cfg: dict) -> RetrievalConfig:
    """Retrieval settings for supervision mining (wider, shallower probes)."""
    sub = cfg["retrieval"]
    return RetrievalConfig(
        k=cfg["supervision"]["k_retrieve"],
        results_per_vector=cfg["supervision"]["results_per_vector"],
        focus=FocusParams(n_hat=sub["query_focus"], l_hat=sub["fact_focus"]),
    )


def eval_config(cfg: dict) -> EvalConfig:
    return EvalConfig(**cfg["eval"])
