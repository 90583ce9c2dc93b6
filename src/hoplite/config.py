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
is a bool must hold a bool, an int default an int and a float default a
number; then every typed config is built once, so any bad value raises
ConfigError before a command reads its input.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Mapping

from .condenser import CondenserConfig
from .encoder import EncoderConfig
from .evaluation import EvalConfig
from .index import TRAINING_RESULTS_PER_VECTOR, VARIANT_IVF, IndexConfig
from .pipeline import PipelineConfig
from .retriever import RetrievalConfig
from .scoring import FocusParams
from .supervision import LhoConfig
from .util import derive_seed

ENV_PREFIX = "HOPLITE_"


class ConfigError(ValueError):
    pass


def _section(cls, **extra) -> dict:
    """One config section: `cls`'s plain field defaults (tuples as lists), then `extra`.

    `seed` is left out (derived from the root seed), as are nested configs,
    whose defaults are factories.
    """
    out = {
        f.name: list(f.default) if isinstance(f.default, tuple) else f.default
        for f in fields(cls)
        if f.name != "seed" and f.default is not MISSING
    }
    return {**out, **extra}


DEFAULTS: dict = {
    "seed": 0,  # root seed; every component seed is derived from it
    "encoder": _section(EncoderConfig),
    "index": _section(IndexConfig, variant=VARIANT_IVF),  # the CLI builds IVF files
    # FocusParams flattened into the retrieval section
    "retrieval": _section(
        RetrievalConfig, query_focus=FocusParams.n_hat, fact_focus=FocusParams.l_hat
    ),
    "condenser": _section(CondenserConfig),
    "pipeline": _section(PipelineConfig),
    # supervision mining probes shallower than inference retrieval
    "supervision": _section(LhoConfig, results_per_vector=TRAINING_RESULTS_PER_VECTOR),
    "eval": _section(EvalConfig),
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
    _check_sections(cfg)
    return cfg


def _check_types(cfg: dict, defaults: Mapping, where: str = "") -> None:
    """Bool defaults demand a bool, int defaults an int, float defaults a number.

    None and list defaults are left to the typed configs.
    """
    for key, default in defaults.items():
        value, name = cfg[key], f"{where}{key}"
        if isinstance(default, dict):
            _check_types(value, default, f"{name}.")
        elif type(default) in (bool, int) and type(value) is not type(default):
            kind = "true or false" if type(default) is bool else "an integer"
            raise ConfigError(f"{name} must be {kind}, got {value!r}")
        elif type(default) is float and type(value) not in (int, float):
            raise ConfigError(f"{name} must be a number, got {value!r}")


def _check_sections(cfg: dict) -> None:
    """Build every typed config, so a bad value fails before any input is read."""
    checks = (
        ("encoder", encoder_config),
        ("index", index_config),
        ("retrieval", retrieval_config),
        ("condenser", condenser_config),
        ("pipeline", pipeline_config),
        ("supervision", lho_config),
        ("supervision", lho_retrieval_config),
        ("eval", eval_config),
    )
    for section, build in checks:
        try:
            build(cfg)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{section}: {exc}") from exc


# Materializers from the resolved document to typed configs. Sub-seeds are
# derived per component so e.g. changing kmeans seeding cannot perturb the
# encoder basis. Sections are passed whole: their defaults are the
# dataclass fields, and merge_overlay admits no key the defaults lack.


def encoder_config(cfg: dict) -> EncoderConfig:
    return EncoderConfig(**cfg["encoder"], seed=derive_seed(cfg["seed"], "encoder"))


def index_config(cfg: dict) -> IndexConfig:
    return IndexConfig(**cfg["index"], seed=derive_seed(cfg["seed"], "kmeans"))


def _focus(cfg: dict) -> FocusParams:
    sub = cfg["retrieval"]
    return FocusParams(n_hat=sub["query_focus"], l_hat=sub["fact_focus"])


def retrieval_config(cfg: dict) -> RetrievalConfig:
    sub = cfg["retrieval"]
    return RetrievalConfig(
        k=sub["k"], results_per_vector=sub["results_per_vector"], focus=_focus(cfg)
    )


def condenser_config(cfg: dict) -> CondenserConfig:
    return CondenserConfig(**cfg["condenser"])


def pipeline_config(cfg: dict) -> PipelineConfig:
    sub = cfg["pipeline"]
    return PipelineConfig(
        **{**sub, "per_hop_k": tuple(sub["per_hop_k"])},
        retrieval=retrieval_config(cfg),
        condenser=condenser_config(cfg),
    )


def lho_config(cfg: dict) -> LhoConfig:
    sub = dict(cfg["supervision"])
    del sub["results_per_vector"]  # read by lho_retrieval_config
    sub["k_hat"] = tuple(sub["k_hat"])
    return LhoConfig(**sub, seed=derive_seed(cfg["seed"], "supervision"))


def lho_retrieval_config(cfg: dict) -> RetrievalConfig:
    """Retrieval settings for supervision mining (wider, shallower probes)."""
    sub = cfg["supervision"]
    return RetrievalConfig(
        k=sub["k_retrieve"], results_per_vector=sub["results_per_vector"], focus=_focus(cfg)
    )


def eval_config(cfg: dict) -> EvalConfig:
    return EvalConfig(**cfg["eval"])
