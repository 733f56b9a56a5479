"""Flat key=value experiment configuration with CLI overrides.

Config files hold one ``key=value`` per line; ``#`` starts a comment. Every
key has a matching CLI flag that takes precedence. Per-relation constraint
overrides use ``constraint.<relation>=<kind>``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .kgdata import text_lines
from .model import ModelConfig
from .training import TrainConfig

_INT_KEYS = ("epochs", "batch_size", "negatives_per_positive", "sections",
             "entity_dim", "relation_dim", "seed")
_FLOAT_KEYS = ("learning_rate", "margin", "alpha", "max_entity_norm")
_STR_KEYS = ("variant", "optimizer", "constraint")
VALID_KEYS = (*_INT_KEYS, *_FLOAT_KEYS, *_STR_KEYS)

DEFAULTS = {
    "variant": "shv",
    "epochs": 100,
    "batch_size": 512,
    "learning_rate": 0.1,
    "negatives_per_positive": 1,
    "margin": 1.0,
    "alpha": 0.0,
    "sections": 1,
    "entity_dim": 32,
    "relation_dim": 32,
    "optimizer": "adagrad",
    "constraint": "free",
    "seed": 0,
    "max_entity_norm": None,  # no cap on entity column norms
}


@dataclass
class Settings:
    values: dict
    constraint_overrides: dict[str, str]

    def model_config(self) -> ModelConfig:
        v = self.values
        return ModelConfig(
            variant=v["variant"],
            sections=v["sections"],
            alpha=v["alpha"],
            margin=v["margin"],
            entity_dim=v["entity_dim"],
            relation_dim=v["relation_dim"],
            constraint=v["constraint"],
            constraint_overrides=dict(self.constraint_overrides),
        )

    def train_config(self, seed: int | None = None) -> TrainConfig:
        v = self.values
        return TrainConfig(
            epochs=v["epochs"],
            batch_size=v["batch_size"],
            learning_rate=v["learning_rate"],
            negatives_per_positive=v["negatives_per_positive"],
            margin=v["margin"],
            alpha=v["alpha"],
            seed=v["seed"] if seed is None else seed,
            optimizer=v["optimizer"],
            max_entity_norm=v["max_entity_norm"],
        )

    def describe(self) -> str:
        parts = [f"{k}={self.values[k]}" for k in sorted(self.values)]
        parts += [f"constraint.{name}={kind}" for name, kind in sorted(self.constraint_overrides.items())]
        return " ".join(parts)


def read_config_file(path) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in text_lines(path, ConfigError):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        raw[key.strip()] = value.strip()
    return raw


def build_settings(file_values: dict[str, str] | None = None, overrides: dict | None = None) -> Settings:
    """Merge defaults, config-file values, and CLI overrides (strongest last)."""
    values = dict(DEFAULTS)
    constraint_overrides: dict[str, str] = {}
    for key, value in (file_values or {}).items():
        if key.startswith("constraint."):
            constraint_overrides[key[len("constraint."):]] = value
            continue
        if key not in VALID_KEYS:
            raise ConfigError(
                f"invalid config key {key!r}; valid keys: {', '.join(VALID_KEYS)} "
                "and constraint.<relation>"
            )
        parse = int if key in _INT_KEYS else float if key in _FLOAT_KEYS else str
        try:
            values[key] = parse(value)
        except ValueError:
            raise ConfigError(f"invalid {key}={value!r}: expected {parse.__name__}") from None
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in VALID_KEYS:
            raise ConfigError(f"invalid override key {key!r}")
        values[key] = value
    settings = Settings(values=values, constraint_overrides=constraint_overrides)
    # both configs check their own values and raise ConfigError on a bad one
    settings.model_config()
    settings.train_config()
    return settings
