"""Flat key=value experiment configuration with CLI overrides.

The keys are the fields of ``ModelConfig`` and ``TrainConfig`` (a name in
both, such as ``margin``, is one key); each takes its default from its
dataclass and its parse type from the field's annotation. Config files hold
one ``key=value`` per line; ``#`` starts a comment. Every key except
``seed`` has a ``sheaf-kg train`` flag that takes precedence; ``seed`` is
set by ``--seeds``. Per-relation constraint overrides use
``constraint.<relation>=<kind>``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError
from .kgdata import text_lines
from .model import ModelConfig
from .training import TrainConfig

# annotation (a string under postponed evaluation) -> parser of a config-file value
_PARSERS = {"int": int, "float": float, "float | None": float, "str": str}
_FIELDS = {
    f.name: f
    for config in (ModelConfig, TrainConfig)
    for f in fields(config)
    if f.name != "constraint_overrides"
}
_PARSE = {name: _PARSERS[f.type] for name, f in _FIELDS.items()}  # KeyError: unparsed annotation
VALID_KEYS = tuple(_FIELDS)


def _config(cls, values: dict, **extra):
    """``cls`` built from the entries of ``values`` named by its fields."""
    return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values}, **extra)


@dataclass
class Settings:
    values: dict
    constraint_overrides: dict[str, str]

    def model_config(self) -> ModelConfig:
        return _config(ModelConfig, self.values, constraint_overrides=dict(self.constraint_overrides))

    def train_config(self, seed: int | None = None) -> TrainConfig:
        return _config(TrainConfig, self.values if seed is None else {**self.values, "seed": seed})

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
    values = {name: f.default for name, f in _FIELDS.items()}
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
        parse = _PARSE[key]
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
