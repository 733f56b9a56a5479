"""Flat key=value experiment configuration with CLI overrides.

The keys are the fields of ``ModelConfig`` and ``TrainConfig`` (a name in
both, such as ``margin``, is one key); each takes its default from its
dataclass and its parse type from the field's annotation (``KEY_TYPES``).
Config files hold one ``key=value`` per line; ``#`` starts a comment. Every
key except ``seed`` has a ``sheaf-kg train`` flag built from the key; it
takes precedence, and ``seed`` is set by ``--seeds``. Per-relation
constraint overrides use ``constraint.<relation>=<kind>``. ``build_settings``
returns the two configs, and ``describe`` writes them as one line.
"""

from __future__ import annotations

from dataclasses import fields

from .errors import FIELD_TYPES, ConfigError
from .kgdata import text_lines
from .model import ModelConfig
from .training import TrainConfig

KEY_TYPES = {  # KeyError: an annotation FIELD_TYPES does not parse
    f.name: FIELD_TYPES[f.type]
    for config in (ModelConfig, TrainConfig)
    for f in fields(config)
    if f.name != "constraint_overrides"
}
VALID_KEYS = tuple(KEY_TYPES)


def _config(cls, values: dict, **extra):
    """``cls`` built from the entries of ``values`` named by its fields."""
    return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values}, **extra)


def describe(model_config: ModelConfig, train_config: TrainConfig) -> str:
    """Every key's value, sorted by key, then the constraint overrides: one line of ``key=value``."""
    values = {**vars(model_config), **vars(train_config)}
    parts = [f"{k}={values[k]}" for k in sorted(VALID_KEYS)]
    parts += [f"constraint.{n}={kind}" for n, kind in sorted(model_config.constraint_overrides.items())]
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


def build_settings(file_values: dict[str, str] | None = None,
                   overrides: dict | None = None) -> tuple[ModelConfig, TrainConfig]:
    """The two configs from defaults, config-file values and CLI overrides (strongest last)."""
    values = {}  # the keys set; every other field keeps its dataclass default
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
        parse = KEY_TYPES[key]
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
    return (_config(ModelConfig, values, constraint_overrides=constraint_overrides),
            _config(TrainConfig, values))
