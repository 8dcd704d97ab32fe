"""Flat key = value run configuration.

One ``key = value`` pair per line, ``#`` starts a comment, section
structure by dotted keys. Every key is validated against a typed schema
before any work starts, so typos and malformed overrides fail fast with
the offending key named.
"""

from __future__ import annotations

from dataclasses import dataclass


class ConfigError(ValueError):
    """A configuration, command line or size that cannot run; its message
    names the key at fault (or the flag or value)."""


@dataclass
class Field:
    kind: str  # int | float | bool | str | intlist
    default: object = None
    required: bool = False
    choices: tuple | None = None


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def read_config(path) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as f:
            return parse_config_text(f.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc


def parse_override(arg: str) -> tuple[str, str]:
    key, sep, value = arg.partition("=")
    if not sep or not key.strip():
        raise ConfigError(f"override must look like key=value, got {arg!r}")
    return key.strip(), value.strip()


def _parse_value(key: str, value: str, field: Field):
    try:
        if field.kind == "int":
            return int(value)
        if field.kind == "float":
            return float(value)
        if field.kind == "bool":
            if value not in ("true", "false"):
                raise ValueError("expected true or false")
            return value == "true"
        if field.kind == "intlist":
            return [int(v) for v in value.split(",")] if value else []
        return value
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc


def validate(raw: dict[str, str], schema: dict[str, Field]) -> dict:
    """Check raw strings against the schema; returns parsed values with
    defaults filled in."""
    out = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r}")
        field = schema[key]
        parsed = _parse_value(key, value, field)
        if field.choices is not None and parsed not in field.choices:
            raise ConfigError(f"{key} must be one of {field.choices}, got {parsed!r}")
        out[key] = parsed
    for key, field in schema.items():
        if key in out:
            continue
        if field.required:
            raise ConfigError(f"missing required config key {key!r}")
        out[key] = field.default
    return out
