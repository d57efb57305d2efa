"""Flat key = value configuration files, with command-line overrides.

Lines are `key = value`; `#` starts a comment; blank lines are ignored.
The keys are the fields of `ModelConfig`, which is the one list of
training settings, and each value must be valid on its own; an invalid
one is reported with its file and line. Flags always win over file
values, and every command prints the resolved configuration before
running.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .kg import _open_text
from .model import ModelConfig


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def setting_parsers() -> dict:
    """Each `ModelConfig` field's parser of its text form: a comma-separated
    list for a tuple default, otherwise the default's type."""
    return {f.name: _comma_list if isinstance(f.default, tuple) else type(f.default)
            for f in fields(ModelConfig)}


def parse_config_file(path: str | Path) -> dict:
    parsers = setting_parsers()
    values: dict = {}
    with _open_text(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in parsers:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = parsers[key](value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: cannot read {key} = {value!r} "
                                 f"as {parsers[key].__name__}") from None
            try:  # the value on its own, against the defaults of the others
                ModelConfig(**{key: values[key]})
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def build_model_config(file_path: str | None, overrides: dict) -> ModelConfig:
    """File values first, then non-None overrides on top of the defaults."""
    values = parse_config_file(file_path) if file_path else {}
    values.update((key, value) for key, value in overrides.items() if value is not None)
    return ModelConfig(**values)


def format_config(config: ModelConfig) -> str:
    """The config as file lines, sorted by key; the inverse of `parse_config_file`."""
    items = sorted(config.to_dict().items())
    return "\n".join(f"{k} = {','.join(v) if isinstance(v, list) else v}" for k, v in items)
