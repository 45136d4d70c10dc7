"""Pipeline configuration: one JSON file drives simulation and training.

Unknown keys are rejected rather than ignored so a typo in a config file
fails loudly instead of silently running with defaults.  Each config
dataclass checks its values in __post_init__, so construction and
dataclasses.replace raise InvalidConfigError and a config that exists is
valid.
"""

import dataclasses
import json
from dataclasses import dataclass, field

from .cache import CacheConfig
from .errors import InvalidConfigError
from .interp import RunLimits
from .models import Hyperparameters
from .trace import read_text, write_lines


@dataclass(frozen=True)
class PipelineConfig:
    cache: CacheConfig = CacheConfig()
    limits: RunLimits = RunLimits()
    hyper: Hyperparameters = field(default=Hyperparameters(),
                                   metadata={"key": "hyperparameters"})
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.master_seed < 0:
            raise InvalidConfigError("master_seed must be >= 0")
        if self.workers < 1:
            raise InvalidConfigError("workers must be >= 1")

    def to_dict(self) -> dict:
        return _dump(self)

    def to_file(self, path) -> None:
        """Write the config as config_from_file reads it."""
        write_lines(path, [json.dumps(self.to_dict(), indent=2, sort_keys=True,
                                      allow_nan=False)])


def _key(f):
    return f.metadata.get("key", f.name)


def _dump(value):
    if not dataclasses.is_dataclass(value):
        return value
    return {_key(f): _dump(getattr(value, f.name)) for f in dataclasses.fields(value)}


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string"}


def dataclass_from_json(cls, data, where):
    """The `cls` dataclass that the JSON object `data` describes, the inverse
    of _dump.  A field whose default is a dataclass is built from a nested
    object; any other value must have the JSON type of the field's default,
    where an integer is also a number and a boolean is neither."""
    if not isinstance(data, dict):
        raise InvalidConfigError(f"{where} must be a JSON object")
    fields = {_key(f): f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise InvalidConfigError(f"unknown {where} keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        default, name = fields[key].default, f"{where}.{key}"
        if dataclasses.is_dataclass(default):
            value = dataclass_from_json(type(default), value, name)
        elif isinstance(value, bool) or not isinstance(
                value, (int, float) if type(default) is float else type(default)):
            raise InvalidConfigError(f"{name} must be {_JSON_TYPES[type(default)]}, "
                                     f"got {json.dumps(value)}")
        kwargs[fields[key].name] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> PipelineConfig:
    return dataclass_from_json(PipelineConfig, data, "config")


def config_from_file(path) -> PipelineConfig:
    """The config of the JSON file at `path`; each fault in it is an
    InvalidConfigError naming the file, and its line:col where it has one."""
    text = read_text(path, lambda message, line, column:
                     InvalidConfigError(f"{path}:{line}:{column}: {message}"))
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: not valid JSON: {exc.msg}") from None
    try:
        return config_from_dict(data)
    except InvalidConfigError as exc:
        raise InvalidConfigError(f"{path}: {exc}") from None
