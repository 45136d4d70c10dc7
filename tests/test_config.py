import dataclasses
import json
import math
import re

import pytest

from irtime import (
    CacheConfig, ForestParams, HuberParams, Hyperparameters, MlpParams, PipelineConfig,
    RunLimits, config_from_dict, config_from_file,
)
from irtime.cli import main
from irtime.errors import InvalidConfigError
from irtime.interp import REGION_SPAN


def test_defaults_validate():
    cfg = PipelineConfig()
    assert cfg.cache == CacheConfig()
    assert cfg.limits == RunLimits()
    assert cfg.master_seed == 0
    assert cfg.workers == 1


def test_file_round_trip(tmp_path):
    cfg = PipelineConfig(
        cache=CacheConfig(cache_size=8192, line_size=64, associativity=4),
        limits=RunLimits(max_steps=5000),
        master_seed=11,
        workers=3,
    )
    p = tmp_path / "cfg.json"
    cfg.to_file(p)
    assert config_from_file(p) == cfg
    # stable bytes
    p2 = tmp_path / "cfg2.json"
    config_from_file(p).to_file(p2)
    assert p.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_to_file_refuses_what_config_from_file_refuses(value):
    # json.dumps would write NaN or Infinity, which config_from_file refuses;
    # no such config can be built, so to_file never writes one
    with pytest.raises(InvalidConfigError, match=r"huber\.epsilon must be finite"):
        PipelineConfig(hyper=Hyperparameters(huber=HuberParams(epsilon=value)))
    with pytest.raises(InvalidConfigError, match=r"huber\.epsilon must be finite"):
        dataclasses.replace(HuberParams(), epsilon=value)


_REJECTED = [
    (CacheConfig, {"cache_size": 0}, "cache geometry values must be positive"),
    (CacheConfig, {"line_size": -32}, "cache geometry values must be positive"),
    (CacheConfig, {"associativity": 0}, "cache geometry values must be positive"),
    (CacheConfig, {"line_size": 48}, "line_size must be a power of two, got 48"),
    (CacheConfig, {"cache_size": 100},
     "cache_size must be divisible by line_size * associativity (100 % 64 != 0)"),
    (RunLimits, {"max_steps": 0}, "max_steps must be positive"),
    (RunLimits, {"max_stack_bytes": 0}, "max_stack_bytes out of range"),
    (RunLimits, {"max_stack_bytes": REGION_SPAN + 1}, "max_stack_bytes out of range"),
    (RunLimits, {"max_heap_bytes": 0}, "max_heap_bytes out of range"),
    (RunLimits, {"max_heap_bytes": REGION_SPAN + 1}, "max_heap_bytes out of range"),
    *((HuberParams, {name: value}, "huber: epsilon and max_iter must be positive, l2 >= 0")
      for name, value in (("epsilon", 0.0), ("max_iter", 0), ("l2", -1e-4))),
    *((MlpParams, {name: 0}, "mlp: alpha, batch, epochs and hidden must be positive")
      for name in ("alpha", "batch", "epochs", "hidden")),
    (MlpParams, {"weight_decay": -1.0}, "mlp: weight_decay must be >= 0"),
    (ForestParams, {"n_trees": 0}, "forest: n_trees and max_depth must be positive"),
    (ForestParams, {"max_depth": 0}, "forest: n_trees and max_depth must be positive"),
    (ForestParams, {"min_split": 1}, "forest: min_split >= 2 and min_leaf >= 1 required"),
    (ForestParams, {"min_leaf": 0}, "forest: min_split >= 2 and min_leaf >= 1 required"),
    (ForestParams, {"max_feature": 0.0}, "forest: max_feature must be in (0, 1]"),
    (ForestParams, {"max_feature": 1.5}, "forest: max_feature must be in (0, 1]"),
    (PipelineConfig, {"master_seed": -1}, "master_seed must be >= 0"),
    (PipelineConfig, {"workers": 0}, "workers must be >= 1"),
]


@pytest.mark.parametrize("cls, kwargs, message", _REJECTED, ids=[
    f"{cls.__name__}.{name}={value}" for cls, kwargs, _ in _REJECTED
    for name, value in kwargs.items()])
def test_config_dataclasses_check_their_values_when_built(cls, kwargs, message):
    # so does dataclasses.replace, which is how the CLI applies its overrides
    for build in (lambda: cls(**kwargs), lambda: dataclasses.replace(cls(), **kwargs)):
        with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
            build()


def test_empty_dict_gives_defaults():
    assert config_from_dict({}) == PipelineConfig()


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(InvalidConfigError):
        config_from_dict({"caches": {}})
    with pytest.raises(InvalidConfigError):
        config_from_dict({"cache": {"cache_size": 1024, "linesize": 32}})
    with pytest.raises(InvalidConfigError):
        config_from_dict({"limits": {"max_step": 5}})
    with pytest.raises(InvalidConfigError):
        config_from_dict({"hyperparameters": {"svm": {}}})
    with pytest.raises(InvalidConfigError):
        config_from_dict({"hyperparameters": {"huber": {"delta": 2.0}}})
    with pytest.raises(InvalidConfigError):
        config_from_dict({"cache": {"write_policy": "write-back"}})
    # the unit of the labels comes from the labels file, not the config
    with pytest.raises(InvalidConfigError, match=r"^unknown config keys: \['label_unit'\]$"):
        config_from_dict({"label_unit": "us"})


def test_bad_values_rejected():
    with pytest.raises(InvalidConfigError):
        config_from_dict({"workers": 0})
    with pytest.raises(InvalidConfigError):
        config_from_dict({"master_seed": -1})
    with pytest.raises(InvalidConfigError):
        config_from_dict({"cache": {"cache_size": 100, "line_size": 32,
                                    "associativity": 2}})
    with pytest.raises(InvalidConfigError):
        config_from_dict({"hyperparameters": {"huber": {"epsilon": 0.0}}})
    # values of the wrong JSON type
    for data in ({"cache": 5},
                 {"cache": {"cache_size": "big"}},
                 {"master_seed": "1"},
                 {"limits": {"max_steps": None}},
                 {"hyperparameters": {"forest": {"n_trees": 2.5}}},
                 {"hyperparameters": {"mlp": {"hidden": True}}}):
        with pytest.raises(InvalidConfigError):
            config_from_dict(data)


_FLOAT_FIELDS = [(HuberParams, "huber", "epsilon"), (HuberParams, "huber", "l2"),
                 (MlpParams, "mlp", "alpha"), (MlpParams, "mlp", "weight_decay"),
                 (ForestParams, "forest", "max_feature")]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, group, name", _FLOAT_FIELDS)
def test_non_finite_hyperparameters_rejected(cls, group, name, value):
    # every bound check is false for NaN, and inf passes the lower bounds
    with pytest.raises(InvalidConfigError, match=rf"{group}\.{name}"):
        cls(**{name: value})
    with pytest.raises(InvalidConfigError, match=rf"{group}\.{name}"):
        config_from_dict({"hyperparameters": {group: {name: value}}})


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_hyperparameter_in_file_rejected(tmp_path, capsys, text):
    # json.loads reads NaN and Infinity, so the file parses and validation
    # must refuse it, before `train` reads its features or writes a model
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"hyperparameters": {"huber": {"epsilon": %s}}}' % text)
    with pytest.raises(InvalidConfigError, match=r"huber\.epsilon"):
        config_from_file(cfg)
    out = tmp_path / "m.json"
    assert main(["train", "--features", str(tmp_path / "absent.csv"), "--model", "huber",
                 "--config", str(cfg), "--out", str(out)]) == 1
    assert "huber.epsilon must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_predictor_start_state_is_not_a_config_key():
    # every branch site starts weakly not-taken
    for name in ("WNT", "ST"):
        with pytest.raises(InvalidConfigError,
                           match=r"^unknown config keys: \['predictor_initial_state'\]$"):
            config_from_dict({"predictor_initial_state": name})


def test_hyperparameter_overrides_apply():
    cfg = config_from_dict({
        "hyperparameters": {
            "forest": {"n_trees": 10},
            "mlp": {"epochs": 3},
        }
    })
    assert cfg.hyper.forest.n_trees == 10
    assert cfg.hyper.mlp.epochs == 3
    # untouched groups keep their defaults
    assert cfg.hyper.huber.epsilon == 1.35
    # an integer is a number too, and is kept as written
    cfg = config_from_dict({"hyperparameters": {"huber": {"epsilon": 2}}})
    assert cfg.hyper.huber.epsilon == 2 and type(cfg.hyper.huber.epsilon) is int


def test_non_json_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    with pytest.raises(InvalidConfigError, match=f"^{re.escape(str(p))}:1:2: not valid JSON: "
                                                 "Expecting property name"):
        config_from_file(p)
    p.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(InvalidConfigError,
                       match=f"^{re.escape(str(p))}: config must be a JSON object$"):
        config_from_file(p)
