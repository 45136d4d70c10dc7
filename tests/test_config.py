import json
import math

import pytest

from irtime import (
    CacheConfig, ForestParams, HuberParams, Hyperparameters, MlpParams, PipelineConfig,
    PredictorState, RunLimits, config_from_dict, config_from_file,
)
from irtime.cli import main
from irtime.errors import InvalidConfigError


def test_defaults_validate():
    cfg = PipelineConfig()
    cfg.validate()
    assert cfg.cache == CacheConfig()
    assert cfg.predictor_initial_state is PredictorState.WNT
    assert cfg.limits == RunLimits()
    assert cfg.master_seed == 0
    assert cfg.workers == 1


def test_file_round_trip(tmp_path):
    cfg = PipelineConfig(
        cache=CacheConfig(cache_size=8192, line_size=64, associativity=4),
        predictor_initial_state=PredictorState.ST,
        limits=RunLimits(max_steps=5000),
        label_unit="us",
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
def test_to_file_refuses_what_config_from_file_refuses(tmp_path, value):
    # json.dumps would write NaN or Infinity, which config_from_file refuses
    p = tmp_path / "cfg.json"
    cfg = PipelineConfig(hyper=Hyperparameters(huber=HuberParams(epsilon=value)))
    with pytest.raises(InvalidConfigError, match=r"huber\.epsilon must be finite"):
        cfg.to_file(p)
    assert not p.exists()


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


def test_bad_values_rejected():
    with pytest.raises(InvalidConfigError):
        config_from_dict({"workers": 0})
    with pytest.raises(InvalidConfigError):
        config_from_dict({"master_seed": -1})
    with pytest.raises(InvalidConfigError):
        config_from_dict({"label_unit": ""})
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
        cls(**{name: value}).validate()
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


def test_predictor_state_parsed_by_name():
    cfg = config_from_dict({"predictor_initial_state": "SNT"})
    assert cfg.predictor_initial_state is PredictorState.SNT
    with pytest.raises(InvalidConfigError):
        config_from_dict({"predictor_initial_state": "MAYBE"})


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
    with pytest.raises(InvalidConfigError):
        config_from_file(p)
    p.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(InvalidConfigError):
        config_from_file(p)
