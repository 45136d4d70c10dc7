import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from irtime import (
    Dataset, DatasetRow, FeatureVector, ForestParams, HuberParams,
    Hyperparameters, MlpParams, TrainedModel,
    fit_linear, fit_huber, fit_forest, fit_mlp,
    load_model, predict, save_model,
    train_forest, train_huber, train_linear, train_mlp,
)
from irtime.models import dataset_fingerprint, TRAINERS, _json_chunks, _non_finite
from irtime import mlp as mlp_mod
from irtime.cli import main as cli_main
from irtime.trace import write_features
from irtime.errors import (
    DimensionMismatchError, EmptyDatasetError, FormatError, InvalidConfigError,
    IrTimeError, NonFiniteError, SingularDesignError,
)


def _dataset(X, y, prefix="s"):
    rows = tuple(
        DatasetRow(f"{prefix}{i}", FeatureVector(tuple(float(v) for v in row)),
                   label=float(t))
        for i, (row, t) in enumerate(zip(X, y))
    )
    return Dataset(rows)


def _random_dataset(rng, n, weights=None, intercept=10.0, noise=0.0):
    X = rng.integers(0, 100, size=(n, 42)).astype(float)
    if weights is None:
        weights = np.zeros(42)
        weights[0] = 2.0    # add
        weights[30] = 5.0   # load_miss
    y = X @ weights + intercept
    if noise:
        y = y * (1.0 + rng.normal(0.0, noise, size=n))
    return _dataset(X, y), X, y


def test_linear_recovers_planted_coefficients():
    rng = np.random.default_rng(0)
    ds, X, y = _random_dataset(rng, 50)
    model = train_linear(ds)
    assert abs(model.weights[0] - 2.0) < 1e-6
    assert abs(model.weights[30] - 5.0) < 1e-6
    assert abs(model.intercept - 10.0) < 1e-6
    others = np.delete(model.weights, [0, 30])
    assert np.max(np.abs(others)) < 1e-6
    pred = model.predict(X)
    assert np.max(np.abs(pred - y) / y * 100) < 1e-4


def test_fit_linear_single_feature():
    w, b = fit_linear(np.array([[1.0], [2.0]]), np.array([2.0, 4.0]))
    assert abs(w[0] - 2.0) < 1e-6
    assert abs(b) < 1e-6


def test_fit_linear_identical_rows():
    # degenerate design: damping pins the weights at zero and the
    # intercept absorbs the mean
    X = np.ones((5, 3))
    y = np.array([10.0, 12.0, 14.0, 16.0, 18.0])
    w, b = fit_linear(X, y)
    assert np.max(np.abs(w)) < 1e-6
    assert abs(b - 14.0) < 1e-6


def test_fit_linear_singular_design_is_an_irtime_error():
    # a duplicated column at feature scale: the 1e-9 damping cannot lift
    # the normal equations off singular, so the solve itself fails
    rng = np.random.default_rng(0)
    a = rng.integers(1000, 100000, size=36).astype(float)
    b = rng.integers(1000, 100000, size=36).astype(float)
    X = np.column_stack([a, a, b, np.ones(36)])
    y = rng.uniform(1, 2, size=36)
    with pytest.raises(SingularDesignError, match="singular") as info:
        fit_linear(X, y)
    assert isinstance(info.value, IrTimeError)


def test_huber_matches_linear_in_quadratic_regime():
    # centered features, tiny residuals: every residual stays inside the
    # quadratic zone, so the robust fit and least squares coincide
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(30, 3))
    y = 0.2 + X @ np.array([0.4, -0.3, 0.1]) + rng.normal(0, 0.005, 30)
    wl, bl = fit_linear(X, y)
    wh, bh = fit_huber(X, y)
    assert np.max(np.abs(wl - wh)) < 1e-3
    assert abs(bl - bh) < 1e-3


def test_huber_huge_delta_is_least_squares():
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, size=(30, 3))
    y = 0.3 + X @ np.array([0.2, 0.1, -0.2]) + rng.normal(0, 0.005, 30)
    wl, bl = fit_linear(X, y)
    wh, bh = fit_huber(X, y, epsilon=1e9)
    assert np.max(np.abs(wl - wh)) < 1e-3
    assert abs(bl - bh) < 1e-3


def test_huber_shrugs_off_outliers():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 40
        X = rng.uniform(0, 1, size=(n, 1))
        y = 1.0 + 0.1 * X[:, 0] + rng.normal(0, 0.01, n)
        y_bad = y.copy()
        y_bad[rng.choice(n, size=2, replace=False)] *= 50
        wl, _ = fit_linear(X, y_bad)
        wh, _ = fit_huber(X, y_bad)
        assert abs(wh[0] - 0.1) < abs(wl[0] - 0.1), seed


def test_forest_near_interpolation():
    # deep trees memorize their bootstrap sample; out-of-bag trees land on
    # a neighboring leaf, so a smooth target keeps every training
    # prediction within a few percent
    for seed in (0, 7):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 500, size=(20, 42)).astype(float)
        X[:, 0] = np.arange(20) * 25.0
        y = 1000.0 + 20.0 * np.arange(20)
        f = fit_forest(X, y, ForestParams(), master_seed=seed)
        ape = np.abs(f.predict(X) - y) / y * 100
        assert ape.max() < 5.0


def test_forest_constant_labels_exact():
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 10, size=(15, 6))
    y = np.full(15, 42.0)
    f = fit_forest(X, y, ForestParams(), master_seed=0)
    assert np.all(f.predict(X) == 42.0)
    assert np.all(f.predict(rng.uniform(0, 10, size=(5, 6))) == 42.0)


def test_forest_deterministic():
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 10, size=(25, 5))
    y = rng.uniform(1, 100, size=25)
    a = fit_forest(X, y, ForestParams(), master_seed=9)
    b = fit_forest(X, y, ForestParams(), master_seed=9)
    probe = rng.uniform(0, 10, size=(40, 5))
    assert np.array_equal(a.predict(probe), b.predict(probe))
    c = fit_forest(X, y, ForestParams(), master_seed=10)
    assert not np.array_equal(a.predict(probe), c.predict(probe))


def test_mlp_loss_decreases():
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, size=(48, 42))
    w = rng.uniform(0.1, 0.5, size=42)
    y = X @ w + 3.0
    Xz = mlp_mod.standardize_apply(X, *mlp_mod.standardize_fit(X))
    init = mlp_mod.init_weights(42, 64, seed=0)
    initial_loss, _ = mlp_mod.loss_and_grads(init, Xz, y, weight_decay=1e-4)
    weights, history = mlp_mod.train(Xz, y, seed=0)
    assert len(history) == 10
    assert history[-1] < initial_loss


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, size=(3, 7))
    y = rng.uniform(0, 2, size=3)
    weights = mlp_mod.init_weights(7, 4, seed=1)
    _, grads = mlp_mod.loss_and_grads(weights, X, y, weight_decay=1e-4)
    for key in weights:
        w = weights[key]
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            h = 1e-5 * max(1.0, abs(w[idx]))
            w[idx] += h
            up, _ = mlp_mod.loss_and_grads(weights, X, y, weight_decay=1e-4)
            w[idx] -= 2 * h
            down, _ = mlp_mod.loss_and_grads(weights, X, y, weight_decay=1e-4)
            w[idx] += h
            fd = (up - down) / (2 * h)
            a = grads[key][idx]
            rel = abs(a - fd) / max(abs(a) + abs(fd), 1e-6)
            assert rel < 1e-4, (key, idx, a, fd)


def test_mlp_fits_labels_at_ns_scale():
    # labels around 1e5, as simulated times in ns are: SGD on them unscaled
    # diverged, leaving non-finite weights
    rng = np.random.default_rng(8)
    X = rng.integers(0, 1000, size=(60, 42)).astype(float)
    y = 1e5 + X @ rng.uniform(10, 50, size=42)
    weights, _, _, history = fit_mlp(X, y)
    assert all(np.isfinite(a).all() for a in weights.values())
    assert np.isfinite(history[-1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mlp_train_raises_on_non_finite_loss():
    # a learning rate this high overflows the weights within the first epoch
    rng = np.random.default_rng(14)
    X = rng.standard_normal((40, 5))
    y = rng.standard_normal(40)
    with pytest.raises(NonFiniteError, match=r"loss is (nan|inf) after epoch 1 of 10;"):
        mlp_mod.train(X, y, learning_rate=1e3, seed=0)


def test_mlp_deterministic():
    rng = np.random.default_rng(6)
    ds, X, _ = _random_dataset(rng, 30, noise=0.01)
    a = train_mlp(ds, master_seed=5)
    b = train_mlp(ds, master_seed=5)
    assert np.array_equal(a.predict(X), b.predict(X))


def test_all_kinds_round_trip_through_files(tmp_path):
    rng = np.random.default_rng(7)
    ds, X, _ = _random_dataset(rng, 30, noise=0.01)
    for kind, trainer in TRAINERS.items():
        model = trainer(ds, Hyperparameters(), 3)
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        back = load_model(path)
        assert back.kind == kind
        assert back.feature_count == model.feature_count
        assert back.dataset_fingerprint == model.dataset_fingerprint
        assert np.array_equal(back.predict(X), model.predict(X)), kind
        # load -> save reproduces the exact bytes
        path2 = tmp_path / f"{kind}2.json"
        save_model(back, path2)
        assert path.read_bytes() == path2.read_bytes(), kind


def test_save_refuses_non_finite_parameters(tmp_path):
    model = TrainedModel("linear", 2, {}, 0, "",
                         {"weights": np.array([np.nan, 1.0]), "intercept": 0.0})
    path = tmp_path / "nan.json"
    with pytest.raises(FormatError) as info:
        save_model(model, path)
    assert str(path) in str(info.value)
    assert "parameters.weights" in str(info.value)
    assert not path.exists()

    # a NaN in one threshold of one tree
    rng = np.random.default_rng(3)
    ds, _, _ = _random_dataset(rng, 12, noise=0.01)
    forest = train_forest(ds, ForestParams(n_trees=3), 0)
    forest._payload["forest"].trees[1].threshold[0] = np.nan
    with pytest.raises(FormatError, match=r"trees\[1\]\.threshold"):
        save_model(forest, path)
    assert not path.exists()

    # an infinite hyperparameter, as a model file read back may hold
    huber = train_huber(ds)
    huber.hyperparameters["l2"] = math.inf
    with pytest.raises(FormatError, match=r"hyperparameters\.l2"):
        save_model(huber, path)
    assert not path.exists()

    # a refused save over an existing model file leaves it as it was, and
    # leaves no other file in its directory
    save_model(train_linear(ds), path)
    before = path.read_bytes()
    for refused in (model, forest, huber):
        with pytest.raises(FormatError):
            save_model(refused, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


# --- the model file writer: json.dumps(indent=2, sort_keys=True), in pieces ---

_FINITE = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 0.1]))
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_KEYS = st.text(st.characters(codec="utf-8") | st.sampled_from('"\\\x00\x1f\n\u00e9\u2028'),
                max_size=4)
_ARRAY_SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3)


def _values(floats):
    """Nested dicts and lists whose leaves are JSON scalars (floats drawn
    from `floats`) or 0-d, 1-D and 2-D float, int and bool arrays."""
    leaves = (st.none() | st.booleans() | st.integers() | floats | _KEYS
              | hnp.arrays(np.float64, _ARRAY_SHAPES, elements=floats)
              | hnp.arrays(np.int64, _ARRAY_SHAPES) | hnp.arrays(np.bool_, _ARRAY_SHAPES))
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(_KEYS, inner, max_size=3), max_leaves=12)


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


@settings(max_examples=300, deadline=None)
@given(value=_values(_FINITE))
@example(value={})
@example(value={"b": [], "a": {"": np.array(1.5)}, "c": np.zeros((2, 0))})
@example(value=[np.array([-0.0, 5e-324, 1e16, 0.1]), 2**80, True, None])
def test_writer_matches_json_dumps(value):
    want = json.dumps(_plain(value), indent=2, sort_keys=True, allow_nan=False)
    assert _non_finite(value) is None
    assert "".join(_json_chunks(value)) == want


@settings(max_examples=200, deadline=None)
@given(value=_values(_FINITE | _NON_FINITE))
@example(value={"x": [1.0, {"y": np.array([1.0, np.inf])}]})
@example(value=np.array(-np.inf))
def test_writer_refuses_what_json_dumps_refuses(value):
    # a NaN or an infinity anywhere is found before anything is written
    try:
        json.dumps(_plain(value), allow_nan=False)
    except ValueError:
        assert _non_finite(value) is not None
    else:
        assert _non_finite(value) is None


def test_model_file_is_versioned_json(tmp_path):
    rng = np.random.default_rng(8)
    ds, _, _ = _random_dataset(rng, 10, noise=0.01)
    path = tmp_path / "m.json"
    save_model(train_linear(ds), path)
    d = json.loads(path.read_text())
    assert d["format"] == "irtime-model"
    assert d["version"] == 1
    assert d["kind"] == "linear"

    d["format"] = "something-else"
    path.write_text(json.dumps(d))
    with pytest.raises(FormatError):
        load_model(path)

    d["format"] = "irtime-model"
    d["version"] = 99
    path.write_text(json.dumps(d))
    with pytest.raises(FormatError):
        load_model(path)

    d["version"] = 1
    d["kind"] = "svm"
    path.write_text(json.dumps(d))
    with pytest.raises(FormatError):
        load_model(path)

    path.write_text("not json at all")
    with pytest.raises(FormatError):
        load_model(path)


def test_predictions_clamped_at_zero():
    # force a negative raw prediction through a handmade linear model
    model = TrainedModel(
        kind="linear", feature_count=2, hyperparameters={}, master_seed=0,
        dataset_fingerprint="", payload={"weights": np.array([-5.0, 0.0]),
                                         "intercept": 1.0},
    )
    out = model.predict(np.array([[10.0, 0.0]]))
    assert out[0] == 0.0


def test_predict_single_vector():
    model = TrainedModel(
        kind="linear", feature_count=3, hyperparameters={}, master_seed=0,
        dataset_fingerprint="", payload={"weights": np.array([1.0, 2.0, 3.0]),
                                         "intercept": 0.5},
    )
    assert predict(model, [1.0, 1.0, 1.0]) == 6.5
    with pytest.raises(DimensionMismatchError):
        predict(model, [1.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        model.predict(np.ones((4, 5)))


def test_train_linear_needs_two_samples():
    v = FeatureVector((1.0,) * 42)
    ds = Dataset((DatasetRow("only", v, label=3.0),))
    with pytest.raises(EmptyDatasetError):
        train_linear(ds)
    with pytest.raises(EmptyDatasetError):
        train_linear(Dataset(()))


def test_dataset_fingerprint_tracks_content():
    rng = np.random.default_rng(9)
    ds1, X, y = _random_dataset(rng, 5, noise=0.01)
    ds_same = _dataset(X, y)
    assert dataset_fingerprint(ds1) == dataset_fingerprint(ds_same)
    y2 = np.array(y)
    y2[0] += 1.0
    assert dataset_fingerprint(_dataset(X, y2)) != dataset_fingerprint(ds1)


def test_hyperparameter_validation():
    with pytest.raises(InvalidConfigError):
        HuberParams(epsilon=0.0).validate()
    with pytest.raises(InvalidConfigError):
        HuberParams(max_iter=0).validate()
    with pytest.raises(InvalidConfigError):
        MlpParams(alpha=-1.0).validate()
    with pytest.raises(InvalidConfigError):
        MlpParams(batch=0).validate()
    with pytest.raises(InvalidConfigError):
        ForestParams(n_trees=0).validate()
    with pytest.raises(InvalidConfigError):
        ForestParams(max_feature=1.5).validate()
    Hyperparameters().validate()
    with pytest.raises(InvalidConfigError):
        TrainedModel("svm", 42, {}, 0, "", {})


def test_trainers_accept_hyperparameters_bundle():
    rng = np.random.default_rng(10)
    ds, X, _ = _random_dataset(rng, 20, noise=0.01)
    hyper = Hyperparameters(
        huber=HuberParams(max_iter=20),
        forest=ForestParams(n_trees=5, max_depth=4),
        mlp=MlpParams(epochs=2, hidden=8),
    )
    h = train_huber(ds, hyper)
    f = train_forest(ds, hyper, master_seed=0)
    m = train_mlp(ds, hyper, master_seed=0)
    assert h.hyperparameters["max_iter"] == 20
    assert f.hyperparameters["n_trees"] == 5
    assert m.hyperparameters["hidden"] == 8
    for model in (h, f, m):
        assert model.predict(X).shape == (20,)


def _saved(tmp_path, kind, edit, part="parameters"):
    """Train a small `kind` model, save it, apply `edit` to the `part` of its
    parsed JSON and write it back; returns the path."""
    rng = np.random.default_rng(11)
    ds, _, _ = _random_dataset(rng, 30, noise=0.01)
    hyper = Hyperparameters(forest=ForestParams(n_trees=3, max_depth=4),
                            mlp=MlpParams(epochs=1, hidden=8))
    path = tmp_path / f"{kind}.json"
    save_model(TRAINERS[kind](ds, hyper, 0), path)
    d = json.loads(path.read_text())
    edit(d[part])
    path.write_text(json.dumps(d))
    return path


def _assert_rejected(path, match):
    with pytest.raises(FormatError, match=match) as info:
        load_model(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("kind, hyper, match", [
    ("huber", {"l2": math.nan}, r"huber\.l2 must be finite, got nan"),
    ("mlp", {"alpha": -math.inf}, r"mlp\.alpha must be finite, got -inf"),
    ("forest", {"n_trees": 2.5}, r"model\.hyperparameters\.n_trees must be an integer"),
    ("forest", {"min_split": 1}, r"min_split >= 2"),
    ("huber", {"delta": 1.0}, r"unknown model\.hyperparameters keys: \['delta'\]"),
    ("linear", {"l2": 1.0}, r"model\.hyperparameters must be \{\} for a linear model"),
])
def test_load_rejects_bad_hyperparameters(tmp_path, kind, hyper, match):
    # json.loads reads NaN and Infinity, so a model file can hold what
    # save_model would refuse to write back
    path = _saved(tmp_path, kind, lambda h: h.update(hyper), "hyperparameters")
    _assert_rejected(path, match)


def test_load_rejects_short_weights(tmp_path):
    path = _saved(tmp_path, "linear", lambda p: p.update(weights=p["weights"][:5]))
    _assert_rejected(path, r"'weights' has shape \(5,\), expected \(42,\)")


def test_load_rejects_mlp_layer_of_the_wrong_width(tmp_path):
    path = _saved(tmp_path, "mlp", lambda p: p.update(W1=[row[:3] for row in p["W1"]]))
    _assert_rejected(path, r"'b1' has shape \(8,\), expected \(3,\)")


@pytest.mark.parametrize("field, value", [("feature", 99), ("feature", 42),
                                          ("left", 10**6), ("left", "nodes")])
def test_load_rejects_forest_index_out_of_range(tmp_path, field, value):
    # 42 is the feature count, and "nodes" the tree's node count
    def edit(p):
        tree = p["trees"][0]
        tree[field][0] = len(tree["value"]) if value == "nodes" else value
    _assert_rejected(_saved(tmp_path, "forest", edit), "tree node 0 splits")


def test_load_rejects_forest_without_trees(tmp_path):
    path = _saved(tmp_path, "forest", lambda p: p.update(trees=[]))
    _assert_rejected(path, "at least one tree")


def test_load_rejects_forest_child_that_does_not_follow_its_parent(tmp_path, capsys):
    # a child id that is not greater than its parent's would make the walk
    # in RegressionTree.predict revisit node 0 forever
    def edit(p):
        p["trees"][0]["left"][0] = p["trees"][0]["right"][0] = 0
    path = _saved(tmp_path, "forest", edit)
    _assert_rejected(path, r"into nodes 0 and 0")
    features = tmp_path / "x.features"
    write_features(_random_dataset(np.random.default_rng(1), 3)[0], features)
    assert cli_main(["predict", "--model", str(path), "--features", str(features),
                     "--out", str(tmp_path / "p.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and err.count("\n") == 1
