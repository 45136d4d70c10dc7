import json

import numpy as np
import pytest

from irtime import (
    Dataset, DatasetRow, FeatureVector, ForestParams, HuberParams,
    Hyperparameters, MlpParams, TrainedModel,
    fit_linear, fit_huber, fit_forest, fit_mlp,
    load_model, predict, save_model,
    train_forest, train_huber, train_linear, train_mlp,
)
from irtime.models import dataset_fingerprint, TRAINERS
from irtime import mlp as mlp_mod
from irtime.errors import (
    DimensionMismatchError, EmptyDatasetError, FormatError, InvalidConfigError,
    IrTimeError, SingularDesignError,
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
    assert not path.exists()


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
