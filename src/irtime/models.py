"""The four runtime regressors behind one TrainedModel wrapper.

Matrix-level fit_* functions work on arbitrary-width float matrices and are
what the tests exercise directly; dataset-level train_* functions wrap them
with feature extraction, metadata, and the fingerprint needed to reproduce
a training run.  Predicted times are clamped at zero since a runtime cannot
be negative.

Linear and Huber models share the weights+intercept shape.  The linear fit
solves the normal equations with a 1e-9 diagonal damping term on the weight
block only; the intercept stays undamped so a degenerate design (identical
rows) still yields intercept = label mean with zero weights.  The Huber fit
is plain full-batch gradient descent from zero initialization with a fixed
step of 1/L, where L bounds the objective curvature, so it descends
monotonically without any line search state.
"""

import hashlib
import json
from dataclasses import dataclass, asdict

import numpy as np

from . import forest as _forest
from . import mlp as _mlp
from .errors import (
    EmptyDatasetError, DimensionMismatchError, FormatError, InvalidConfigError,
    SingularDesignError,
)

MODEL_FORMAT = "irtime-model"
MODEL_VERSION = 1

MODEL_KINDS = ("linear", "huber", "forest", "mlp")


@dataclass(frozen=True)
class HuberParams:
    epsilon: float = 1.35
    max_iter: int = 100
    l2: float = 1e-4

    def validate(self):
        if self.epsilon <= 0 or self.max_iter <= 0 or self.l2 < 0:
            raise InvalidConfigError("huber: epsilon and max_iter must be positive, l2 >= 0")


@dataclass(frozen=True)
class MlpParams:
    alpha: float = 2e-5
    batch: int = 4
    epochs: int = 10
    weight_decay: float = 1e-4
    hidden: int = 64

    def validate(self):
        if self.alpha <= 0 or self.batch <= 0 or self.epochs <= 0 or self.hidden <= 0:
            raise InvalidConfigError("mlp: alpha, batch, epochs and hidden must be positive")
        if self.weight_decay < 0:
            raise InvalidConfigError("mlp: weight_decay must be >= 0")


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int = 64
    min_split: int = 2
    min_leaf: int = 1
    max_feature: float = 1.0

    def validate(self):
        if self.n_trees <= 0 or self.max_depth <= 0:
            raise InvalidConfigError("forest: n_trees and max_depth must be positive")
        if self.min_split < 2 or self.min_leaf < 1:
            raise InvalidConfigError("forest: min_split >= 2 and min_leaf >= 1 required")
        if not 0.0 < self.max_feature <= 1.0:
            raise InvalidConfigError("forest: max_feature must be in (0, 1]")


@dataclass(frozen=True)
class Hyperparameters:
    huber: HuberParams = HuberParams()
    mlp: MlpParams = MlpParams()
    forest: ForestParams = ForestParams()

    def validate(self):
        self.huber.validate()
        self.mlp.validate()
        self.forest.validate()


def _huber_of(h):
    if h is None:
        return HuberParams()
    return h.huber if isinstance(h, Hyperparameters) else h


def _mlp_of(h):
    if h is None:
        return MlpParams()
    return h.mlp if isinstance(h, Hyperparameters) else h


def _forest_of(h):
    if h is None:
        return ForestParams()
    return h.forest if isinstance(h, Hyperparameters) else h


# --- matrix-level fits -------------------------------------------------------


def fit_linear(X, y, damping=1e-9):
    """Least squares with intercept.  Returns (weights, intercept)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyDatasetError("linear fit needs at least one row")
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    A = Xa.T @ Xa
    A[np.arange(d), np.arange(d)] += damping
    try:
        theta = np.linalg.solve(A, Xa.T @ y)
    except np.linalg.LinAlgError:
        raise SingularDesignError("linear fit: the design matrix is singular "
                                  "(some features are linearly dependent)") from None
    return theta[:d], float(theta[d])


def fit_huber(X, y, epsilon=1.35, max_iter=100, l2=1e-4):
    """Gradient descent on mean Huber loss + (l2/2)·|w|², intercept unpenalized.

    Step size is 1/L with L = lambda_max(Xa'Xa)/n + l2, an upper bound on the
    curvature everywhere (the Huber second derivative never exceeds 1), so
    each iteration cannot overshoot.  Stops early once the gradient is flat.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyDatasetError("huber fit needs at least one row")
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    lam_max = float(np.linalg.eigvalsh(Xa.T @ Xa)[-1])
    step = 1.0 / (lam_max / n + l2)

    w = np.zeros(d)
    b = 0.0
    for _ in range(max_iter):
        r = y - X @ w - b
        clipped = np.clip(r, -epsilon, epsilon)
        grad_w = -(X.T @ clipped) / n + l2 * w
        grad_b = -float(clipped.mean())
        if max(float(np.abs(grad_w).max(initial=0.0)), abs(grad_b)) < 1e-12:
            break
        w = w - step * grad_w
        b = b - step * grad_b
    return w, b


def fit_forest(X, y, params: ForestParams = ForestParams(), master_seed=0):
    params.validate()
    return _forest.fit_forest(
        X, y, n_trees=params.n_trees, max_depth=params.max_depth,
        min_split=params.min_split, min_leaf=params.min_leaf,
        max_features=params.max_feature, master_seed=master_seed,
    )


def fit_mlp(X, y, params: MlpParams = MlpParams(), master_seed=0):
    """Returns (weights dict, mean, std, loss history)."""
    params.validate()
    mean, std = _mlp.standardize_fit(X)
    Xz = _mlp.standardize_apply(X, mean, std)
    weights, history = _mlp.train(
        Xz, y, hidden=params.hidden, learning_rate=params.alpha,
        batch_size=params.batch, epochs=params.epochs,
        weight_decay=params.weight_decay, seed=master_seed,
    )
    return weights, mean, std, history


# --- trained-model wrapper ------------------------------------------------------


class TrainedModel:
    """Immutable bundle of a fitted predictor and the metadata needed to
    reproduce it: kind, hyperparameters, master seed, dataset fingerprint."""

    def __init__(self, kind, feature_count, hyperparameters, master_seed,
                 dataset_fingerprint, payload):
        if kind not in MODEL_KINDS:
            raise InvalidConfigError(f"unknown model kind '{kind}'")
        self.kind = kind
        self.feature_count = feature_count
        self.hyperparameters = dict(hyperparameters)
        self.master_seed = master_seed
        self.dataset_fingerprint = dataset_fingerprint
        self._payload = payload

    def _raw_predict(self, X):
        p = self._payload
        if self.kind in ("linear", "huber"):
            return X @ p["weights"] + p["intercept"]
        if self.kind == "forest":
            return p["forest"].predict(X)
        Xz = _mlp.standardize_apply(X, p["mean"], p["std"])
        return _mlp.forward(p["weights"], Xz)

    def predict(self, X):
        """Predict times for a feature matrix; results clamped at 0."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.feature_count:
            raise DimensionMismatchError(
                f"model expects {self.feature_count} features, matrix has {X.shape[1]}"
            )
        return np.maximum(self._raw_predict(X), 0.0)

    @property
    def weights(self):
        if self.kind not in ("linear", "huber"):
            raise InvalidConfigError(f"{self.kind} model has no flat weight vector")
        return self._payload["weights"]

    @property
    def intercept(self):
        if self.kind not in ("linear", "huber"):
            raise InvalidConfigError(f"{self.kind} model has no intercept")
        return self._payload["intercept"]


def predict(model: TrainedModel, x) -> float:
    """Predict the time of a single feature vector (FeatureVector or any
    sequence with the trained width)."""
    values = x.values if hasattr(x, "values") else x
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != model.feature_count:
        raise DimensionMismatchError(
            f"expected {model.feature_count} components, got {arr.shape}"
        )
    return float(model.predict(arr[None, :])[0])


# --- dataset plumbing -------------------------------------------------------


def dataset_matrix(ds):
    """Labeled rows of a dataset as (X, y, sample_ids)."""
    rows = ds.labeled()
    if not rows:
        raise EmptyDatasetError("dataset has no labeled rows")
    X = np.array([r.features.values for r in rows], dtype=float)
    y = np.array([r.label for r in rows], dtype=float)
    ids = [r.sample_id for r in rows]
    return X, y, ids


def dataset_fingerprint(ds) -> str:
    """Stable digest of ids, features and labels; changing any byte of the
    training data changes the fingerprint."""
    h = hashlib.sha256()
    for row in ds.rows:
        h.update(row.sample_id.encode())
        h.update(b"\x00")
        for v in row.features.values:
            h.update(repr(v).encode())
            h.update(b",")
        h.update(b"\x00")
        h.update(b"" if row.label is None else repr(row.label).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def train_linear(ds) -> TrainedModel:
    X, y, _ = dataset_matrix(ds)
    if X.shape[0] < 2:
        raise EmptyDatasetError("linear training needs at least 2 samples")
    w, b = fit_linear(X, y)
    return TrainedModel(
        kind="linear", feature_count=X.shape[1], hyperparameters={},
        master_seed=0, dataset_fingerprint=dataset_fingerprint(ds),
        payload={"weights": w, "intercept": b},
    )


def train_huber(ds, hyper=None) -> TrainedModel:
    params = _huber_of(hyper)
    params.validate()
    X, y, _ = dataset_matrix(ds)
    if X.shape[0] < 2:
        raise EmptyDatasetError("huber training needs at least 2 samples")
    w, b = fit_huber(X, y, epsilon=params.epsilon, max_iter=params.max_iter,
                     l2=params.l2)
    return TrainedModel(
        kind="huber", feature_count=X.shape[1], hyperparameters=asdict(params),
        master_seed=0, dataset_fingerprint=dataset_fingerprint(ds),
        payload={"weights": w, "intercept": b},
    )


def train_forest(ds, hyper=None, master_seed=0) -> TrainedModel:
    params = _forest_of(hyper)
    X, y, _ = dataset_matrix(ds)
    if X.shape[0] < params.min_split:
        raise EmptyDatasetError(
            f"forest training needs at least {params.min_split} samples"
        )
    model = fit_forest(X, y, params, master_seed)
    return TrainedModel(
        kind="forest", feature_count=X.shape[1], hyperparameters=asdict(params),
        master_seed=master_seed, dataset_fingerprint=dataset_fingerprint(ds),
        payload={"forest": model},
    )


def train_mlp(ds, hyper=None, master_seed=0) -> TrainedModel:
    params = _mlp_of(hyper)
    X, y, _ = dataset_matrix(ds)
    weights, mean, std, history = fit_mlp(X, y, params, master_seed)
    return TrainedModel(
        kind="mlp", feature_count=X.shape[1], hyperparameters=asdict(params),
        master_seed=master_seed, dataset_fingerprint=dataset_fingerprint(ds),
        payload={"weights": weights, "mean": mean, "std": std,
                 "history": list(history)},
    )


# --- serialization -----------------------------------------------------------


def _model_to_dict(model: TrainedModel) -> dict:
    d = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": model.kind,
        "feature_count": model.feature_count,
        "hyperparameters": model.hyperparameters,
        "master_seed": model.master_seed,
        "dataset_fingerprint": model.dataset_fingerprint,
    }
    p = model._payload
    if model.kind in ("linear", "huber"):
        d["parameters"] = {
            "weights": np.asarray(p["weights"]).tolist(),
            "intercept": float(p["intercept"]),
        }
    elif model.kind == "forest":
        d["parameters"] = p["forest"].to_dict()
    else:
        d["parameters"] = {
            "W1": p["weights"]["W1"].tolist(),
            "b1": p["weights"]["b1"].tolist(),
            "W2": p["weights"]["W2"].tolist(),
            "b2": p["weights"]["b2"].tolist(),
            "mean": np.asarray(p["mean"]).tolist(),
            "std": np.asarray(p["std"]).tolist(),
        }
    return d


def _model_from_dict(d, path=None) -> TrainedModel:
    try:
        if d.get("format") != MODEL_FORMAT:
            raise FormatError(f"not a model file (format={d.get('format')!r})", path)
        if d.get("version") != MODEL_VERSION:
            raise FormatError(f"unsupported model version {d.get('version')!r}", path)
        kind = d["kind"]
        params = d["parameters"]
        if kind in ("linear", "huber"):
            payload = {
                "weights": np.asarray(params["weights"], dtype=float),
                "intercept": float(params["intercept"]),
            }
        elif kind == "forest":
            payload = {"forest": _forest.RandomForest.from_dict(params)}
        elif kind == "mlp":
            payload = {
                "weights": {
                    "W1": np.asarray(params["W1"], dtype=float),
                    "b1": np.asarray(params["b1"], dtype=float),
                    "W2": np.asarray(params["W2"], dtype=float),
                    "b2": np.asarray(params["b2"], dtype=float),
                },
                "mean": np.asarray(params["mean"], dtype=float),
                "std": np.asarray(params["std"], dtype=float),
            }
        else:
            raise FormatError(f"unknown model kind {kind!r}", path)
        return TrainedModel(
            kind=kind,
            feature_count=d["feature_count"],
            hyperparameters=d.get("hyperparameters", {}),
            master_seed=d.get("master_seed", 0),
            dataset_fingerprint=d.get("dataset_fingerprint", ""),
            payload=payload,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed model file: {exc}", path) from exc


def save_model(model: TrainedModel, path) -> None:
    """Write `model` as JSON; a non-finite parameter is a FormatError and
    leaves no file behind."""
    try:
        text = json.dumps(_model_to_dict(model), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    except ValueError as exc:
        raise FormatError(f"model has a non-finite parameter: {exc}", str(path)) from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path) -> TrainedModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"model file is not valid JSON: {exc}", str(path)) from exc
    if not isinstance(d, dict):
        raise FormatError("model file must hold a JSON object", str(path))
    return _model_from_dict(d, str(path))


TRAINERS = {
    "linear": lambda ds, hyper, seed: train_linear(ds),
    "huber": lambda ds, hyper, seed: train_huber(ds, hyper),
    "forest": train_forest,
    "mlp": train_mlp,
}
