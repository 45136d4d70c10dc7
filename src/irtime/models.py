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
import math
from dataclasses import dataclass, asdict, fields

import numpy as np

from . import forest as _forest
from . import mlp as _mlp
from .errors import (
    EmptyDatasetError, DimensionMismatchError, FormatError, InvalidConfigError,
    SingularDesignError,
)
from .trace import read_text

MODEL_FORMAT = "irtime-model"
MODEL_VERSION = 1

MODEL_KINDS = ("linear", "huber", "forest", "mlp")


def _check_finite(params, group):
    """Raise InvalidConfigError naming the first float field of `params`
    that is NaN or infinite, which no bound check below would catch."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidConfigError(f"{group}.{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class HuberParams:
    epsilon: float = 1.35
    max_iter: int = 100
    l2: float = 1e-4

    def __post_init__(self):
        _check_finite(self, "huber")
        if self.epsilon <= 0 or self.max_iter <= 0 or self.l2 < 0:
            raise InvalidConfigError("huber: epsilon and max_iter must be positive, l2 >= 0")


@dataclass(frozen=True)
class MlpParams:
    alpha: float = 2e-5
    batch: int = 4
    epochs: int = 10
    weight_decay: float = 1e-4
    hidden: int = 64

    def __post_init__(self):
        _check_finite(self, "mlp")
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

    def __post_init__(self):
        _check_finite(self, "forest")
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


def _params(kind, hyper):
    """The `kind` group of a Hyperparameters bundle; `hyper` may also be the
    group itself, or None for its defaults."""
    if hyper is None:
        hyper = Hyperparameters()
    return getattr(hyper, kind) if isinstance(hyper, Hyperparameters) else hyper


# The arrays each kind keeps, in the order its fit returns them (the MLP's as
# mlp.init_weights orders them, then the input standardization), and their
# shapes: "d" is the feature count and "h" the hidden width, taken from the
# first array that has it.  A forest keeps its trees instead.
_AFFINE = {"weights": ("d",), "intercept": ()}
_SHAPES = {
    "linear": _AFFINE,
    "huber": _AFFINE,
    "mlp": {"W1": ("d", "h"), "b1": ("h",), "W2": ("h", 1), "b2": (1,),
            "mean": ("d",), "std": ("d",)},
}


# --- matrix-level fits -------------------------------------------------------


def _fit_arrays(kind, X, y):
    """X and y as float arrays, checked once for every fit: X a matrix with
    at least one row, y one label per row."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyDatasetError(f"{kind} fit needs a matrix with at least one row")
    if y.shape != X.shape[:1]:
        raise DimensionMismatchError(
            f"{kind} fit: the matrix has {X.shape[0]} rows but there are {y.size} labels")
    return X, y


def fit_linear(X, y, damping=1e-9):
    """Least squares with intercept.  Returns (weights, intercept)."""
    X, y = _fit_arrays("linear", X, y)
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


def _median(a):
    """np.median of a vector, without the numpy.ma import that np.median
    makes on its first call (1.7 MiB of peak resident memory, numpy 2.4)."""
    s = np.sort(a)
    return float(s[(s.size - 1) // 2] + s[s.size // 2]) / 2


def fit_huber(X, y, params: HuberParams = HuberParams()):
    """Gradient descent on mean Huber loss + (l2/2)·|w|², intercept unpenalized,
    in robust units: X z-scored, y centered on its median and divided by
    1.4826 × its MAD (else its std, else 1), so `epsilon` is a multiple of the
    labels' robust spread.  Returns (weights, intercept) in X's and y's units.

    Step size is 1/L with L = lambda_max(Za'Za)/n + l2, an upper bound on the
    curvature everywhere (the Huber second derivative never exceeds 1), so
    each iteration cannot overshoot.  Stops early once the gradient is flat.
    """
    X, y = _fit_arrays("huber", X, y)
    n, d = X.shape
    epsilon, l2 = params.epsilon, params.l2
    x_mean, x_std = _mlp.standardize_fit(X)
    Z = _mlp.standardize_apply(X, x_mean, x_std)
    center = _median(y)
    scale = 1.4826 * _median(np.abs(y - center)) or float(y.std()) or 1.0
    t = (y - center) / scale
    Za = np.hstack([Z, np.ones((n, 1))])
    lam_max = float(np.linalg.eigvalsh(Za.T @ Za)[-1])
    step = 1.0 / (lam_max / n + l2)

    w = np.zeros(d)
    b = 0.0
    for _ in range(params.max_iter):
        r = t - Z @ w - b
        clipped = np.clip(r, -epsilon, epsilon)
        grad_w = -(Z.T @ clipped) / n + l2 * w
        grad_b = -float(clipped.mean())
        if max(float(np.abs(grad_w).max(initial=0.0)), abs(grad_b)) < 1e-12:
            break
        w = w - step * grad_w
        b = b - step * grad_b
    weights = w * scale / x_std
    return weights, center + scale * b - float(weights @ x_mean)


def fit_forest(X, y, params: ForestParams = ForestParams(), master_seed=0):
    X, y = _fit_arrays("forest", X, y)
    return _forest.fit_forest(X, y, params, master_seed)


def fit_mlp(X, y, params: MlpParams = MlpParams(), master_seed=0):
    """Returns (weights dict, mean, std, loss history).  The labels are
    z-scored for training and their scaling folded into W2 and b2 after, so
    the weights predict in the labels' units; the loss history is in the
    z-scored units."""
    X, y = _fit_arrays("mlp", X, y)
    mean, std = _mlp.standardize_fit(X)
    Xz = _mlp.standardize_apply(X, mean, std)
    (y_mean,), (y_std,) = _mlp.standardize_fit(y[:, None])
    weights, history = _mlp.train(Xz, (y - y_mean) / y_std, params, master_seed)
    weights["W2"] = weights["W2"] * y_std
    weights["b2"] = weights["b2"] * y_std + y_mean
    return weights, mean, std, history


# --- trained-model wrapper ------------------------------------------------------


class TrainedModel:
    """Immutable bundle of a fitted predictor and the metadata needed to
    reproduce it: kind, hyperparameters, master seed, dataset fingerprint.

    The payload of a forest is {"forest": RandomForest}; that of every other
    kind maps each name in its shape table to a float array."""

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
        if self.kind == "forest":
            return p["forest"].predict(X)
        if self.kind == "mlp":
            return _mlp.forward(p, _mlp.standardize_apply(X, p["mean"], p["std"]))
        return X @ p["weights"] + p["intercept"]

    def predict(self, X):
        """Predict times for a feature matrix; results clamped at 0."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.feature_count:
            raise DimensionMismatchError(
                f"model expects a matrix of {self.feature_count} columns, got shape {X.shape}")
        return np.maximum(self._raw_predict(X), 0.0)

    def _parameter(self, name):
        if name not in _SHAPES.get(self.kind, {}):
            raise InvalidConfigError(f"{self.kind} model has no {name}")
        return self._payload[name]

    weights = property(lambda self: self._parameter("weights"))
    intercept = property(lambda self: self._parameter("intercept"))


def predict(model: TrainedModel, x) -> float:
    """Predict the time of a single feature vector (FeatureVector or any
    sequence with the trained width)."""
    values = x.values if hasattr(x, "values") else x
    return float(model.predict([values])[0])


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


def _train(kind, ds, fit, params=None, master_seed=0, min_rows=1):
    """Fit `kind` on the labeled rows of `ds`: `fit(X, y)` returns the
    payload, and the model records `params` and `master_seed` with it."""
    X, y, _ = dataset_matrix(ds)
    if X.shape[0] < min_rows:
        raise EmptyDatasetError(f"{kind} training needs at least {min_rows} samples")
    return TrainedModel(kind, X.shape[1], asdict(params) if params is not None else {},
                        master_seed, dataset_fingerprint(ds), fit(X, y))


def _flat(kind, arrays):
    return {name: np.asarray(a, dtype=float) for name, a in zip(_SHAPES[kind], arrays)}


def train_linear(ds, hyper=None, master_seed=0) -> TrainedModel:
    """Least squares has no hyperparameters and, like Huber, draws no random
    numbers, so both record master seed 0 whatever seed they are given."""
    return _train("linear", ds, lambda X, y: _flat("linear", fit_linear(X, y)),
                  min_rows=2)


def train_huber(ds, hyper=None, master_seed=0) -> TrainedModel:
    params = _params("huber", hyper)
    return _train("huber", ds, lambda X, y: _flat("huber", fit_huber(X, y, params)),
                  params, min_rows=2)


def train_forest(ds, hyper=None, master_seed=0) -> TrainedModel:
    params = _params("forest", hyper)
    return _train("forest", ds,
                  lambda X, y: {"forest": fit_forest(X, y, params, master_seed)},
                  params, master_seed, min_rows=params.min_split)


def train_mlp(ds, hyper=None, master_seed=0) -> TrainedModel:
    params = _params("mlp", hyper)

    def fit(X, y):
        weights, mean, std, _ = fit_mlp(X, y, params, master_seed)
        return _flat("mlp", [*weights.values(), mean, std])
    return _train("mlp", ds, fit, params, master_seed)


# --- serialization -----------------------------------------------------------


def _model_to_dict(model: TrainedModel) -> dict:
    """The model file's content, each parameter kept as its numpy array."""
    p = model._payload
    if model.kind == "forest":
        parameters = {"trees": [t.arrays() for t in p["forest"].trees]}
    else:
        parameters = {name: np.asarray(p[name]) for name in _SHAPES[model.kind]}
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": model.kind,
        "feature_count": model.feature_count,
        "hyperparameters": model.hyperparameters,
        "master_seed": model.master_seed,
        "dataset_fingerprint": model.dataset_fingerprint,
        "parameters": parameters,
    }


def _non_finite(value, where="model"):
    """Where the first NaN or infinity in `value` sits, or None."""
    if isinstance(value, dict):
        items = ((f"{where}.{k}", v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{where}[{i}]", v) for i, v in enumerate(value))
    elif isinstance(value, (float, np.ndarray)):
        return None if np.isfinite(value).all() else where
    else:
        return None
    return next(filter(None, (_non_finite(v, name) for name, v in items)), None)


_ENCODE = json.JSONEncoder(allow_nan=False).encode


def _json_chunks(value, pad="\n"):
    """The text of json.dumps(value, indent=2, sort_keys=True), in pieces.

    Dicts have str keys; keys and scalars are written by _ENCODE.  A 1-D
    numeric array is one piece, its items written by repr as json writes
    floats and ints; any other array is written as its .tolist() would be."""
    if isinstance(value, np.ndarray):
        if value.ndim == 1 and value.dtype.kind in "iuf" and value.size:
            inner = pad + "  "
            yield "[" + inner + ("," + inner).join(map(repr, value.tolist())) + pad + "]"
            return
        value = list(value) if value.ndim > 1 else value.tolist()
    if isinstance(value, dict):
        items = [(_ENCODE(k) + ": ", value[k]) for k in sorted(value)]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [("", v) for v in value]
        brackets = "[]"
    else:
        yield _ENCODE(value)
        return
    if not items:
        yield brackets
        return
    inner = pad + "  "
    sep = brackets[0] + inner
    for head, item in items:
        yield sep + head
        yield from _json_chunks(item, inner)
        sep = "," + inner
    yield pad + brackets[1]


def _arrays(params, shapes, feature_count):
    """The arrays named in `shapes`, each checked to be finite and of its
    shape; raises ValueError otherwise."""
    dims = {"d": feature_count}
    out = {}
    for name, shape in shapes.items():
        a = np.asarray(params[name], dtype=float)
        if a.ndim == len(shape):
            for dim, size in zip(shape, a.shape):
                if isinstance(dim, str):
                    dims.setdefault(dim, size)
        want = tuple(dims.get(dim, dim) for dim in shape)
        if a.shape != want:
            raise ValueError(f"parameter {name!r} has shape {a.shape}, expected {want}")
        if not np.isfinite(a).all():
            raise ValueError(f"parameter {name!r} is not finite")
        out[name] = a
    return out


# the hyperparameter group each kind records; linear records none
_PARAMS = {"huber": HuberParams, "forest": ForestParams, "mlp": MlpParams}


def _check_hyperparameters(kind, hyper, path):
    """Check a model file's hyperparameters as a config file's are checked."""
    from .config import dataclass_from_json     # config imports this module

    where = "model.hyperparameters"
    try:
        if kind in _PARAMS:
            dataclass_from_json(_PARAMS[kind], hyper, where)
        elif hyper != {}:
            raise InvalidConfigError(f"{where} must be {{}} for a {kind} model")
    except InvalidConfigError as exc:
        raise FormatError(str(exc), path) from None


def _model_from_dict(d, path=None) -> TrainedModel:
    try:
        if d.get("format") != MODEL_FORMAT:
            raise FormatError(f"not a model file (format={d.get('format')!r})", path)
        if d.get("version") != MODEL_VERSION:
            raise FormatError(f"unsupported model version {d.get('version')!r}", path)
        kind, n, params = d["kind"], d["feature_count"], d["parameters"]
        if type(n) is not int or n < 1:
            raise FormatError(f"feature_count must be a positive integer, got {n!r}", path)
        if kind == "forest":
            payload = {"forest": _forest.RandomForest.from_dict(params, n)}
        elif kind in _SHAPES:
            payload = _arrays(params, _SHAPES[kind], n)
        else:
            raise FormatError(f"unknown model kind {kind!r}", path)
        hyper = d.get("hyperparameters", {})
        _check_hyperparameters(kind, hyper, path)
        return TrainedModel(kind, n, hyper, d.get("master_seed", 0),
                            d.get("dataset_fingerprint", ""), payload)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed model file: {exc}", path) from exc


def save_model(model: TrainedModel, path) -> None:
    """Write `model` as the bytes of json.dumps(..., indent=2, sort_keys=True)
    plus a newline, one array at a time.  A non-finite number is a
    FormatError, checked before the file is opened, so it leaves no file
    behind and an existing one untouched."""
    d = _model_to_dict(model)
    where = _non_finite(d)
    if where is not None:
        raise FormatError(f"model has a non-finite parameter: {where}", str(path))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_json_chunks(d))
        fh.write("\n")


def load_model(path) -> TrainedModel:
    text = read_text(path, lambda message, line, _: FormatError(message, str(path), line))
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"model file is not valid JSON: {exc}", str(path)) from exc
    if not isinstance(d, dict):
        raise FormatError("model file must hold a JSON object", str(path))
    return _model_from_dict(d, str(path))


TRAINERS = {
    "linear": train_linear,
    "huber": train_huber,
    "forest": train_forest,
    "mlp": train_mlp,
}
