"""The lockstep forest grower against the node-by-node grower it replaced.

`_reference_build_tree` and `_reference_best_split` are the previous
implementation, kept as the oracle: each tree is grown alone, depth first,
right child first, and every node argsorts each candidate column of its own
rows.  `fit_forest` grows all trees together from presorted columns: each
step takes every pending node of every tree when every column is a
candidate, and only the top node of each tree's stack when the candidates
are drawn.  It then renumbers each tree's nodes to the ids of the tree
grown alone, and must give the same node arrays, bit for bit, under every
parameter set.
"""

import hashlib
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from irtime import Dataset, DatasetRow, FeatureVector, ForestParams, fit_forest
from irtime import forest
from irtime.forest import RandomForest, RegressionTree
from irtime.models import TRAINERS, save_model, train_forest

_LEAF = -1

PARAMS = {
    "defaults": ForestParams(),
    "min_leaf_3": ForestParams(min_leaf=3),
    "depth_4_split_6": ForestParams(max_depth=4, min_split=6),
    "max_feature_0.3": ForestParams(max_feature=0.3),
}


def _reference_best_split(X, y, min_leaf, feature_ids):
    n = X.shape[0]
    cols = X[:, feature_ids]
    order = np.argsort(cols, axis=0, kind="stable")
    xs = np.take_along_axis(cols, order, axis=0)
    ys = y[order]

    csum = np.cumsum(ys, axis=0)
    csq = np.cumsum(ys * ys, axis=0)
    total_sum = csum[-1]
    total_sq = csq[-1]

    left_cnt = np.arange(1, n, dtype=float)[:, None]
    right_cnt = n - left_cnt
    lsum = csum[:-1]
    lsq = csq[:-1]
    cost = (lsq - lsum * lsum / left_cnt) \
        + ((total_sq - lsq) - (total_sum - lsum) ** 2 / right_cnt)

    invalid = xs[:-1] == xs[1:]
    if min_leaf > 1:
        pos = np.arange(1, n)[:, None]
        invalid = invalid | (pos < min_leaf) | (n - pos < min_leaf)
    cost = np.where(invalid, np.inf, cost)

    flat = np.argmin(cost)
    best_pos, best_col = np.unravel_index(flat, cost.shape)
    if not np.isfinite(cost[best_pos, best_col]):
        return None, None, None
    threshold = float((xs[best_pos, best_col] + xs[best_pos + 1, best_col]) / 2.0)
    feature = int(feature_ids[best_col])
    left_mask = X[:, feature] <= threshold
    return feature, threshold, left_mask


def _reference_build_tree(X, y, max_depth, min_split, min_leaf, max_features, rng):
    n_features = X.shape[1]
    k = max(1, min(n_features, int(round(max_features * n_features))))
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(_LEAF)
        threshold.append(0.0)
        left.append(_LEAF)
        right.append(_LEAF)
        value.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        nid, idx, depth = stack.pop()
        ys = y[idx]
        value[nid] = float(ys.mean())
        if depth >= max_depth or idx.size < min_split or np.all(ys == ys[0]):
            continue
        if k < n_features:
            cand = np.sort(rng.choice(n_features, size=k, replace=False))
        else:
            cand = np.arange(n_features)
        feat, thr, mask = _reference_best_split(X[idx], ys, min_leaf, cand)
        if feat is None:
            continue
        feature[nid] = feat
        threshold[nid] = thr
        lid = new_node()
        rid = new_node()
        left[nid] = lid
        right[nid] = rid
        stack.append((lid, idx[mask], depth + 1))
        stack.append((rid, idx[~mask], depth + 1))
    return RegressionTree(feature, threshold, left, right, value)


def _reference_fit_forest(X, y, params, master_seed):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    trees = []
    for i in range(params.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(i,)))
        boot = rng.integers(0, n, size=n)
        trees.append(_reference_build_tree(X[boot], y[boot], params.max_depth,
                                           params.min_split, params.min_leaf,
                                           params.max_feature, rng))
    return RandomForest(trees)


def _as_lists(fitted):
    """Each tree's five node arrays by name, as Python lists."""
    return [{name: a.tolist() for name, a in t.arrays().items()} for t in fitted.trees]


def _assert_same_forest(X, y, params, seed):
    want = _as_lists(_reference_fit_forest(X, y, params, seed))
    got = _as_lists(fit_forest(X, y, params, master_seed=seed))
    assert got == want


# few distinct values per column, so sorted columns are full of ties and the
# bootstrap duplicates rows; some columns and some label sets are constant
_VALUES = [-2.5, 0.0, 0.1, 1.0, 3.0, 1e4]
_LABELS = [0.1, 0.7, 1.0, 1.0 / 3.0, 42.0, 1e5]


@st.composite
def small_problems(draw, values=_VALUES):
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 5))
    columns = []
    for _ in range(d):
        levels = draw(st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True))
        columns.append(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
    labels = draw(st.lists(st.sampled_from(_LABELS), min_size=1, max_size=3, unique=True))
    y = draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
    return np.array(columns, dtype=float).T, np.array(y, dtype=float)


@pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS.keys())
@settings(max_examples=40, deadline=None)
@given(problem=small_problems(), n_trees=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@example(problem=(np.array([[0.0], [1.0]]), np.array([1.0, 2.0])), n_trees=3, seed=0)
@example(problem=(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([5.0, 5.0])), n_trees=2, seed=1)
@example(problem=(np.zeros((6, 3)), np.arange(1.0, 7.0)), n_trees=2, seed=2)
def test_fit_forest_matches_reference(params, problem, n_trees, seed):
    X, y = problem
    _assert_same_forest(X, y, replace(params, n_trees=n_trees), seed)


@pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS.keys())
@settings(max_examples=15, deadline=None)
@given(problem=small_problems(), n_trees=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_fit_forest_matches_reference_in_small_batches(params, problem, n_trees, seed):
    # caps this small split the trees into groups and each step into batches
    X, y = problem
    with mock.patch.object(forest, "_GROUP_CELLS", 3 * X.size), \
            mock.patch.object(forest, "_BATCH_CELLS", 2 * X.shape[1]):
        _assert_same_forest(X, y, replace(params, n_trees=n_trees), seed)


@pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS.keys())
def test_fit_forest_matches_reference_on_continuous_rows(params):
    # distinct values everywhere: every position is a candidate split
    rng = np.random.default_rng(11)
    X = rng.uniform(-5, 5, size=(40, 7))
    y = rng.uniform(1, 100, size=40)
    _assert_same_forest(X, y, replace(params, n_trees=8), 3)


def test_fit_forest_single_row():
    fitted = fit_forest(np.array([[3.0, 4.0]]), np.array([7.0]), ForestParams(n_trees=2))
    assert _as_lists(fitted) == [{"feature": [_LEAF], "threshold": [0.0],
                                  "left": [_LEAF], "right": [_LEAF], "value": [7.0]}] * 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_forest_non_finite_feature_values():
    # a threshold that sends every row one way (inf between 1 and inf, nan
    # next to nan) separates nothing, so that node stays a leaf instead of
    # splitting off an empty child whose value would be nan
    X = np.array([[0.0], [np.inf], [1.0], [np.nan], [np.inf], [2.0]])
    y = np.arange(1.0, 7.0)
    for tree in fit_forest(X, y, ForestParams(n_trees=10), master_seed=0).trees:
        assert np.all(np.isfinite(tree.value))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(problem=small_problems([-2.5, 0.0, 1.0, np.nan, 3.0]), seed=st.integers(0, 2**32 - 1))
@example(problem=(np.array([[-2.5], [0.0], [1.0], [3.0], [1.0], [-2.5], [0.0], [np.nan], [3.0],
                            [np.nan], [3.0]]),
                  np.array([0.1, 42.0, 0.1, 1.0, 0.7, 0.1, 1.0, 0.7, 1.0, 0.7, 0.1])), seed=2)
def test_fit_forest_with_nan_features_does_not_depend_on_batches(problem, seed):
    # nan sorts last; a batch pads a shorter list by repeating its last row,
    # and as nan != nan, positions past a list that ends in nan looked like
    # splits, which left the node a leaf only when it shared a batch
    X, y = problem
    params = ForestParams(n_trees=6)
    want = _as_lists(fit_forest(X, y, params, master_seed=seed))
    with mock.patch.object(forest, "_BATCH_CELLS", 2 * X.shape[1]):
        assert _as_lists(fit_forest(X, y, params, master_seed=seed)) == want


def _pipeline_like_rows(seed=1, n=158, d=42):
    """Rows shaped like the benchmark pipeline's: program families that each
    touch a few counters scaled by a loop count, mostly zeros, few distinct
    values per column, labels from a per-counter cost plus 2% noise."""
    rng = np.random.default_rng(seed)
    counts = rng.choice([100, 200, 400, 600, 800, 1000], size=n)
    family = rng.integers(0, 25, size=n)
    touched = rng.integers(0, d - 2, size=(25, 3))
    X = np.zeros((n, d))
    for f in range(25):
        rows = np.flatnonzero(family == f)
        X[np.ix_(rows, touched[f])] = counts[rows, None] * rng.integers(1, 3, size=3)
    X[:, d - 2:] = rng.integers(1, 9, size=(n, 2))
    y = (1000.0 + X @ rng.uniform(5.5, 6.5, size=d)) * (1 + rng.choice([-0.02, 0.02], size=n))
    return X, y


# sha256 of save_model output for _pipeline_like_rows(), master seed 1, as
# written by the node-by-node grower
_PINNED_SHA256 = {
    "defaults": "3c812fa0a5d75aa90ef7e687b94f1de040452344ee2dfe5198597d47ac8f7c71",
    "min_leaf_3": "2ff657bb2a2dfbaa5548241e8fc4dabc93b2c5b044d163eda8cbcfda89cb1aee",
    "depth_4_split_6": "6329cc2d11c0a09e3d1692420c9c91884c8687d26ed4da88d1d4361f9993ac14",
    "max_feature_0.3": "9310a4076e014694b83991b5f426e85b725c87ffcb5682f8090c70be197258e2",
}


def _pipeline_like_dataset():
    X, y = _pipeline_like_rows()
    return Dataset(tuple(DatasetRow(f"p{i}", FeatureVector(tuple(row)), float(label))
                         for i, (row, label) in enumerate(zip(X.tolist(), y.tolist()))))


@pytest.mark.parametrize("name", PARAMS.keys())
def test_saved_forest_bytes_pinned(name, tmp_path):
    path = tmp_path / "forest.json"
    save_model(train_forest(_pipeline_like_dataset(), PARAMS[name], master_seed=1), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _PINNED_SHA256[name]


# sha256 of save_model output for the other kinds at their default
# hyperparameters, on seeded rows whose labels (49-80) keep the MLP finite,
# as written before the model payload became one flat parameter table
_PINNED_SHA256_OTHER = {
    "linear": "9a4ec1d709c041f848bd1dc8ca415f81afc22749f636e88b83bca266c5c329fc",
    "huber": "0804c66e69dc528bda2df1c420ee67a86fe5a941621cfa38eedbb71086f67f0e",
    "mlp": "cccbf15d2223b6d71d0031a2558978e4862527f1122b16df5b03afee2cb67bc1",
}


@pytest.mark.parametrize("kind", _PINNED_SHA256_OTHER.keys())
def test_saved_model_bytes_pinned(kind, tmp_path):
    rng = np.random.default_rng(12)
    X = rng.integers(0, 100, size=(60, 42)).astype(float)
    y = 1.0 + X @ rng.uniform(0.01, 0.05, size=42) + rng.normal(0.0, 0.5, size=60)
    ds = Dataset(tuple(DatasetRow(f"r{i}", FeatureVector(tuple(row)), float(label))
                       for i, (row, label) in enumerate(zip(X.tolist(), y.tolist()))))
    path = tmp_path / f"{kind}.json"
    save_model(TRAINERS[kind](ds, None, 1), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _PINNED_SHA256_OTHER[kind]


def _depth(tree):
    """The number of splits on the longest walk from the root."""
    depth = np.zeros(tree.value.size, dtype=np.int64)
    for i in np.flatnonzero(tree.feature != _LEAF):   # children follow their parent
        depth[[tree.left[i], tree.right[i]]] = depth[i] + 1
    return int(depth.max())


def test_fit_forest_takes_one_step_per_level():
    # every column is a candidate, so a step takes every pending node of
    # every tree: one step per level of the deepest tree, where one node of
    # each tree per step took 108 steps here
    X, y = _pipeline_like_rows()
    with mock.patch.object(forest._Lockstep, "_add_nodes", autospec=True,
                           side_effect=forest._Lockstep._add_nodes) as add_nodes:
        fitted = fit_forest(X, y, ForestParams(), master_seed=1)
    assert add_nodes.call_count <= max(_depth(t) for t in fitted.trees) + 1


def test_fit_forest_memory_peak():
    # the node-by-node grower peaked at 1.5 MiB here and the lockstep one at
    # 4.2 MiB, in a batch of split searches: it keeps every tree's sorted
    # columns and a capped batch of scratch, and frees the sorted columns
    # before it renumbers the nodes.  It must stay well inside the process's
    # other peaks
    X, y = _pipeline_like_rows()
    tracemalloc.start()
    try:
        fit_forest(X, y, ForestParams(), master_seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_save_forest_memory_peak(tmp_path):
    # json.dumps of the forest as Python lists, one 1.75 MB string, peaked at
    # 10.56 MiB here; the writer holds one array's text at a time
    model = train_forest(_pipeline_like_dataset(), ForestParams(), master_seed=1)
    tracemalloc.start()
    try:
        save_model(model, tmp_path / "forest.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
