"""Regression trees and a bootstrap-aggregated forest.

Trees are stored as flat parallel arrays (feature, threshold, left, right,
value) so a fitted model serializes to plain lists and predictions run as a
vectorized walk.  Split search minimizes the summed squared error of the two
sides, computed for every candidate position of every candidate feature from
prefix sums over the node's rows in sorted order.

`fit_forest` grows all trees in lockstep.  Each tree expands its nodes depth
first, right child first, from its own stack and random generator, as if it
were grown alone; one step takes the next node of every tree and searches
all their splits in one batch of array operations.  Every column is sorted
once per tree, and a split partitions the sorted row lists of its node
stably, so each node sees its rows in the order a stable sort of its own
rows would give.  Prefix sums run in that order, the first minimum in
(position, column) order wins, and node values are pairwise means in
bootstrap order, so the fitted forest is the same, bit for bit, as one grown
a node at a time.
"""

import numpy as np

from .errors import EmptyDatasetError, InvalidConfigError

_LEAF = -1


# Working-set caps, in cells (one row of one column).  A group of trees grown
# together keeps (features + 1) x rows cells of 2 or 4 bytes per tree; a batch
# of split searches holds about 50 bytes of scratch per cell of its nodes.  A
# single tree or node larger than its cap is grown or searched on its own.
_GROUP_CELLS = 1 << 20
_BATCH_CELLS = 1 << 15


def _ranges(starts, lengths):
    """starts[i] + arange(lengths[i]) for every i, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts + lengths - ends, lengths) + np.arange(ends[-1])


class _Lockstep:
    """Grows a group of trees together, one split of every tree per step.

    Each tree pops the nodes it will split from its own stack, right child
    first, so its node ids and random feature draws are those of the tree
    grown alone.  Rows are named by tree-row ids, t * n + r for row r of X in
    tree t of the group; a row the bootstrap drew twice appears twice.
    """

    def __init__(self, X, y, boots, rngs, max_depth, min_split, min_leaf, k):
        n, d = X.shape
        trees = len(boots)
        self.n, self.d, self.k = n, d, k
        self.rngs = rngs
        self.max_depth, self.min_split, self.min_leaf = max_depth, min_split, min_leaf
        self.xcol = X.T.ravel()             # X[r, c] at c * n + r
        self.y = np.tile(y, trees)          # the label of each tree-row
        # order[t, c] lists tree t's rows sorted by column c, equal values in
        # bootstrap order, and order[t, d] lists them in bootstrap order.  A
        # node owns the same slice [lo, lo + size) of each of the d + 1 lists.
        order = np.empty((trees, d + 1, n), dtype=np.min_scalar_type(trees * n))
        for t, boot in enumerate(boots):
            order[t, :d] = boot[np.argsort(X[boot], axis=0, kind="stable").T]
            order[t, d] = boot
        order += (np.arange(trees, dtype=order.dtype) * n)[:, None, None]
        self.order = order.ravel()
        self.goes_left = np.zeros(trees * n, dtype=bool)
        # every leaf holds a row, so a tree has at most 2n - 1 nodes
        self.feature = np.full((trees, 2 * n - 1), _LEAF, dtype=np.int64)
        self.threshold = np.zeros((trees, 2 * n - 1))
        self.left = np.full((trees, 2 * n - 1), _LEAF, dtype=np.int64)
        self.right = np.full((trees, 2 * n - 1), _LEAF, dtype=np.int64)
        self.value = np.zeros((trees, 2 * n - 1))

    def grow(self):
        n, d, k = self.n, self.d, self.k
        trees = len(self.rngs)
        count = np.ones(trees, dtype=np.int64)     # nodes of each tree so far
        stacks = [[] for _ in range(trees)]
        zero = np.zeros(trees, dtype=np.int64)
        self._add_nodes(stacks, np.arange(trees), zero, zero, np.full(trees, n), zero,
                        np.zeros((trees, d), dtype=bool))
        while any(stacks):
            live = [t for t, stack in enumerate(stacks) if stack]
            popped = [stacks[t].pop() for t in live]
            t = np.array(live)
            nid, lo, m, depth = np.array([p[:4] for p in popped]).T
            const = np.array([p[4] for p in popped])
            if k < d:
                cand = np.array([np.sort(self.rngs[i].choice(d, size=k, replace=False))
                                 for i in live])
            else:
                cand = np.broadcast_to(np.arange(d), (t.size, d))
            feat = np.empty(t.size, dtype=np.int64)
            thr = np.empty(t.size)
            nl = np.empty(t.size, dtype=np.int64)
            # batches of nodes of similar size, largest first, under the cap
            by_size = np.argsort(-m, kind="stable")
            a = 0
            while a < t.size:
                b = a + max(1, _BATCH_CELLS // (int(m[by_size[a]]) * (d + 1)))
                s = by_size[a:b]
                feat[s], thr[s], nl[s], const[s] = self._split(t[s], lo[s], m[s], cand[s], const[s])
                a = b
            split = feat != _LEAF
            t, nid, lo, m, depth = t[split], nid[split], lo[split], m[split], depth[split]
            nl, const = nl[split], const[split]
            lid = count[t]
            count[t] += 2
            self.feature[t, nid] = feat[split]
            self.threshold[t, nid] = thr[split]
            self.left[t, nid] = lid
            self.right[t, nid] = lid + 1
            # children in (left, right) pairs: the right one is pushed last
            pair = np.repeat(np.arange(t.size), 2)
            self._add_nodes(stacks, t[pair], lid[pair] + np.tile([0, 1], t.size),
                            np.stack([lo, lo + nl], axis=1).ravel(),
                            np.stack([nl, m - nl], axis=1).ravel(), depth[pair] + 1, const[pair])
        return [RegressionTree(self.feature[t, :c].copy(), self.threshold[t, :c].copy(),
                               self.left[t, :c].copy(), self.right[t, :c].copy(),
                               self.value[t, :c].copy())
                for t, c in enumerate(count.tolist())]

    def _add_nodes(self, stacks, t, nid, lo, m, depth, const):
        """Set each new node's value, the mean label of its rows, and stack
        (node, lo, size, depth, constant columns) for those that may split.

        A node that cannot split never enters the stack: it would draw no
        random numbers and make no nodes, so no later node id or draw moves.
        """
        if not t.size:
            return
        n, d = self.n, self.d
        by_size = np.argsort(m, kind="stable")
        t_s, nid_s, lo_s, m_s = t[by_size], nid[by_size], lo[by_size], m[by_size]
        ys = self.y[self.order[_ranges((t_s * (d + 1) + d) * n + lo_s, m_s)]]
        starts = np.cumsum(m_s) - m_s
        # ys.mean() sums a node's labels pairwise in bootstrap order; the row
        # sums of a (nodes, size) block are the same sums, bit for bit
        sizes, first, same = np.unique(m_s, return_index=True, return_counts=True)
        for s, f, c in zip(sizes.tolist(), first.tolist(), same.tolist()):
            a = starts[f]
            self.value[t_s[f:f + c], nid_s[f:f + c]] = \
                np.add.reduce(ys[a:a + s * c].reshape(c, s), axis=1) / s
        grow = np.empty(m.size, dtype=bool)
        grow[by_size] = np.logical_or.reduceat(ys != np.repeat(ys[starts], m_s), starts)
        grow = np.flatnonzero(grow & (m >= self.min_split) & (depth < self.max_depth))
        for i, ti, ni, li, mi, di in zip(grow.tolist(), t[grow].tolist(), nid[grow].tolist(),
                                         lo[grow].tolist(), m[grow].tolist(),
                                         depth[grow].tolist()):
            stacks[ti].append((ni, li, mi, di, const[i]))

    def _split(self, t, lo, m, cand, const):
        """Find the best split of each node and partition its sorted lists.

        Returns (feature, threshold, left size, constant columns) per node,
        feature _LEAF where no position separates the rows.
        """
        n, d, min_leaf = self.n, self.d, self.min_leaf
        nodes = t.size
        base = ((t * (d + 1))[:, None] + np.arange(d + 1)) * n + lo[:, None]
        # a column whose first and last sorted values agree is constant here
        # and below; its sorted list is the bootstrap-order list, so it is
        # neither searched nor partitioned again
        node, col = np.nonzero(~const)
        first = base[node, col]
        off = (col - t[node]) * n
        const[node, col] = self.xcol[self.order[first] + off] \
            == self.xcol[self.order[first + m[node] - 1] + off]

        feat = np.full(nodes, _LEAF, dtype=np.int64)
        thr = np.zeros(nodes)
        search = np.zeros((nodes, d), dtype=bool)
        search[np.arange(nodes)[:, None], cand] = True
        node, col = np.nonzero(search & ~const)
        if node.size:
            # one padded row per searched list; past the end of a shorter
            # list its last row repeats, where no value change can show
            first = base[node, col]
            last = first + m[node] - 1
            rows = self.order[np.minimum(first[:, None] + np.arange(m.max()), last[:, None])]
            xs = self.xcol[rows + ((col - t[node]) * n)[:, None]]
            r, i = np.nonzero(xs[:, 1:] != xs[:, :-1])   # split after sorted i
            nleft = i + 1
            size = m[node[r]]
            if min_leaf > 1:
                ok = (nleft >= min_leaf) & (size - nleft >= min_leaf)
                r, i, nleft, size = r[ok], i[ok], nleft[ok], size[ok]
            if r.size:
                # prefix sums in each list's own order, as the SSE needs
                ys = self.y[rows]
                csum = np.cumsum(ys, axis=1)
                csq = np.cumsum(ys * ys, axis=1)
                lsum = csum[r, i]
                lsq = csq[r, i]
                total = csum[r, size - 1]
                total_sq = csq[r, size - 1]
                left_cnt = nleft.astype(float)
                cost = (lsq - lsum * lsum / left_cnt) \
                    + ((total_sq - lsq) - (total - lsum) ** 2 / (size - left_cnt))
                # the first minimum of each node in (position, column) order
                j = node[r]
                span = np.bincount(j)
                head = (np.cumsum(span) - span)[span > 0]
                span = span[span > 0]
                best = np.minimum.reduceat(cost, head)
                key = np.where(cost == np.repeat(best, span), i * d + col[r],
                               np.iinfo(np.int64).max)
                win = np.flatnonzero((key == np.repeat(np.minimum.reduceat(key, head), span))
                                     & np.repeat(np.isfinite(best), span))
                feat[j[win]] = col[r[win]]
                thr[j[win]] = (xs[r[win], i[win]] + xs[r[win], i[win] + 1]) / 2.0

        nl = np.zeros(nodes, dtype=np.int64)
        sp = np.flatnonzero(feat != _LEAF)
        if sp.size:
            ids = self.order[_ranges(base[sp, d], m[sp])]
            goes = self.xcol[np.repeat((feat[sp] - t[sp]) * n, m[sp]) + ids] \
                <= np.repeat(thr[sp], m[sp])
            self.goes_left[ids] = goes
            nl[sp] = np.add.reduceat(goes, np.cumsum(m[sp]) - m[sp], dtype=np.int64)
            # a threshold that rounds onto the upper value, or is inf or nan,
            # separates nothing: the node stays a leaf
            feat[(nl == 0) | (nl == m)] = _LEAF
        split = feat != _LEAF
        if split.any():
            # stable partition of every list that is not constant
            node, col = np.nonzero(np.hstack([~const, np.ones((nodes, 1), dtype=bool)])
                                   & split[:, None])
            first = base[node, col]
            size = m[node]
            left = nl[node]
            rows = self.order[_ranges(first, size)]
            flag = self.goes_left[rows]
            self.order[_ranges(first, left)] = rows[flag]
            self.order[_ranges(first + left, size - left)] = rows[~flag]
        return feat, thr, nl, const


class RegressionTree:
    """A fitted tree; feature[i] == -1 marks node i as a leaf."""

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=float)

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        idx = np.zeros(X.shape[0], dtype=np.int64)
        active = np.flatnonzero(self.feature[idx] != _LEAF)
        while active.size:
            nodes = idx[active]
            feats = self.feature[nodes]
            go_left = X[active, feats] <= self.threshold[nodes]
            idx[active] = np.where(go_left, self.left[nodes], self.right[nodes])
            active = active[self.feature[idx[active]] != _LEAF]
        return self.value[idx]

    def to_dict(self):
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["feature"], d["threshold"], d["left"], d["right"], d["value"])


class RandomForest:
    def __init__(self, trees):
        if not trees:
            raise InvalidConfigError("forest needs at least one tree")
        self.trees = list(trees)

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        total = np.zeros(X.shape[0])
        for tree in self.trees:
            total += tree.predict(X)
        return total / len(self.trees)

    def to_dict(self):
        return {"trees": [t.to_dict() for t in self.trees]}

    @classmethod
    def from_dict(cls, d):
        return cls([RegressionTree.from_dict(t) for t in d["trees"]])


def fit_forest(X, y, n_trees, max_depth, min_split, min_leaf, max_features,
               master_seed=0):
    """Fit n_trees on bootstrap resamples.  Each tree draws its randomness
    from an independent child of the master seed, so adding trees never
    perturbs the ones already grown."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyDatasetError("cannot fit a forest without rows")
    n, d = X.shape
    k = max(1, min(d, int(round(max_features * d))))
    rngs = [np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(i,)))
            for i in range(n_trees)]
    boots = [rng.integers(0, n, size=n) for rng in rngs]
    group = max(1, _GROUP_CELLS // ((d + 1) * n))
    trees = []
    for g in range(0, n_trees, group):
        trees += _Lockstep(X, y, boots[g:g + group], rngs[g:g + group],
                           max_depth, min_split, min_leaf, k).grow()
    return RandomForest(trees)
