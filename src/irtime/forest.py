"""Regression trees and a bootstrap-aggregated forest.

Trees are stored as flat parallel arrays (feature, threshold, left, right,
value) so a fitted model serializes to plain lists and predictions run as a
vectorized walk.  Split search minimizes the summed squared error of the two
sides, computed for every candidate position of every candidate feature from
prefix sums over the node's rows in sorted order.

`fit_forest` grows all trees in lockstep, and one step searches the splits
of many nodes in batches of array operations.  A tree grown alone expands
its nodes depth first, right child first, and a node that draws candidate
columns draws them from its tree's random generator in that order.  So when
columns are drawn, a step takes only the top node of each tree's stack;
when every column is a candidate, no draw depends on the order, and a step
takes every pending node of every tree, one level per step.  After growth
each tree's nodes are renumbered to the ids they get when it is grown
alone.  Every column is sorted once per tree, and a split partitions the
sorted row lists of its node stably, so each node sees its rows in the
order a stable sort of its own rows would give.  Prefix sums run in that
order, the first minimum in (position, column) order wins, and node values
are pairwise means in bootstrap order, so the fitted forest is the same,
bit for bit, as one grown a node at a time.
"""

import numpy as np

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
    """Grows a group of trees together, many nodes per step.

    Each tree keeps its pending nodes in the order of its stack, right child
    last.  When candidate columns are drawn, a step takes each tree's top
    node, so its random draws are those of the tree grown alone; otherwise a
    step takes every pending node.  Children get provisional ids in step
    order, and `_renumbered` gives each tree the ids of the tree grown alone.
    Rows are named by tree-row ids, t * n + r for row r of X in tree t of the
    group; a row the bootstrap drew twice appears twice.
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
        """The five node arrays, (trees, 2n - 1) each, and the node count of
        each tree, its nodes numbered in step order."""
        n, d, k = self.n, self.d, self.k
        trees = len(self.rngs)
        count = np.ones(trees, dtype=np.int64)     # nodes of each tree so far
        zero = np.zeros(trees, dtype=np.int64)
        # (tree, node, lo, size, depth, constant columns) of every node that
        # may split, each tree's in the order of its stack, top last
        pending = self._add_nodes(np.arange(trees), zero, zero, np.full(trees, n), zero,
                                  np.zeros((trees, d), dtype=bool))
        while pending[0].size:
            if k < d:
                # only each tree's top node: its pop draws the tree's
                # candidate columns, and they must be drawn in stack order
                _, last = np.unique(pending[0][::-1], return_index=True)
                take = np.zeros(pending[0].size, dtype=bool)
                take[take.size - 1 - last] = True
                t, nid, lo, m, depth, const = (a[take] for a in pending)
                rest = [a[~take] for a in pending]
                cand = np.array([np.sort(self.rngs[i].choice(d, size=k, replace=False))
                                 for i in t.tolist()])
            else:
                t, nid, lo, m, depth, const = pending
                rest = [a[:0] for a in pending]
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
            if not split.any():
                pending = rest
                continue
            t, nid, lo, m, depth = t[split], nid[split], lo[split], m[split], depth[split]
            nl, const = nl[split], const[split]
            # provisional child ids in step order: a tree's r-th split in this
            # step names the tree's next free ids + 2r and + 2r + 1
            per = np.bincount(t, minlength=trees)
            by_tree = np.argsort(t, kind="stable")
            r = np.empty_like(t)
            r[by_tree] = np.arange(t.size) - (np.cumsum(per) - per)[t[by_tree]]
            lid = count[t] + 2 * r
            count += 2 * per
            self.feature[t, nid] = feat[split]
            self.threshold[t, nid] = thr[split]
            self.left[t, nid] = lid
            self.right[t, nid] = lid + 1
            # children in (left, right) pairs: the right one is stacked last
            pair = np.repeat(np.arange(t.size), 2)
            children = self._add_nodes(t[pair], lid[pair] + np.tile([0, 1], t.size),
                                       np.stack([lo, lo + nl], axis=1).ravel(),
                                       np.stack([nl, m - nl], axis=1).ravel(),
                                       depth[pair] + 1, const[pair])
            pending = [np.concatenate(p) for p in zip(rest, children)]
        return self.feature, self.threshold, self.left, self.right, self.value, count

    def _add_nodes(self, t, nid, lo, m, depth, const):
        """Set each new node's value, the mean label of its rows, and return
        (tree, node, lo, size, depth, constant columns) of those that may
        split, in the order given.

        A node that cannot split is never pending: it would draw no random
        numbers and make no nodes, so no later node id or draw moves.
        """
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
        grow &= (m >= self.min_split) & (depth < self.max_depth)
        return t[grow], nid[grow], lo[grow], m[grow], depth[grow], const[grow]

    def _split(self, t, lo, m, cand, const):
        """Find the best split of each node and partition its sorted lists.

        Returns (feature, threshold, left size, constant columns) per node,
        feature _LEAF where no position separates the rows.
        """
        n, d = self.n, self.d
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

        search = np.zeros((nodes, d), dtype=bool)
        search[np.arange(nodes)[:, None], cand] = True
        # the search's scratch is freed before the partition makes its own
        feat, thr = self._best_splits(t, m, base, search & ~const)

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

    def _best_splits(self, t, m, base, search):
        """The best split of each node over the sorted lists that `search`
        marks: (feature, threshold), feature _LEAF where none is found."""
        n, d, min_leaf = self.n, self.d, self.min_leaf
        feat = np.full(t.size, _LEAF, dtype=np.int64)
        thr = np.zeros(t.size)
        node, col = np.nonzero(search)
        if not node.size:
            return feat, thr
        # one padded row per searched list; past the end of a shorter list
        # its last row repeats.  A split after sorted position i needs a
        # value change there and min_leaf rows on each side, which also rules
        # out the padding, where a nan, unequal to itself, would show a change
        first = base[node, col]
        last = first + m[node] - 1
        rows = self.order[np.minimum(first[:, None] + np.arange(m.max()), last[:, None])]
        xs = self.xcol[rows + ((col - t[node]) * n)[:, None]]
        pos = np.arange(m.max() - 1)
        r, i = np.nonzero((xs[:, 1:] != xs[:, :-1]) & (pos >= min_leaf - 1)
                          & (pos < (m[node] - min_leaf)[:, None]))
        if not r.size:
            return feat, thr
        # prefix sums in each list's own order, as the SSE needs
        ys = self.y[rows]
        csum = np.cumsum(ys, axis=1)
        csq = np.cumsum(ys * ys, axis=1)
        size = m[node[r]]
        lsum = csum[r, i]
        lsq = csq[r, i]
        total = csum[r, size - 1]
        total_sq = csq[r, size - 1]
        left_cnt = i + 1.0
        cost = (lsq - lsum * lsum / left_cnt) \
            + ((total_sq - lsq) - (total - lsum) ** 2 / (size - left_cnt))
        # the first minimum of each node in (position, column) order
        j = node[r]
        span = np.bincount(j)
        head = (np.cumsum(span) - span)[span > 0]
        span = span[span > 0]
        best = np.minimum.reduceat(cost, head)
        key = np.where(cost == np.repeat(best, span), i * d + col[r], np.iinfo(np.int64).max)
        win = np.flatnonzero((key == np.repeat(np.minimum.reduceat(key, head), span))
                             & np.repeat(np.isfinite(best), span))
        feat[j[win]] = col[r[win]]
        thr[j[win]] = (xs[r[win], i[win]] + xs[r[win], i[win] + 1]) / 2.0
        return feat, thr


def _renumbered(feature, threshold, left, right, value, count):
    """The grown trees, each with the node ids it gets when grown alone.

    Grown alone, a tree's splits, in right-child-first preorder, name their
    two children next: the children of the r-th split are 2r + 1 and 2r + 2.
    When each step takes one node of each tree, the splits come in that
    order already and the permutation is the identity.
    """
    trees, width = feature.shape
    feature, threshold, left, right, value = (
        a.ravel() for a in (feature, threshold, left, right, value))
    # the splits of each level, as flat ids t * width + node
    levels = []
    nodes = np.arange(trees) * width
    while nodes.size:
        sp = nodes[feature[nodes] != _LEAF]
        levels.append(sp)
        base = sp - sp % width
        nodes = np.concatenate([base + left[sp], base + right[sp]])
    # bottom up, the number of splits under each node; then top down, each
    # split's preorder rank over the same array: a left child's rank needs
    # its right sibling's count, read before that is overwritten
    rank = np.zeros(trees * width, dtype=np.int64)
    for sp in reversed(levels):
        base = sp - sp % width
        rank[sp] = 1 + rank[base + left[sp]] + rank[base + right[sp]]
    rank[::width] = 0                                   # each root splits first
    src = np.zeros(trees * width, dtype=np.int64)      # old flat id of each new id
    src[::width] = np.arange(trees) * width
    for sp in levels:
        base = sp - sp % width
        lft, rgt = base + left[sp], base + right[sp]
        src[base + 2 * rank[sp] + 1] = lft
        src[base + 2 * rank[sp] + 2] = rgt
        rank[lft] = rank[sp] + 1 + rank[rgt]
        rank[rgt] = rank[sp] + 1
    out = []
    for t, c in enumerate(count.tolist()):
        old = src[t * width:t * width + c]
        f = feature[old]
        first = np.where(f != _LEAF, 2 * rank[old] + 1, _LEAF)
        out.append(RegressionTree(f, threshold[old], first,
                                  np.where(f != _LEAF, first + 1, _LEAF), value[old]))
    return out


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

    def arrays(self):
        """The five node arrays by name, as a model file stores them."""
        return {"feature": self.feature, "threshold": self.threshold,
                "left": self.left, "right": self.right, "value": self.value}

    @classmethod
    def from_dict(cls, d, n_features):
        """Rebuild a saved tree.  Raises ValueError unless its five arrays
        have one length, its numbers are finite, and every split tests one
        of `n_features` columns and names two later nodes, so that every
        walk from the root ends at a leaf."""
        tree = cls(d["feature"], d["threshold"], d["left"], d["right"], d["value"])
        n = tree.value.size
        if n == 0 or any(a.shape != (n,) for a in (tree.feature, tree.threshold,
                                                     tree.left, tree.right, tree.value)):
            raise ValueError("a tree needs five lists of one non-zero length")
        if not (np.isfinite(tree.threshold).all() and np.isfinite(tree.value).all()):
            raise ValueError("a tree threshold or value is not finite")
        node = np.flatnonzero(tree.feature != _LEAF)
        f, left, right = tree.feature[node], tree.left[node], tree.right[node]
        bad = ((f < 0) | (f >= n_features) | (np.minimum(left, right) <= node)
               | (np.maximum(left, right) >= n))
        if bad.any():
            i = node[bad.argmax()]
            raise ValueError(f"tree node {i} splits on feature {tree.feature[i]} into nodes "
                             f"{tree.left[i]} and {tree.right[i]}; a split needs a feature "
                             f"below {n_features} and children in ({i}, {n})")
        return tree


class RandomForest:
    def __init__(self, trees):
        self.trees = list(trees)

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        total = np.zeros(X.shape[0])
        for tree in self.trees:
            total += tree.predict(X)
        return total / len(self.trees)

    @classmethod
    def from_dict(cls, d, n_features):
        if not d["trees"]:
            raise ValueError("a forest needs at least one tree")
        return cls([RegressionTree.from_dict(t, n_features) for t in d["trees"]])


def fit_forest(X, y, params, master_seed):
    """Fit the n_trees of the models.ForestParams `params` on bootstrap
    resamples.  Each tree draws its randomness from an independent child of
    the master seed, so adding trees never perturbs the ones already grown.
    X and y are float arrays, as models.fit_forest checks them."""
    n, d = X.shape
    n_trees = params.n_trees
    k = max(1, min(d, int(round(params.max_feature * d))))
    rngs = [np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(i,)))
            for i in range(n_trees)]
    boots = [rng.integers(0, n, size=n) for rng in rngs]
    group = max(1, _GROUP_CELLS // ((d + 1) * n))
    trees = []
    for g in range(0, n_trees, group):
        # the grower and its sorted lists are freed before the renumbering
        trees += _renumbered(*_Lockstep(X, y, boots[g:g + group], rngs[g:g + group],
                                        params.max_depth, params.min_split,
                                        params.min_leaf, k).grow())
    return RandomForest(trees)
