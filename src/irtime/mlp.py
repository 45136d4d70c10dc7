"""A small fully connected network trained with minibatch SGD.

One hidden ReLU layer, squared-error objective, L2 penalty on the two
weight matrices (biases stay unpenalized).  Inputs are expected to be
standardized by the caller; helpers for that live here too since the
network is their only consumer.  All math runs in float64 and every source
of randomness is derived from one seed, so training is reproducible.
"""

import math

import numpy as np

from .errors import EmptyDatasetError, InvalidConfigError, NonFiniteError


def standardize_fit(X):
    """Per-column mean and standard deviation; zero spread maps to 1 so
    constant columns pass through unscaled instead of dividing by zero."""
    X = np.asarray(X, dtype=float)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return mean, std


def standardize_apply(X, mean, std):
    return (np.asarray(X, dtype=float) - mean) / std


def init_weights(n_in, hidden, seed=0):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    return {
        "W1": rng.standard_normal((n_in, hidden)) * math.sqrt(2.0 / n_in),
        "b1": np.zeros(hidden),
        "W2": rng.standard_normal((hidden, 1)) * math.sqrt(2.0 / hidden),
        "b2": np.zeros(1),
    }


def forward(weights, X):
    X = np.asarray(X, dtype=float)
    z1 = X @ weights["W1"] + weights["b1"]
    h = np.maximum(z1, 0.0)
    return (h @ weights["W2"] + weights["b2"])[:, 0]


def loss_and_grads(weights, X, y, weight_decay=0.0):
    """Mean squared error plus the L2 term, and exact gradients for every
    parameter.  Kept as one function so a finite-difference probe of the
    returned loss must agree with the returned gradients."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    W1, b1, W2, b2 = weights["W1"], weights["b1"], weights["W2"], weights["b2"]

    z1 = X @ W1 + b1
    h = np.maximum(z1, 0.0)
    yhat = (h @ W2 + b2)[:, 0]
    diff = yhat - y
    loss = float((diff * diff).mean())
    if weight_decay:
        loss += 0.5 * weight_decay * (float((W1 * W1).sum()) + float((W2 * W2).sum()))

    dy = (2.0 / n) * diff
    grad_W2 = h.T @ dy[:, None]
    grad_b2 = np.array([dy.sum()])
    dh = dy[:, None] * W2[:, 0][None, :]
    dz1 = dh * (z1 > 0.0)
    grad_W1 = X.T @ dz1
    grad_b1 = dz1.sum(axis=0)
    if weight_decay:
        grad_W1 = grad_W1 + weight_decay * W1
        grad_W2 = grad_W2 + weight_decay * W2
    return loss, {"W1": grad_W1, "b1": grad_b1, "W2": grad_W2, "b2": grad_b2}


def train(X, y, hidden=64, learning_rate=2e-5, batch_size=4, epochs=10,
          weight_decay=1e-4, seed=0):
    """Returns (weights, per-epoch loss history on the full set).  Raises
    NonFiniteError after the first epoch whose loss is nan or infinite."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyDatasetError("cannot train on an empty matrix")
    if batch_size <= 0 or epochs <= 0 or learning_rate <= 0:
        raise InvalidConfigError("batch_size, epochs and learning_rate must be positive")

    n = X.shape[0]
    weights = init_weights(X.shape[1], hidden, seed)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    history = []
    for epoch in range(1, epochs + 1):
        perm = shuffle_rng.permutation(n)
        for start in range(0, n, batch_size):
            sel = perm[start:start + batch_size]
            _, grads = loss_and_grads(weights, X[sel], y[sel], weight_decay)
            for key in weights:
                weights[key] = weights[key] - learning_rate * grads[key]
        epoch_loss, _ = loss_and_grads(weights, X, y, weight_decay)
        if not math.isfinite(epoch_loss):
            raise NonFiniteError(f"mlp training loss is {epoch_loss!r} after epoch {epoch} "
                                 f"of {epochs}; a lower learning rate may keep it finite")
        history.append(epoch_loss)
    return weights, history
