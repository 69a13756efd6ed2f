"""Reference formulas that the simulator computes inline or faster, written out for tests."""

import numpy as np


def cosine_similarity(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def kl_tempered(g, target, temperature: float) -> float:
    """Mean over rows of KL(softmax(g / T) || softmax(target / T)).

    Uses log p - log q = (a - b) - (lse(a) - lse(b)) for a = g / T and
    b = target / T, with lse the log-sum-exp over the last axis.
    """
    a = np.asarray(g, dtype=float) / temperature
    b = np.asarray(target, dtype=float) / temperature
    lse_a = np.logaddexp.reduce(a, axis=-1)
    lse_b = np.logaddexp.reduce(b, axis=-1)
    p = np.exp(a - lse_a[..., None])
    return float(np.mean((p * (a - b)).sum(axis=-1) - lse_a + lse_b))


def mlp_predict(net, x):
    """A network's output from the layer formulas as first written, one new array per step.

    Dense is ``x @ w + b``, Relu ``x * (x > 0)`` (so -0.0 for negative inputs) and
    Sigmoid ``1 / (1 + exp(-clip(x, -500, 500)))``; works on 2-D and stacked nets.
    """
    from roadcache import nn

    for layer in net.layers:
        if isinstance(layer, nn.Dense):
            x = x @ layer.w + layer.b[..., None, :]
        elif isinstance(layer, nn.Relu):
            x = x * (x > 0)
        elif isinstance(layer, nn.Sigmoid):
            x = 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))
        else:
            raise TypeError(f"no oracle for {type(layer).__name__}")
    return x


def rank_contents(scores):
    """Content ids by descending score, ascending id on ties, via lexsort."""
    scores = np.asarray(scores, dtype=float)
    ids = np.arange(1, len(scores) + 1)
    return ids[np.lexsort((ids, -scores))]


def replacement_scores(members, eta, coverage_length, num_contents):
    """The dwell-weighted vote, one member and one listed content at a time."""
    votes = np.zeros(num_contents)
    for contents, position, speed in members:
        if contents is None:
            continue
        weight = eta * (coverage_length - position) / speed
        for k in contents:
            votes[k - 1] += weight
    return votes
