"""Reference formulas that the simulator computes inline, written out for tests."""

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
