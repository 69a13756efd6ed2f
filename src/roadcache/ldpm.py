"""Latent-space denoising diffusion model and its distillation objective.

A small noise-prediction network is trained so that, given a noised
latent and the step index, it recovers the injected Gaussian noise.
When neighbor knowledge is available, a tempered KL penalty pulls the
network's implied clean-latent estimate toward the aggregated neighbor
latent; the aggregate is a fixed target, so the penalty's gradient flows
only through the local prediction.

Training and sampling take only a stack of V denoisers (``stack``), one
visit per slice, each with its own latents, generator and target (None
for a visit without neighbor knowledge); one visit alone is a stack of
one.  A stack can be sampled in parts through views of its slices
(``nn.Mlp.slice``), and ``unstack`` writes its weights and momentum back
to the denoisers it was made from.  The distillation weight and
temperature are run-wide settings, one per call.  Every slice sees the
same arithmetic and the same draws, in the same order, as that visit
computed alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .errors import TrainingError
from .nn import Mlp, mlp

MOMENTUM = 0.9
BETA_START = 1e-4
BETA_END = 0.02


@dataclass(frozen=True)
class NoiseSchedule:
    steps: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def embedding_table(self, dim: int) -> np.ndarray:
        """``time_embedding`` of every step, built once; row t-1 embeds step t."""
        table = self._tables.get(dim)
        if table is None:
            table = time_embedding(np.arange(1, self.steps + 1), dim)
            table.flags.writeable = False
            self._tables[dim] = table
        return table


def build_schedule(steps: int) -> NoiseSchedule:
    """Linear noise ramp; cumulative products are exact rolling products."""
    beta = np.linspace(BETA_START, BETA_END, steps)
    alpha = 1.0 - beta
    return NoiseSchedule(steps=steps, beta=beta, alpha=alpha, alpha_bar=np.cumprod(alpha))


@dataclass
class DenoiserParams:
    net: Mlp
    latent_dim: int
    time_embed_dim: int


def stack(denoisers: list[DenoiserParams]) -> DenoiserParams:
    """V same-shaped denoisers as one, weights and momentum stacked (V, in, out)."""
    if len({id(d) for d in denoisers}) != len(denoisers):
        raise ValueError("a denoiser can only hold one slice of a stack")
    first = denoisers[0]
    return DenoiserParams(nn.stack([d.net for d in denoisers]), first.latent_dim,
                          first.time_embed_dim)


def unstack(stacked: DenoiserParams, denoisers: list[DenoiserParams]) -> None:
    """Write each slice's weights and momentum back to its denoiser (``nn.unstack``)."""
    nn.unstack(stacked.net, [d.net for d in denoisers])


def new_denoiser(latent_dim: int, hidden: int, time_embed_dim: int, rng: np.random.Generator) -> DenoiserParams:
    net = mlp([latent_dim + time_embed_dim, hidden, hidden, latent_dim], rng)
    return DenoiserParams(net=net, latent_dim=latent_dim, time_embed_dim=time_embed_dim)


def time_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal features of the integer step index."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


def predict_noise(params: DenoiserParams, x: np.ndarray, emb: np.ndarray, *,
                  train: bool = False) -> np.ndarray:
    """Noise estimate for latents (..., n, d) given their step embeddings (..., n, E).

    ``train`` runs the caching forward pass a backward pass needs;
    otherwise the network keeps nothing.
    """
    x = np.concatenate([x, emb], axis=-1)
    return params.net.forward(x) if train else params.net.predict(x)


def forward_noise(x0: np.ndarray, t, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Jump straight to step t: scale the signal down, mix the noise in.

    ``x0`` and ``eps`` are (..., d) and ``t`` holds one step per row (...).
    """
    t = np.asarray(t)
    if np.any(t < 1) or np.any(t > sched.steps):
        raise ValueError(f"step index out of range 1..{sched.steps}")
    ab = sched.alpha_bar[t - 1][..., None]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def _softmax_and_log(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    shifted = v - v.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_p = shifted - log_norm
    return np.exp(log_p), log_p


def _kl_rows(g: np.ndarray, target: np.ndarray, temperature: float) -> tuple:
    """Per-row KL of the tempered softmaxes p (of g) and q (of target), p, and log p - log q."""
    p, log_p = _softmax_and_log(g / temperature)
    _, log_q = _softmax_and_log(target / temperature)
    diff = log_p - log_q
    return (p * diff).sum(axis=-1), p, diff


def objective(params: DenoiserParams, x0: np.ndarray, targets: list, sched: NoiseSchedule,
              rngs: list, *, weight: float, temperature: float) -> np.ndarray:
    """Forward plus backward pass; leaves gradients on the network layers.

    ``params`` is a stack of V denoisers, ``x0`` is (V, n, d), and
    ``targets`` and ``rngs`` hold one distillation target (or None) and
    one generator per visit; returns the (V,) losses.

    A visit distills, adding ``weight`` times the KL at ``temperature``,
    exactly when its target is not None and ``weight`` > 0.  One (step,
    noise) pair is drawn per sample.  The distillation branch consumes no
    extra randomness, so the plain and distilled objectives see identical
    draws under identical streams.
    """
    x0 = np.asarray(x0, dtype=float)
    batch = x0.shape[1]
    if batch == 0:
        raise ValueError("empty batch")
    t = np.empty(x0.shape[:2], dtype=np.int64)
    eps = np.empty_like(x0)
    for v, visit_rng in enumerate(rngs):
        t[v] = visit_rng.integers(1, sched.steps + 1, size=batch)
        eps[v] = visit_rng.standard_normal(x0.shape[1:])
    xt = forward_noise(x0, t, eps, sched)
    eps_hat = predict_noise(params, xt, sched.embedding_table(params.time_embed_dim)[t - 1],
                            train=True)
    resid = eps_hat - eps
    loss = (resid**2).sum(axis=-1).mean(axis=-1)
    grad_eps_hat = 2.0 * resid / batch

    d = [v for v, own in enumerate(targets) if own is not None] if weight > 0 else []
    if d:
        ab = sched.alpha_bar[t[d] - 1][..., None]
        root_ab, root_rest = np.sqrt(ab), np.sqrt(1.0 - ab)
        goal = np.stack([np.asarray(targets[v], dtype=float) for v in d])
        x0_hat = (xt[d] - root_rest * eps_hat[d]) / root_ab
        kl, p, diff = _kl_rows(x0_hat, goal[:, None, :], temperature)
        loss[d] += weight * kl.mean(axis=-1)
        # d KL / d x0_hat, then through x0_hat = (xt - sqrt(1-ab) eps_hat)/sqrt(ab).
        grad_x0_hat = p * (diff - kl[..., None]) / temperature
        grad_eps_hat[d] += weight * grad_x0_hat * (-root_rest / root_ab) / batch

    if not np.all(np.isfinite(loss)):
        raise TrainingError("diffusion objective became non-finite")
    params.net.backward(grad_eps_hat)
    return loss


def local_train(params: DenoiserParams, latents: np.ndarray, targets: list, sched: NoiseSchedule,
                epochs: int, lr: float, batch_size: int, rngs: list, *, weight: float,
                temperature: float) -> list[list[float]]:
    """Run SGD epochs over the stack's latents, in place; returns the loss trajectories.

    Stacked as ``objective``: latents (V, n, d) and one target and one
    generator per visit; returns one per-epoch trajectory per visit.
    Each visit draws a permutation per epoch and then, per batch, its step
    indices and noise.
    """
    latents = np.asarray(latents, dtype=float)
    n_visits, n = latents.shape[:2]
    losses: list[list[float]] = [[] for _ in range(n_visits)]
    if n == 0:
        return losses
    size = min(batch_size, n)
    rows = np.arange(n_visits)[:, None]
    for _ in range(epochs):
        order = np.stack([visit_rng.permutation(n) for visit_rng in rngs])
        batch_losses = []
        for start in range(0, n, size):
            chunk = latents[rows, order[:, start:start + size]]
            batch_losses.append(objective(params, chunk, targets, sched, rngs, weight=weight,
                                          temperature=temperature))
            params.net.step(lr, MOMENTUM)
        for own, per_batch in zip(losses, np.stack(batch_losses, axis=1)):
            own.append(float(np.mean(per_batch)))
    return losses


def sample(params: DenoiserParams, sched: NoiseSchedule, count: int, rngs: list) -> np.ndarray:
    """Ancestral reverse walk from pure noise; the last step adds none.

    One generator per visit of the stack, and (V, count, d) draws.  Each
    visit draws all its noise in one block, the initial noise first and
    then one noise per step, which are the values and generator state
    that drawing them one at a time gives.
    """
    shape = (sched.steps, count, params.latent_dim)
    noise = np.stack([visit_rng.standard_normal(shape) for visit_rng in rngs], axis=1)
    x = noise[0]
    if count == 0:
        return x
    table = sched.embedding_table(params.time_embed_dim)
    for t in range(sched.steps, 0, -1):
        beta = sched.beta[t - 1]
        alpha = sched.alpha[t - 1]
        ab = sched.alpha_bar[t - 1]
        emb = np.broadcast_to(table[t - 1], (*x.shape[:-1], table.shape[1]))
        eps_hat = predict_noise(params, x, emb)
        x = (x - beta / np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(alpha)
        if t > 1:
            x = x + np.sqrt(beta) * noise[sched.steps - t + 1]
    if not np.all(np.isfinite(x)):
        raise TrainingError("reverse-process sample became non-finite")
    return x
