"""Latent-space denoising diffusion model and its distillation objective.

A small noise-prediction network is trained so that, given a noised
latent and the step index, it recovers the injected Gaussian noise.
When neighbor knowledge is available, a tempered KL penalty pulls the
network's implied clean-latent estimate toward the aggregated neighbor
latent; the aggregate is a fixed target, so the penalty's gradient flows
only through the local prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TrainingError
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


def build_schedule(steps: int) -> NoiseSchedule:
    """Linear noise ramp; cumulative products are exact rolling products."""
    if steps < 1:
        raise ConfigError("noise schedule needs at least one step")
    beta = np.linspace(BETA_START, BETA_END, steps)
    alpha = 1.0 - beta
    return NoiseSchedule(steps=steps, beta=beta, alpha=alpha, alpha_bar=np.cumprod(alpha))


@dataclass
class DenoiserParams:
    net: Mlp
    latent_dim: int
    time_embed_dim: int

    def copy(self) -> "DenoiserParams":
        return DenoiserParams(self.net.copy(), self.latent_dim, self.time_embed_dim)


def new_denoiser(latent_dim: int, hidden: int, time_embed_dim: int, rng: np.random.Generator) -> DenoiserParams:
    if time_embed_dim < 2 or time_embed_dim % 2:
        raise ConfigError("time embedding width must be even and >= 2")
    net = mlp([latent_dim + time_embed_dim, hidden, hidden, latent_dim], rng)
    return DenoiserParams(net=net, latent_dim=latent_dim, time_embed_dim=time_embed_dim)


@dataclass
class DistillationContext:
    integrated_knowledge: np.ndarray | None
    distill_weight: float = 1.0
    temperature: float = 2.0

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError("distillation temperature must be > 0")
        if self.distill_weight < 0:
            raise ConfigError("distillation weight must be >= 0")


def time_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal features of the integer step index."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


def predict_noise(params: DenoiserParams, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    emb = time_embedding(t, params.time_embed_dim)
    return params.net.forward(np.concatenate([np.atleast_2d(x), emb], axis=1))


def forward_noise(x0: np.ndarray, t, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Jump straight to step t: scale the signal down, mix the noise in."""
    t_arr = np.atleast_1d(np.asarray(t))
    if np.any(t_arr < 1) or np.any(t_arr > sched.steps):
        raise ValueError(f"step index out of range 1..{sched.steps}")
    ab = sched.alpha_bar[t_arr - 1]
    x0_2d = np.atleast_2d(np.asarray(x0, dtype=float))
    eps_2d = np.atleast_2d(np.asarray(eps, dtype=float))
    out = np.sqrt(ab)[:, None] * x0_2d + np.sqrt(1.0 - ab)[:, None] * eps_2d
    return out[0] if np.asarray(x0).ndim == 1 else out


def _softmax_and_log(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    shifted = v - v.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_p = shifted - log_norm
    return np.exp(log_p), log_p


def kl_tempered(g: np.ndarray, target: np.ndarray, temperature: float) -> float:
    """KL between the tempered softmaxes of a prediction and a fixed target."""
    if temperature <= 0:
        raise ConfigError("temperature must be > 0")
    p, log_p = _softmax_and_log(np.asarray(g, dtype=float) / temperature)
    _, log_q = _softmax_and_log(np.asarray(target, dtype=float) / temperature)
    return float((p * (log_p - log_q)).sum(axis=-1).mean())


def objective(params: DenoiserParams, x0: np.ndarray, ctx: DistillationContext | None,
              sched: NoiseSchedule, rng: np.random.Generator) -> float:
    """Forward plus backward pass; leaves gradients on the network layers.

    One (step, noise) pair is drawn per sample.  The distillation branch
    consumes no extra randomness, so the plain and distilled objectives
    see identical draws under identical streams.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    if len(x0) == 0:
        raise ValueError("empty batch")
    batch = len(x0)
    t = rng.integers(1, sched.steps + 1, size=batch)
    eps = rng.standard_normal(x0.shape)
    ab = sched.alpha_bar[t - 1]
    root_ab = np.sqrt(ab)[:, None]
    root_rest = np.sqrt(1.0 - ab)[:, None]
    xt = root_ab * x0 + root_rest * eps
    eps_hat = predict_noise(params, xt, t)
    resid = eps_hat - eps
    loss = float((resid**2).sum(axis=1).mean())
    grad_eps_hat = 2.0 * resid / batch

    distilling = (
        ctx is not None
        and ctx.integrated_knowledge is not None
        and ctx.distill_weight > 0
    )
    if distilling:
        temp = ctx.temperature
        x0_hat = (xt - root_rest * eps_hat) / root_ab
        p, log_p = _softmax_and_log(x0_hat / temp)
        _, log_q = _softmax_and_log(np.asarray(ctx.integrated_knowledge, dtype=float) / temp)
        diff = log_p - log_q
        kl = (p * diff).sum(axis=1)
        loss += ctx.distill_weight * float(kl.mean())
        # d KL / d x0_hat, then through x0_hat = (xt - sqrt(1-ab) eps_hat)/sqrt(ab).
        grad_x0_hat = p * (diff - kl[:, None]) / temp
        grad_eps_hat += (ctx.distill_weight * grad_x0_hat
                         * (-root_rest / root_ab) / batch)

    if not np.isfinite(loss):
        raise TrainingError("diffusion objective became non-finite")
    params.net.backward(grad_eps_hat)
    return loss


def local_train(params: DenoiserParams, latents: np.ndarray, ctx: DistillationContext,
                sched: NoiseSchedule, epochs: int, lr: float, batch_size: int,
                rng: np.random.Generator) -> tuple[DenoiserParams, list[float]]:
    """Run SGD epochs over the local latents; records the loss trajectory."""
    latents = np.atleast_2d(latents)
    losses: list[float] = []
    if len(latents) == 0:
        return params, losses
    size = min(batch_size, len(latents))
    for _ in range(epochs):
        order = rng.permutation(len(latents))
        batch_losses = []
        for start in range(0, len(latents), size):
            chunk = latents[order[start:start + size]]
            loss = objective(params, chunk, ctx, sched, rng)
            params.net.step(lr, MOMENTUM)
            batch_losses.append(loss)
        losses.append(float(np.mean(batch_losses)))
    return params, losses


def sample(params: DenoiserParams, sched: NoiseSchedule, count: int,
           rng: np.random.Generator) -> np.ndarray:
    """Ancestral reverse walk from pure noise; the last step adds none."""
    x = rng.standard_normal((count, params.latent_dim))
    if count == 0:
        return x
    for t in range(sched.steps, 0, -1):
        beta = sched.beta[t - 1]
        alpha = sched.alpha[t - 1]
        ab = sched.alpha_bar[t - 1]
        eps_hat = predict_noise(params, x, np.full(count, t))
        x = (x - beta / np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(alpha)
        if t > 1:
            x = x + np.sqrt(beta) * rng.standard_normal(x.shape)
    if not np.all(np.isfinite(x)):
        raise TrainingError("reverse-process sample became non-finite")
    return x
