"""Encoder/decoder pair over rating vectors.

The encoder compresses a length-K profile into a short latent that does
double duty: it is the vehicle's similarity fingerprint uploaded to the
RSU, and it is the working space of the local generative model.  The
decoder maps latents back to per-content scores in [0, 1].

Unrated entries are treated as soft negatives: they enter the
reconstruction objective at a small weight, pulling unseen contents
toward zero instead of leaving them unconstrained.  Without that pull
the decoder is free to emit arbitrary scores off the rated support,
which destroys the ranking the caching layer depends on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TrainingError
from .nn import Mlp, Sigmoid, mlp


@dataclass
class CodecParams:
    encoder: Mlp
    decoder: Mlp
    latent_dim: int
    num_contents: int

    def copy(self) -> "CodecParams":
        return CodecParams(self.encoder.copy(), self.decoder.copy(), self.latent_dim, self.num_contents)


def new_codec(num_contents: int, hidden: int, latent_dim: int, rng: np.random.Generator) -> CodecParams:
    encoder = mlp([num_contents, hidden, latent_dim], rng)
    decoder = mlp([latent_dim, hidden, num_contents], rng, out_act=Sigmoid)
    return CodecParams(encoder, decoder, latent_dim, num_contents)


MOMENTUM = 0.9


def reconstruction_error(pred: np.ndarray, target: np.ndarray,
                         negative_weight: float = 0.05) -> float:
    """Weighted squared error, summed per sample, averaged over the batch.

    Rated entries weigh 1, unrated entries weigh ``negative_weight``.
    The per-sample sum keeps gradient magnitudes independent of the
    catalog size, which a per-entry mean would shrink by 1/K.
    """
    pred = np.atleast_2d(pred)
    target = np.atleast_2d(target)
    w = np.where(target > 0, 1.0, negative_weight)
    return float((w * (pred - target) ** 2).sum(axis=1).mean())


def _train_batch(codec: CodecParams, batch: np.ndarray, lr: float,
                 negative_weight: float) -> float:
    z = codec.encoder.forward(batch)
    recon = codec.decoder.forward(z)
    w = np.where(batch > 0, 1.0, negative_weight)
    loss = float((w * (recon - batch) ** 2).sum(axis=1).mean())
    grad = 2.0 * w * (recon - batch) / len(batch)
    grad_z = codec.decoder.backward(grad)
    codec.encoder.backward(grad_z)
    codec.decoder.step(lr, MOMENTUM)
    codec.encoder.step(lr, MOMENTUM)
    return loss


def _run_epochs(codec, data, epochs, lr, batch_size, rng, negative_weight, monitor=None):
    losses = []
    for epoch in range(epochs):
        order = rng.permutation(len(data))
        epoch_losses = []
        for start in range(0, len(data), batch_size):
            batch = data[order[start:start + batch_size]]
            epoch_losses.append(_train_batch(codec, batch, lr, negative_weight))
        mean_loss = float(np.mean(epoch_losses))
        if not np.isfinite(mean_loss):
            raise TrainingError(f"codec loss became non-finite at epoch {epoch}")
        losses.append(monitor() if monitor is not None else mean_loss)
    return losses


def pretrain_codec(
    public_data: np.ndarray,
    hidden: int,
    latent_dim: int,
    lr: float,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
    negative_weight: float = 0.05,
) -> tuple[CodecParams, list[float]]:
    """Train a fresh codec on the public vectors.

    Returns the codec plus the per-epoch reconstruction loss on a small
    validation split (the whole set when there is only one vector).
    """
    if len(public_data) == 0:
        raise TrainingError("no public data to pretrain on")
    codec = new_codec(public_data.shape[1], hidden, latent_dim, rng)
    if len(public_data) >= 5:
        n_val = max(1, len(public_data) // 10)
        order = rng.permutation(len(public_data))
        val, train = public_data[order[:n_val]], public_data[order[n_val:]]
    else:
        val = train = public_data

    def monitor():
        return reconstruction_error(codec.decoder.forward(codec.encoder.forward(val)),
                                    val, negative_weight)

    losses = _run_epochs(codec, train, epochs, lr, batch_size, rng, negative_weight,
                         monitor=monitor)
    return codec, losses


def fine_tune(
    codec: CodecParams,
    local_vectors: np.ndarray,
    epochs: int,
    lr: float,
    batch_size: int,
    rng: np.random.Generator,
    negative_weight: float = 0.05,
) -> CodecParams:
    """Adapt a private copy of the codec to one vehicle's vectors."""
    tuned = codec.copy()
    if epochs > 0 and len(local_vectors) > 0:
        _run_epochs(tuned, local_vectors, epochs, lr, batch_size, rng, negative_weight)
    return tuned


def encode(codec: CodecParams, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != codec.num_contents:
        raise ValueError(f"expected length-{codec.num_contents} vector, got {v.shape}")
    out = codec.encoder.forward(np.atleast_2d(v))
    return out[0] if v.ndim == 1 else out


def decode(codec: CodecParams, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != codec.latent_dim:
        raise ValueError(f"expected length-{codec.latent_dim} latent, got {z.shape}")
    out = codec.decoder.forward(np.atleast_2d(z))
    return out[0] if z.ndim == 1 else out
