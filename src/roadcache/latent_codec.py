"""Linear codec over rating vectors: PureSVD of the public vectors.

The codec is a basis V (K x L): the top-L right singular vectors of the
public matrix (PureSVD, Cremonesi et al., RecSys 2010), fitted once in
closed form.  Encoding is ``v @ V``.  A vehicle's training vector,
encoded, is the similarity fingerprint it uploads to the RSU; its
riders' vectors, encoded, are its latents, the working space of its
local generative model.  Decoding is ``z @ V.T``, one score per content.
Every vehicle encodes and decodes with the same basis; nothing is
trained per vehicle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TrainingError


@dataclass
class CodecParams:
    basis: np.ndarray   # (num_contents, latent_dim); zero columns past the public rank

    @property
    def num_contents(self) -> int:
        return self.basis.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.basis.shape[1]


def pretrain_codec(public_data: np.ndarray, latent_dim: int) -> CodecParams:
    """Fit the codec on the public vectors: their top ``latent_dim`` right singular vectors.

    Each column's sign is fixed so that its largest-magnitude entry is
    positive, so fingerprints do not depend on LAPACK's sign choice.  When
    the public matrix has fewer than ``latent_dim`` rows or columns, the
    trailing columns are zero, so latents always have ``latent_dim``
    coordinates.
    """
    if len(public_data) == 0:
        raise TrainingError("no public data to fit the codec on")
    _, _, vt = np.linalg.svd(public_data, full_matrices=False)
    top = vt[:latent_dim].T
    signs = np.sign(top[np.argmax(np.abs(top), axis=0), np.arange(top.shape[1])])
    basis = np.zeros((public_data.shape[1], latent_dim))
    basis[:, :top.shape[1]] = top * signs
    return CodecParams(basis)


# Kept only because the benchmark's tracer resolves it by name; the run never calls it.
def fine_tune(codec: CodecParams, *args, **kwargs) -> CodecParams:
    return codec


def encode(codec: CodecParams, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != codec.num_contents:
        raise ValueError(f"expected length-{codec.num_contents} vector, got {v.shape}")
    return v @ codec.basis


def decode(codec: CodecParams, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != codec.latent_dim:
        raise ValueError(f"expected length-{codec.latent_dim} latent, got {z.shape}")
    return z @ codec.basis.T
