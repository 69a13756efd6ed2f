"""PureSVD codec: the fitted basis, reconstruction, hashes, mean-first decoding."""

import tracemalloc

import numpy as np
import pytest

from roadcache import latent_codec
from roadcache.errors import TrainingError
from roadcache.rng import substream


def codec_state(codec):
    """The bytes of the codec's basis, with its shape."""
    return codec.basis.shape, codec.basis.tobytes()


def synth_ratings(rng, users, contents, rated):
    """Sparse rating rows with `rated` nonzero entries per user."""
    vecs = np.zeros((users, contents))
    for u in range(users):
        items = rng.choice(contents, size=rated, replace=False)
        vecs[u, items] = rng.uniform(0.2, 1.0, size=rated)
    return vecs


def reconstruct(codec, v):
    return latent_codec.decode(codec, latent_codec.encode(codec, v))


class TestBasis:
    def test_nonzero_columns_orthonormal_and_signed(self):
        data = synth_ratings(substream(0, "basis"), 30, 50, 8)
        basis = latent_codec.pretrain_codec(data, 12).basis
        assert basis.shape == (50, 12)
        np.testing.assert_allclose(basis.T @ basis, np.eye(12), atol=1e-12)
        # Each column's largest-magnitude entry is positive.
        peaks = basis[np.argmax(np.abs(basis), axis=0), np.arange(12)]
        assert np.all(peaks > 0)
        # The sign rule holds whatever sign LAPACK returns: the basis of the
        # negated matrix is the same basis.
        assert np.allclose(latent_codec.pretrain_codec(-data, 12).basis, basis, atol=1e-12)

    @pytest.mark.parametrize("rows, contents", [(3, 50), (30, 5)], ids=["few-rows", "few-contents"])
    def test_zero_padding(self, rows, contents):
        """Fewer public rows or contents than the latent width: trailing columns are zero."""
        data = synth_ratings(substream(1, "basis"), rows, contents, min(4, contents))
        codec = latent_codec.pretrain_codec(data, 8)
        rank = min(rows, contents)
        assert codec.latent_dim == 8 and codec.num_contents == contents
        assert not np.any(codec.basis[:, rank:])
        np.testing.assert_allclose(codec.basis[:, :rank].T @ codec.basis[:, :rank], np.eye(rank),
                                   atol=1e-12)
        assert latent_codec.encode(codec, data).shape == (rows, 8)


class TestReconstructionError:
    def test_hand_computed(self):
        # One public vector (-3, -4, 0): its unit direction, sign-fixed so the
        # largest-magnitude entry is positive, is (0.6, 0.8, 0).
        codec = latent_codec.pretrain_codec(np.array([[-3.0, -4.0, 0.0]]), 2)
        np.testing.assert_allclose(codec.basis, [[0.6, 0.0], [0.8, 0.0], [0.0, 0.0]])
        v = np.array([1.0, 1.0, 1.0])
        np.testing.assert_allclose(latent_codec.encode(codec, v), [1.4, 0.0])
        np.testing.assert_allclose(reconstruct(codec, v), [0.84, 1.12, 0.0])

    def test_batch_is_mean_of_row_sums(self):
        """A batch's error, the mean of its rows' squared-error sums, is the mean of each row's alone.

        Encoding and decoding act row by row, so a batch reconstructs each
        row as that row reconstructs by itself.
        """
        rng = substream(3, "recon")
        codec = latent_codec.pretrain_codec(synth_ratings(rng, 8, 6, 3), 4)
        target = np.where(rng.uniform(size=(4, 6)) < 0.5, rng.uniform(0.2, 1, (4, 6)), 0.0)
        rows = [float(((reconstruct(codec, target[i]) - target[i]) ** 2).sum()) for i in range(4)]
        whole = float(((reconstruct(codec, target) - target) ** 2).sum(axis=1).mean())
        assert min(rows) > 0.0
        assert whole == pytest.approx(np.mean(rows))

    def test_perfect_reconstruction_is_zero(self):
        # Any mix of at most latent_dim public vectors lies in the basis' span.
        rng = substream(3, "recon")
        public = synth_ratings(rng, 4, 30, 6)
        codec = latent_codec.pretrain_codec(public, 6)
        mix = rng.normal(size=(5, 4)) @ public
        np.testing.assert_allclose(reconstruct(codec, mix), mix, atol=1e-12)


class TestShapes:
    def test_encode_decode_shapes(self):
        codec = latent_codec.pretrain_codec(synth_ratings(substream(0, "shapes"), 6, 12, 4), 3)
        v = np.full(12, 0.5)
        z = latent_codec.encode(codec, v)
        assert z.shape == (3,)
        batch = np.tile(v, (7, 1))
        assert latent_codec.encode(codec, batch).shape == (7, 3)
        assert latent_codec.decode(codec, z).shape == (12,)
        assert latent_codec.decode(codec, np.tile(z, (5, 1))).shape == (5, 12)

    def test_dimension_mismatch_raises(self):
        codec = latent_codec.pretrain_codec(synth_ratings(substream(3, "shapes"), 6, 10, 4), 4)
        with pytest.raises(ValueError):
            latent_codec.encode(codec, np.zeros(9))
        with pytest.raises(ValueError):
            latent_codec.decode(codec, np.zeros(5))

    def test_encode_deterministic(self):
        codec = latent_codec.pretrain_codec(synth_ratings(substream(4, "shapes"), 6, 15, 4), 4)
        v = substream(5, "shapes").uniform(0, 1, size=15)
        a = latent_codec.encode(codec, v)
        b = latent_codec.encode(codec, v.copy())
        assert a.tobytes() == b.tobytes()


class TestTraining:
    def test_pretrain_reproducible(self):
        data = synth_ratings(substream(0, "repro"), 12, 25, 6)
        states = [codec_state(latent_codec.pretrain_codec(data, 4)) for _ in range(2)]
        assert states[0] == states[1]

    def test_overfit_single_vector(self):
        rng = substream(0, "overfit")
        vec = np.zeros(30)
        vec[rng.integers(0, 30, size=8)] = rng.uniform(0.2, 1.0, size=8)
        codec = latent_codec.pretrain_codec(vec[None, :], 4)
        np.testing.assert_allclose(reconstruct(codec, vec), vec, atol=1e-12)

    def test_pretrain_loss_falls(self):
        """The public vectors' reconstruction error at rank L is the Eckart-Young optimum.

        That is the sum of the squared singular values past L, so it falls as
        L grows, down to zero at full rank.
        """
        data = synth_ratings(substream(0, "trend"), 20, 50, 10)
        sigma = np.linalg.svd(data, compute_uv=False)
        errors = []
        for latent_dim in range(1, 21):
            codec = latent_codec.pretrain_codec(data, latent_dim)
            errors.append(float(((reconstruct(codec, data) - data) ** 2).sum()))
            assert errors[-1] == pytest.approx((sigma[latent_dim:] ** 2).sum(), abs=1e-9)
        assert all(b < a for a, b in zip(errors, errors[1:-1]))
        assert errors[-1] == pytest.approx(0.0, abs=1e-9)

    def test_empty_pretrain_raises(self):
        with pytest.raises(TrainingError):
            latent_codec.pretrain_codec(np.zeros((0, 10)), 2)


class TestFineTune:
    """``fine_tune`` survives only as a name the benchmark resolves: it returns the codec."""

    def setup_method(self):
        self.data = synth_ratings(substream(0, "tune"), 10, 40, 10)
        self.codec = latent_codec.pretrain_codec(self.data, 5)

    def test_zero_epochs_is_identity(self):
        assert latent_codec.fine_tune(self.codec, self.data[:3], 0) is self.codec

    def test_base_codec_untouched(self):
        before = codec_state(self.codec)
        assert latent_codec.fine_tune(self.codec, self.data[:5], 10) is self.codec
        assert codec_state(self.codec) == before

    def test_encode_and_decode_cache_nothing(self):
        before = codec_state(self.codec)
        latent_codec.decode(self.codec, latent_codec.encode(self.codec, self.data[:5]))
        assert list(vars(self.codec)) == ["basis"]
        assert codec_state(self.codec) == before


def desk_codec(seed):
    """A desk-shaped codec: 3952 contents, 16 latent coordinates."""
    rng = substream(seed, "decode-mean")
    return latent_codec.pretrain_codec(synth_ratings(rng, 60, 3952, 40), 16), rng


class TestDecodeMean:
    """A visit's scores decode its mean draw: for a linear codec that is the mean of the decoded draws."""

    @pytest.mark.parametrize("rows", [1, 9, 32, 33, 500, 513])
    def test_equals_mean_of_decode(self, rows):
        codec, rng = desk_codec(rows)
        z = rng.normal(scale=3.0, size=(rows, 16))
        want = latent_codec.decode(codec, z).mean(axis=0)
        np.testing.assert_allclose(latent_codec.decode(codec, z.mean(axis=0)), want,
                                   rtol=1e-12, atol=1e-12)

    def test_peak_memory_is_one_output(self):
        codec, rng = desk_codec(0)
        z = rng.normal(size=(500, 16))
        output = 3952 * 8
        tracemalloc.start()
        try:
            latent_codec.decode(codec, z.mean(axis=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # decoding every draw first would hold 500 of these rows
        assert peak < 1.25 * output


class TestHashes:
    def test_similar_histories_have_similar_hashes(self):
        # Two users sharing 19 of 20 rated items should stand out among
        # twenty random profiles.
        rng = substream(0, "hash")
        vecs = synth_ratings(rng, 20, 80, 20)
        shared = rng.choice(80, size=19, replace=False)
        for u in (0, 1):
            vecs[u] = 0.0
            vecs[u, shared] = rng.uniform(0.2, 1.0, size=19)
            vecs[u, rng.integers(0, 80)] = rng.uniform(0.2, 1.0)
        codec = latent_codec.pretrain_codec(vecs, 16)
        hashes = latent_codec.encode(codec, vecs)

        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        sims = sorted(((cos(hashes[0], hashes[j]), j) for j in range(1, 20)),
                      reverse=True)
        rank = [j for _, j in sims].index(1) + 1
        assert rank <= 3

    def test_identical_vectors_identical_hashes(self):
        rng = substream(1, "hash")
        codec = latent_codec.pretrain_codec(synth_ratings(rng, 8, 30, 6), 6)
        v = rng.uniform(0, 1, size=30)
        pair = np.vstack([v, v])
        h = latent_codec.encode(codec, pair)
        assert np.array_equal(h[0], h[1])
