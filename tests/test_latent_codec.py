"""Autoencoder codec: reconstruction loss, training, hashes, gradients."""

import tracemalloc

import numpy as np
import pytest

from roadcache import latent_codec
from roadcache.errors import TrainingError
from roadcache.rng import substream


def flat_params(codec):
    """Every encoder and decoder weight, as one fresh vector."""
    return np.concatenate([codec.encoder.flat_params(), codec.decoder.flat_params()])


def codec_state(codec):
    """The bytes of every Dense's weights, biases and momentum in a codec."""
    return [getattr(layer, name).tobytes() for net in (codec.encoder, codec.decoder)
            for layer in net.layers if hasattr(layer, "w")
            for name in ("w", "b", "_vw", "_vb")]


def synth_ratings(rng, users, contents, rated):
    """Sparse rating rows with `rated` nonzero entries per user."""
    vecs = np.zeros((users, contents))
    for u in range(users):
        items = rng.choice(contents, size=rated, replace=False)
        vecs[u, items] = rng.uniform(0.2, 1.0, size=rated)
    return vecs


class TestReconstructionError:
    def test_hand_computed(self):
        pred = np.array([0.5, 0.2])
        target = np.array([1.0, 0.0])
        # rated entry weighs 1, unrated weighs 0.05
        want = (0.5 - 1.0) ** 2 + 0.05 * 0.2**2
        assert latent_codec.reconstruction_error(pred, target) == pytest.approx(want)

    def test_custom_negative_weight(self):
        pred = np.array([0.0, 0.3])
        target = np.array([0.8, 0.0])
        got = latent_codec.reconstruction_error(pred, target, negative_weight=0.5)
        assert got == pytest.approx(0.64 + 0.5 * 0.09)

    def test_batch_is_mean_of_row_sums(self):
        rng = substream(3, "recon")
        pred = rng.uniform(0, 1, size=(4, 6))
        target = np.where(rng.uniform(size=(4, 6)) < 0.5, rng.uniform(0.2, 1, (4, 6)), 0.0)
        rows = [latent_codec.reconstruction_error(pred[i], target[i]) for i in range(4)]
        whole = latent_codec.reconstruction_error(pred, target)
        assert whole == pytest.approx(np.mean(rows))

    def test_perfect_reconstruction_is_zero(self):
        target = np.array([0.6, 0.0, 1.0])
        assert latent_codec.reconstruction_error(target, target) == 0.0


class TestShapes:
    def test_encode_decode_shapes(self):
        codec = latent_codec.new_codec(12, 8, 3, substream(0, "shapes"))
        v = np.full(12, 0.5)
        z = latent_codec.encode(codec, v)
        assert z.shape == (3,)
        batch = np.tile(v, (7, 1))
        assert latent_codec.encode(codec, batch).shape == (7, 3)
        assert latent_codec.decode(codec, z).shape == (12,)
        assert latent_codec.decode(codec, np.tile(z, (5, 1))).shape == (5, 12)

    def test_decoder_output_in_unit_interval(self):
        codec = latent_codec.new_codec(10, 6, 4, substream(1, "shapes"))
        z = substream(2, "shapes").normal(size=(20, 4)) * 10.0
        out = latent_codec.decode(codec, z)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_dimension_mismatch_raises(self):
        codec = latent_codec.new_codec(10, 6, 4, substream(3, "shapes"))
        with pytest.raises(ValueError):
            latent_codec.encode(codec, np.zeros(9))
        with pytest.raises(ValueError):
            latent_codec.decode(codec, np.zeros(5))

    def test_decode_mean_rejects_bad_shapes(self):
        codec = latent_codec.new_codec(10, 6, 4, substream(3, "shapes"))
        for z in (np.zeros(4), np.zeros((3, 5)), np.zeros((0, 4)), np.zeros((2, 3, 4))):
            with pytest.raises(ValueError):
                latent_codec.decode_mean(codec.decoder, z)

    def test_encode_deterministic(self):
        codec = latent_codec.new_codec(15, 8, 4, substream(4, "shapes"))
        v = substream(5, "shapes").uniform(0, 1, size=15)
        a = latent_codec.encode(codec, v)
        b = latent_codec.encode(codec, v.copy())
        assert a.tobytes() == b.tobytes()


class TestTraining:
    def test_pretrain_reproducible(self):
        data = synth_ratings(substream(0, "repro"), 12, 25, 6)
        out = []
        for _ in range(2):
            codec, losses = latent_codec.pretrain_codec(
                data, hidden=10, latent_dim=4, lr=0.03, epochs=5,
                batch_size=4, rng=substream(7, "codec"))
            out.append((flat_params(codec), losses))
        assert out[0][1] == out[1][1]
        assert np.array_equal(out[0][0], out[1][0])

    def test_overfit_single_vector(self):
        rng = substream(0, "overfit")
        vec = np.zeros(30)
        vec[rng.integers(0, 30, size=8)] = rng.uniform(0.2, 1.0, size=8)
        codec, losses = latent_codec.pretrain_codec(
            vec[None, :], hidden=32, latent_dim=4, lr=0.05, epochs=300,
            batch_size=1, rng=rng)
        assert losses[-1] < 0.1 * losses[0]

    def test_pretrain_loss_falls(self):
        # Low-rank structure plus noise; the held-out monitor should drop.
        rng = substream(0, "trend")
        base = rng.uniform(0, 1, size=(4, 50))
        mix = rng.dirichlet(np.ones(4), size=40)
        data = np.clip(mix @ base + 0.05 * rng.normal(size=(40, 50)), 0, 1)
        data = np.where(rng.uniform(size=data.shape) < 0.3, data, 0.0)
        codec, losses = latent_codec.pretrain_codec(
            data, hidden=24, latent_dim=6, lr=0.03, epochs=50, batch_size=8, rng=rng)
        assert len(losses) == 50
        smooth = np.convolve(losses, np.ones(5) / 5, mode="valid")
        assert smooth[-1] < 0.8 * smooth[0]

    def test_empty_pretrain_raises(self):
        with pytest.raises(TrainingError):
            latent_codec.pretrain_codec(np.zeros((0, 10)), hidden=4, latent_dim=2,
                                        lr=0.01, epochs=1, batch_size=1,
                                        rng=substream(0, "empty"))

    def test_non_finite_loss_raises(self):
        codec = latent_codec.new_codec(10, 4, 2, substream(0, "nanguard"))
        codec.encoder.layers[0].w[0, 0] = np.nan
        with pytest.raises(TrainingError):
            latent_codec.fine_tune(codec, np.full((2, 10), 0.5), epochs=1,
                                   lr=0.01, batch_size=2, rng=substream(1, "nanguard"))


class TestFineTune:
    def setup_method(self):
        rng = substream(0, "tune")
        self.data = synth_ratings(rng, 10, 40, 10)
        self.codec, _ = latent_codec.pretrain_codec(
            self.data, hidden=16, latent_dim=5, lr=0.03, epochs=30,
            batch_size=4, rng=rng)

    def test_zero_epochs_is_identity(self):
        tuned = latent_codec.fine_tune(self.codec, self.data[:3], epochs=0,
                                       lr=0.03, batch_size=2, rng=substream(1, "tune"))
        assert np.array_equal(flat_params(self.codec), flat_params(tuned))

    def test_base_codec_untouched(self):
        before = flat_params(self.codec)
        latent_codec.fine_tune(self.codec, self.data[:5], epochs=10,
                               lr=0.03, batch_size=2, rng=substream(2, "tune"))
        assert np.array_equal(before, flat_params(self.codec))

    def test_copies_are_independent(self):
        a = latent_codec.fine_tune(self.codec, self.data[:5], epochs=10,
                                   lr=0.03, batch_size=2, rng=substream(3, "tune"))
        b = latent_codec.fine_tune(self.codec, self.data[5:], epochs=10,
                                   lr=0.03, batch_size=2, rng=substream(4, "tune"))
        assert not np.array_equal(flat_params(a), flat_params(b))

    def test_improves_on_own_vectors(self):
        own = self.data[:1]
        tuned = latent_codec.fine_tune(self.codec, own, epochs=100,
                                       lr=0.03, batch_size=1, rng=substream(5, "tune"))

        def err(codec):
            recon = latent_codec.decode(codec, latent_codec.encode(codec, own))
            return latent_codec.reconstruction_error(recon, own)

        assert err(tuned) < err(self.codec)

    def test_reused_training_codec_matches_fresh(self):
        """Tuning in a codec another vehicle trained in gives a fresh tune's codec."""
        state = codec_state(self.codec)
        work = latent_codec.fine_tune(self.codec, self.data[5:], epochs=3,
                                      lr=0.03, batch_size=2, rng=substream(8, "tune"))
        fresh = latent_codec.fine_tune(self.codec, self.data[:5], epochs=2,
                                       lr=0.03, batch_size=2, rng=substream(6, "tune"))
        reused = latent_codec.fine_tune(self.codec, self.data[:5], epochs=2, lr=0.03,
                                        batch_size=2, rng=substream(6, "tune"), into=work)
        assert reused is work
        assert codec_state(reused) == codec_state(fresh)
        assert codec_state(self.codec) == state

    def test_encode_and_decode_cache_nothing(self):
        tuned = latent_codec.new_codec(self.data.shape[1], 16, 5, substream(7, "tune"))
        latent_codec.decode(tuned, latent_codec.encode(tuned, self.data[:5]))
        for net in (tuned.encoder, tuned.decoder):
            for layer in net.layers:
                for name in ("_x", "_mask", "_y"):
                    assert getattr(layer, name, None) is None


def biased_codec(seed):
    """A desk-shaped codec whose biases are all non-zero."""
    rng = substream(seed, "decode-mean")
    codec = latent_codec.new_codec(3952, 100, 16, rng)
    for net in (codec.encoder, codec.decoder):
        for layer in net.layers[::2]:
            layer.b = rng.normal(size=layer.b.shape)
    return codec, rng


class TestDecodeMean:
    @pytest.mark.parametrize("rows", [1, 9, 32, 33, 500, 513])
    def test_equals_mean_of_decode(self, rows):
        codec, rng = biased_codec(rows)
        z = rng.normal(scale=3.0, size=(rows, 16))
        want = latent_codec.decode(codec, z).mean(axis=0)
        assert latent_codec.decode_mean(codec.decoder, z).tobytes() == want.tobytes()

    def test_peak_memory_is_one_output(self):
        codec, rng = biased_codec(0)
        z = rng.normal(size=(500, 16))
        output = 500 * 3952 * 8
        tracemalloc.start()
        try:
            latent_codec.decode_mean(codec.decoder, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # decode(...).mean(axis=0) peaks at two: the last matmul's output and
        # the clipped copy the Sigmoid works in
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
        codec, _ = latent_codec.pretrain_codec(vecs, hidden=32, latent_dim=16,
                                               lr=0.03, epochs=60, batch_size=8, rng=rng)
        hashes = latent_codec.encode(codec, vecs)

        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        sims = sorted(((cos(hashes[0], hashes[j]), j) for j in range(1, 20)),
                      reverse=True)
        rank = [j for _, j in sims].index(1) + 1
        assert rank <= 3

    def test_identical_vectors_identical_hashes(self):
        rng = substream(1, "hash")
        codec = latent_codec.new_codec(30, 12, 6, rng)
        v = rng.uniform(0, 1, size=30)
        pair = np.vstack([v, v])
        h = latent_codec.encode(codec, pair)
        assert np.array_equal(h[0], h[1])


class TestGradients:
    def test_matches_finite_differences(self):
        rng = substream(0, "fd")
        codec = latent_codec.new_codec(5, 4, 3, rng)
        batch = np.where(rng.uniform(size=(2, 5)) < 0.6,
                         rng.uniform(0.2, 1.0, size=(2, 5)), 0.0)
        nw = 0.05

        def loss_at(flat):
            at = 0
            for net in (codec.encoder, codec.decoder):
                n = net.flat_params().size
                net.set_flat_params(flat[at:at + n])
                at += n
            recon = codec.decoder.forward(codec.encoder.forward(batch))
            return latent_codec.reconstruction_error(recon, batch, nw)

        flat0 = np.concatenate([codec.encoder.flat_params(),
                                codec.decoder.flat_params()])

        # Analytic pass mirrors the training step without applying it.
        z = codec.encoder.forward(batch)
        recon = codec.decoder.forward(z)
        w = np.where(batch > 0, 1.0, nw)
        grad = 2.0 * w * (recon - batch) / len(batch)
        grad_z = codec.decoder.backward(grad)
        codec.encoder.backward(grad_z, input_grad=False)
        analytic = np.concatenate([codec.encoder.flat_grads(),
                                   codec.decoder.flat_grads()])

        h = 1e-6
        numeric = np.zeros_like(flat0)
        for i in range(flat0.size):
            bump = flat0.copy()
            bump[i] += h
            hi = loss_at(bump)
            bump[i] -= 2 * h
            lo = loss_at(bump)
            numeric[i] = (hi - lo) / (2 * h)
        loss_at(flat0)

        denom = max(float(np.linalg.norm(analytic)), 1e-12)
        assert float(np.linalg.norm(analytic - numeric)) / denom < 1e-4
