"""Latent diffusion denoiser: schedule, objectives, gradients, sampling."""

import mpmath
import numpy as np
import pytest

from roadcache import ldpm
from roadcache.errors import ConfigError, TrainingError
from roadcache.rng import substream


def loss_and_grad(params, x0, ctx, sched, rng):
    """The training objective and the flat gradient it leaves on the network."""
    loss = ldpm.objective(params, x0, ctx, sched, rng)
    return loss, params.net.flat_grads()


def toy_model(latent_dim=4, hidden=8, temb=4, label="toy"):
    return ldpm.new_denoiser(latent_dim, hidden, temb, substream(11, label))


class TestSchedule:
    def test_single_step(self):
        sched = ldpm.build_schedule(1)
        assert sched.beta.tolist() == [1e-4]
        assert sched.alpha.tolist() == [1.0 - 1e-4]
        assert sched.alpha_bar.tolist() == [0.9999]

    def test_endpoints_and_monotonicity(self):
        sched = ldpm.build_schedule(50)
        assert sched.beta[0] == pytest.approx(1e-4)
        assert sched.beta[-1] == pytest.approx(0.02)
        assert np.all(np.diff(sched.beta) > 0)
        assert np.all(np.diff(sched.alpha_bar) < 0)
        assert np.all((sched.alpha_bar > 0) & (sched.alpha_bar < 1))

    @pytest.mark.parametrize("steps", [1, 2, 50, 1000])
    def test_cumulative_product_against_mpmath(self, steps):
        sched = ldpm.build_schedule(steps)
        with mpmath.workdps(60):
            acc = mpmath.mpf(1)
            exact = []
            for b in sched.beta:
                acc *= 1 - mpmath.mpf(b)
                exact.append(acc)
            for got, want in zip(sched.alpha_bar, exact):
                assert abs(mpmath.mpf(got) - want) / want < 1e-12

    def test_zero_steps_rejected(self):
        with pytest.raises(ConfigError):
            ldpm.build_schedule(0)


class TestTimeEmbedding:
    def test_shape_and_range(self):
        emb = ldpm.time_embedding(np.arange(1, 11), 16)
        assert emb.shape == (10, 16)
        assert np.all(np.abs(emb) <= 1.0)

    def test_distinct_steps_distinct_embeddings(self):
        emb = ldpm.time_embedding(np.array([1, 2, 50]), 8)
        assert not np.allclose(emb[0], emb[1])
        assert not np.allclose(emb[1], emb[2])


class TestForwardNoise:
    def test_zero_noise_scales_signal(self):
        sched = ldpm.build_schedule(50)
        x0 = np.array([1.0, -2.0, 0.5])
        for t in (1, 25, 50):
            got = ldpm.forward_noise(x0, t, np.zeros(3), sched)
            assert got == pytest.approx(np.sqrt(sched.alpha_bar[t - 1]) * x0)

    def test_identity_when_alpha_bar_is_one(self):
        # Degenerate one-step schedule with no noise at all.
        sched = ldpm.NoiseSchedule(steps=1, beta=np.array([0.0]),
                                   alpha=np.array([1.0]), alpha_bar=np.array([1.0]))
        x0 = np.array([0.3, -0.7])
        eps = np.array([5.0, 5.0])
        assert np.array_equal(ldpm.forward_noise(x0, 1, eps, sched), x0)

    def test_step_bounds_enforced(self):
        sched = ldpm.build_schedule(10)
        x0 = np.zeros(2)
        with pytest.raises(ValueError):
            ldpm.forward_noise(x0, 0, np.zeros(2), sched)
        with pytest.raises(ValueError):
            ldpm.forward_noise(x0, 11, np.zeros(2), sched)

    def test_batched_steps(self):
        sched = ldpm.build_schedule(20)
        rng = substream(0, "fw-batch")
        x0 = rng.normal(size=(5, 3))
        eps = rng.normal(size=(5, 3))
        t = np.array([1, 5, 10, 15, 20])
        got = ldpm.forward_noise(x0, t, eps, sched)
        for i in range(5):
            row = ldpm.forward_noise(x0[i], int(t[i]), eps[i], sched)
            assert got[i] == pytest.approx(row)

    def test_monte_carlo_moments(self):
        # At fixed t the output is Gaussian around sqrt(ab)*x0 with
        # variance 1-ab per component.
        sched = ldpm.build_schedule(50)
        t = 50
        ab = sched.alpha_bar[t - 1]
        x0 = np.array([1.0, -0.5, 0.25, 2.0])
        n = 10_000
        rng = substream(0, "fw-mc")
        eps = rng.standard_normal((n, 4))
        xt = ldpm.forward_noise(np.tile(x0, (n, 1)), np.full(n, t), eps, sched)
        mean_tol = 4.0 * np.sqrt((1 - ab) / n)
        assert np.all(np.abs(xt.mean(axis=0) - np.sqrt(ab) * x0) < mean_tol)
        var = xt.var(axis=0)
        assert np.all(np.abs(var - (1 - ab)) < 0.05 * (1 - ab))


class TestKlTempered:
    def test_equal_inputs_zero(self):
        g = np.array([0.2, -1.0, 3.0])
        assert ldpm.kl_tempered(g, g, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_shift_invariance(self):
        g = np.array([0.5, 1.5, -0.5])
        assert ldpm.kl_tempered(g + 7.0, g, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_and_positive_when_different(self):
        rng = substream(0, "kl")
        for _ in range(100):
            g = rng.normal(size=6)
            target = rng.normal(size=6)
            kl = ldpm.kl_tempered(g, target, 2.0)
            assert kl >= -1e-12
        assert ldpm.kl_tempered(np.array([3.0, 0.0]), np.array([0.0, 3.0]), 2.0) > 0.01

    def test_high_temperature_flattens(self):
        g = np.array([2.0, -1.0, 0.5, 1.5])
        target = np.array([-0.5, 1.0, 2.0, 0.0])
        assert ldpm.kl_tempered(g, target, 100.0) < ldpm.kl_tempered(g, target, 2.0)

    def test_bad_temperature(self):
        with pytest.raises(ConfigError):
            ldpm.kl_tempered(np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ConfigError):
            ldpm.DistillationContext(integrated_knowledge=None, temperature=-1.0)
        with pytest.raises(ConfigError):
            ldpm.DistillationContext(integrated_knowledge=None, distill_weight=-0.1)


class TestObjectives:
    def test_zero_network_loss_near_dimension(self):
        # eps_hat == 0 everywhere, so the loss is the mean squared norm of
        # standard normal noise: the latent dimension in expectation.
        d = 6
        params = toy_model(latent_dim=d, hidden=8, temb=4, label="zero-net")
        params.net.set_flat_params(np.zeros(params.net.flat_params().size))
        sched = ldpm.build_schedule(50)
        x0 = np.zeros((10_000, d))
        loss, grad = loss_and_grad(params, x0, None, sched, substream(0, "zero-net"))
        assert loss == pytest.approx(d, rel=0.05)
        assert grad.shape == (params.net.flat_params().size,)

    def test_distill_weight_zero_matches_simple(self):
        params = toy_model(label="noctx")
        sched = ldpm.build_schedule(20)
        x0 = substream(0, "noctx").normal(size=(5, 4))
        ctx = ldpm.DistillationContext(integrated_knowledge=np.ones(4),
                                       distill_weight=0.0)
        loss_a, grad_a = loss_and_grad(params.copy(), x0, None, sched,
                                       substream(1, "noctx"))
        loss_b, grad_b = loss_and_grad(params.copy(), x0, ctx, sched,
                                       substream(1, "noctx"))
        assert loss_a == loss_b
        assert np.array_equal(grad_a, grad_b)

    def test_missing_knowledge_matches_simple(self):
        params = toy_model(label="nok")
        sched = ldpm.build_schedule(20)
        x0 = substream(0, "nok").normal(size=(5, 4))
        ctx = ldpm.DistillationContext(integrated_knowledge=None, distill_weight=1.0)
        loss_a, _ = loss_and_grad(params.copy(), x0, None, sched, substream(1, "nok"))
        loss_b, _ = loss_and_grad(params.copy(), x0, ctx, sched, substream(1, "nok"))
        assert loss_a == loss_b

    def test_distillation_adds_positive_term(self):
        params = toy_model(label="addkl")
        sched = ldpm.build_schedule(20)
        x0 = substream(0, "addkl").normal(size=(8, 4))
        ctx = ldpm.DistillationContext(integrated_knowledge=np.array([4.0, 0.0, -4.0, 0.0]),
                                       distill_weight=1.0, temperature=2.0)
        loss_plain, _ = loss_and_grad(params.copy(), x0, None, sched, substream(1, "addkl"))
        loss_kd, _ = loss_and_grad(params.copy(), x0, ctx, sched, substream(1, "addkl"))
        assert loss_kd > loss_plain

    def test_empty_batch_rejected(self):
        params = toy_model(label="empty")
        sched = ldpm.build_schedule(5)
        with pytest.raises(ValueError):
            loss_and_grad(params, np.zeros((0, 4)), None, sched, substream(0, "empty"))


class TestGradients:
    @staticmethod
    def _fd_check(make_loss, params, rel_tol=1e-4, h=1e-5):
        flat0 = params.net.flat_params().copy()

        def loss_at(flat):
            params.net.set_flat_params(flat)
            return make_loss()[0]

        params.net.set_flat_params(flat0)
        _, analytic = make_loss()
        numeric = np.zeros_like(flat0)
        for i in range(flat0.size):
            bump = flat0.copy()
            bump[i] += h
            hi = loss_at(bump)
            bump[i] -= 2 * h
            lo = loss_at(bump)
            numeric[i] = (hi - lo) / (2 * h)
        params.net.set_flat_params(flat0)
        denom = max(float(np.linalg.norm(analytic)), 1e-12)
        return float(np.linalg.norm(analytic - numeric)) / denom

    def test_simple_loss_matches_finite_differences(self):
        params = toy_model(latent_dim=4, hidden=6, temb=4, label="fd-simple")
        sched = ldpm.build_schedule(10)
        x0 = substream(0, "fd-simple").normal(size=(3, 4))

        def make_loss():
            return loss_and_grad(params, x0, None, sched, substream(1, "fd-simple"))

        assert self._fd_check(make_loss, params) < 1e-4

    def test_distill_loss_matches_finite_differences(self):
        params = toy_model(latent_dim=4, hidden=6, temb=4, label="fd-kd")
        sched = ldpm.build_schedule(10)
        x0 = substream(0, "fd-kd").normal(size=(3, 4))
        ctx = ldpm.DistillationContext(
            integrated_knowledge=substream(2, "fd-kd").normal(size=4),
            distill_weight=1.5, temperature=2.0)

        def make_loss():
            return loss_and_grad(params, x0, ctx, sched, substream(1, "fd-kd"))

        assert self._fd_check(make_loss, params) < 1e-4


class TestLocalTrain:
    def test_zero_epochs_noop(self):
        params = toy_model(label="noop")
        before = params.net.flat_params().copy()
        ctx = ldpm.DistillationContext(integrated_knowledge=None)
        sched = ldpm.build_schedule(10)
        latents = substream(0, "noop").normal(size=(6, 4))
        _, losses = ldpm.local_train(params, latents, ctx, sched, epochs=0,
                                     lr=0.01, batch_size=4, rng=substream(1, "noop"))
        assert losses == []
        assert np.array_equal(params.net.flat_params(), before)

    def test_empty_latents_noop(self):
        params = toy_model(label="nolat")
        before = params.net.flat_params().copy()
        ctx = ldpm.DistillationContext(integrated_knowledge=None)
        sched = ldpm.build_schedule(10)
        _, losses = ldpm.local_train(params, np.zeros((0, 4)), ctx, sched, epochs=5,
                                     lr=0.01, batch_size=4, rng=substream(1, "nolat"))
        assert losses == []
        assert np.array_equal(params.net.flat_params(), before)

    def test_reproducible(self):
        ctx = ldpm.DistillationContext(integrated_knowledge=np.ones(4),
                                       distill_weight=0.5)
        sched = ldpm.build_schedule(20)
        latents = substream(0, "repro").normal(size=(12, 4))
        runs = []
        for _ in range(2):
            params = toy_model(label="repro-net")
            params, losses = ldpm.local_train(params, latents, ctx, sched, epochs=4,
                                              lr=0.01, batch_size=4,
                                              rng=substream(1, "repro-train"))
            runs.append((losses, params.net.flat_params()))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_records_one_loss_per_epoch(self):
        params = toy_model(label="traj")
        ctx = ldpm.DistillationContext(integrated_knowledge=None)
        sched = ldpm.build_schedule(10)
        latents = substream(0, "traj").normal(size=(10, 4))
        _, losses = ldpm.local_train(params, latents, ctx, sched, epochs=7,
                                     lr=0.005, batch_size=4, rng=substream(1, "traj"))
        assert len(losses) == 7
        assert all(np.isfinite(v) for v in losses)


class TestSample:
    def test_shapes(self):
        params = toy_model(label="shape")
        sched = ldpm.build_schedule(10)
        out = ldpm.sample(params, sched, 13, substream(0, "shape"))
        assert out.shape == (13, 4)
        assert np.all(np.isfinite(out))

    def test_zero_count(self):
        params = toy_model(label="zcount")
        sched = ldpm.build_schedule(10)
        out = ldpm.sample(params, sched, 0, substream(0, "zcount"))
        assert out.shape == (0, 4)

    def test_deterministic_under_stream(self):
        params = toy_model(label="det")
        sched = ldpm.build_schedule(25)
        a = ldpm.sample(params, sched, 8, substream(3, "det"))
        b = ldpm.sample(params, sched, 8, substream(3, "det"))
        assert a.tobytes() == b.tobytes()

    def test_non_finite_guard(self):
        params = toy_model(label="nanspl")
        flat = params.net.flat_params()
        flat[0] = np.nan
        params.net.set_flat_params(flat)
        sched = ldpm.build_schedule(5)
        with pytest.raises(TrainingError):
            ldpm.sample(params, sched, 4, substream(0, "nanspl"))


class TestDenoiserConstruction:
    def test_odd_time_embedding_rejected(self):
        with pytest.raises(ConfigError):
            ldpm.new_denoiser(4, 8, 3, substream(0, "odd"))
        with pytest.raises(ConfigError):
            ldpm.new_denoiser(4, 8, 0, substream(0, "odd"))

    def test_parameter_count(self):
        d, h, e = 4, 8, 4
        params = ldpm.new_denoiser(d, h, e, substream(0, "count"))
        want = (d + e) * h + h + h * h + h + h * d + d
        assert params.net.param_count() == want
