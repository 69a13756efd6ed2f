"""Latent diffusion denoiser: schedule, objectives, gradients, sampling."""

import mpmath
import numpy as np
import pytest

from roadcache import ldpm
from roadcache.errors import TrainingError
from roadcache.rng import substream

from oracles import kl_tempered


def loss_and_grad(params, x0, target, sched, rng, weight=1.0, temperature=2.0):
    """One visit's training objective, on a one-slice stack, and the flat gradient it leaves."""
    [loss] = ldpm.objective(params, x0[None], [target], sched, [rng], weight=weight,
                            temperature=temperature)
    return loss, params.net.flat_grads()


def toy_model(latent_dim=4, hidden=8, temb=4, label="toy"):
    return ldpm.new_denoiser(latent_dim, hidden, temb, substream(11, label))


def toy_stack(latent_dim=4, hidden=8, temb=4, label="toy"):
    """``toy_model`` as a stack of one; the same label always builds the same network."""
    return ldpm.stack([toy_model(latent_dim, hidden, temb, label)])


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
        assert kl_tempered(g, g, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_shift_invariance(self):
        g = np.array([0.5, 1.5, -0.5])
        assert kl_tempered(g + 7.0, g, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_and_positive_when_different(self):
        rng = substream(0, "kl")
        for _ in range(100):
            g = rng.normal(size=6)
            target = rng.normal(size=6)
            kl = kl_tempered(g, target, 2.0)
            assert kl >= -1e-12
        assert kl_tempered(np.array([3.0, 0.0]), np.array([0.0, 3.0]), 2.0) > 0.01

    def test_high_temperature_flattens(self):
        g = np.array([2.0, -1.0, 0.5, 1.5])
        target = np.array([-0.5, 1.0, 2.0, 0.0])
        assert kl_tempered(g, target, 100.0) < kl_tempered(g, target, 2.0)


class TestObjectives:
    def test_zero_network_loss_near_dimension(self):
        # eps_hat == 0 everywhere, so the loss is the mean squared norm of
        # standard normal noise: the latent dimension in expectation.
        d = 6
        params = toy_stack(latent_dim=d, hidden=8, temb=4, label="zero-net")
        params.net.set_flat_params(np.zeros(params.net.flat_params().size))
        sched = ldpm.build_schedule(50)
        x0 = np.zeros((10_000, d))
        loss, grad = loss_and_grad(params, x0, None, sched, substream(0, "zero-net"))
        assert loss == pytest.approx(d, rel=0.05)
        assert grad.shape == (params.net.flat_params().size,)

    def test_distill_weight_zero_matches_simple(self):
        sched = ldpm.build_schedule(20)
        x0 = substream(0, "noctx").normal(size=(5, 4))
        loss_a, grad_a = loss_and_grad(toy_stack(label="noctx"), x0, None, sched,
                                       substream(1, "noctx"))
        loss_b, grad_b = loss_and_grad(toy_stack(label="noctx"), x0, np.ones(4), sched,
                                       substream(1, "noctx"), weight=0.0)
        assert loss_a == loss_b
        assert np.array_equal(grad_a, grad_b)

    def test_missing_knowledge_matches_simple(self):
        sched = ldpm.build_schedule(20)
        x0 = substream(0, "nok").normal(size=(5, 4))
        loss_a, grad_a = loss_and_grad(toy_stack(label="nok"), x0, None, sched,
                                       substream(1, "nok"), weight=0.0)
        loss_b, grad_b = loss_and_grad(toy_stack(label="nok"), x0, None, sched,
                                       substream(1, "nok"), weight=1.0)
        assert loss_a == loss_b
        assert np.array_equal(grad_a, grad_b)

    def test_distillation_adds_positive_term(self):
        sched = ldpm.build_schedule(20)
        x0 = substream(0, "addkl").normal(size=(8, 4))
        target = np.array([4.0, 0.0, -4.0, 0.0])
        loss_plain, _ = loss_and_grad(toy_stack(label="addkl"), x0, None, sched,
                                      substream(1, "addkl"))
        loss_kd, _ = loss_and_grad(toy_stack(label="addkl"), x0, target, sched,
                                   substream(1, "addkl"))
        assert loss_kd > loss_plain

    def test_distilled_loss_is_plain_plus_weighted_kl(self):
        """The distillation term is weight x the tempered KL of the implied clean latents,
        recomputed without ldpm."""
        params = toy_model(label="klref")
        sched = ldpm.build_schedule(20)
        x0 = substream(0, "klref").normal(size=(6, 4))
        target = np.array([1.0, -2.0, 0.5, 3.0])
        weight, temperature = 0.7, 3.0
        plain, _ = loss_and_grad(toy_stack(label="klref"), x0, None, sched, substream(1, "klref"))
        distilled, _ = loss_and_grad(toy_stack(label="klref"), x0, target, sched,
                                     substream(1, "klref"), weight=weight,
                                     temperature=temperature)
        rng = substream(1, "klref")
        t = rng.integers(1, sched.steps + 1, size=6)
        xt = ldpm.forward_noise(x0, t, rng.standard_normal((6, 4)), sched)
        eps_hat = ldpm.predict_noise(params, xt, sched.embedding_table(4)[t - 1])
        ab = sched.alpha_bar[t - 1][:, None]
        x0_hat = (xt - np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(ab)
        kl = kl_tempered(x0_hat, target, temperature)
        assert distilled == pytest.approx(plain + weight * kl, rel=1e-12)

    def test_empty_batch_rejected(self):
        params = toy_stack(label="empty")
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
        params = toy_stack(latent_dim=4, hidden=6, temb=4, label="fd-simple")
        sched = ldpm.build_schedule(10)
        x0 = substream(0, "fd-simple").normal(size=(3, 4))

        def make_loss():
            return loss_and_grad(params, x0, None, sched, substream(1, "fd-simple"))

        assert self._fd_check(make_loss, params) < 1e-4

    def test_distill_loss_matches_finite_differences(self):
        params = toy_stack(latent_dim=4, hidden=6, temb=4, label="fd-kd")
        sched = ldpm.build_schedule(10)
        x0 = substream(0, "fd-kd").normal(size=(3, 4))
        target = substream(2, "fd-kd").normal(size=4)

        def make_loss():
            return loss_and_grad(params, x0, target, sched, substream(1, "fd-kd"), weight=1.5)

        assert self._fd_check(make_loss, params) < 1e-4


class TestLocalTrain:
    def test_zero_epochs_noop(self):
        params = toy_stack(label="noop")
        before = params.net.flat_params().copy()
        sched = ldpm.build_schedule(10)
        latents = substream(0, "noop").normal(size=(1, 6, 4))
        losses = ldpm.local_train(params, latents, [None], sched, epochs=0,
                                  lr=0.01, batch_size=4, rngs=[substream(1, "noop")],
                                  weight=1.0, temperature=2.0)
        assert losses == [[]]
        assert np.array_equal(params.net.flat_params(), before)

    def test_empty_latents_noop(self):
        params = toy_stack(label="nolat")
        before = params.net.flat_params().copy()
        sched = ldpm.build_schedule(10)
        losses = ldpm.local_train(params, np.zeros((1, 0, 4)), [None], sched, epochs=5,
                                  lr=0.01, batch_size=4, rngs=[substream(1, "nolat")],
                                  weight=1.0, temperature=2.0)
        assert losses == [[]]
        assert np.array_equal(params.net.flat_params(), before)

    def test_reproducible(self):
        sched = ldpm.build_schedule(20)
        latents = substream(0, "repro").normal(size=(1, 12, 4))
        runs = []
        for _ in range(2):
            params = toy_stack(label="repro-net")
            losses = ldpm.local_train(params, latents, [np.ones(4)], sched, epochs=4,
                                      lr=0.01, batch_size=4,
                                      rngs=[substream(1, "repro-train")],
                                      weight=0.5, temperature=2.0)
            runs.append((losses, params.net.flat_params()))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_records_one_loss_per_epoch(self):
        params = toy_stack(label="traj")
        sched = ldpm.build_schedule(10)
        latents = substream(0, "traj").normal(size=(1, 10, 4))
        [losses] = ldpm.local_train(params, latents, [None], sched, epochs=7,
                                    lr=0.005, batch_size=4, rngs=[substream(1, "traj")],
                                    weight=1.0, temperature=2.0)
        assert len(losses) == 7
        assert all(np.isfinite(v) for v in losses)


class TestSample:
    def test_shapes(self):
        params = toy_stack(label="shape")
        sched = ldpm.build_schedule(10)
        out = ldpm.sample(params, sched, 13, [substream(0, "shape")])
        assert out.shape == (1, 13, 4)
        assert np.all(np.isfinite(out))

    def test_zero_count(self):
        params = toy_stack(label="zcount")
        sched = ldpm.build_schedule(10)
        out = ldpm.sample(params, sched, 0, [substream(0, "zcount")])
        assert out.shape == (1, 0, 4)

    def test_deterministic_under_stream(self):
        params = toy_stack(label="det")
        sched = ldpm.build_schedule(25)
        a = ldpm.sample(params, sched, 8, [substream(3, "det")])
        b = ldpm.sample(params, sched, 8, [substream(3, "det")])
        assert a.tobytes() == b.tobytes()

    def test_matches_per_step_reference(self):
        """One noise block per visit equals drawing the initial noise, then one per step.

        The reference walks the unstacked network on 2-D rows.
        """
        params = toy_model(label="ref")
        sched = ldpm.build_schedule(12)
        rng = substream(4, "ref")
        x = rng.standard_normal((7, 4))
        table = sched.embedding_table(params.time_embed_dim)
        for t in range(sched.steps, 0, -1):
            eps_hat = ldpm.predict_noise(params, x, np.broadcast_to(table[t - 1], (7, 4)))
            x = ((x - sched.beta[t - 1] / np.sqrt(1.0 - sched.alpha_bar[t - 1]) * eps_hat)
                 / np.sqrt(sched.alpha[t - 1]))
            if t > 1:
                x = x + np.sqrt(sched.beta[t - 1]) * rng.standard_normal((7, 4))
        own = substream(4, "ref")
        [draws] = ldpm.sample(ldpm.stack([params]), sched, 7, [own])
        assert draws.tobytes() == x.tobytes()
        assert own.bit_generator.state == rng.bit_generator.state

    def test_non_finite_guard(self):
        params = toy_stack(label="nanspl")
        flat = params.net.flat_params()
        flat[0] = np.nan
        params.net.set_flat_params(flat)
        sched = ldpm.build_schedule(5)
        with pytest.raises(TrainingError):
            ldpm.sample(params, sched, 4, [substream(0, "nanspl")])


class TestDenoiserConstruction:
    def test_parameter_count(self):
        d, h, e = 4, 8, 4
        params = ldpm.new_denoiser(d, h, e, substream(0, "count"))
        want = (d + e) * h + h + h * h + h + h * d + d
        assert sum(p.size for p in params.net.params()) == want


def momentum(params):
    return np.concatenate([np.concatenate([layer._vw.ravel(), layer._vb.ravel()])
                           for layer in params.net.layers if hasattr(layer, "_vw")])


class TestStacked:
    """A stack of V denoisers computes exactly what V stacks of one compute."""

    def test_stacked_train_and_sample_equal_lone_calls(self):
        for weight, temperature in ((1.0, 2.0), (0.5, 3.0)):
            self.check_stack_equals_lone_calls(weight, temperature)

    @staticmethod
    def check_stack_equals_lone_calls(weight, temperature):
        sched = ldpm.build_schedule(20)
        nets = [toy_model(label=f"stack-{v}") for v in range(5)]
        latents = substream(0, "stack-lat").normal(size=(5, 9, 4))
        knowledge = substream(0, "stack-kd").normal(size=(5, 4))
        # Distilling and target-less visits mixed in one stack.
        targets = [knowledge[0], None, None, knowledge[3], knowledge[4]]
        settings = dict(weight=weight, temperature=temperature)

        def streams(kind):
            return [substream(5, kind, v) for v in range(5)]

        alone = []
        train_after, sample_after = streams("train"), streams("sample")
        for v in range(5):
            own = ldpm.stack([toy_model(label=f"stack-{v}")])
            [losses] = ldpm.local_train(own, latents[v:v + 1], targets[v:v + 1], sched, epochs=3,
                                        lr=0.01, batch_size=4, rngs=[train_after[v]], **settings)
            [draws] = ldpm.sample(own, sched, 6, [sample_after[v]])
            alone.append((own.net.flat_params(), momentum(own), losses, draws))

        stacked = ldpm.stack(nets)
        train_rngs, sample_rngs = streams("train"), streams("sample")
        losses = ldpm.local_train(stacked, latents, targets, sched, epochs=3, lr=0.01,
                                  batch_size=4, rngs=train_rngs, **settings)
        draws = ldpm.sample(stacked, sched, 6, sample_rngs)
        ldpm.unstack(stacked, nets)
        assert draws.shape == (5, 6, 4)
        for v, (weights, mom, own_losses, own_draws) in enumerate(alone):
            assert nets[v].net.flat_params().tobytes() == weights.tobytes()
            assert momentum(nets[v]).tobytes() == mom.tobytes()
            assert losses[v] == own_losses
            assert draws[v].tobytes() == own_draws.tobytes()
            # Each visit consumed exactly the draws it consumes alone.
            assert train_rngs[v].bit_generator.state == train_after[v].bit_generator.state
            assert sample_rngs[v].bit_generator.state == sample_after[v].bit_generator.state

    def test_distillation_reaches_only_its_visits(self):
        sched = ldpm.build_schedule(10)
        latents = substream(0, "only-lat").normal(size=(2, 3, 4))
        target = np.array([4.0, 0.0, -4.0, 0.0])
        plain = ldpm.objective(ldpm.stack([toy_model(label="only-a"), toy_model(label="only-b")]),
                               latents, [None, None], sched,
                               [substream(1, "only", v) for v in range(2)],
                               weight=1.0, temperature=2.0)
        mixed = ldpm.objective(ldpm.stack([toy_model(label="only-a"), toy_model(label="only-b")]),
                               latents, [None, target], sched,
                               [substream(1, "only", v) for v in range(2)],
                               weight=1.0, temperature=2.0)
        assert mixed[0] == plain[0]
        assert mixed[1] > plain[1]

    def test_zero_weight_stack_equals_plain(self):
        """With lambda = 0 a stack of visits holding targets computes the plain objective."""
        sched = ldpm.build_schedule(10)
        latents = substream(0, "zero-lat").normal(size=(3, 5, 4))
        knowledge = substream(0, "zero-kd").normal(size=(3, 4))
        runs = []
        for targets, weight in (([None] * 3, 1.0), (list(knowledge), 0.0)):
            stacked = ldpm.stack([toy_model(label=f"zero-{v}") for v in range(3)])
            loss = ldpm.objective(stacked, latents, targets, sched,
                                  [substream(1, "zero", v) for v in range(3)],
                                  weight=weight, temperature=2.0)
            runs.append((loss.tobytes(), stacked.net.flat_grads().tobytes()))
        assert runs[0] == runs[1]

    def test_embedding_table_rows_equal_time_embedding(self):
        sched = ldpm.build_schedule(50)
        table = sched.embedding_table(16)
        assert table.shape == (50, 16)
        assert sched.embedding_table(16) is table
        for t in range(1, 51):
            assert table[t - 1].tobytes() == ldpm.time_embedding(np.array([t]), 16)[0].tobytes()

    def test_repeated_denoiser_rejected(self):
        net = toy_model(label="twice")
        with pytest.raises(ValueError):
            ldpm.stack([net, net])
