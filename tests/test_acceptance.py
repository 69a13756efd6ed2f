"""End-to-end acceptance checks.

Each test records one PASS/FAIL line (printed in the terminal summary)
and then asserts it.  Tests run in an order that reuses the session's
cached data environments: all seed-0 work first, other seeds after.
"""

import re
import time
from pathlib import Path

import numpy as np

from roadcache import fed_distill as fd
from roadcache import harness, ldpm, mobility
from roadcache.caching import rank_contents, replacement_scores, top_m
from roadcache.config import MobilityGroup, load_config
from roadcache.report import Report, ReportRow, emit_report
from roadcache.rng import substream

from oracles import cosine_similarity

ALL_SCHEMES = ("proposed", "oracle", "n_tau_greedy", "fedavg", "asyfed", "random")
CAPACITIES = list(range(150, 501, 50))
SPEEDS = [15.0, 20.0, 25.0, 30.0]
SEEDS = [0, 1, 2]


def elapsed(t0):
    return f"{time.perf_counter() - t0:.0f}s"


def test_criterion_1_overhead(env_store, desk_stack, record_criterion):
    t0 = time.perf_counter()
    cfg, _, _, trace = desk_stack
    [proposed] = env_store.evaluate(0, 25.0, "proposed", [500])
    [baseline] = env_store.evaluate(0, 25.0, "fedavg", [500])
    prop_bytes = proposed.uplink_bytes + proposed.downlink_bytes
    base_bytes = baseline.uplink_bytes + baseline.downlink_bytes

    # Independent recount of every proposed-scheme byte from the raw log.
    latent_dim = cfg.codec.latent_dim
    sizes = {
        fd.MSG_HI: fd.hi_bytes(latent_dim),
        fd.MSG_KI: fd.ki_bytes(latent_dim),
        fd.MSG_KNOWLEDGE_DOWN: fd.knowledge_bytes(latent_dim),
        fd.MSG_REC_LIST: fd.rec_list_bytes(cfg.cache.list_m),
    }
    recount = sum(sizes[m.kind] for m in trace.messages)
    up_recount = sum(sizes[m.kind] for m in trace.messages if m.kind in fd.UPLINK_KINDS)

    ratio = prop_bytes / base_bytes if base_bytes else float("inf")
    # Each list is the top-M of its visit's decoded KI, so the RSU could derive these bytes.
    lists = sum(sizes[m.kind] for m in trace.messages if m.kind == fd.MSG_REC_LIST)
    share = lists / prop_bytes if prop_bytes else 0.0
    ok = (prop_bytes == recount
          and proposed.uplink_bytes == up_recount
          and base_bytes > 0
          and ratio < 0.02)
    record_criterion(
        "criterion-1 communication overhead",
        ok,
        f"proposed {prop_bytes} B == ledger recount {recount} B, of which REC_LIST {lists} B "
        f"({share:.1%}); model exchange {base_bytes} B; "
        f"ratio {ratio:.2e} < 0.02 [{elapsed(t0)}]")


def test_readme_quick_start_row_is_the_desk_run(desk_stack):
    """README's Quick start CSV is what ``roadcache run --config configs/desk.cfg`` prints."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    [shown] = [block for block in re.findall(r"```\n(.*?)```", quick_start, re.S)
               if block.startswith("scheme,")]
    cfg, data, motion, trace = desk_stack
    capacity = cfg.cache.capacity_n
    [metrics], _ = harness.evaluate_caching(cfg, data, motion, trace, cfg.sim.scheme, [capacity])
    row = ReportRow.build(cfg.sim.scheme, capacity, cfg.mobility.mu, cfg.sim.seed, metrics)
    assert shown == emit_report(Report(rows=[row])).decode()


def test_criterion_2_capacity_monotonicity(env_store, record_criterion):
    t0 = time.perf_counter()
    table = {}
    for scheme in ALL_SCHEMES:
        table[scheme] = [m.hit_pct() for m in env_store.evaluate(0, 25.0, scheme, CAPACITIES)]
    nondecreasing = all(
        b >= a - 1e-9
        for hits in table.values()
        for a, b in zip(hits, hits[1:]))
    first, last = table["proposed"][0], table["proposed"][-1]
    ok = nondecreasing and last > first
    worst = min(
        (b - a for hits in table.values() for a, b in zip(hits, hits[1:])),
        default=0.0)
    record_criterion(
        "criterion-2 capacity sweep",
        ok,
        f"6 schemes x {len(CAPACITIES)} capacities nondecreasing "
        f"(worst step {worst:+.3f}pp); proposed {first:.2f}% -> {last:.2f}% "
        f"at 150 -> 500 [{elapsed(t0)}]")


def test_criterion_4_speed_robustness(env_store, record_criterion):
    t0 = time.perf_counter()
    prop = [env_store.evaluate(0, v, "proposed", [500])[0].hit_pct() for v in SPEEDS]
    fed = [env_store.evaluate(0, v, "fedavg", [500])[0].hit_pct() for v in SPEEDS]
    spread = max(prop) - min(prop)
    fed_monotone = all(b <= a + 1e-9 for a, b in zip(fed, fed[1:]))
    ok = spread < 2.0 and fed_monotone
    record_criterion(
        "criterion-4 speed robustness",
        ok,
        f"proposed hit% over {SPEEDS} m/s: "
        f"{', '.join(f'{h:.2f}' for h in prop)} (spread {spread:.2f}pp < 2); "
        f"model exchange nonincreasing: {', '.join(f'{h:.2f}' for h in fed)} "
        f"[{elapsed(t0)}]")


def _fd_rel_error(params, make_loss, h=1e-5):
    flat0 = params.net.flat_params().copy()
    _, analytic = make_loss()
    numeric = np.zeros_like(flat0)
    for i in range(flat0.size):
        bump = flat0.copy()
        bump[i] += h
        params.net.set_flat_params(bump)
        hi = make_loss()[0]
        bump[i] -= 2 * h
        params.net.set_flat_params(bump)
        lo = make_loss()[0]
        numeric[i] = (hi - lo) / (2 * h)
    params.net.set_flat_params(flat0)
    denom = max(float(np.linalg.norm(analytic)), 1e-12)
    return float(np.linalg.norm(analytic - numeric)) / denom


def _objective_and_grad(params, x0, target, sched, rng, weight=0.0):
    """One visit's objective, on a stack of one, and the flat gradient it leaves."""
    [loss] = ldpm.objective(params, x0[None], [target], sched, [rng], weight=weight,
                            temperature=2.0)
    return loss, params.net.flat_grads()


def test_criterion_5_generative_model(env_store, record_criterion):
    t0 = time.perf_counter()
    parts = []

    # (a) forward-noising moments against Monte Carlo.
    sched = ldpm.build_schedule(50)
    ab = sched.alpha_bar[-1]
    x0 = np.array([1.0, -0.5, 0.25, 2.0])
    n = 10_000
    eps = substream(0, "c5-mc").standard_normal((n, 4))
    xt = ldpm.forward_noise(np.tile(x0, (n, 1)), np.full(n, 50), eps, sched)
    mean_err = float(np.abs(xt.mean(axis=0) - np.sqrt(ab) * x0).max())
    var_err = float(np.abs(xt.var(axis=0) - (1 - ab)).max() / (1 - ab))
    mc_ok = mean_err < 4.0 * np.sqrt((1 - ab) / n) and var_err < 0.05
    parts.append(f"noising MC mean err {mean_err:.4f}, var err {var_err:.3f}")

    # (b) analytic gradients against central finite differences.
    x_fd = substream(0, "c5-fd").normal(size=(3, 4))
    params = ldpm.stack([ldpm.new_denoiser(4, 6, 4, substream(1, "c5-fd"))])
    rel_simple = _fd_rel_error(
        params, lambda: _objective_and_grad(params, x_fd, None, ldpm.build_schedule(10),
                                            substream(2, "c5-fd")))
    target = substream(3, "c5-fd").normal(size=4)
    rel_distill = _fd_rel_error(
        params, lambda: _objective_and_grad(params, x_fd, target, ldpm.build_schedule(10),
                                            substream(2, "c5-fd"), weight=1.5))
    fd_ok = rel_simple < 1e-4 and rel_distill < 1e-4
    parts.append(f"FD rel err plain {rel_simple:.2e} / distilled {rel_distill:.2e}")

    # (c) a single repeated latent is recovered by the sampler mean.
    zstar = substream(1, "zs").normal(size=16)
    zstar = 2.0 * zstar / np.linalg.norm(zstar)
    deep_sched = ldpm.build_schedule(1000)
    net = ldpm.stack([ldpm.new_denoiser(16, 128, 16, substream(0, "sm", "net"))])
    ldpm.local_train(net, np.tile(zstar, (1, 32, 1)), [None], deep_sched,
                     epochs=1200, lr=5e-3, batch_size=32, rngs=[substream(0, "sm", "tr")],
                     weight=0.0, temperature=2.0)
    [draws] = ldpm.sample(net, deep_sched, 500, [substream(0, "sm", "sa")])
    rel = float(np.linalg.norm(draws.mean(axis=0) - zstar) / np.linalg.norm(zstar))
    mode_ok = rel < 0.15
    parts.append(f"mode recovery rel err {rel:.3f} < 0.15 (500 draws)")

    # (d) the training loss falls by half on real vehicle latents, with
    # and without the distillation pull.
    cfg = env_store.config_for(0, 25.0)
    data = env_store.data_env(0)
    desk_sched = ldpm.build_schedule(cfg.ldpm.steps)
    falls = []
    for lam in (0.0, 1.0):
        trajs = []
        for vid in range(5):
            latents = data.latents[vid]
            mu, sd = fd.latent_standardizer(latents)
            std = (latents - mu) / sd
            net_v = ldpm.stack([ldpm.new_denoiser(cfg.codec.latent_dim, cfg.ldpm.hidden,
                                                  cfg.ldpm.time_embed,
                                                  substream(0, "descent", vid, "net"))])
            target = std.mean(axis=0) if lam > 0 else None
            [losses] = ldpm.local_train(net_v, std[None], [target], desk_sched, 300,
                                        cfg.ldpm.lr, cfg.ldpm.batch,
                                        [substream(0, "descent", vid, "tr")],
                                        weight=lam, temperature=cfg.ldpm.temperature)
            trajs.append(losses)
        mean_traj = np.mean(trajs, axis=0)
        smooth = np.convolve(mean_traj, np.ones(10) / 10, mode="valid")
        falls.append((lam, 1.0 - smooth[-1] / smooth[0], smooth[-1] < smooth[9]))
    descent_ok = all(fall >= 0.5 and still_below for _, fall, still_below in falls)
    parts.append("loss fall " + ", ".join(
        f"{fall * 100:.0f}% (weight {lam:g})" for lam, fall, _ in falls))

    ok = mc_ok and fd_ok and mode_ok and descent_ok
    record_criterion("criterion-5 generative model", ok,
                     "; ".join(parts) + f" [{elapsed(t0)}]")


def test_criterion_3_scheme_dominance(env_store, record_criterion):
    t0 = time.perf_counter()
    means = {}
    for scheme in ("oracle", "proposed", "n_tau_greedy"):
        means[scheme] = float(np.mean(
            [env_store.evaluate(seed, 25.0, scheme, [500])[0].hit_pct() for seed in SEEDS]))
    ok = means["oracle"] > means["proposed"] > means["n_tau_greedy"]
    record_criterion(
        "criterion-3 scheme dominance",
        ok,
        f"3-seed mean hit%: oracle {means['oracle']:.2f} > "
        f"proposed {means['proposed']:.2f} > "
        f"history-greedy {means['n_tau_greedy']:.2f} [{elapsed(t0)}]")


def test_criterion_6_protocol_oracles(record_criterion):
    t0 = time.perf_counter()
    trials = 100

    neighbor_ok = 0
    for i in range(trials):
        rng = substream(6, "nbr", i)
        n = int(rng.integers(5, 16))
        kc = fd.KnowledgeCache(rsu_id=0)
        for vid in range(n):
            fd.upsert_hi(kc, fd.HIPair(hash=rng.normal(size=4), vehicle_id=vid,
                                       upload_time=float(vid)))
        own_id = int(rng.integers(0, n))
        count = int(rng.integers(1, 6))
        gamma = float(rng.uniform(-1.0, 0.9))
        own = kc.hi[own_id].hash
        want = sorted(
            ((cosine_similarity(own, kc.hi[v].hash), v)
             for v in range(n) if v != own_id),
            key=lambda item: (-item[0], item[1]))
        want = [v for s, v in want if s >= gamma][:count]
        if fd.find_neighbors(kc, own_id, count=count, gamma=gamma) == want:
            neighbor_ok += 1

    top_ok = 0
    for i in range(trials):
        rng = substream(6, "top", i)
        k = int(rng.integers(20, 201))
        scores = np.round(rng.uniform(0, 1, size=k), 1)
        m = int(rng.integers(1, k + 1))
        want = sorted(range(1, k + 1), key=lambda c: (-scores[c - 1], c))[:m]
        if top_m(scores, m).tolist() == want:
            top_ok += 1

    update_ok = 0
    for i in range(trials):
        rng = substream(6, "upd", i)
        k = int(rng.integers(20, 201))
        # Coarse positions and two speeds make equal weights, so ties occur.
        members = [(rng.choice(k, size=int(rng.integers(1, k // 2)), replace=False) + 1
                    if rng.uniform() < 0.8 else None,
                    float(100 * rng.integers(0, 6)), float(rng.choice([20.0, 25.0])))
                   for _ in range(int(rng.integers(0, 9)))]
        capacity = int(rng.integers(1, k + 1))
        votes = [0.0] * k
        for contents, position, speed in members:
            for c in contents if contents is not None else ():
                votes[c - 1] += 0.1 * (500.0 - position) / speed
        want = sorted(range(1, k + 1), key=lambda c: (-votes[c - 1], c))[:capacity]
        got = rank_contents(replacement_scores(members, 0.1, 500.0, k))[:capacity]
        if got.tolist() == want:
            update_ok += 1

    oracle_ok = 0
    for i in range(trials):
        rng = substream(6, "win", i)
        k = int(rng.integers(10, 101))
        window = rng.integers(1, k + 1, size=int(rng.integers(0, 300)))
        capacity = int(rng.integers(1, k + 1))
        counts = {c: int((window == c).sum()) for c in range(1, k + 1)}
        want = sorted(range(1, k + 1), key=lambda c: (-counts[c], c))[:capacity]
        ranking, _ = harness.oracle_policy(window, k)
        if ranking[:capacity].tolist() == want:
            oracle_ok += 1

    ok = neighbor_ok == top_ok == update_ok == oracle_ok == trials
    record_criterion(
        "criterion-6 protocol oracle equivalence",
        ok,
        f"{trials} fixtures each: neighbors {neighbor_ok}, list {top_ok}, "
        f"replacement {update_ok}, window {oracle_ok} matches [{elapsed(t0)}]")


SMALL_CFG = [
    "sim.seed=3",
    "sim.duration=120",
    "sim.scheme=proposed",
    "data.path=synth://users=30,contents=80,seed=7",
    "data.num_vehicles=6",
    "codec.latent_dim=8",
    "ldpm.T=5",
    "ldpm.F=8",
    "ldpm.episodes=3",
    "cache.capacity_n=10",
    "cache.list_m=20",
]


def test_criterion_7_determinism(tmp_path, record_criterion):
    t0 = time.perf_counter()
    outputs = []
    for tag in ("first", "second"):
        cfg = load_config(None, list(SMALL_CFG))
        trace_path = tmp_path / f"{tag}.trace"
        dump_path = tmp_path / f"{tag}.cache"
        report = harness.run_simulation(cfg, trace_path=str(trace_path),
                                        cache_dump_path=str(dump_path))
        outputs.append((emit_report(report), trace_path.read_bytes(),
                        dump_path.read_bytes()))
    same = outputs[0] == outputs[1]
    record_criterion(
        "criterion-7 determinism",
        same and len(outputs[0][1]) > 0,
        f"repeated run: report {len(outputs[0][0])} B, message ledger "
        f"{len(outputs[0][1])} B, cache ledger {len(outputs[0][2])} B, "
        f"all byte-identical [{elapsed(t0)}]")


def test_criterion_8_speed_sampler(record_criterion):
    t0 = time.perf_counter()
    dist = MobilityGroup(25.0, 5.0, 15.0, 35.0)

    grid = np.linspace(dist.v_min, dist.v_max, 200_001)
    pdf = mobility.truncated_gaussian_pdf(grid, dist)
    mass = float(np.trapezoid(pdf, grid))
    norm_ok = abs(mass - 1.0) <= 1e-6

    step = grid[1] - grid[0]
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * step)])
    cdf /= cdf[-1]
    rng = substream(0, "c8")
    draws = np.sort([mobility.sample_speed(dist, rng) for _ in range(100_000)])
    quad = np.interp(draws, grid, cdf)
    empirical_hi = np.arange(1, len(draws) + 1) / len(draws)
    empirical_lo = np.arange(0, len(draws)) / len(draws)
    ks = float(max(np.abs(quad - empirical_hi).max(), np.abs(quad - empirical_lo).max()))
    ks_ok = ks < 0.01

    record_criterion(
        "criterion-8 speed sampler",
        norm_ok and ks_ok,
        f"pdf quadrature mass {mass:.9f} (within 1e-6); "
        f"KS vs quadrature CDF {ks:.5f} < 0.01 at 1e5 draws [{elapsed(t0)}]")
