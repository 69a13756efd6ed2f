"""What the benchmark records about each roadcache layer, and the metrics made from it.

`Recorder` holds the observers that `Tracer.install` attaches to the
package's public functions.  Three of them run on every benchmark run:
the motion env and the protocol trace per (job, seed, speed) stack, which
the output checks and the result fingerprint are built from together with
the public report rows, and per-cell counters from `evaluate_caching`,
which only add a cross-check while that function still returns them.  The
rest only run in a traced run.  `layer_metrics` turns a traced run into
the per-layer metrics named in `PER_LAYER`; `BENCHMARK.json` lists the
same names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from tracer import Tracer, dense_macs

WINDOW_SCHEMES = ("oracle", "n_tau_greedy", "random")
TRACE_SCHEMES = ("proposed", "fedavg", "asyfed")     # schemes that replay the protocol trace


@dataclass
class Stack:
    """One protocol phase: its config and trace."""

    cfg: object
    trace: object


def stack_key(job: int, cfg) -> tuple[int, int, float]:
    return job, int(cfg.sim.seed), float(cfg.mobility.mu)


@dataclass
class Recorder:
    job: int = 0
    setup_end: float | None = None
    motions: dict[tuple, object] = field(default_factory=dict)
    stacks: dict[tuple, Stack] = field(default_factory=dict)
    # (job, seed, speed, scheme, capacity) -> (hits, misses, uplink, downlink bytes)
    counters: dict[tuple, tuple] = field(default_factory=dict)
    eval_seconds: dict[str, float] = field(default_factory=dict)
    fl_keys: set = field(default_factory=set)
    fl_calls: int = 0
    segments: int = 0
    decode_rows: int = 0
    decode_flop: float = 0.0
    visits_proceeded: int = 0
    visits_with_knowledge: int = 0
    sgd_steps: int = 0
    train_flop: float = 0.0
    draw_steps: int = 0
    sample_flop: float = 0.0

    # --- observers of every run ------------------------------------------

    def on_motion(self, args, motion, seconds):
        if self.setup_end is None:
            self.setup_end = time.perf_counter()
        self.motions[stack_key(self.job, args["cfg"])] = motion

    def on_protocol(self, args, trace, seconds):
        self.stacks[stack_key(self.job, args["cfg"])] = Stack(args["cfg"], trace)

    def on_eval(self, args, result, seconds):
        scheme = args["scheme"]
        self.eval_seconds[scheme] = self.eval_seconds.get(scheme, 0.0) + seconds
        metrics = result[0] if isinstance(result, tuple) else result
        hits = getattr(metrics, "hits", None)
        misses = getattr(metrics, "misses", None)
        capacity = args.get("capacity")
        if not all(isinstance(v, (int, np.integer)) for v in (hits, misses, capacity)):
            return   # not one cell's counters (say, a whole hit curve): no cross-check
        key = (*stack_key(self.job, args["cfg"]), scheme, int(capacity))
        self.counters[key] = (int(hits), int(misses), getattr(metrics, "uplink_bytes", None),
                              getattr(metrics, "downlink_bytes", None))

    # --- observers of a traced run ---------------------------------------

    def on_fl(self, args, result, seconds):
        cfg = args["cfg"]
        self.fl_calls += 1
        self.fl_keys.add((args["kind"], cfg.sim.seed, cfg.mobility.mu))

    def on_rollout(self, args, timeline, seconds):
        self.segments += len(timeline.segments)

    def on_decode(self, args, result, seconds):
        rows = len(result) if getattr(result, "ndim", 1) == 2 else 1
        self.decode_rows += rows
        self.decode_flop += 2.0 * rows * dense_macs(args["codec"].decoder)

    def on_begin(self, args, begun, seconds):
        if begun.proceed:
            self.visits_proceeded += 1
            self.visits_with_knowledge += begun.integrated is not None

    def on_train(self, args, result, seconds):
        n = len(np.atleast_2d(args["latents"]))
        if n == 0:
            return
        epochs = int(args["epochs"])
        size = min(int(args["batch_size"]), n)
        self.sgd_steps += epochs * -(-n // size)
        # forward plus backward: the backward pass costs two forward matmuls
        self.train_flop += 3 * 2.0 * epochs * n * dense_macs(args["params"].net)

    def on_sample(self, args, result, seconds):
        steps = int(args["count"]) * int(args["sched"].steps)
        self.draw_steps += steps
        self.sample_flop += 2.0 * steps * dense_macs(args["params"].net)


# target -> observer method; the first three run on every benchmark run
CHECK_TARGETS = {
    "harness.build_motion_env": "on_motion",
    "harness.simulate_protocol": "on_protocol",
    "harness.evaluate_caching": "on_eval",
}
TRACE_TARGETS = {
    "harness.build_data_env": None,
    "harness.parameter_exchange_baseline": "on_fl",
    "dataset.load_ratings": None,
    "dataset.partition_users": None,
    "dataset.generate_requests": None,
    "mobility.rollout": "on_rollout",
    "latent_codec.pretrain_codec": None,
    "latent_codec.fine_tune": None,
    "latent_codec.encode": None,
    "latent_codec.decode": "on_decode",
    "fed_distill.begin_visit": "on_begin",
    "fed_distill.find_neighbors": None,
    "fed_distill.merge_kc": None,
    "fed_distill.train_and_predict": None,
    "fed_distill.complete_visit": None,
    "ldpm.local_train": "on_train",
    "ldpm.sample": "on_sample",
    "caching.rank_contents": None,
    "caching.top_m": None,
}


def install(tracer: Tracer, rec: Recorder) -> None:
    targets = dict(CHECK_TARGETS)
    if tracer.timed:
        targets.update(TRACE_TARGETS)
    for target, method in targets.items():
        tracer.install(target, getattr(rec, method) if method else None)


def _visits_in_flight(rec: Recorder) -> float | None:
    """Time-averaged count of visits computing at once: completed visits x budget / duration."""
    means = [st.trace.completed_visits * st.cfg.compute.visit_seconds / st.cfg.sim.duration
             for st in rec.stacks.values() if st.cfg.sim.duration > 0]
    return sum(means) / len(means) if means else None


def _ratio(num: float, den: float, empty: float) -> float:
    return num / den if den else empty


def _per_layer_table():
    """(name, unit, better, getter(rec, tracer)) for every per-layer metric."""
    table = []

    def timed(target):
        def get(rec, tr):
            st = tr.stats.get(target)
            return None if st is None else st.self_s
        return get

    def calls(target):
        def get(rec, tr):
            st = tr.stats.get(target)
            return None if st is None else st.calls
        return get

    def observed(target, fn):
        def get(rec, tr):
            if target not in tr.stats or target in tr.observer_errors:
                return None
            return fn(rec)
        return get

    def add(name, unit, better, getter):
        table.append((name, unit, better, getter))

    ev = "harness.evaluate_caching"
    fl = "harness.parameter_exchange_baseline"
    add("harness.build_data_env.s", "s", "lower", timed("harness.build_data_env"))
    add("harness.build_motion_env.s", "s", "lower", timed("harness.build_motion_env"))
    add("harness.simulate_protocol.s", "s", "lower", timed("harness.simulate_protocol"))
    add("harness.evaluate_caching.calls", "count", "lower", calls(ev))
    add("harness.evaluate_caching.s", "s", "lower", timed(ev))
    for scheme in ("proposed", "fedavg", "asyfed"):
        add(f"harness.evaluate_caching.{scheme}.s", "s", "lower",
            observed(ev, lambda r, s=scheme: r.eval_seconds.get(s, 0.0)))
    add("harness.evaluate_caching.window.s", "s", "lower",
        observed(ev, lambda r: sum(r.eval_seconds.get(s, 0.0) for s in WINDOW_SCHEMES)))
    add(f"{fl}.calls", "count", "lower", calls(fl))
    add(f"{fl}.s", "s", "lower", timed(fl))
    add(f"{fl}.useful_ratio", "ratio", "higher",
        observed(fl, lambda r: _ratio(len(r.fl_keys), r.fl_calls, 1.0)))
    add("harness.visits_in_flight.mean", "count", "higher",
        observed("harness.simulate_protocol", _visits_in_flight))

    add("dataset.load_ratings.s", "s", "lower", timed("dataset.load_ratings"))
    add("dataset.partition_users.s", "s", "lower", timed("dataset.partition_users"))
    add("dataset.generate_requests.s", "s", "lower", timed("dataset.generate_requests"))
    me = "harness.build_motion_env"
    add("dataset.requests", "count", "higher", observed(
        me, lambda r: sum(len(m.request_times) for m in r.motions.values())))
    add("dataset.dropped_requests", "count", "lower", observed(
        me, lambda r: sum(m.dropped_requests for m in r.motions.values())))

    add("mobility.rollout.s", "s", "lower", timed("mobility.rollout"))
    add("mobility.segments", "count", "higher", observed("mobility.rollout", lambda r: r.segments))

    dec = "latent_codec.decode"
    add("latent_codec.pretrain_codec.s", "s", "lower", timed("latent_codec.pretrain_codec"))
    add("latent_codec.fine_tune.calls", "count", "lower", calls("latent_codec.fine_tune"))
    add("latent_codec.fine_tune.s", "s", "lower", timed("latent_codec.fine_tune"))
    add("latent_codec.encode.s", "s", "lower", timed("latent_codec.encode"))
    add(f"{dec}.calls", "count", "lower", calls(dec))
    add(f"{dec}.s", "s", "lower", timed(dec))
    add(f"{dec}.rows", "count", "lower", observed(dec, lambda r: r.decode_rows))
    add(f"{dec}.gflop", "GFLOP", "lower", observed(dec, lambda r: r.decode_flop / 1e9))

    bv = "fed_distill.begin_visit"
    add(f"{bv}.calls", "count", "lower", calls(bv))
    add(f"{bv}.s", "s", "lower", timed(bv))
    add("fed_distill.find_neighbors.calls", "count", "lower", calls("fed_distill.find_neighbors"))
    add("fed_distill.find_neighbors.s", "s", "lower", timed("fed_distill.find_neighbors"))
    add("fed_distill.knowledge_ratio", "ratio", "higher",
        observed(bv, lambda r: _ratio(r.visits_with_knowledge, r.visits_proceeded, 0.0)))
    sp = "harness.simulate_protocol"
    add("fed_distill.visits_completed", "count", "higher", observed(
        sp, lambda r: sum(s.trace.completed_visits for s in r.stacks.values())))
    add("fed_distill.visits_aborted", "count", "lower", observed(
        sp, lambda r: sum(s.trace.aborted_visits for s in r.stacks.values())))
    add("fed_distill.merge_kc.calls", "count", "lower", calls("fed_distill.merge_kc"))
    add("fed_distill.merge_kc.s", "s", "lower", timed("fed_distill.merge_kc"))
    add("fed_distill.train_and_predict.s", "s", "lower", timed("fed_distill.train_and_predict"))
    add("fed_distill.complete_visit.s", "s", "lower", timed("fed_distill.complete_visit"))

    lt, sm = "ldpm.local_train", "ldpm.sample"
    add(f"{lt}.calls", "count", "lower", calls(lt))
    add(f"{lt}.s", "s", "lower", timed(lt))
    add(f"{lt}.sgd_steps", "count", "lower", observed(lt, lambda r: r.sgd_steps))
    add(f"{lt}.gflop", "GFLOP", "lower", observed(lt, lambda r: r.train_flop / 1e9))
    add(f"{sm}.calls", "count", "lower", calls(sm))
    add(f"{sm}.s", "s", "lower", timed(sm))
    add(f"{sm}.draw_steps", "count", "lower", observed(sm, lambda r: r.draw_steps))
    add(f"{sm}.gflop", "GFLOP", "lower", observed(sm, lambda r: r.sample_flop / 1e9))

    add("caching.rank_contents.calls", "count", "lower", calls("caching.rank_contents"))
    add("caching.rank_contents.s", "s", "lower", timed("caching.rank_contents"))
    add("caching.top_m.calls", "count", "lower", calls("caching.top_m"))
    add("caching.top_m.s", "s", "lower", timed("caching.top_m"))

    add("trace.overhead_s", "s", "lower", lambda rec, tr: tr.overhead_s)
    return table


PER_LAYER = _per_layer_table()


def layer_metrics(rec: Recorder, tracer: Tracer) -> dict[str, dict]:
    """Every per-layer metric this run could measure; absent targets are left out."""
    out = {}
    for name, unit, _, getter in PER_LAYER:
        value = getter(rec, tracer)
        if value is not None:
            out[name] = {"value": value, "unit": unit}
    return out
