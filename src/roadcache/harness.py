"""Simulation driver: environments, protocol replay, schemes, reports.

A run has two phases.  The protocol phase walks entry, completion, and
cache-merge events in time order, training each vehicle's model on its
visits and recording every over-the-air message plus one per-content
score vector per completed visit.  The evaluation phase replays list
uploads and requests against a chosen caching scheme and capacity; it is
cheap, so capacity sweeps and baseline comparisons reuse one protocol
phase.  Everything draws from named substreams of the run seed, making
whole reports byte-reproducible.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import fed_distill, latent_codec, ldpm
from .caching import LatencyModel, Metrics, rank_contents, replacement_scores, serve, top_m
from .config import SimConfig
from .dataset import (LocalDataset, RatingMatrix, generate_requests, load_ratings,
                      partition_users, split_public_users, user_train_vector)
from .errors import ConfigError, InvariantError
from .fed_distill import (MSG_FL_MODEL_DOWN, MSG_FL_MODEL_UP, MSG_HI, MSG_KI,
                          MSG_KNOWLEDGE_DOWN, MSG_REC_LIST, KnowledgeCache, Message,
                          VisitSetup, hi_bytes, ki_bytes, knowledge_bytes, merge_kc,
                          model_bytes, rec_list_bytes, train_and_predict)
from .mobility import HighwayTopology, SpeedDistribution, VehicleTimeline, residence_time, rollout
from .report import Report, ReportRow
from .rng import substream

TRIGGER_SCHEMES = ("proposed", "fedavg", "asyfed")
WINDOW_SCHEMES = ("oracle", "n_tau_greedy", "random")


# ---------------------------------------------------------------------------
# environments


@dataclass
class DataEnv:
    matrix: RatingMatrix
    locals_: list[LocalDataset]
    codec_base: latent_codec.CodecParams
    codecs: list[latent_codec.CodecParams]
    hashes: np.ndarray
    latents: list[np.ndarray]
    prior_scores: np.ndarray

    @property
    def num_contents(self) -> int:
        return self.matrix.num_contents

    @property
    def num_vehicles(self) -> int:
        return len(self.locals_)


@dataclass
class MotionEnv:
    timelines: list[VehicleTimeline]
    request_times: np.ndarray
    request_vehicles: np.ndarray
    request_contents: np.ndarray
    request_rsus: np.ndarray
    dropped_requests: int
    duration: float
    coverage_length: float
    num_rsus: int


def build_data_env(cfg: SimConfig) -> DataEnv:
    seed = cfg.sim.seed
    matrix = load_ratings(cfg.data.path)
    if cfg.data.subsample_users > 0 and not cfg.data.path.startswith("synth://"):
        users = matrix.distinct_users()
        if cfg.data.subsample_users < len(users):
            # The subsample is pinned to its own stream so the same desk
            # slice is drawn no matter which run seed is in play.
            pick = substream(0, "subsample").permutation(len(users))[: cfg.data.subsample_users]
            matrix = matrix.select_users(users[pick])
    public_ids, rider_ids = split_public_users(matrix, cfg.data.public_fraction, substream(seed, "public"))
    if cfg.data.num_vehicles > len(rider_ids):
        raise ConfigError(
            f"{cfg.data.num_vehicles} vehicles need at least that many riders, "
            f"only {len(rider_ids)} users remain after the public holdout"
        )
    order = np.lexsort((matrix.contents, matrix.timestamps, matrix.users))
    public_vectors = []
    sorted_users = matrix.users[order]
    for uid in public_ids:
        public_vectors.append(user_train_vector(matrix, order[sorted_users == uid]))
    public = np.vstack(public_vectors) if public_vectors else np.zeros((0, matrix.num_contents))

    riders = matrix.select_users(rider_ids)
    locals_ = partition_users(riders, cfg.data.num_vehicles, cfg.data.split_ratio, substream(seed, "partition"))

    if len(public) == 0:
        # No public holdout configured: fall back to the riders' vectors.
        public = np.vstack([loc.user_train_vectors for loc in locals_ if len(loc.user_train_vectors)])
    codec_base, _ = latent_codec.pretrain_codec(
        public, cfg.codec.hidden, cfg.codec.latent_dim, cfg.codec.lr,
        cfg.codec.epochs, cfg.codec.batch, substream(seed, "codec"),
        negative_weight=cfg.codec.negative_weight,
    )
    codecs, hashes, latents = [], [], []
    for loc in locals_:
        tuned = latent_codec.fine_tune(
            codec_base, loc.user_train_vectors, cfg.codec.finetune_epochs,
            cfg.codec.lr, cfg.codec.batch, substream(seed, "finetune", loc.vehicle_id),
            negative_weight=cfg.codec.negative_weight,
        )
        codecs.append(tuned)
        hashes.append(latent_codec.encode(tuned, loc.train_vector))
        latents.append(latent_codec.encode(tuned, loc.user_train_vectors)
                       if len(loc.user_train_vectors) else np.zeros((0, cfg.codec.latent_dim)))
    prior = np.zeros(matrix.num_contents)
    for loc in locals_:
        if len(loc.user_train_vectors):
            prior += loc.user_train_vectors.sum(axis=0)
    return DataEnv(matrix, locals_, codec_base, codecs, np.vstack(hashes), latents, prior)


def build_motion_env(cfg: SimConfig, locals_: list[LocalDataset]) -> MotionEnv:
    seed = cfg.sim.seed
    dist = SpeedDistribution(cfg.mobility.mu, cfg.mobility.sigma, cfg.mobility.v_min, cfg.mobility.v_max)
    topo = HighwayTopology(cfg.topology.num_rsus, cfg.topology.coverage_length)
    timelines = []
    for loc in locals_:
        vid = loc.vehicle_id
        offset = substream(seed, "mobility", "init", vid).uniform(0.0, topo.road_length)
        timelines.append(rollout(
            vid, dist, topo, cfg.sim.duration, substream(seed, "mobility", "speed", vid),
            loop=cfg.sim.loop_road, initial_offset=offset,
        ))
    trace = generate_requests(locals_, timelines, cfg.sim.duration,
                              lambda vid: substream(seed, "requests", vid))
    rsus = np.array([timelines[v].rsu_at(t) for t, v in zip(trace.times, trace.vehicle_ids)],
                    dtype=np.int32) if len(trace) else np.zeros(0, dtype=np.int32)
    keep = rsus >= 0
    return MotionEnv(
        timelines=timelines,
        request_times=trace.times[keep],
        request_vehicles=trace.vehicle_ids[keep],
        request_contents=trace.content_ids[keep],
        request_rsus=rsus[keep],
        dropped_requests=trace.dropped + int((~keep).sum()),
        duration=cfg.sim.duration,
        coverage_length=cfg.topology.coverage_length,
        num_rsus=cfg.topology.num_rsus,
    )


# ---------------------------------------------------------------------------
# protocol phase


@dataclass(frozen=True)
class EntryRecord:
    """One zone entry: who, where, with which list version on board."""

    time: float
    vehicle_id: int
    rsu: int
    entry_position: float
    speed: float
    list_version: int  # -1 before the first completed visit


@dataclass(frozen=True)
class ExitRecord:
    time: float
    vehicle_id: int
    rsu: int


@dataclass
class ProtocolTrace:
    versions: np.ndarray           # (n_versions, K) float32 score vectors
    entries: list[EntryRecord]
    exits: list[ExitRecord]
    messages: list[Message]
    completed_visits: int
    aborted_visits: int
    losses: list[float]            # per-visit mean objective, time order


def simulate_protocol(cfg: SimConfig, data: DataEnv, motion: MotionEnv) -> ProtocolTrace:
    seed = cfg.sim.seed
    duration = cfg.sim.duration
    n_vehicles = data.num_vehicles
    schedule = ldpm.build_schedule(cfg.ldpm.steps)
    denoisers = [
        ldpm.new_denoiser(cfg.codec.latent_dim, cfg.ldpm.hidden, cfg.ldpm.time_embed,
                          substream(seed, "denoiser", vid))
        for vid in range(n_vehicles)
    ]
    kcs = [KnowledgeCache(rsu_id=r) for r in range(motion.num_rsus)]
    list_len = cfg.effective_list_length()

    current_version = [-1] * n_vehicles
    visit_index = [0] * n_vehicles
    versions: list[np.ndarray] = []
    entries: list[EntryRecord] = []
    exits: list[ExitRecord] = []
    messages: list[Message] = []
    losses: list[float] = []
    completed = aborted = 0

    heap: list[tuple] = []
    seq = 0
    tick = cfg.kc.sync_period
    k = 1
    while k * tick < duration:
        heapq.heappush(heap, (k * tick, 0, seq, ("merge", None)))
        seq += 1
        k += 1
    for timeline in motion.timelines:
        for seg in timeline.segments:
            if seg.entry_time < duration:
                heapq.heappush(heap, (seg.entry_time, 1, seq, ("entry", (timeline.vehicle_id, seg))))
                seq += 1
        if timeline.end_time < duration:
            last = timeline.segments[-1]
            exits.append(ExitRecord(timeline.end_time, timeline.vehicle_id, last.rsu_index))

    while heap:
        now, _, _, (kind, payload) = heapq.heappop(heap)
        if kind == "merge":
            merged = merge_kc(kcs)
            kcs = [merged.copy_with_rsu(r) for r in range(motion.num_rsus)]
            continue
        if kind == "entry":
            vid, seg = payload
            kc = kcs[seg.rsu_index]
            residence = residence_time(seg, motion.coverage_length)
            version = current_version[vid]
            entries.append(EntryRecord(now, vid, seg.rsu_index, seg.entry_position, seg.speed, version))
            setup = VisitSetup(
                vehicle_id=vid,
                vehicle_hash=data.hashes[vid],
                carried_list=np.empty(list_len) if version >= 0 else None,
                latents=data.latents[vid],
                denoiser=denoisers[vid],
                codec=data.codecs[vid],
                schedule=schedule,
                distill_weight=cfg.ldpm.distill_weight,
                temperature=cfg.ldpm.temperature,
                episodes=cfg.ldpm.episodes,
                lr=cfg.ldpm.lr,
                batch_size=cfg.ldpm.batch,
                sample_count=cfg.ldpm.sample_count,
                list_length=list_len,
                neighbor_count=cfg.kc.neighbor_count,
                gamma=cfg.kc.gamma,
            )
            begun = fed_distill.begin_visit(kc, setup, now, residence, cfg.compute.visit_seconds)
            messages.extend(begun.messages)
            finish = now + cfg.compute.visit_seconds
            if not begun.proceed or finish >= duration:
                aborted += 1
                continue
            heapq.heappush(heap, (finish, 2, seq, ("complete", (vid, seg.rsu_index, setup, begun.integrated))))
            seq += 1
            continue
        # completion
        vid, rsu, setup, integrated = payload
        scores, _, knowledge, visit_losses = train_and_predict(
            setup, integrated,
            substream(seed, "train", vid, visit_index[vid]),
            substream(seed, "sample", vid, visit_index[vid]),
        )
        visit_index[vid] += 1
        messages.extend(fed_distill.complete_visit(kcs[rsu], vid, knowledge, now))
        versions.append(scores.astype(np.float32))
        current_version[vid] = len(versions) - 1
        losses.append(float(np.mean(visit_losses)) if visit_losses else float("nan"))
        completed += 1

    stacked = np.vstack(versions) if versions else np.zeros((0, data.num_contents), dtype=np.float32)
    return ProtocolTrace(stacked, entries, exits, messages, completed, aborted, losses)


# ---------------------------------------------------------------------------
# baseline accounting


@dataclass
class FLOutcome:
    kind: str
    uplink_bytes: int
    downlink_bytes: int
    completions: dict[int, list[float]]   # vehicle id -> completion times
    completed_rounds: int
    messages: list[Message]

    def completion_fraction(self, vehicle_id: int, t: float, required: int) -> float:
        done = bisect_right(self.completions.get(vehicle_id, []), t)
        return min(1.0, done / required)


def _segment_exit(timeline: VehicleTimeline, idx: int) -> float:
    if idx + 1 < len(timeline.segments):
        return timeline.segments[idx + 1].entry_time
    return timeline.end_time


def parameter_exchange_baseline(kind: str, cfg: SimConfig, motion: MotionEnv) -> FLOutcome:
    """Byte and completion accounting for whole-model exchange schemes.

    A round moves the full parameter vector down at its start and up at
    its end.  The synchronous variant runs zone-wide rounds that fail for
    everyone when any participant leaves early; the asynchronous variant
    lets each vehicle run its own rounds and simply lose unfinished ones.
    """
    if kind not in ("fedavg", "asyfed"):
        raise ConfigError(f"unknown parameter-exchange baseline {kind!r}")
    per_model = model_bytes(cfg.fl.param_count)
    rs = cfg.fl.round_seconds
    duration = cfg.sim.duration
    uplink = downlink = 0
    completions: dict[int, list[float]] = {}
    completed_rounds = 0
    messages: list[Message] = []

    if kind == "asyfed":
        for timeline in motion.timelines:
            vid = timeline.vehicle_id
            for idx, seg in enumerate(timeline.segments):
                exit_time = _segment_exit(timeline, idx)
                j = 0
                while True:
                    start = seg.entry_time + j * rs
                    if start >= exit_time or start >= duration:
                        break
                    downlink += per_model
                    messages.append(Message(start, f"rsu:{seg.rsu_index}", f"veh:{vid}",
                                            MSG_FL_MODEL_DOWN, per_model))
                    end = start + rs
                    if end < exit_time and end <= duration:
                        uplink += per_model
                        messages.append(Message(end, f"veh:{vid}", f"rsu:{seg.rsu_index}",
                                                MSG_FL_MODEL_UP, per_model))
                        completions.setdefault(vid, []).append(end)
                        completed_rounds += 1
                    j += 1
        return FLOutcome(kind, uplink, downlink, completions, completed_rounds, messages)

    # Synchronous rounds on a shared clock, one cohort per zone.
    occupancy: list[list[tuple[float, float, int, int]]] = [[] for _ in range(motion.num_rsus)]
    for timeline in motion.timelines:
        for idx, seg in enumerate(timeline.segments):
            occupancy[seg.rsu_index].append(
                (seg.entry_time, _segment_exit(timeline, idx), timeline.vehicle_id, idx))
    k = 0
    while k * rs < duration:
        start = k * rs
        end = start + rs
        for rsu, spans in enumerate(occupancy):
            starters = [(vid, exit_t) for (entry_t, exit_t, vid, _) in spans
                        if entry_t <= start < exit_t]
            if not starters:
                continue
            stayers = []
            for vid, exit_t in starters:
                downlink += per_model
                messages.append(Message(start, f"rsu:{rsu}", f"veh:{vid}", MSG_FL_MODEL_DOWN, per_model))
                if exit_t >= end and end <= duration:
                    stayers.append(vid)
                    uplink += per_model
                    messages.append(Message(end, f"veh:{vid}", f"rsu:{rsu}", MSG_FL_MODEL_UP, per_model))
            if len(stayers) == len(starters) and end <= duration:
                completed_rounds += 1
                for vid in stayers:
                    completions.setdefault(vid, []).append(end)
        k += 1
    for times in completions.values():
        times.sort()
    return FLOutcome(kind, uplink, downlink, completions, completed_rounds, messages)


# ---------------------------------------------------------------------------
# policies


def oracle_policy(window_request_ids, capacity: int, num_contents: int) -> np.ndarray:
    """Cache the contents most requested inside the known future window."""
    counts = np.bincount(np.asarray(window_request_ids, dtype=np.int64),
                         minlength=num_contents + 1)[1:].astype(float)
    return rank_contents(counts)[:capacity]


def n_tau_greedy_policy(observed_counts: np.ndarray, capacity: int, tau: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Top-by-history cache that goes fully random a tau fraction of the time."""
    if not (0 <= tau <= 1):
        raise ConfigError("tau must be in [0, 1]")
    num_contents = len(observed_counts)
    if rng.random() < tau:
        return rng.permutation(num_contents)[:capacity] + 1
    return rank_contents(np.asarray(observed_counts, dtype=float))[:capacity]


def random_policy(capacity: int, num_contents: int, rng: np.random.Generator) -> np.ndarray:
    return rng.permutation(num_contents)[:capacity] + 1


# ---------------------------------------------------------------------------
# evaluation phase


def _mask_from_ids(ids: np.ndarray, num_contents: int) -> np.ndarray:
    mask = np.zeros(num_contents + 1, dtype=bool)
    mask[ids] = True
    return mask


def _window_scheme_eval(cfg: SimConfig, data: DataEnv, motion: MotionEnv, scheme: str,
                        capacity: int, metrics: Metrics, dump=None) -> None:
    seed = cfg.sim.seed
    K = data.num_contents
    tick = cfg.kc.sync_period
    latency = LatencyModel(cfg.latency.hit_ms, cfg.latency.miss_ms)
    times = motion.request_times
    windows = (times // tick).astype(np.int64) if len(times) else np.zeros(0, dtype=np.int64)
    n_windows = int(np.ceil(motion.duration / tick)) if motion.duration > 0 else 0
    past_counts = [np.zeros(K) for _ in range(motion.num_rsus)]

    order = np.arange(len(times))
    for w in range(n_windows):
        for rsu in range(motion.num_rsus):
            requested = motion.request_contents[order[(windows == w) & (motion.request_rsus == rsu)]]
            if scheme == "oracle":
                cached = oracle_policy(requested, capacity, K)
            elif scheme == "n_tau_greedy":
                cached = n_tau_greedy_policy(past_counts[rsu], capacity, cfg.greedy.tau,
                                             substream(seed, "greedy", rsu, w))
            else:
                cached = random_policy(capacity, K, substream(seed, "randomcache", rsu, w))
            if dump is not None:
                dump(w, rsu, cached, past_counts[rsu])
            serve(metrics, _mask_from_ids(cached, K)[requested], latency)
            np.add.at(past_counts[rsu], requested - 1, 1.0)


def _trigger_scheme_eval(cfg: SimConfig, data: DataEnv, motion: MotionEnv,
                         trace: ProtocolTrace, scheme: str, capacity: int,
                         metrics: Metrics, collect_messages: bool = False,
                         dump=None):
    seed = cfg.sim.seed
    K = data.num_contents
    B = motion.coverage_length
    eta = cfg.cache.eta
    list_len = cfg.effective_list_length()
    latency = LatencyModel(cfg.latency.hit_ms, cfg.latency.miss_ms)

    top_cache: dict[int, np.ndarray] = {}

    def list_ids(version: int) -> np.ndarray:
        if version not in top_cache:
            top_cache[version] = (top_m(data.prior_scores, list_len) if version < 0
                                  else top_m(trace.versions[version], list_len))
        return top_cache[version]

    fl = None
    messages: list[Message] = []
    if scheme in ("fedavg", "asyfed"):
        fl = parameter_exchange_baseline(scheme, cfg, motion)
        metrics.uplink_bytes += fl.uplink_bytes
        metrics.downlink_bytes += fl.downlink_bytes
        metrics.completed_rounds = fl.completed_rounds
        if collect_messages:
            messages.extend(fl.messages)

    # Turn entry/exit records into cache triggers.
    triggers: list[tuple[float, int, str, object]] = []
    for i, e in enumerate(trace.entries):
        triggers.append((e.time, 0, "entry", (i, e)))
    for x in trace.exits:
        triggers.append((x.time, 1, "exit", x))
    triggers.sort(key=lambda item: (item[0], item[1]))

    members: list[dict[int, tuple[float, float, float, np.ndarray | None]]] = [
        {} for _ in range(motion.num_rsus)
    ]
    where: list[int] = [-1] * data.num_vehicles
    masks = np.zeros((motion.num_rsus, K + 1), dtype=bool)
    votes = [np.zeros(K) for _ in range(motion.num_rsus)]
    cached = [np.zeros(0, dtype=np.int64) for _ in range(motion.num_rsus)]

    def refresh(rsu: int, now: float) -> None:
        votes[rsu] = replacement_scores(
            [(ids, pos0 + (now - entry_t) * speed, speed)
             for entry_t, pos0, speed, ids in members[rsu].values()],
            eta, B, K)
        cached[rsu] = rank_contents(votes[rsu])[:capacity]
        masks[rsu] = _mask_from_ids(cached[rsu], K)

    entry_counter = [0] * data.num_vehicles
    uploads_with_list = 0

    # Requests strictly before a trigger are served with the caches it finds.
    served = 0
    ends = np.searchsorted(motion.request_times, [t for t, *_ in triggers], side="left")

    def serve_until(end: int) -> None:
        nonlocal served
        rsus = motion.request_rsus[served:end]
        serve(metrics, masks[rsus, motion.request_contents[served:end]], latency)
        served = end

    for (_, _, kind, payload), end in zip(triggers, ends):
        serve_until(end)
        if kind == "exit":
            members[payload.rsu].pop(payload.vehicle_id, None)
            where[payload.vehicle_id] = -1
            refresh(payload.rsu, payload.time)
            continue
        _, e = payload
        vid = e.vehicle_id
        prev = where[vid]
        if prev >= 0:
            members[prev].pop(vid, None)
        if scheme == "proposed":
            ids = list_ids(e.list_version) if e.list_version >= 0 else None
            if ids is not None:
                uploads_with_list += 1
        else:
            q = fl.completion_fraction(vid, e.time, cfg.fl.rounds_required)
            pick = substream(seed, "flpick", scheme, vid, entry_counter[vid]).random()
            personalized = pick < q and e.list_version >= 0
            ids = list_ids(e.list_version if personalized else -1)
            uploads_with_list += 1
            if collect_messages:
                messages.append(Message(e.time, f"veh:{vid}", f"rsu:{e.rsu}",
                                        MSG_REC_LIST, rec_list_bytes(list_len)))
        entry_counter[vid] += 1
        members[e.rsu][vid] = (e.time, e.entry_position, e.speed, ids)
        where[vid] = e.rsu
        refresh(e.rsu, e.time)
        if prev >= 0 and prev != e.rsu:
            refresh(prev, e.time)
        if dump is not None:
            dump(e.time, e.rsu, cached[e.rsu], votes[e.rsu])
    serve_until(len(motion.request_times))

    if scheme == "proposed":
        counts = {MSG_HI: 0, MSG_KI: 0, MSG_KNOWLEDGE_DOWN: 0, MSG_REC_LIST: 0}
        for msg in trace.messages:
            counts[msg.kind] += 1
        L = cfg.codec.latent_dim
        metrics.uplink_bytes += (counts[MSG_HI] * hi_bytes(L) + counts[MSG_KI] * ki_bytes(L)
                                 + counts[MSG_REC_LIST] * rec_list_bytes(list_len))
        metrics.downlink_bytes += counts[MSG_KNOWLEDGE_DOWN] * knowledge_bytes(L)
        metrics.completed_visits = trace.completed_visits
        metrics.aborted_visits = trace.aborted_visits
        metrics.loss_trajectory = list(trace.losses)
        if collect_messages:
            messages.extend(trace.messages)
    else:
        metrics.uplink_bytes += uploads_with_list * rec_list_bytes(list_len)

    if collect_messages:
        messages.sort(key=lambda m: (m.time, m.src, m.dst, m.kind))
        return messages
    return None


def evaluate_caching(cfg: SimConfig, data: DataEnv, motion: MotionEnv,
                     trace: ProtocolTrace | None, scheme: str, capacity: int,
                     collect_messages: bool = False, dump=None):
    metrics = Metrics()
    metrics.dropped_requests = motion.dropped_requests
    messages = None
    if scheme in WINDOW_SCHEMES:
        _window_scheme_eval(cfg, data, motion, scheme, capacity, metrics, dump=dump)
        messages = [] if collect_messages else None
    elif scheme in TRIGGER_SCHEMES:
        if trace is None:
            raise InvariantError(f"scheme {scheme} needs a protocol trace")
        messages = _trigger_scheme_eval(cfg, data, motion, trace, scheme, capacity,
                                        metrics, collect_messages=collect_messages, dump=dump)
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    if collect_messages:
        return metrics, messages
    return metrics


# ---------------------------------------------------------------------------
# entry points


def format_message_trace(messages: list[Message]) -> bytes:
    lines = [f"{m.time:.6f} {m.src} {m.dst} {m.kind} {m.nbytes}" for m in messages]
    return ("\n".join(lines) + ("\n" if lines else "")).encode()


def run_simulation(cfg: SimConfig, trace_path: str | None = None,
                   cache_dump_path: str | None = None) -> Report:
    cfg.validate()
    data = build_data_env(cfg)
    motion = build_motion_env(cfg, data.locals_)
    scheme = cfg.sim.scheme
    trace = simulate_protocol(cfg, data, motion) if scheme in TRIGGER_SCHEMES else None

    dump_lines: list[str] = []
    dump = None
    if cache_dump_path is not None:
        def dump(when, rsu, cached, scores):
            for cid in cached:
                dump_lines.append(f"{when:.6f} {rsu} {cid} {float(scores[cid - 1])!r}")

    result = evaluate_caching(cfg, data, motion, trace, scheme, cfg.cache.capacity_n,
                              collect_messages=trace_path is not None, dump=dump)
    if trace_path is not None:
        metrics, messages = result
        with open(trace_path, "wb") as fh:
            fh.write(format_message_trace(messages))
    else:
        metrics = result
    if cache_dump_path is not None:
        with open(cache_dump_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(dump_lines) + ("\n" if dump_lines else ""))

    total = metrics.uplink_bytes + metrics.downlink_bytes
    ledger_total = _ledger_total(cfg, metrics, trace, scheme)
    if ledger_total is not None and ledger_total != total:
        raise InvariantError(
            f"byte counters ({total}) disagree with the message ledger ({ledger_total})")
    row = ReportRow.build(scheme, cfg.cache.capacity_n, cfg.mobility.mu, cfg.sim.seed, metrics)
    return Report(rows=[row])


def _ledger_total(cfg: SimConfig, metrics: Metrics, trace: ProtocolTrace | None,
                  scheme: str) -> int | None:
    """Independent recount of the proposed scheme's bytes from the raw log."""
    if scheme != "proposed" or trace is None:
        return None
    L = cfg.codec.latent_dim
    M = cfg.effective_list_length()
    sizes = {MSG_HI: hi_bytes(L), MSG_KI: ki_bytes(L),
             MSG_KNOWLEDGE_DOWN: knowledge_bytes(L), MSG_REC_LIST: rec_list_bytes(M)}
    return sum(sizes[m.kind] for m in trace.messages)


def validate_suite() -> list[tuple[str, bool, str]]:
    """Self-contained invariant checks behind the ``validate`` CLI verb.

    Returns one (name, passed, detail) row per check.  Every check is
    cheap; the whole suite is meant to finish in a few seconds.
    """
    from .mobility import truncated_gaussian_pdf
    from .report import emit_report, parse_report

    checks: list[tuple[str, bool, str]] = []

    dist = SpeedDistribution(25.0, 5.0, 15.0, 35.0)
    grid = np.linspace(dist.v_min, dist.v_max, 200001)
    area = float(np.trapezoid(truncated_gaussian_pdf(grid, dist), grid))
    checks.append(("speed-pdf-normalization", abs(area - 1.0) < 1e-6,
                   f"quadrature mass {area:.9f}"))

    from .mobility import sample_speed
    rng = substream(7, "validate", "speeds")
    draws = np.array([sample_speed(dist, rng) for _ in range(20000)])
    in_range = bool(draws.min() >= dist.v_min and draws.max() <= dist.v_max)
    mean_gap = abs(float(draws.mean()) - float(np.sum(grid * truncated_gaussian_pdf(grid, dist))
                                               * (grid[1] - grid[0])))
    checks.append(("speed-sampler-support", in_range and mean_gap < 0.15,
                   f"range [{draws.min():.2f}, {draws.max():.2f}], mean gap {mean_gap:.3f}"))

    sched = ldpm.build_schedule(50)
    mono = bool(np.all(np.diff(sched.alpha_bar) < 0) and sched.alpha_bar[0] < 1.0
                and sched.alpha_bar[-1] > 0.0)
    checks.append(("noise-schedule-monotone", mono,
                   f"signal share falls {sched.alpha_bar[0]:.6f} -> {sched.alpha_bar[-1]:.6f}"))

    rng = substream(7, "validate", "merge")
    caches = []
    for r in range(3):
        kc = KnowledgeCache(rsu_id=r)
        for vid in range(6):
            if rng.random() < 0.7:
                fed_distill.upsert_hi(kc, fed_distill.HIPair(
                    hash=rng.normal(size=4), vehicle_id=vid,
                    upload_time=float(rng.integers(0, 50))))
            if rng.random() < 0.5:
                fed_distill.upsert_ki(kc, fed_distill.KIPair(
                    knowledge=rng.normal(size=4), vehicle_id=vid,
                    upload_time=float(rng.integers(0, 50))))
        caches.append(kc)
    merged = merge_kc(caches)
    twice = merge_kc([merged, merged.copy_with_rsu(9)])
    checks.append(("cache-merge-idempotent", merged.equals(twice), "merge(m, m) == m"))

    rng = substream(7, "validate", "visit")
    kc = KnowledgeCache(rsu_id=0)
    for vid in (1, 2, 3):
        fed_distill.upsert_hi(kc, fed_distill.HIPair(
            hash=np.ones(4) + 0.01 * rng.normal(size=4), vehicle_id=vid, upload_time=1.0))
        fed_distill.upsert_ki(kc, fed_distill.KIPair(
            knowledge=rng.normal(size=4), vehicle_id=vid, upload_time=1.0))
    setup = VisitSetup(
        vehicle_id=0,
        vehicle_hash=np.ones(4),
        carried_list=np.arange(1, 6),
        latents=rng.normal(size=(3, 4)),
        denoiser=ldpm.new_denoiser(4, 8, 4, rng),
        codec=latent_codec.new_codec(30, 8, 4, rng),
        schedule=ldpm.build_schedule(10),
        distill_weight=1.0,
        temperature=2.0,
        episodes=1,
        lr=1e-3,
        batch_size=8,
        sample_count=3,
        list_length=5,
        neighbor_count=3,
        gamma=0.0,
    )
    result = fed_distill.vehicle_visit(kc, setup, now=10.0, residence=30.0, visit_seconds=5.0,
                                       rng_train=substream(7, "validate", "t"),
                                       rng_sample=substream(7, "validate", "s"))
    kinds = [m.kind for m in result.messages]
    expected = [MSG_REC_LIST, MSG_HI, MSG_KNOWLEDGE_DOWN, MSG_KI]
    total = sum(m.nbytes for m in result.messages)
    want = (rec_list_bytes(5) + hi_bytes(4) + knowledge_bytes(4) + ki_bytes(4))
    checks.append(("visit-message-ledger", kinds == expected and total == want,
                   f"kinds {kinds}, {total} bytes (expected {want})"))

    metrics = Metrics(hits=321, misses=79, latency_ms_sum=321 * 20.0 + 79 * 100.0,
                      uplink_bytes=123456, downlink_bytes=6543)
    report = Report(rows=[ReportRow.build("proposed", 500, 25.0, 0, metrics)])
    round_trip = parse_report(emit_report(report, "csv"), "csv")
    checks.append(("report-round-trip", round_trip == report, "parse(emit(r)) == r"))

    members = [(np.array([1, 5, 9]), 100.0, 20.0), (np.array([5, 7]), 300.0, 25.0)]
    base_votes = replacement_scores(members, 0.1, 500.0, 10)
    scaled = replacement_scores(members, 0.7, 500.0, 10)
    linear = bool(np.allclose(scaled, 7.0 * base_votes))
    checks.append(("vote-eta-linearity", linear, "votes scale linearly with eta"))

    cfg = SimConfig()
    cfg.sim.duration = 80.0
    cfg.data.path = "synth://users=40,contents=200,seed=3"
    cfg.data.num_vehicles = 5
    cfg.codec.latent_dim = 4
    cfg.codec.hidden = 16
    cfg.codec.epochs = 4
    cfg.codec.finetune_epochs = 2
    cfg.ldpm.steps = 10
    cfg.ldpm.hidden = 16
    cfg.ldpm.time_embed = 4
    cfg.ldpm.episodes = 2
    cfg.ldpm.sample_count = 4
    cfg.kc.sync_period = 40.0
    cfg.cache.capacity_n = 20
    cfg.validate()
    logs = []
    for _ in range(2):
        data = build_data_env(cfg)
        motion = build_motion_env(cfg, data.locals_)
        trace = simulate_protocol(cfg, data, motion)
        logs.append(format_message_trace(trace.messages))
    checks.append(("protocol-determinism", logs[0] == logs[1] and len(logs[0]) > 0,
                   f"two runs, {len(logs[0])} identical bytes"))
    return checks


def run_sweep(base: SimConfig, schemes: list[str], capacities: list[int],
              speeds: list[float], seeds: list[int], progress=None) -> Report:
    """Grid evaluation that shares environments and protocol traces.

    The protocol phase depends only on (seed, speed), so each such pair
    is simulated once and every scheme and capacity cell replays it.
    """
    import copy

    def note(text: str) -> None:
        if progress is not None:
            progress(text)

    rows: list[ReportRow] = []
    for seed in seeds:
        for speed in speeds:
            cfg = copy.deepcopy(base)
            cfg.sim.seed = seed
            cfg.mobility.mu = speed
            cfg.validate()
            note(f"seed={seed} speed={speed:g}: building environment")
            data = build_data_env(cfg)
            motion = build_motion_env(cfg, data.locals_)
            trace = None
            if any(s in TRIGGER_SCHEMES for s in schemes):
                note(f"seed={seed} speed={speed:g}: protocol phase")
                trace = simulate_protocol(cfg, data, motion)
            for scheme in schemes:
                for capacity in capacities:
                    cell = copy.deepcopy(cfg)
                    cell.sim.scheme = scheme
                    cell.cache.capacity_n = capacity
                    metrics = evaluate_caching(cell, data, motion,
                                               trace if scheme in TRIGGER_SCHEMES else None,
                                               scheme, capacity)
                    rows.append(ReportRow.build(scheme, capacity, speed, seed, metrics))
                    note(f"seed={seed} speed={speed:g} {scheme} N={capacity}: "
                         f"hit {rows[-1].hit_pct:.2f}%")
    return Report(rows=rows)
