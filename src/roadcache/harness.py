"""Simulation driver: environments, protocol replay, schemes, reports.

A run has a set-up and two phases.  A run whose schemes replay the
protocol first opens a ``fleet.Fleet`` of worker processes with one BLAS
thread each, and set-up fills it: the codec is fitted once on the
public vectors in the main process, with the host's BLAS threads (its
bytes may depend on that thread count), and each vehicle's latents and
the codec go straight to the worker that owns the vehicle.  A
window-only run opens no fleet and fits no codec: its schemes read no
model.

The protocol phase walks entry, completion, and cache-merge events in
time order, training each vehicle's model on its visits and recording
every over-the-air message plus the recommendation list each completed
visit leaves the vehicle to upload.  It starts by having every worker
remake its vehicles' denoisers.  A visit's compute inputs are fixed at
entry and its output is first read at completion, so a visit that
proceeds joins a pending list.  The first completion event that finds no
computed result hands every pending visit, as a round of jobs, to the
fleet.  Each worker runs its own vehicles' visits through
``fed_distill.train_and_predict``, which stacks them itself, and returns
each visit's list, knowledge and losses.  The main process keeps the
events, the knowledge caches and the ledger.  Messages, lists and
losses are still published at each visit's own completion event,
bit-identical to computing the visits one at a time, whatever the
number of workers.  The fleet may also be one in-process
``fleet.Shard`` holding every vehicle, with the same bytes.

The evaluation phase turns one caching scheme into cache refreshes, and
one replay serves each request from its RSU's latest ranking.  Rankings
never depend on the cache capacity, so the replay records where each
request's content sits and yields the hits at every capacity.  It is
cheap, so capacity sweeps and baseline comparisons reuse one protocol
phase.  Everything draws from named substreams of the run seed, making
whole reports byte-reproducible.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import Counter, deque
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from . import fed_distill, latent_codec, ldpm
from .caching import Metrics, rank_contents, replacement_scores, serve, top_m
from .config import SimConfig
from .dataset import (LocalDataset, RatingMatrix, generate_requests, load_ratings,
                      partition_users, split_public_users, user_rows, user_train_vector)
from .errors import ConfigError, InvariantError
from .fed_distill import (MSG_FL_MODEL_DOWN, MSG_FL_MODEL_UP, MSG_HI, MSG_KI,
                          MSG_KNOWLEDGE_DOWN, MSG_REC_LIST, UPLINK_KINDS, KnowledgeCache,
                          Message, VisitInputs, hi_bytes, ki_bytes,
                          knowledge_bytes, merge_kc, model_bytes, rec_list_bytes,
                          train_and_predict)
from .fleet import Fleet, Shard
from .latent_codec import CodecParams
from .mobility import (VehicleTimeline, residence_time, rollout, sample_speed,
                       truncated_gaussian_pdf)
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


def build_data_env(cfg: SimConfig, fleet: Fleet | None = None) -> DataEnv:
    """Load, split and encode the run's data, handing each vehicle's model to ``fleet``.

    The codec is fitted once, on the public vectors (the riders' vectors
    when there are none).  Right after a vehicle's latents are encoded,
    ``fleet.add(vehicle_id, latents, codec)`` gets them and the codec.
    Without a fleet (a window-only run, which reads no model), no codec is
    fitted and ``hashes`` and ``latents`` are empty.
    """
    seed = cfg.sim.seed
    matrix = load_ratings(cfg.data.path)
    if cfg.cache.list_m > matrix.num_contents:
        raise ConfigError(f"cache.list_m={cfg.cache.list_m} exceeds the catalog of "
                          f"{matrix.num_contents} contents")
    public_ids, rider_ids = split_public_users(matrix, cfg.data.public_fraction, substream(seed, "public"))
    if cfg.data.num_vehicles > len(rider_ids):
        raise ConfigError(
            f"{cfg.data.num_vehicles} vehicles need at least that many riders, "
            f"only {len(rider_ids)} users remain after the public holdout"
        )
    riders = matrix.select_users(rider_ids)
    locals_ = partition_users(riders, cfg.data.num_vehicles, cfg.data.split_ratio, substream(seed, "partition"))
    prior = np.zeros(matrix.num_contents)
    for loc in locals_:
        prior += loc.user_train_vectors.sum(axis=0)
    if fleet is None:
        return DataEnv(matrix, locals_, np.zeros((0, cfg.codec.latent_dim)), [], prior)

    rows = user_rows(matrix)
    public = (np.vstack([user_train_vector(matrix, rows[int(uid)]) for uid in public_ids])
              if len(public_ids) else np.zeros((0, matrix.num_contents)))
    if len(public) == 0:
        # No public holdout configured: fall back to the riders' vectors.
        public = np.vstack([loc.user_train_vectors for loc in locals_])
    codec = latent_codec.pretrain_codec(public, cfg.codec.latent_dim)
    hashes, latents = [], []
    for loc in locals_:
        hashes.append(latent_codec.encode(codec, loc.train_vector))
        latents.append(latent_codec.encode(codec, loc.user_train_vectors))
        fleet.add(loc.vehicle_id, latents[-1], codec)
    return DataEnv(matrix, locals_, np.vstack(hashes), latents, prior)


def build_motion_env(cfg: SimConfig, locals_: list[LocalDataset]) -> MotionEnv:
    seed = cfg.sim.seed
    timelines = []
    for loc in locals_:
        vid = loc.vehicle_id
        offset = substream(seed, "mobility", "init", vid).uniform(0.0, cfg.topology.road_length)
        timelines.append(rollout(
            vid, cfg.mobility, cfg.topology, cfg.sim.duration,
            substream(seed, "mobility", "speed", vid), initial_offset=offset,
        ))
    trace = generate_requests(locals_, cfg.sim.duration,
                              lambda vid: substream(seed, "requests", vid))
    rsus = np.zeros(len(trace), dtype=np.int32)
    for timeline in timelines:
        mine = trace.vehicle_ids == timeline.vehicle_id
        rsus[mine] = timeline.rsu_at(trace.times[mine])
    return MotionEnv(
        timelines=timelines,
        request_times=trace.times,
        request_vehicles=trace.vehicle_ids,
        request_contents=trace.content_ids,
        request_rsus=rsus,
        dropped_requests=trace.dropped,
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
    list_version: int  # row of ProtocolTrace.lists; -1 before the first completed visit


@dataclass
class ProtocolTrace:
    lists: np.ndarray              # (completed visits, list_m) ids each visit leaves to upload
    entries: list[EntryRecord]     # time order
    messages: list[Message]
    completed_visits: int
    aborted_visits: int
    losses: list[float]            # per-visit mean objective, time order
    # Per fleet worker: (visits computed, seconds spent computing them, its
    # peak resident MB or None; see ``Fleet.load``).  Not part of any report,
    # message trace or cache dump.
    worker_load: list[tuple[int, float, float | None]] = field(default_factory=list)


def simulate_protocol(cfg: SimConfig, data: DataEnv, motion: MotionEnv,
                      fleet: Fleet | Shard) -> ProtocolTrace:
    """Walk the run's events; every visit computes in ``fleet``, which set-up filled.

    ``fleet`` is a ``Fleet`` of worker processes, or a ``Shard`` holding
    every vehicle, which computes the visits in this process.  No byte of
    the trace depends on which, nor on the fleet's size.
    """
    duration = cfg.sim.duration
    n_vehicles = data.num_vehicles
    num_rsus = cfg.topology.num_rsus
    kcs = [KnowledgeCache(rsu_id=r) for r in range(num_rsus)]

    current_version = [-1] * n_vehicles
    visit_index = [0] * n_vehicles
    pending: list[tuple] = []                     # jobs of proceeding visits not yet computed
    ready: deque[tuple[int, tuple]] = deque()     # (vehicle id, result) of computed visits
    entries: list[EntryRecord] = []
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
    n_entries = 0
    for timeline in motion.timelines:
        for seg in timeline.segments:
            if seg.entry_time < duration:
                heapq.heappush(heap, (seg.entry_time, 1, seq, ("entry", (timeline.vehicle_id, seg))))
                seq += 1
                n_entries += 1
    # One row per completed visit; no more visits complete than vehicles enter zones.
    lists = np.empty((n_entries, min(cfg.cache.list_m, data.num_contents)), dtype=np.int64)

    fleet.reset()
    while heap:
        now, _, _, (kind, payload) = heapq.heappop(heap)
        if kind == "merge":
            merged = merge_kc(kcs)
            kcs = [merged.copy_with_rsu(r) for r in range(num_rsus)]
            continue
        if kind == "entry":
            vid, seg = payload
            kc = kcs[seg.rsu_index]
            residence = residence_time(seg, cfg.topology.coverage_length)
            version = current_version[vid]
            entries.append(EntryRecord(now, vid, seg.rsu_index, seg.entry_position, seg.speed,
                                       version))
            begun = fed_distill.begin_visit(kc, vid, data.hashes[vid], version >= 0,
                                            now, residence, cfg)
            messages.extend(begun.messages)
            if not begun.proceed:
                aborted += 1
                continue
            pending.append((vid, visit_index[vid], begun.integrated))
            visit_index[vid] += 1
            finish = now + cfg.compute.visit_seconds
            heapq.heappush(heap, (finish, 2, seq, ("complete", (vid, seg.rsu_index))))
            seq += 1
            continue
        # Completion.  Every visit finishes the same visit_seconds after its
        # entry, and equal times pop by seq, which grows with entry order, so
        # visits complete in entry order, the order of ``ready`` then
        # ``pending``: the head of ``ready`` is always this visit.
        vid, rsu = payload
        if not ready:
            results = fleet.compute(pending)
            ready.extend(zip((job[0] for job in pending), results))
            pending.clear()
        owner, (ids, knowledge, visit_losses) = ready.popleft()
        if owner != vid:
            raise InvariantError(f"vehicle {vid} completed vehicle {owner}'s visit")
        messages.extend(fed_distill.complete_visit(kcs[rsu], vid, knowledge, now))
        lists[completed] = ids
        current_version[vid] = completed
        losses.append(float(np.mean(visit_losses)) if visit_losses else float("nan"))
        completed += 1

    return ProtocolTrace(lists[:completed], entries, messages, completed, aborted, losses,
                         [tuple(load) for load in fleet.load])


# ---------------------------------------------------------------------------
# baseline accounting


@dataclass
class FLOutcome:
    kind: str
    completions: dict[int, list[float]]   # vehicle id -> completion times
    completed_rounds: int
    messages: list[Message]

    def completion_fraction(self, vehicle_id: int, t: float, required: int) -> float:
        done = bisect_right(self.completions.get(vehicle_id, []), t)
        return min(1.0, done / required)


def _segment_exit(timeline: VehicleTimeline, idx: int, duration: float) -> float:
    """When the vehicle hands off out of segment idx; the last segment lasts the run,
    so no segment outlasts the horizon."""
    if idx + 1 < len(timeline.segments):
        return timeline.segments[idx + 1].entry_time
    return duration


def parameter_exchange_baseline(kind: str, cfg: SimConfig, motion: MotionEnv) -> FLOutcome:
    """Byte and completion accounting for whole-model exchange schemes.

    A round moves the full parameter vector down at its start and up at
    its end.  The synchronous variant runs zone-wide rounds that fail for
    everyone when any participant hands off early; the asynchronous variant
    lets each vehicle run its own rounds and simply lose unfinished ones.
    """
    if kind not in ("fedavg", "asyfed"):
        raise ConfigError(f"unknown parameter-exchange baseline {kind!r}")
    per_model = model_bytes(cfg.fl.param_count)
    rs = cfg.fl.round_seconds
    duration = cfg.sim.duration
    completions: dict[int, list[float]] = {}
    completed_rounds = 0
    messages: list[Message] = []

    if kind == "asyfed":
        for timeline in motion.timelines:
            vid = timeline.vehicle_id
            for idx, seg in enumerate(timeline.segments):
                exit_time = _segment_exit(timeline, idx, duration)
                j = 0
                while True:
                    start = seg.entry_time + j * rs
                    if start >= exit_time:
                        break
                    messages.append(Message(start, f"rsu:{seg.rsu_index}", f"veh:{vid}",
                                            MSG_FL_MODEL_DOWN, per_model))
                    end = start + rs
                    if end < exit_time:
                        messages.append(Message(end, f"veh:{vid}", f"rsu:{seg.rsu_index}",
                                                MSG_FL_MODEL_UP, per_model))
                        completions.setdefault(vid, []).append(end)
                        completed_rounds += 1
                    j += 1
        return FLOutcome(kind, completions, completed_rounds, messages)

    # Synchronous rounds on a shared clock, one cohort per zone.
    occupancy: list[list[tuple[float, float, int, int]]] = [
        [] for _ in range(cfg.topology.num_rsus)]
    for timeline in motion.timelines:
        for idx, seg in enumerate(timeline.segments):
            occupancy[seg.rsu_index].append(
                (seg.entry_time, _segment_exit(timeline, idx, duration), timeline.vehicle_id, idx))
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
                messages.append(Message(start, f"rsu:{rsu}", f"veh:{vid}", MSG_FL_MODEL_DOWN, per_model))
                if exit_t >= end:
                    stayers.append(vid)
                    messages.append(Message(end, f"veh:{vid}", f"rsu:{rsu}", MSG_FL_MODEL_UP, per_model))
            if len(stayers) == len(starters):
                completed_rounds += 1
                for vid in stayers:
                    completions.setdefault(vid, []).append(end)
        k += 1
    for times in completions.values():
        times.sort()
    return FLOutcome(kind, completions, completed_rounds, messages)


# ---------------------------------------------------------------------------
# policies
#
# A policy returns every content id in cache order together with the scores
# that order was sorted by (None for a random permutation); a cache of
# capacity N holds the first N ids.


def oracle_policy(window_request_ids, num_contents: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank contents by their request count inside the known future window."""
    counts = np.bincount(np.asarray(window_request_ids, dtype=np.int64),
                         minlength=num_contents + 1)[1:].astype(float)
    return rank_contents(counts), counts


def n_tau_greedy_policy(observed_counts: np.ndarray, tau: float,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray | None]:
    """Rank by history, or fully at random a tau fraction of the time."""
    if not (0 <= tau <= 1):
        raise ConfigError("tau must be in [0, 1]")
    if rng.random() < tau:
        return rng.permutation(len(observed_counts)) + 1, None
    counts = np.asarray(observed_counts, dtype=float)
    return rank_contents(counts), counts


def random_policy(num_contents: int, rng: np.random.Generator) -> tuple[np.ndarray, None]:
    return rng.permutation(num_contents) + 1, None


# ---------------------------------------------------------------------------
# evaluation phase
#
# Each scheme is a source of cache refreshes (time, rsu, every content id in
# cache order, the scores it was sorted by), in time order.  Window schemes
# re-rank every RSU at each window's start.  Trigger schemes re-rank the zone
# a vehicle enters, then the zone it left, by a vote over the lists entries
# carry.  One replay records, per request, the position of its content in its
# RSU's current ranking; it hits a capacity-N cache exactly when that is below N.


def _window_refreshes(cfg: SimConfig, data: DataEnv, motion: MotionEnv, scheme: str):
    """One refresh per (window, RSU) at the window's start, ranked by a policy."""
    seed = cfg.sim.seed
    K = data.num_contents
    num_rsus = cfg.topology.num_rsus
    tick = cfg.kc.sync_period
    starts = np.arange(int(np.ceil(cfg.sim.duration / tick))) * tick
    # A request belongs to the window whose refresh serves it.
    windows = np.searchsorted(starts, motion.request_times, side="right") - 1
    past_counts = [np.zeros(K) for _ in range(num_rsus)]

    for w, start in enumerate(starts):
        for rsu in range(num_rsus):
            requested = motion.request_contents[(windows == w) & (motion.request_rsus == rsu)]
            if scheme == "oracle":
                ranking, scores = oracle_policy(requested, K)
            elif scheme == "n_tau_greedy":
                ranking, scores = n_tau_greedy_policy(past_counts[rsu], cfg.greedy.tau,
                                                      substream(seed, "greedy", rsu, w))
            else:
                ranking, scores = random_policy(K, substream(seed, "randomcache", rsu, w))
            yield start, rsu, ranking, scores
            # The greedy scores just yielded are these counts: update only on resume.
            np.add.at(past_counts[rsu], requested - 1, 1.0)


def _entry_lists(cfg: SimConfig, data: DataEnv, motion: MotionEnv, trace: ProtocolTrace,
                 scheme: str) -> tuple[list[np.ndarray | None], list[Message]]:
    """The list each entry carries into its zone (None for none), and the scheme's messages.

    proposed carries the list its last completed visit left; an FL baseline carries it
    with probability equal to the vehicle's completed share of rounds, else the prior.
    """
    carried = [trace.lists[e.list_version] if e.list_version >= 0 else None
               for e in trace.entries]
    if scheme == "proposed":
        return carried, list(trace.messages)
    fl = parameter_exchange_baseline(scheme, cfg, motion)
    messages = list(fl.messages)
    prior_list = top_m(data.prior_scores, cfg.cache.list_m)
    entry_counter, lists = Counter(), []
    for e, own in zip(trace.entries, carried):
        vid = e.vehicle_id
        q = fl.completion_fraction(vid, e.time, cfg.fl.rounds_required)
        pick = substream(cfg.sim.seed, "flpick", scheme, vid, entry_counter[vid]).random()
        entry_counter[vid] += 1
        ids = own if pick < q and own is not None else prior_list
        lists.append(ids)
        messages.append(Message(e.time, f"veh:{vid}", f"rsu:{e.rsu}",
                                MSG_REC_LIST, rec_list_bytes(len(ids))))
    return lists, messages


def _vote_refreshes(cfg: SimConfig, data: DataEnv, entries: list[EntryRecord],
                    lists: list[np.ndarray | None]):
    """At each entry, re-rank the entered zone, then the zone left, by a dwell-weighted vote."""
    # vehicle -> (its latest entry, the list it carried); re-inserted at each
    # entry, so each zone's members stay in entry order, the order the votes sum in.
    members: dict[int, tuple[EntryRecord, np.ndarray | None]] = {}

    def refresh(rsu: int, now: float):
        votes = replacement_scores(
            [(ids, e.entry_position + (now - e.time) * e.speed, e.speed)
             for e, ids in members.values() if e.rsu == rsu],
            cfg.cache.eta, cfg.topology.coverage_length, data.num_contents)
        return now, rsu, rank_contents(votes), votes

    for e, ids in zip(entries, lists):
        left = members.pop(e.vehicle_id, None)
        members[e.vehicle_id] = (e, ids)
        yield refresh(e.rsu, e.time)
        if left is not None and left[0].rsu != e.rsu:
            yield refresh(left[0].rsu, e.time)


def _replay(motion: MotionEnv, refreshes, num_contents: int, num_rsus: int,
            dump=None) -> np.ndarray:
    """Each request's content position in its RSU's ranking as of the request.

    A refresh at time t serves the requests at t and later.  Refreshes are
    consumed one at a time, and each is dumped before the next is drawn.
    """
    times = motion.request_times
    # Position K stands for "not cached": an RSU holds nothing before its first refresh.
    positions = np.full((num_rsus, num_contents + 1), num_contents, dtype=np.int64)
    slots = np.arange(num_contents)
    request_positions = np.empty(len(times), dtype=np.int64)
    served = 0
    # The closing refresh at infinity serves the requests after the last real one.
    for when, rsu, ranking, scores in chain(refreshes, [(np.inf, None, None, None)]):
        end = int(np.searchsorted(times, when, side="left"))
        request_positions[served:end] = positions[motion.request_rsus[served:end],
                                                  motion.request_contents[served:end]]
        served = end
        if ranking is None:
            break
        positions[rsu, ranking] = slots
        if dump is not None:
            dump(when, rsu, ranking, scores)
    return request_positions


def evaluate_caching(cfg: SimConfig, data: DataEnv, motion: MotionEnv,
                     trace: ProtocolTrace | None, scheme: str, capacities: list[int],
                     dump=None) -> tuple[list[Metrics], list[Message]]:
    """Replay one scheme once: one Metrics per capacity, and the scheme's messages.

    Byte counters are summed from the messages and checked against a
    recount from the size formulas.  dump, if given, is called at each
    cache refresh with (time, rsu, full ranking, its scores).
    """
    if scheme in WINDOW_SCHEMES:
        refreshes, messages = _window_refreshes(cfg, data, motion, scheme), []
    elif scheme in TRIGGER_SCHEMES:
        if trace is None:
            raise InvariantError(f"scheme {scheme} needs a protocol trace")
        lists, messages = _entry_lists(cfg, data, motion, trace, scheme)
        messages.sort(key=lambda m: (m.time, m.src, m.dst, m.kind))
        refreshes = _vote_refreshes(cfg, data, trace.entries, lists)
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    positions = _replay(motion, refreshes, data.num_contents, cfg.topology.num_rsus, dump)
    base = Metrics()
    for m in messages:
        if m.kind in UPLINK_KINDS:
            base.uplink_bytes += m.nbytes
        else:
            base.downlink_bytes += m.nbytes
    total = base.uplink_bytes + base.downlink_bytes
    ledger_total = _ledger_total(cfg, messages)
    if ledger_total != total:
        raise InvariantError(
            f"byte counters ({total}) disagree with the message ledger ({ledger_total})")

    curve = []
    for capacity in capacities:
        metrics = replace(base)
        # Real positions are below K, so capping N at K keeps position K a miss.
        serve(metrics, positions < min(capacity, data.num_contents), cfg.latency)
        curve.append(metrics)
    return curve, messages


# ---------------------------------------------------------------------------
# entry points


def format_message_trace(messages: list[Message]) -> bytes:
    lines = [f"{m.time:.6f} {m.src} {m.dst} {m.kind} {m.nbytes}" for m in messages]
    return ("\n".join(lines) + ("\n" if lines else "")).encode()


def _open_fleet(cfg: SimConfig, schemes: list[str]):
    """A ``Fleet`` for a run whose schemes replay the protocol; else a context giving None.

    Window-only runs start no workers.
    """
    return Fleet(cfg) if any(s in TRIGGER_SCHEMES for s in schemes) else nullcontext()


def run_simulation(cfg: SimConfig, trace_path: str | None = None,
                   cache_dump_path: str | None = None) -> Report:
    cfg.validate()
    scheme = cfg.sim.scheme
    capacity = cfg.cache.capacity_n
    with _open_fleet(cfg, [scheme]) as fleet:
        data = build_data_env(cfg, fleet)
        motion = build_motion_env(cfg, data.locals_)
        trace = simulate_protocol(cfg, data, motion, fleet) if fleet is not None else None

    dump_lines: list[str] = []
    dump = None
    if cache_dump_path is not None:
        def dump(when, rsu, ranking, scores):
            for cid in ranking[:capacity]:
                score = float("nan") if scores is None else float(scores[cid - 1])
                dump_lines.append(f"{when:.6f} {rsu} {cid} {score!r}")

    [metrics], messages = evaluate_caching(cfg, data, motion, trace, scheme, [capacity],
                                           dump=dump)
    if trace_path is not None:
        with open(trace_path, "wb") as fh:
            fh.write(format_message_trace(messages))
    if cache_dump_path is not None:
        with open(cache_dump_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(dump_lines) + ("\n" if dump_lines else ""))

    row = ReportRow.build(scheme, capacity, cfg.mobility.mu, cfg.sim.seed, metrics)
    return Report(rows=[row])


def _ledger_total(cfg: SimConfig, messages: list[Message]) -> int:
    """Independent recount of the messages' bytes from the size formulas."""
    L = cfg.codec.latent_dim
    model = model_bytes(cfg.fl.param_count)
    sizes = {MSG_HI: hi_bytes(L), MSG_KI: ki_bytes(L),
             MSG_KNOWLEDGE_DOWN: knowledge_bytes(L), MSG_REC_LIST: rec_list_bytes(cfg.cache.list_m),
             MSG_FL_MODEL_DOWN: model, MSG_FL_MODEL_UP: model}
    return sum(sizes[m.kind] for m in messages)


def validate_suite() -> list[tuple[str, bool, str]]:
    """Self-contained invariant checks behind the ``validate`` CLI verb.

    Returns one (name, passed, detail) row per check.  Every check is
    cheap; the whole suite is meant to finish in a few seconds.
    """
    from .report import emit_report, parse_report

    checks: list[tuple[str, bool, str]] = []

    dist = SimConfig().mobility
    grid = np.linspace(dist.v_min, dist.v_max, 200001)
    area = float(np.trapezoid(truncated_gaussian_pdf(grid, dist), grid))
    checks.append(("speed-pdf-normalization", abs(area - 1.0) < 1e-6,
                   f"quadrature mass {area:.9f}"))

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

    small = SimConfig()
    small.ldpm.episodes = 2
    small.ldpm.lr = 1e-2
    small.ldpm.batch = 2
    small.ldpm.sample_count = 200   # SAMPLE_ROWS // 200: the stack samples as 2 + 1 visits
    small.validate()

    rng = substream(7, "validate", "stack")
    sched = ldpm.build_schedule(10)
    codec = latent_codec.pretrain_codec(rng.random((6, 12)), 4)
    denoisers = [ldpm.new_denoiser(4, 8, 4, rng) for _ in range(3)]
    latents = rng.normal(loc=2.0, scale=3.0, size=(3, 5, 4))
    knowledge = [rng.normal(size=4), None, rng.normal(size=4)]

    def visit(v, denoiser):
        return VisitInputs(v, latents[v], denoiser, codec, knowledge[v],
                           substream(7, "validate", "train", v),
                           substream(7, "validate", "sample", v))

    def outcome(result, denoiser):
        scores, own_knowledge, losses = result
        return [scores.tobytes(), own_knowledge.tobytes(), np.array(losses).tobytes(),
                *(getattr(layer, name).tobytes() for layer in denoiser.net.dense
                  for name in ("w", "b", "_vw", "_vb"))]

    copies = [denoiser.copy() for denoiser in denoisers]
    alone = [outcome(train_and_predict([visit(v, copies[v])], small, sched)[0], copies[v])
             for v in range(3)]
    together = train_and_predict([visit(v, denoisers[v]) for v in range(3)], small, sched)
    same = all(outcome(together[v], denoisers[v]) == alone[v] for v in range(3))
    checks.append(("stacked-visit-parity", same,
                   "3 visits (2 with knowledge) trained, sampled in 2 slices and decoded as one "
                   "stack == one at a time: scores, knowledge, losses, weights and momentum"))

    rng = substream(7, "validate", "inference")
    shapes = SimConfig()
    profiles = np.where(rng.random((60, 3952)) < 0.05, rng.uniform(0.2, 1.0, (60, 3952)), 0.0)
    codec = latent_codec.pretrain_codec(profiles, shapes.codec.latent_dim)
    draws = rng.normal(size=(32, shapes.codec.latent_dim))
    sched = ldpm.build_schedule(50)
    stacked = ldpm.stack([ldpm.new_denoiser(shapes.codec.latent_dim, shapes.ldpm.hidden,
                                            shapes.ldpm.time_embed, rng) for _ in range(3)])
    x = rng.normal(size=(3, 32, shapes.codec.latent_dim))
    emb = sched.embedding_table(shapes.ldpm.time_embed)[rng.integers(0, 50, size=(3, 32))]
    # The codec is linear, so the decoded mean draw equals the mean of the
    # decoded draws in exact arithmetic only.
    mean_first = np.allclose(latent_codec.decode(codec, draws.mean(axis=0)),
                             latent_codec.decode(codec, draws).mean(axis=0))
    denoiser = (ldpm.predict_noise(stacked, x, emb).tobytes()
                == ldpm.predict_noise(stacked, x, emb, train=True).tobytes())
    checks.append(("inference-parity", mean_first and denoiser,
                   "decode of the mean draw ~= mean of the decoded draws on a desk-shaped "
                   "codec, and predict == forward on a 3-visit denoiser stack"))

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
    cfg.ldpm.steps = 10
    cfg.ldpm.hidden = 16
    cfg.ldpm.time_embed = 4
    cfg.ldpm.episodes = 2
    cfg.ldpm.sample_count = 4
    cfg.kc.sync_period = 40.0
    cfg.cache.capacity_n = 20
    cfg.cache.list_m = 20
    cfg.validate()
    # Two runs: one whose set-up fills its fleet, and one whose set-up keeps
    # copies of the vehicles, which then fill this and the worker-parity fleets.
    logs = []
    with Fleet(cfg) as fleet:
        data = build_data_env(cfg, fleet)
        motion = build_motion_env(cfg, data.locals_)
        logs.append(format_message_trace(simulate_protocol(cfg, data, motion, fleet).messages))
    copies = _Copies()
    data = build_data_env(cfg, copies)
    with Fleet(cfg) as fleet:
        copies.fill(fleet)
        trace = simulate_protocol(cfg, data, motion, fleet)
    logs.append(format_message_trace(trace.messages))
    checks.append(("protocol-determinism", logs[0] == logs[1] and len(logs[0]) > 0,
                   f"two runs, {len(logs[0])} identical bytes"))

    # The last run's trace: one HI per entry, a list with every entry that
    # carries one, one KI per completed visit, and every size by its formula.
    kinds = Counter(m.kind for m in trace.messages)
    got = tuple(kinds[kind] for kind in (MSG_HI, MSG_REC_LIST, MSG_KI))
    want = (len(trace.entries), sum(e.list_version >= 0 for e in trace.entries),
            trace.completed_visits)
    total = sum(m.nbytes for m in trace.messages)
    expected_total = _ledger_total(cfg, trace.messages)
    checks.append(("visit-message-ledger", got == want and total == expected_total,
                   f"HI/REC_LIST/KI counts {got} (expected {want}), "
                   f"{total} bytes (expected {expected_total})"))

    # The same run from 1 and 2 workers and from one in-process Shard, all
    # filled from the copies: every byte the trace keeps agrees.
    traces = []
    for workers in (1, 2):
        with Fleet(cfg, workers=workers) as fleet:
            copies.fill(fleet)
            traces.append(simulate_protocol(cfg, data, motion, fleet))
    shard = Shard(cfg)
    copies.fill(shard)
    traces.append(simulate_protocol(cfg, data, motion, shard))
    views = [(format_message_trace(t.messages), t.lists.tobytes(), np.array(t.losses).tobytes(),
              t.completed_visits, t.aborted_visits) for t in traces]
    checks.append(("worker-parity",
                   views[0] == views[1] == views[2] and traces[0].completed_visits > 0,
                   f"1 and 2 workers and an in-process Shard give the same messages, lists, "
                   f"losses and visit counts ({traces[0].completed_visits} visits computed)"))
    return checks


class _Copies:
    """A stand-in fleet for set-up: keeps each vehicle's latents and codec."""

    def __init__(self):
        self.vehicles: dict[int, tuple] = {}

    def add(self, vehicle_id: int, latents: np.ndarray, codec: CodecParams) -> None:
        self.vehicles[vehicle_id] = (latents, codec)

    def fill(self, target: Fleet | Shard) -> None:
        for vid, (latents, codec) in self.vehicles.items():
            target.add(vid, latents, codec)


def run_sweep(base: SimConfig, schemes: list[str], capacities: list[int],
              speeds: list[float], seeds: list[int], progress=None) -> Report:
    """Grid evaluation that shares environments and protocol traces.

    Every (seed, speed) cell's config is validated before anything is
    built.  The data environment depends only on the seed, so it is built
    once for all of that seed's speeds, into one fleet that serves their
    protocol phases.  The protocol phase depends only on (seed, speed), so
    each such pair is simulated once; each scheme replays it once for
    every capacity.
    """
    import copy

    def note(text: str) -> None:
        if progress is not None:
            progress(text)

    def cell(seed: int, speed: float) -> SimConfig:
        cfg = copy.deepcopy(base)
        cfg.sim.seed = seed
        cfg.mobility.mu = speed
        cfg.validate()
        return cfg

    grid = [[cell(seed, speed) for speed in speeds] for seed in seeds]
    rows: list[ReportRow] = []
    for seed, cells in zip(seeds, grid):
        with _open_fleet(cells[0], schemes) as fleet:
            note(f"seed={seed}: building data environment")
            data = build_data_env(cells[0], fleet)
            for speed, cfg in zip(speeds, cells):
                motion = build_motion_env(cfg, data.locals_)
                trace = None
                if fleet is not None:
                    note(f"seed={seed} speed={speed:g}: protocol phase")
                    trace = simulate_protocol(cfg, data, motion, fleet)
                for scheme in schemes:
                    curve, _ = evaluate_caching(cfg, data, motion, trace, scheme, capacities)
                    for capacity, metrics in zip(capacities, curve):
                        rows.append(ReportRow.build(scheme, capacity, speed, seed, metrics))
                        note(f"seed={seed} speed={speed:g} {scheme} N={capacity}: "
                             f"hit {rows[-1].hit_pct:.2f}%")
    return Report(rows=rows)
