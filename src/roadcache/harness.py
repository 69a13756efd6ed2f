"""Simulation driver: environments, protocol replay, schemes, reports.

A run has a set-up and two phases.  A run or sweep whose schemes replay
the protocol first opens one ``fleet.Fleet`` of worker processes with
one BLAS thread each, which start while set-up runs.  Set-up is pure
data in the main process: the codec is fitted once on the public
vectors, with the host's BLAS threads (its bytes may depend on that
thread count), and every vehicle is encoded with it.  A window-only run
opens no fleet and fits no codec: its schemes read no model.

The protocol phase walks entry, completion, and cache-merge events in
time order, training each vehicle's model on its visits and recording
every over-the-air message plus the recommendation list each completed
visit leaves the vehicle to upload.  It starts with ``fleet.reset``,
which sends each worker the phase's config and the latents of the
vehicles it owns, and has it remake their denoisers.  A visit's compute
inputs are fixed at entry and its output is first read at completion, so
a visit that proceeds joins a pending list.  The first completion event
that finds no computed result hands every pending visit, as a round of
jobs, to the fleet.  Each worker runs its own vehicles' visits through
``fed_distill.train_and_predict``, which stacks them itself, and returns
each visit's knowledge and losses.  The main process keeps the codec,
the events, the knowledge caches and the ledger.  Messages and losses
are still published at each visit's own completion event, and each
visit's list is decoded from its knowledge once the events are drained,
bit-identical to computing the visits one at a time, whatever the number
of workers.  The fleet may also be one in-process ``fleet.Shard``
holding every vehicle, with the same bytes.

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

from . import fed_distill, latent_codec
from .caching import Metrics, rank_contents, replacement_scores, serve, top_m
from .config import SimConfig
from .dataset import (LocalDataset, generate_requests, load_ratings, partition_users,
                      public_rows, split_public_users)
from .errors import ConfigError, InvariantError
from .fed_distill import (MSG_FL_MODEL_DOWN, MSG_FL_MODEL_UP, MSG_HI, MSG_KI,
                          MSG_KNOWLEDGE_DOWN, MSG_REC_LIST, UPLINK_KINDS, KnowledgeCache,
                          Message, hi_bytes, ki_bytes, knowledge_bytes, merge_kc,
                          model_bytes, rec_list_bytes)
from .fleet import Fleet, Shard
from .latent_codec import CodecParams
from .mobility import VehicleTimeline, residence_time, rollout
from .report import Report, ReportRow
from .rng import substream

TRIGGER_SCHEMES = ("proposed", "fedavg", "asyfed")
WINDOW_SCHEMES = ("oracle", "n_tau_greedy", "random")


# ---------------------------------------------------------------------------
# environments


@dataclass
class DataEnv:
    """The run's data; ``locals_``, ``hashes`` and ``latents`` are indexed by vehicle id.

    ``locals_`` keeps each rider's training ratings sparse; neither a dense
    per-rider row nor the loaded rating matrix outlives set-up.  ``codec``
    is the one codec every vehicle shares, fitted before any of the rest
    was built (see ``build_data_env``), which no worker holds; each
    protocol phase's ``fleet.reset`` sends the workers ``latents``.  None,
    and ``hashes`` and ``latents`` empty, for a window-only run.
    """

    num_contents: int
    locals_: list[LocalDataset]
    codec: CodecParams | None
    hashes: np.ndarray
    latents: list[np.ndarray]
    prior_scores: np.ndarray

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


def build_data_env(cfg: SimConfig, model: bool) -> DataEnv:
    """Load, split and, if ``model``, encode the run's data; no worker is involved.

    The codec is fitted once, on the public vectors, before any rider data
    exists: at the fit the main process holds the loaded columns and one
    preallocated array of the public rows, and nothing else set-up builds.
    Only then are the riders selected, the loaded matrix dropped and the
    riders dealt onto vehicles.  With no public users
    (``data.public_fraction=0``) the codec is fitted on the riders'
    training rows instead, after the partition.  Then each vehicle, in
    list order, has its dense training rows built once: their sum joins
    the prior, and their mean (the fingerprint's profile) and the rows
    themselves are encoded.  The rows are dropped before the next
    vehicle's are built, so the data env keeps only the riders' sparse
    ratings.  Without ``model`` (a window-only run, which reads no
    model), no codec is fitted and ``hashes`` and ``latents`` are empty.
    """
    seed = cfg.sim.seed
    matrix = load_ratings(cfg.data.path)
    num_contents = matrix.num_contents
    if cfg.cache.list_m > num_contents:
        raise ConfigError(f"cache.list_m={cfg.cache.list_m} exceeds the catalog of "
                          f"{num_contents} contents")
    public_ids, rider_ids = split_public_users(matrix, cfg.data.public_fraction, substream(seed, "public"))
    if cfg.data.num_vehicles > len(rider_ids):
        raise ConfigError(
            f"data.num_vehicles={cfg.data.num_vehicles} needs at least that many riders, "
            f"only {len(rider_ids)} users remain after the public holdout"
        )
    codec = None
    if model and len(public_ids):
        codec = latent_codec.pretrain_codec(public_rows(matrix, public_ids), cfg.codec.latent_dim)
    riders = matrix.select_users(rider_ids)
    del matrix
    locals_ = partition_users(riders, cfg.data.num_vehicles, cfg.data.split_ratio, substream(seed, "partition"))
    del riders
    if model and codec is None:
        # No public holdout configured: fall back to the riders' vectors.
        codec = latent_codec.pretrain_codec(np.vstack([loc.train_rows() for loc in locals_]),
                                            cfg.codec.latent_dim)
    prior = np.zeros(num_contents)
    hashes, latents = [], []
    for loc in locals_:
        train = loc.train_rows()
        prior += train.sum(axis=0)
        if codec is not None:
            hashes.append(latent_codec.encode(codec, train.mean(axis=0)))
            latents.append(latent_codec.encode(codec, train))
    if codec is None:
        return DataEnv(num_contents, locals_, None, np.zeros((0, cfg.codec.latent_dim)),
                       [], prior)
    return DataEnv(num_contents, locals_, codec, np.vstack(hashes), latents, prior)


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
    """Walk the run's events; every visit computes in ``fleet``.

    ``fleet`` is a ``Fleet`` of worker processes, or a ``Shard``, which
    computes every vehicle's visits in this process.  The phase first
    resets it with ``cfg`` and every vehicle's latents, so no earlier
    phase leaves a trace.  No byte depends on which, nor on its size.
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
    knowledge_up: list[np.ndarray] = []           # each completed visit's KI, in completion order
    aborted = 0

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

    fleet.reset(cfg, dict(enumerate(data.latents)))
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
        owner, (knowledge, visit_losses) = ready.popleft()
        if owner != vid:
            raise InvariantError(f"vehicle {vid} completed vehicle {owner}'s visit")
        messages.extend(fed_distill.complete_visit(kcs[rsu], vid, knowledge, now))
        current_version[vid] = len(knowledge_up)
        knowledge_up.append(knowledge)
        losses.append(float(np.mean(visit_losses)) if visit_losses else float("nan"))

    # Ids run 1..K, so the narrowest dtype holding K holds them all.  Decoding here, not at
    # each completion, keeps main's BLAS threads off the cores while the workers compute.
    lists = np.empty((len(knowledge_up), cfg.cache.list_m),
                     dtype=np.min_scalar_type(data.num_contents))
    for row, knowledge in zip(lists, knowledge_up):
        row[:] = top_m(latent_codec.decode(data.codec, knowledge).astype(np.float32),
                       cfg.cache.list_m)
    return ProtocolTrace(lists, entries, messages, len(knowledge_up), aborted, losses,
                         [tuple(load) for load in fleet.load])


# ---------------------------------------------------------------------------
# baseline accounting


@dataclass
class FLOutcome:
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

    kind is ``fedavg`` or ``asyfed``.  A round moves the full parameter
    vector down at its start and up at its end.  The synchronous variant
    (fedavg) runs zone-wide rounds that fail for everyone when any
    participant hands off early; the asynchronous variant (asyfed) lets
    each vehicle run its own rounds and simply lose unfinished ones.
    """
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
        return FLOutcome(completions, completed_rounds, messages)

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
    return FLOutcome(completions, completed_rounds, messages)


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
    if rng.random() < tau:
        return random_policy(len(observed_counts), rng)
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
        data = build_data_env(cfg, fleet is not None)
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


def run_sweep(base: SimConfig, schemes: list[str], capacities: list[int],
              speeds: list[float], seeds: list[int], progress=None) -> Report:
    """Grid evaluation that shares environments and protocol traces.

    Every (seed, speed) cell's config is validated before anything is
    built.  One fleet, opened before the first set-up, serves every
    protocol phase of the sweep.  The data environment depends only on
    the seed, so it is built once for all of that seed's speeds.  The
    protocol phase depends only on (seed, speed), so each such pair is
    simulated once; each scheme replays it once for every capacity.
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
    with _open_fleet(base, schemes) as fleet:
        for seed, cells in zip(seeds, grid):
            note(f"seed={seed}: building data environment")
            data = build_data_env(cells[0], fleet is not None)
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
