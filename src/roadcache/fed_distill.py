"""RSU knowledge caches and the vehicle-visit exchange.

Each RSU keeps, per vehicle, the newest uploaded fingerprint (HI) and
the newest model-output knowledge (KI).  A visit runs in three steps,
which the protocol phase (``harness.simulate_protocol``) calls on its
own clock.  At entry the vehicle uploads its current recommendation
list and fingerprint and receives the averaged knowledge of its most
similar peers (``begin_visit``).  It then trains its local model
against that knowledge (``train_and_predict``, which the fleet workers
of ``roadcache.fleet`` run, vehicle-side) and uploads fresh
knowledge before leaving (``complete_visit``).  The list it uploads at
its next entry is the top-M of that knowledge decoded: the harness
derives it in the main process, so this module never sees the codec.  A
backhaul merge periodically reconciles all RSU caches to the
per-vehicle latest.

Every over-the-air payload is metered: 4 bytes per real value or id,
8 bytes per timestamp.  Backhaul reconciliation is wired and unmetered.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import ldpm
from .config import LdpmGroup, SimConfig
from .errors import ProtocolError

ID_BYTES = 4
VALUE_BYTES = 4
TIME_BYTES = 8

MSG_HI = "HI"
MSG_KI = "KI"
MSG_KNOWLEDGE_DOWN = "KNOWLEDGE_DOWN"
MSG_REC_LIST = "REC_LIST"
MSG_FL_MODEL_DOWN = "FL_MODEL_DOWN"
MSG_FL_MODEL_UP = "FL_MODEL_UP"

UPLINK_KINDS = frozenset({MSG_HI, MSG_KI, MSG_REC_LIST, MSG_FL_MODEL_UP})

# Most draw rows (visits x sample count) one stacked sampling call holds.
# Bigger stacks ran slower: at 500 draws per visit, sampling 20 visits at
# once made the protocol phase slower than sampling one at a time.
SAMPLE_ROWS = 512
# Most visits whose denoisers train as one stack (``visit_batches``).  A
# stack is the one copy its visits' denoiser state gets, so this bounds
# its memory; 16 is desk's sampling chunk (SAMPLE_ROWS // 32 draws).
STACK_VISITS = 16


def hi_bytes(latent_dim: int) -> int:
    return ID_BYTES + VALUE_BYTES * latent_dim + TIME_BYTES


def ki_bytes(latent_dim: int) -> int:
    return ID_BYTES + VALUE_BYTES * latent_dim + TIME_BYTES


def knowledge_bytes(latent_dim: int) -> int:
    return VALUE_BYTES * latent_dim


def rec_list_bytes(list_length: int) -> int:
    return ID_BYTES * list_length


def model_bytes(param_count: int) -> int:
    return VALUE_BYTES * param_count


@dataclass(frozen=True)
class Message:
    time: float
    src: str
    dst: str
    kind: str
    nbytes: int


@dataclass(frozen=True)
class HIPair:
    hash: np.ndarray
    vehicle_id: int
    upload_time: float
    # The fingerprint's Euclidean norm, computed once for every neighbour search.
    norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "norm", np.linalg.norm(self.hash))


@dataclass(frozen=True)
class KIPair:
    knowledge: np.ndarray
    vehicle_id: int
    upload_time: float


@dataclass
class KnowledgeCache:
    rsu_id: int
    hi: dict[int, HIPair] = field(default_factory=dict)
    ki: dict[int, KIPair] = field(default_factory=dict)

    def copy_with_rsu(self, rsu_id: int) -> "KnowledgeCache":
        return KnowledgeCache(rsu_id=rsu_id, hi=dict(self.hi), ki=dict(self.ki))

    def equals(self, other: "KnowledgeCache") -> bool:
        if set(self.hi) != set(other.hi) or set(self.ki) != set(other.ki):
            return False
        for vid, pair in self.hi.items():
            peer = other.hi[vid]
            if pair.upload_time != peer.upload_time or not np.array_equal(pair.hash, peer.hash):
                return False
        for vid, pair in self.ki.items():
            peer = other.ki[vid]
            if pair.upload_time != peer.upload_time or not np.array_equal(pair.knowledge, peer.knowledge):
                return False
        return True


def _require_finite(vector: np.ndarray, what: str, vehicle_id: int) -> None:
    if not np.all(np.isfinite(vector)):
        raise ProtocolError(f"non-finite {what} from vehicle {vehicle_id}")


def upsert_hi(kc: KnowledgeCache, pair: HIPair) -> KnowledgeCache:
    _require_finite(pair.hash, "fingerprint", pair.vehicle_id)
    kc.hi[pair.vehicle_id] = pair
    return kc


def upsert_ki(kc: KnowledgeCache, pair: KIPair) -> KnowledgeCache:
    _require_finite(pair.knowledge, "knowledge", pair.vehicle_id)
    kc.ki[pair.vehicle_id] = pair
    return kc


def find_neighbors(kc: KnowledgeCache, vehicle_id: int, count: int, gamma: float) -> list[int]:
    """Ids of the most similar other vehicles clearing the gamma floor.

    Ordered by descending similarity with ascending-id tie breaks; zero
    fingerprints can never qualify.
    """
    if vehicle_id not in kc.hi:
        raise ProtocolError(f"vehicle {vehicle_id} has no fingerprint at RSU {kc.rsu_id}")
    own = kc.hi[vehicle_id]
    if own.norm == 0.0:
        return []
    scored: list[tuple[float, int]] = []
    for vid, pair in kc.hi.items():
        if vid == vehicle_id or pair.norm == 0.0:
            continue
        # cosine similarity, with both norms read from the pairs
        sim = float(own.hash @ pair.hash / (own.norm * pair.norm))
        if sim >= gamma:
            scored.append((sim, vid))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [vid for _, vid in scored[:count]]


def integrate_knowledge(kc: KnowledgeCache, neighbor_ids: list[int]) -> np.ndarray | None:
    """Elementwise mean of the neighbors' knowledge; None when none have any."""
    vectors = [kc.ki[vid].knowledge for vid in neighbor_ids if vid in kc.ki]
    if not vectors:
        return None
    return np.mean(np.stack(vectors), axis=0)


def merge_kc(rsu_kcs: list[KnowledgeCache]) -> KnowledgeCache:
    """Keep each vehicle's pair from the RSU holding its newest fingerprint.

    Timestamp ties go to the larger RSU id so the outcome never depends
    on input order.  The result is the backhaul's view; callers broadcast
    copies back to the RSUs.
    """
    if not rsu_kcs:
        raise ProtocolError("nothing to merge")
    merged = KnowledgeCache(rsu_id=-1)
    best: dict[int, tuple[float, int]] = {}
    for kc in rsu_kcs:
        for vid, pair in kc.hi.items():
            key = (pair.upload_time, kc.rsu_id)
            if vid not in best or key > best[vid]:
                best[vid] = key
                merged.hi[vid] = pair
                if vid in kc.ki:
                    merged.ki[vid] = kc.ki[vid]
                else:
                    merged.ki.pop(vid, None)
    return merged


@dataclass
class VisitInputs:
    """A proceeding visit's compute inputs, all fixed when the vehicle enters the zone.

    The vehicle's latents and denoiser, the knowledge its peers sent down
    (None when none had any), and the visit's train and sample substreams.
    No codec: a visit computes in latent space only.
    """

    vehicle_id: int
    latents: np.ndarray
    denoiser: ldpm.DenoiserParams
    integrated: np.ndarray | None
    rng_train: np.random.Generator
    rng_sample: np.random.Generator


@dataclass
class VisitBegin:
    messages: list[Message]
    integrated: np.ndarray | None
    proceed: bool


def begin_visit(kc: KnowledgeCache, vehicle_id: int, vehicle_hash: np.ndarray,
                carries_list: bool, now: float, residence: float,
                cfg: SimConfig) -> VisitBegin:
    """Entry half of a visit: list and fingerprint up, knowledge down.

    The list goes up only when the vehicle carries one from a completed
    visit.  Aborts (no knowledge exchange) when the vehicle will leave
    before the local compute budget elapses, or when the budget would run
    to the end of the run or past it; the fingerprint is stored either way.
    """
    veh, rsu = f"veh:{vehicle_id}", f"rsu:{kc.rsu_id}"
    latent_dim = len(vehicle_hash)
    messages: list[Message] = []
    if carries_list:
        messages.append(Message(now, veh, rsu, MSG_REC_LIST, rec_list_bytes(cfg.cache.list_m)))
    upsert_hi(kc, HIPair(hash=vehicle_hash, vehicle_id=vehicle_id, upload_time=now))
    messages.append(Message(now, veh, rsu, MSG_HI, hi_bytes(latent_dim)))
    budget = cfg.compute.visit_seconds
    if residence < budget or now + budget >= cfg.sim.duration:
        return VisitBegin(messages=messages, integrated=None, proceed=False)
    neighbors = find_neighbors(kc, vehicle_id, count=cfg.kc.neighbor_count, gamma=cfg.kc.gamma)
    integrated = integrate_knowledge(kc, neighbors)
    if integrated is not None:
        messages.append(Message(now, rsu, veh, MSG_KNOWLEDGE_DOWN, knowledge_bytes(latent_dim)))
    return VisitBegin(messages=messages, integrated=integrated, proceed=True)


def latent_standardizer(latents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension shift and scale that map the latents to unit range.

    The generative model assumes roughly standard-normal data; encoder
    outputs are far from that, so each vehicle trains and samples in its
    own standardized coordinates.  Degenerate dimensions keep scale 1.
    """
    latents = np.atleast_2d(latents)
    mu = latents.mean(axis=0)
    sd = latents.std(axis=0)
    sd = np.where(sd < 1e-8, 1.0, sd)
    return mu, sd


def visit_batches(visits: list[VisitInputs]) -> list[list[int]]:
    """Split visits (in entry order) into stacks, in the order they must run.

    A stack holds visits of one latent row count (every vehicle's latents
    share the codec's width, so one latent shape), at most one visit per
    vehicle, and at most ``STACK_VISITS`` visits.  A vehicle's visits run
    in entry order: once a scan passes over a vehicle, its later visits
    wait for a later scan.  A scan's visits too many for one stack fill
    the next stacks, in scan order.  Returns indices into ``visits``.
    """
    left = list(range(len(visits)))
    batches = []
    while left:
        rows = len(visits[left[0]].latents)
        batch, rest, seen = [], [], set()
        for i in left:
            visit = visits[i]
            if visit.vehicle_id not in seen and len(visit.latents) == rows:
                batch.append(i)
            else:
                rest.append(i)
            seen.add(visit.vehicle_id)
        batches.extend(batch[lo:lo + STACK_VISITS] for lo in range(0, len(batch), STACK_VISITS))
        left = rest
    return batches


def train_and_predict(visits: list[VisitInputs], cfg: SimConfig,
                      schedule: ldpm.NoiseSchedule) -> list[tuple]:
    """Compute half of visits: distillation training and sampling.

    Takes visits in entry order and returns one (knowledge, losses) per
    visit, in that order; pure vehicle-side work under the run's
    ``cfg.ldpm`` settings.  The visits run in the stacks that
    ``visit_batches`` picks (``_train_and_sample``), and each result is
    bit-identical to computing the visits one at a time.  The neighbor
    target is mapped into the vehicle's standardized latent coordinates
    for training, and draws are mapped back, so knowledge exchanged over
    the air always lives in raw latent space.  A visit's knowledge is the
    mean of its draws.
    """
    results: list[tuple] = [()] * len(visits)
    for group in visit_batches(visits):
        stack = [visits[i] for i in group]
        standardizers = [latent_standardizer(visit.latents) for visit in stack]
        draws, losses = _train_and_sample(stack, standardizers, cfg.ldpm, schedule)
        for i, (mu, sd), own_draws, own_losses in zip(group, standardizers, draws, losses):
            results[i] = ((own_draws * sd + mu).mean(axis=0), own_losses)
    return results


def _train_and_sample(stack: list[VisitInputs], standardizers: list[tuple], settings: LdpmGroup,
                      schedule: ldpm.NoiseSchedule) -> tuple[list, list]:
    """Train one stack of visits' denoisers, then sample it in place.

    Returns each visit's draws, in its standardized coordinates, and its
    loss trajectory.  ``ldpm.stack`` makes the one copy of the denoisers'
    state; after training it goes back to the denoisers, the stack drops
    its gradients and activations, and sampling reads views of its slices,
    at most ``SAMPLE_ROWS`` draw rows per call.  The stack goes on return.
    """
    denoisers = [visit.denoiser for visit in stack]
    stacked = ldpm.stack(denoisers)
    latents = np.stack([(visit.latents - mu) / sd for visit, (mu, sd) in zip(stack, standardizers)])
    targets = [None if visit.integrated is None else (visit.integrated - mu) / sd
               for visit, (mu, sd) in zip(stack, standardizers)]
    losses = ldpm.local_train(
        stacked, latents, targets, schedule, settings.episodes, settings.lr, settings.batch,
        [visit.rng_train for visit in stack],
        weight=settings.distill_weight, temperature=settings.temperature,
    )
    ldpm.unstack(stacked, denoisers)
    stacked.net.clear()
    per_call = max(1, SAMPLE_ROWS // settings.sample_count)
    draws = []
    for lo in range(0, len(stack), per_call):
        part = replace(stacked, net=stacked.net.slice(lo, lo + per_call))
        draws.extend(ldpm.sample(part, schedule, settings.sample_count,
                                 [visit.rng_sample for visit in stack[lo:lo + per_call]]))
    return draws, losses


def complete_visit(kc: KnowledgeCache, vehicle_id: int, knowledge: np.ndarray,
                   now: float) -> list[Message]:
    """Exit half of a visit: fresh knowledge uploaded and stored."""
    upsert_ki(kc, KIPair(knowledge=knowledge, vehicle_id=vehicle_id, upload_time=now))
    return [Message(now, f"veh:{vehicle_id}", f"rsu:{kc.rsu_id}", MSG_KI, ki_bytes(len(knowledge)))]

