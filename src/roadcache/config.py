"""Run configuration: defaults, file loading, CLI overrides, validation.

Config files are flat ``key = value`` text, one assignment per line, with
``#`` comments.  Keys are dotted group.field names ("mobility.mu"); the
same keys are accepted by the CLI via ``--set key=value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .mobility import truncation_mass

SCHEMES = ("proposed", "oracle", "n_tau_greedy", "fedavg", "asyfed", "random")
# Most sync periods or FL rounds a run's duration may hold, and most zones
# a vehicle at top speed may cross in it.
MAX_PERIODS = 10_000


@dataclass
class SimGroup:
    seed: int = 0
    duration: float = 600.0
    scheme: str = "proposed"


@dataclass
class MobilityGroup:
    mu: float = 25.0
    sigma: float = 5.0
    v_min: float = 15.0
    v_max: float = 35.0


@dataclass
class TopologyGroup:
    num_rsus: int = 2
    coverage_length: float = 500.0

    @property
    def road_length(self) -> float:
        return self.num_rsus * self.coverage_length


@dataclass
class DataGroup:
    path: str = "synth://users=600,contents=3952,seed=1"
    num_vehicles: int = 60
    split_ratio: float = 0.8
    public_fraction: float = 0.1


@dataclass
class CodecGroup:
    latent_dim: int = 16
    # Read by nothing; kept only because the benchmark's light model still sets them.
    epochs: int = 120
    finetune_epochs: int = 15


@dataclass
class LdpmGroup:
    steps: int = 50           # key ldpm.T
    distill_weight: float = 1.0   # key ldpm.lambda
    temperature: float = 2.0      # key ldpm.delta
    sample_count: int = 500       # key ldpm.F
    lr: float = 3e-3
    episodes: int = 30
    hidden: int = 128
    time_embed: int = 16
    batch: int = 32


@dataclass
class KcGroup:
    neighbor_count: int = 10      # key kc.neighbor_c
    gamma: float = 0.5
    sync_period: float = 60.0


@dataclass
class ComputeGroup:
    visit_seconds: float = 5.0


@dataclass
class CacheGroup:
    capacity_n: int = 500
    list_m: int = 500             # recommendation-list length, 1..catalog size
    eta: float = 0.1


@dataclass
class LatencyGroup:
    hit_ms: float = 20.0
    miss_ms: float = 100.0


@dataclass
class FlGroup:
    param_count: int = 770000
    round_seconds: float = 20.0
    rounds_required: int = 10


@dataclass
class GreedyGroup:
    tau: float = 0.2


@dataclass
class SimConfig:
    sim: SimGroup = field(default_factory=SimGroup)
    mobility: MobilityGroup = field(default_factory=MobilityGroup)
    topology: TopologyGroup = field(default_factory=TopologyGroup)
    data: DataGroup = field(default_factory=DataGroup)
    codec: CodecGroup = field(default_factory=CodecGroup)
    ldpm: LdpmGroup = field(default_factory=LdpmGroup)
    kc: KcGroup = field(default_factory=KcGroup)
    compute: ComputeGroup = field(default_factory=ComputeGroup)
    cache: CacheGroup = field(default_factory=CacheGroup)
    latency: LatencyGroup = field(default_factory=LatencyGroup)
    fl: FlGroup = field(default_factory=FlGroup)
    greedy: GreedyGroup = field(default_factory=GreedyGroup)

    def validate(self) -> None:
        for key, (gname, fname) in _key_table(self).items():
            value = getattr(getattr(self, gname), fname)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        s, m, t = self.sim, self.mobility, self.topology
        if s.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {s.scheme!r}; choose from {', '.join(SCHEMES)}")
        if s.seed < 0:
            raise ConfigError("sim.seed must be >= 0")
        if s.duration < 0:
            raise ConfigError("sim.duration must be >= 0")
        if m.sigma <= 0:
            raise ConfigError("mobility.sigma must be > 0")
        if not (0 < m.v_min < m.v_max):
            raise ConfigError("need 0 < mobility.v_min < mobility.v_max")
        # Float64 loses the tail mass once the window sits many sigmas from
        # mu; dividing densities by that underflowed mass yields NaN.
        if truncation_mass(m) < 1e-12:
            raise ConfigError(
                "mobility window [v_min, v_max] carries vanishing probability mass; "
                "move mobility.mu/sigma and the bounds closer together")
        if t.num_rsus < 1:
            raise ConfigError("topology.num_rsus must be >= 1")
        if t.coverage_length <= 0:
            raise ConfigError("topology.coverage_length must be > 0")
        # Each zone crossing is one mobility segment, made before any protocol
        # work: a tiny zone or a huge top speed would fill memory first.
        if s.duration * m.v_max > MAX_PERIODS * t.coverage_length:
            raise ConfigError(f"sim.duration * mobility.v_max = {s.duration * m.v_max:g} m crosses "
                              f"more than {MAX_PERIODS} zones of topology.coverage_length = "
                              f"{t.coverage_length:g} m")
        if self.data.num_vehicles < 1:
            raise ConfigError("data.num_vehicles must be >= 1")
        if not (0 < self.data.split_ratio < 1):
            raise ConfigError("data.split_ratio must be in (0, 1)")
        if not (0 <= self.data.public_fraction < 1):
            raise ConfigError("data.public_fraction must be in [0, 1)")
        if self.codec.latent_dim < 1:
            raise ConfigError("codec.latent_dim must be >= 1")
        for key, value in (("ldpm.batch", self.ldpm.batch), ("ldpm.hidden", self.ldpm.hidden)):
            if value < 1:
                raise ConfigError(f"{key} must be >= 1")
        for key, value in (("codec.epochs", self.codec.epochs),
                           ("codec.finetune_epochs", self.codec.finetune_epochs),
                           ("ldpm.episodes", self.ldpm.episodes)):
            if value < 0:
                raise ConfigError(f"{key} must be >= 0")
        if self.ldpm.lr <= 0:
            raise ConfigError("ldpm.lr must be > 0")
        if self.ldpm.time_embed < 2 or self.ldpm.time_embed % 2:
            raise ConfigError("ldpm.time_embed must be even and >= 2")
        if self.ldpm.steps < 1:
            raise ConfigError("ldpm.T must be >= 1")
        if self.ldpm.temperature <= 0:
            raise ConfigError("ldpm.delta must be > 0")
        if self.ldpm.distill_weight < 0:
            raise ConfigError("ldpm.lambda must be >= 0")
        if self.ldpm.sample_count < 1:
            raise ConfigError("ldpm.F must be >= 1")
        if self.kc.neighbor_count < 0:
            raise ConfigError("kc.neighbor_c must be >= 0")
        # One backhaul merge per sync period and two messages per vehicle per
        # FL round: a tiny period would fill memory before the run ends.
        for key, period in (("kc.sync_period", self.kc.sync_period),
                            ("fl.round_seconds", self.fl.round_seconds)):
            if period <= 0:
                raise ConfigError(f"{key} must be > 0")
            if s.duration > MAX_PERIODS * period:
                raise ConfigError(f"{key} = {period:g} fits more than {MAX_PERIODS} periods into "
                                  f"sim.duration = {s.duration:g}")
        if self.compute.visit_seconds < 0:
            raise ConfigError("compute.visit_seconds must be >= 0")
        if self.cache.capacity_n < 1:
            raise ConfigError("cache.capacity_n must be >= 1")
        if self.cache.list_m < 1:
            raise ConfigError("cache.list_m must be >= 1")
        if self.cache.eta <= 0:
            raise ConfigError("cache.eta must be > 0")
        if not (0 < self.latency.hit_ms < self.latency.miss_ms):
            raise ConfigError("need 0 < latency.hit_ms < latency.miss_ms")
        if self.fl.param_count < 1 or self.fl.rounds_required < 1:
            raise ConfigError("fl.param_count and fl.rounds_required must be >= 1")
        if not (0 <= self.greedy.tau <= 1):
            raise ConfigError("greedy.tau must be in [0, 1]")


# Dotted keys whose spelling differs from the field name.
_KEY_ALIASES = {
    "ldpm.T": ("ldpm", "steps"),
    "ldpm.lambda": ("ldpm", "distill_weight"),
    "ldpm.delta": ("ldpm", "temperature"),
    "ldpm.F": ("ldpm", "sample_count"),
    "kc.neighbor_c": ("kc", "neighbor_count"),
}


def _key_table(cfg: SimConfig) -> dict[str, tuple[str, str]]:
    table: dict[str, tuple[str, str]] = {}
    for group_field in fields(cfg):
        group = getattr(cfg, group_field.name)
        for f in fields(group):
            table[f"{group_field.name}.{f.name}"] = (group_field.name, f.name)
    table.update(_KEY_ALIASES)
    # Aliased keys replace the field-name spelling entirely.
    for dotted, (gname, fname) in _KEY_ALIASES.items():
        literal = f"{gname}.{fname}"
        if literal != dotted:
            table.pop(literal, None)
    return table


def known_keys() -> list[str]:
    return sorted(_key_table(SimConfig()))


def _parse_value(key: str, raw: str, target_type: type):
    raw = raw.strip()
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r} (expected {target_type.__name__})") from None


def set_key(cfg: SimConfig, key: str, raw_value: str) -> None:
    table = _key_table(cfg)
    if key not in table:
        raise ConfigError(f"unknown config key {key!r}")
    gname, fname = table[key]
    group = getattr(cfg, gname)
    current = getattr(group, fname)
    setattr(group, fname, _parse_value(key, raw_value, type(current)))


def read_assignments(path: str) -> list[tuple[int, str, str]]:
    """(line number, key, value) for each line of a flat ``key = value`` file.

    ``#`` starts a comment and blank lines are skipped; an unreadable file
    or a line without ``=`` raises ConfigError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    assignments = []
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line.strip()!r}")
        key, raw = text.split("=", 1)
        assignments.append((lineno, key.strip(), raw.strip()))
    return assignments


def load_config(path: str | None = None, overrides: list[str] | None = None) -> SimConfig:
    """Build a SimConfig from defaults, an optional file, and ``k=v`` overrides."""
    cfg = SimConfig()
    if path is not None:
        for _, key, raw in read_assignments(path):
            set_key(cfg, key, raw)
    for pair in overrides or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        set_key(cfg, key.strip(), raw)
    cfg.validate()
    return cfg
