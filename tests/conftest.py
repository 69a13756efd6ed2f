"""Shared fixtures: desk-scale environments, trace cache, criteria summary.

Protocol simulation is the expensive step, so traces are built once per
(seed, mean speed) pair and shared across every test that replays them.
One fleet of workers serves every protocol phase of the session, since
each phase's reset hands the workers all they hold.  Only one full data
environment is kept alive at a time; cached traces carry a slimmed copy
with the codec and the per-vehicle arrays dropped, which is all the
evaluation phase needs.  No fleet worker may outlive the session.
"""

from __future__ import annotations

import copy
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from roadcache import fleet, harness
from roadcache.config import SimConfig, load_config

REPO_ROOT = Path(__file__).resolve().parents[1]
DESK_CFG = REPO_ROOT / "configs" / "desk.cfg"

_ACCEPTANCE_LINES: list[tuple[str, bool, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in _ACCEPTANCE_LINES:
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"{verdict} {name}: {detail}")


@pytest.fixture
def record_criterion():
    """Log one pass/fail line per acceptance criterion, then enforce it."""

    def record(name: str, ok: bool, detail: str) -> None:
        _ACCEPTANCE_LINES.append((name, bool(ok), detail))
        assert ok, f"{name}: {detail}"

    return record


@pytest.fixture(scope="session", autouse=True)
def no_fleet_worker_left():
    """Fail the session if a worker of any fleet a test opened is still running at its end."""
    procs = []
    real_enter = fleet.Fleet.__enter__

    def enter(self):
        try:
            return real_enter(self)
        finally:
            procs.extend(self.procs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fleet.Fleet, "__enter__", enter)
        yield
    running = [proc.pid for proc in procs if proc.poll() is None]
    assert running == [], f"fleet workers still running at session end: pids {running}"


@pytest.fixture(scope="session")
def desk_cfg() -> SimConfig:
    return load_config(str(DESK_CFG))


class EnvStore:
    """Session cache of desk-scale simulation stages.

    data_env(seed) keeps at most one full environment alive; traces are
    cached per (seed, speed) with the codec and the per-vehicle arrays
    stripped, since cache evaluation never reads them.  One fleet, opened
    at the first protocol phase, computes every phase; ``close`` stops it.
    """

    def __init__(self, base: SimConfig):
        self.base = base
        self._data_seed: int | None = None
        self._data_env: harness.DataEnv | None = None
        self._fleet: fleet.Fleet | None = None
        self._traces: dict[tuple[int, float], tuple] = {}

    def config_for(self, seed: int, speed: float) -> SimConfig:
        cfg = copy.deepcopy(self.base)
        cfg.sim.seed = seed
        cfg.mobility.mu = speed
        cfg.validate()
        return cfg

    def data_env(self, seed: int) -> harness.DataEnv:
        if self._data_seed != seed:
            self._data_env = None   # at most one full environment alive
            cfg = self.config_for(seed, self.base.mobility.mu)
            self._data_env = harness.build_data_env(cfg, True)
            self._data_seed = seed
        return self._data_env

    def close(self) -> None:
        if self._fleet is not None:
            self._fleet.close()
        self._fleet = None

    def stack(self, seed: int, speed: float):
        """(cfg, slim data env, motion env, protocol trace) for one cell."""
        key = (seed, float(speed))
        if key not in self._traces:
            cfg = self.config_for(seed, speed)
            if self._fleet is None:
                self._fleet = fleet.Fleet(self.base).__enter__()
            data = self.data_env(seed)
            motion = harness.build_motion_env(cfg, data.locals_)
            trace = harness.simulate_protocol(cfg, data, motion, self._fleet)
            slim = dataclasses.replace(data, codec=None, hashes=np.zeros(0), latents=[])
            self._traces[key] = (cfg, slim, motion, trace)
        return self._traces[key]

    def evaluate(self, seed: int, speed: float, scheme: str, capacities: list[int]):
        """One replay of a scheme: its Metrics at each capacity."""
        cfg, data, motion, trace = self.stack(seed, speed)
        curve, _ = harness.evaluate_caching(cfg, data, motion, trace, scheme, capacities)
        return curve


@pytest.fixture(scope="session")
def env_store(desk_cfg):
    store = EnvStore(desk_cfg)
    yield store
    store.close()


@pytest.fixture(scope="session")
def desk_stack(env_store):
    """The reference cell: desk preset at its configured seed and speed."""
    return env_store.stack(0, 25.0)
