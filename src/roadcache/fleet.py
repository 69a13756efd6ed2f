"""Worker processes that hold the vehicles' models and run their visit compute.

Each vehicle trains and samples its own denoiser, independently of the
others, so its model lives in a worker process, never in the main one.
Worker ``w`` of W owns the vehicles with ``vehicle_id % W == w``: it
holds only their latents and their denoisers in a ``Shard`` and runs
every visit of theirs.  The main process keeps the codec, the event
loop, the knowledge caches and the ledger, and decodes each visit's list
from its knowledge.  A ``Shard`` is also a fleet of its own, run
in-process: ``Fleet`` and ``Shard`` share ``reset``, ``compute`` and
``load``, all that ``harness.simulate_protocol`` uses.

Nothing a worker holds carries over from one protocol phase to the
next.  ``Fleet.reset(cfg, latents)`` starts a phase: it sends each
worker one message holding the phase's config and the latents of the
vehicles it owns, and the worker remakes their denoisers from their
``"denoiser"`` substreams.  So one fleet serves any number of protocol
phases, of any seeds, each as fresh as a new fleet would be.

A job is ``(vehicle_id, visit_index, integrated knowledge or None)``.
``Fleet.compute`` sends each worker its share of a round of jobs, in
entry order, and returns one ``(knowledge, losses)`` per job in job
order.  Each visit's result depends only on its own inputs and
substreams, so the bytes do not depend on W.

Workers are ``python -m roadcache.fleet`` processes talking over their
stdin and stdout pipes, with one BLAS thread each
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``).
Each message on a pipe is one plain pickle (protocol 5, no out-of-band
buffers); a message cut short reads as the end of the stream.  A
worker's start message holds only the caller's package path: the worker
checks that it imported that package, and writes nothing else to its
stdout; its stderr is the caller's.  Only ``compute`` is answered.  An
exception a worker raises there is re-raised in the caller; a worker
that dies (or raises what it cannot pickle) is reported as an
``InvariantError`` naming it, at the first round it owns a job in.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import fed_distill, ldpm
from .config import SimConfig
from .errors import InvariantError, TrainingError
from .rng import substream

# Seconds a closing worker gets to exit after its stdin closes, before it is killed.
EXIT_SECONDS = 5.0

_PACKAGE = Path(__file__).resolve().parent


def worker_count(vehicles: int) -> int:
    """The CPUs this process may run on, capped by the vehicle count (at least 1)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, vehicles))


class Shard:
    """One worker's vehicles, for one protocol phase: their latents and their denoisers.

    It holds nothing until ``reset`` starts a phase.  Also an in-process
    fleet of one worker: ``load`` is its one ``[visits, seconds computing
    them, None]`` entry since the last ``reset`` (see ``Fleet.load``).
    """

    def reset(self, cfg: SimConfig, latents: dict[int, np.ndarray]) -> None:
        """Start a phase of ``cfg`` for the vehicles ``latents`` holds by vehicle id.

        Each gets a new denoiser, made from its ``"denoiser"`` substream.
        """
        self.cfg = cfg
        self.schedule = ldpm.build_schedule(cfg.ldpm.steps)
        self.latents = latents
        self.load = [[0, 0.0, None]]
        self.denoisers = {vid: ldpm.new_denoiser(cfg.codec.latent_dim, cfg.ldpm.hidden,
                                                 cfg.ldpm.time_embed,
                                                 substream(cfg.sim.seed, "denoiser", vid))
                          for vid in latents}

    def compute(self, jobs: list[tuple]) -> list[tuple]:
        """Run the jobs (in entry order) through ``fed_distill.train_and_predict``.

        Returns one (knowledge, losses) per job, in job order.
        """
        began = time.perf_counter()
        seed = self.cfg.sim.seed
        visits = []
        for vid, index, integrated in jobs:
            visits.append(fed_distill.VisitInputs(
                vid, self.latents[vid], self.denoisers[vid], integrated,
                substream(seed, "train", vid, index), substream(seed, "sample", vid, index)))
        results = fed_distill.train_and_predict(visits, self.cfg, self.schedule)
        self.load[0][0] += len(jobs)
        self.load[0][1] += time.perf_counter() - began
        return results


class Fleet:
    """The main process's handle on the workers; a context manager.

    ``load`` holds, per worker, its shard's ``load`` entry as of its last
    reply: the visits it computed and the seconds it spent computing them
    since the last ``reset``, and its peak resident memory in MB
    (``VmHWM``), None before a reply or where the worker cannot read
    ``/proc/self/status``.
    """

    def __init__(self, cfg: SimConfig, workers: int | None = None):
        self.count = worker_count(cfg.data.num_vehicles) if workers is None else workers
        self.procs: list[subprocess.Popen] = []
        self.load = [[0, 0.0, None] for _ in range(self.count)]

    def __enter__(self) -> "Fleet":
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        src = str(_PACKAGE.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        try:
            for _ in range(self.count):
                self.procs.append(subprocess.Popen(
                    [sys.executable, "-m", "roadcache.fleet"], cwd=src, env=env,
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE))
                self._post(len(self.procs) - 1, str(_PACKAGE))
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def reset(self, cfg: SimConfig, latents: dict[int, np.ndarray]) -> None:
        """Start a protocol phase of ``cfg``: each worker gets its vehicles' latents
        (keyed by vehicle id) and remakes their denoisers, and ``load`` restarts.

        One message per worker, written before this returns; the worker
        sends no reply.
        """
        for w in range(self.count):
            self._post(w, ("reset", cfg, {vid: own for vid, own in latents.items()
                                          if vid % self.count == w}))
        self.load = [[0, 0.0, None] for _ in range(self.count)]

    def compute(self, jobs: list[tuple]) -> list[tuple]:
        """Every job's (knowledge, losses), in job order."""
        owned: list[list[int]] = [[] for _ in self.procs]
        for i, job in enumerate(jobs):
            owned[job[0] % self.count].append(i)
        for w, mine in enumerate(owned):
            if mine:
                self._post(w, ("compute", [jobs[i] for i in mine]))
        results: list[tuple] = [()] * len(jobs)
        failure = None
        for w, mine in enumerate(owned):
            if not mine:
                continue
            reply = self._receive(w)
            if reply[0] == "error":
                failure = failure or reply[1]
                continue
            _, computed, self.load[w] = reply
            for i, result in zip(mine, computed):
                results[i] = result
        if failure is not None:
            raise failure
        return results

    def _post(self, w: int, obj) -> None:
        try:
            _send(self.procs[w].stdin, obj)
        except OSError:
            pass   # the worker is gone; reading its reply names it and how it ended

    def _receive(self, w: int) -> tuple:
        proc = self.procs[w]
        reply = _receive(proc.stdout)
        if reply is None:
            try:
                status = proc.wait(EXIT_SECONDS)
            except subprocess.TimeoutExpired:
                status = "none (still running)"
            raise InvariantError(f"fleet worker {w} (pid {proc.pid}) died with exit status {status}")
        return reply

    def close(self) -> None:
        """Close every worker's pipes and wait for it; kill one that outstays ``EXIT_SECONDS``.

        A worker exits when its stdin closes, or when a reply it is still
        writing finds its stdout closed.
        """
        for proc in self.procs:
            for pipe in (proc.stdin, proc.stdout):
                try:
                    pipe.close()
                except OSError:
                    pass
        deadline = time.monotonic() + EXIT_SECONDS
        for proc in self.procs:
            try:
                proc.wait(max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def _send(stream, obj) -> None:
    pickle.dump(obj, stream, protocol=5)
    stream.flush()


def _receive(stream):
    """The next message; None when the stream ends before a whole one."""
    try:
        return pickle.load(stream)
    except (EOFError, pickle.UnpicklingError):
        return None


def _peak_rss_mb() -> float | None:
    """This process's peak resident memory (``VmHWM``) in MB; None where it cannot be read."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _serve() -> int:
    """Worker loop: take the start message, then follow each message until stdin closes."""
    requests = sys.stdin.buffer
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)   # nothing but replies may reach the caller's pipe
    package = _receive(requests)
    if package is None:
        return 0
    if Path(package) != _PACKAGE:
        _send(replies, ("error", InvariantError(
            f"fleet worker imported roadcache from {_PACKAGE}, not {package}")))
        return 1
    shard = Shard()
    while (message := _receive(requests)) is not None:
        kind, *args = message
        if kind == "reset":
            shard.reset(*args)
            continue
        try:
            computed = shard.compute(*args)
            visits, seconds, _ = shard.load[0]
            reply = ("ok", computed, [visits, seconds, _peak_rss_mb()])
        except Exception as exc:   # re-raised in the main process
            if not isinstance(exc, TrainingError):
                traceback.print_exc()   # a fault, not bad training: show where it happened
            reply = ("error", exc)
        _send(replies, reply)
    return 0


if __name__ == "__main__":
    sys.exit(_serve())
