"""Worker processes that run the vehicles' visit compute.

Each vehicle trains and samples its own denoiser, independently of the
others, so the protocol phase (``harness.simulate_protocol``) hands that
work to W worker processes.  Worker ``w`` owns the vehicles with
``vehicle_id % W == w``: it holds their latents, decoders and denoisers
(a ``Shard``) and runs every visit of theirs.  The main process keeps
the event loop, the knowledge caches and the ledger.

A job is ``(vehicle_id, visit_index, integrated knowledge or None)``.
``Fleet.compute`` sends each worker its share of a round of jobs, in
entry order, and returns one ``(list ids, knowledge, losses)`` per job
in job order.  A worker makes each denoiser from the vehicle's
``"denoiser"`` substream, and a vehicle's latents and decoder travel
with its first job as raw array buffers (pickle protocol 5 out-of-band),
so the main process never holds a pickled copy of a decoder.  Each
visit's result depends only on its own inputs and substreams, so the
bytes do not depend on W.

Workers are ``python -m roadcache.fleet`` processes talking over their
stdin and stdout pipes, with one BLAS thread each
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``).  A
worker checks that it imported the caller's package, and writes nothing
else to its stdout; its stderr is the caller's.  An exception a worker
raises is re-raised in the caller; a worker that dies (or raises what it
cannot pickle) is reported as an ``InvariantError`` naming it.
"""

from __future__ import annotations

import os
import pickle
import struct
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import fed_distill, ldpm
from .caching import top_m
from .config import SimConfig
from .errors import InvariantError, TrainingError
from .nn import Mlp
from .rng import substream

# Seconds a closing worker gets to exit after its stdin closes, before it is killed.
EXIT_SECONDS = 5.0

_HEADER = struct.Struct("<QI")   # pickle length, out-of-band buffer count
_LENGTH = struct.Struct("<Q")
_PACKAGE = Path(__file__).resolve().parent


def worker_count(vehicles: int) -> int:
    """The CPUs this process may run on, capped by the vehicle count (at least 1)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, vehicles))


class Shard:
    """One worker's vehicles: their latents, decoders and denoisers."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.schedule = ldpm.build_schedule(cfg.ldpm.steps)
        self.vehicles: dict[int, tuple[np.ndarray, Mlp, ldpm.DenoiserParams]] = {}

    def add(self, vehicle_id: int, latents: np.ndarray, decoder: Mlp) -> None:
        cfg = self.cfg
        denoiser = ldpm.new_denoiser(cfg.codec.latent_dim, cfg.ldpm.hidden, cfg.ldpm.time_embed,
                                     substream(cfg.sim.seed, "denoiser", vehicle_id))
        self.vehicles[vehicle_id] = (latents, decoder, denoiser)

    def compute(self, jobs: list[tuple]) -> list[tuple]:
        """Run the jobs (in entry order) through ``fed_distill.train_and_predict``.

        Returns one (top-``list_m`` ids, knowledge, losses) per job, in job order.
        """
        seed = self.cfg.sim.seed
        visits = []
        for vid, index, integrated in jobs:
            latents, decoder, denoiser = self.vehicles[vid]
            visits.append(fed_distill.VisitInputs(
                vid, latents, denoiser, decoder, integrated,
                substream(seed, "train", vid, index), substream(seed, "sample", vid, index)))
        results = fed_distill.train_and_predict(visits, self.cfg, self.schedule)
        return [(top_m(scores.astype(np.float32), self.cfg.cache.list_m), knowledge, losses)
                for scores, knowledge, losses in results]


class Fleet:
    """The main process's handle on the workers; a context manager.

    ``load`` holds, per worker, the visits it computed and the seconds it
    spent computing them.
    """

    def __init__(self, cfg: SimConfig, latents: list[np.ndarray], decoders: list[Mlp],
                 workers: int | None = None):
        self.cfg = cfg
        self.latents = latents
        self.decoders = decoders
        self.count = worker_count(len(latents)) if workers is None else workers
        self.procs: list[subprocess.Popen] = []
        self.shipped: list[set[int]] = [set() for _ in range(self.count)]
        self.load = [[0, 0.0] for _ in range(self.count)]

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
                self._post(len(self.procs) - 1, (str(_PACKAGE), self.cfg))
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def compute(self, jobs: list[tuple]) -> list[tuple]:
        """Every job's (list ids, knowledge, losses), in job order."""
        owned: list[list[int]] = [[] for _ in self.procs]
        for i, job in enumerate(jobs):
            owned[job[0] % self.count].append(i)
        for w, mine in enumerate(owned):
            if not mine:
                continue
            part = [jobs[i] for i in mine]
            new = []
            for vid, _, _ in part:
                if vid not in self.shipped[w]:
                    self.shipped[w].add(vid)
                    new.append((vid, self.latents[vid], self.decoders[vid]))
            self._post(w, (new, part))
        results: list[tuple] = [()] * len(jobs)
        failure = None
        for w, mine in enumerate(owned):
            if not mine:
                continue
            reply = self._receive(w)
            if reply[0] == "error":
                failure = failure or reply[1]
                continue
            _, computed, seconds = reply
            for i, result in zip(mine, computed):
                results[i] = result
            self.load[w][0] += len(mine)
            self.load[w][1] += seconds
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
    """One frame: header, buffer lengths, the pickle, then each array's raw bytes."""
    buffers: list[pickle.PickleBuffer] = []
    blob = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    views = [buf.raw() for buf in buffers]
    stream.write(_HEADER.pack(len(blob), len(views)))
    stream.write(b"".join(_LENGTH.pack(view.nbytes) for view in views))
    stream.write(blob)
    for view in views:
        stream.write(view)
    stream.flush()


def _receive(stream):
    """The next frame's object; None when the stream ends first."""
    head = stream.read(_HEADER.size)
    if len(head) < _HEADER.size:
        return None
    size, count = _HEADER.unpack(head)
    lengths = stream.read(_LENGTH.size * count)
    blob = stream.read(size)
    if len(lengths) < _LENGTH.size * count or len(blob) < size:
        return None
    buffers = []
    for (length,) in _LENGTH.iter_unpack(lengths):
        buf = bytearray(length)
        if stream.readinto(buf) < length:
            return None
        buffers.append(buf)
    return pickle.loads(blob, buffers=buffers)


def _serve() -> int:
    """Worker loop: take the start frame, then answer each round of jobs until stdin closes."""
    requests = sys.stdin.buffer
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)   # nothing but replies may reach the caller's pipe
    start = _receive(requests)
    if start is None:
        return 0
    package, cfg = start
    if Path(package) != _PACKAGE:
        _send(replies, ("error", InvariantError(
            f"fleet worker imported roadcache from {_PACKAGE}, not {package}")))
        return 1
    shard = Shard(cfg)
    while (frame := _receive(requests)) is not None:
        new, jobs = frame
        for vid, latents, decoder in new:
            shard.add(vid, latents, decoder)
        began = time.perf_counter()
        try:
            reply = ("ok", shard.compute(jobs), time.perf_counter() - began)
        except Exception as exc:   # re-raised in the main process
            if not isinstance(exc, TrainingError):
                traceback.print_exc()   # a fault, not bad training: show where it happened
            reply = ("error", exc)
        _send(replies, reply)
    return 0


if __name__ == "__main__":
    sys.exit(_serve())
