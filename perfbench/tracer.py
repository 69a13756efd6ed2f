"""Layer tracing for the roadcache benchmark, applied from outside the package.

`Tracer.install` replaces a roadcache function with a wrapper in every
loaded ``roadcache.*`` module that holds it, so a caller that imported the
name directly (``from .caching import rank_contents``) resolves the
wrapper too.  A timed tracer keeps one span per call (id, parent, name,
start, end) in memory and sums calls and self seconds (a span minus its
traced children) per function; an untimed tracer only runs the
observers, which the output checks need on every run.  A target that no
longer exists is recorded in ``absent`` and its metrics are left out;
nothing fails.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

_clock = time.perf_counter


@dataclass
class FnStats:
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    def __init__(self, timed: bool):
        self.timed = timed
        self.stats: dict[str, FnStats] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.overhead_s = 0.0
        self.absent: list[str] = []
        self.observer_errors: dict[str, str] = {}
        self._stack: list[list] = []          # [span id, seconds spent in children]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def install(self, target: str, observer=None) -> None:
        """Wrap ``roadcache.<module>.<function>``; observer(args, result, seconds)."""
        mod_name, fn_name = target.rsplit(".", 1)
        try:
            module = importlib.import_module(f"roadcache.{mod_name}")
        except ImportError:
            module = None
        fn = getattr(module, fn_name, None)
        if not callable(fn):
            self.absent.append(target)
            return
        wrapper = self._wrap(target, fn, observer)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("roadcache"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def _observe(self, target, observer, sig, args, kwargs, result, seconds) -> None:
        if target in self.observer_errors:
            return
        try:
            bound = sig.bind(*args, **kwargs).arguments
            observer(bound, result, seconds)
        except Exception as exc:  # a refactored signature must not stop the run
            self.observer_errors[target] = f"{type(exc).__name__}: {exc}"

    def _wrap(self, target: str, fn, observer):
        sig = inspect.signature(fn)
        if not self.timed:
            @functools.wraps(fn)
            def probe(*args, **kwargs):
                start = _clock()
                result = fn(*args, **kwargs)
                if observer is not None:
                    self._observe(target, observer, sig, args, kwargs, result, _clock() - start)
                return result
            return probe

        stats = self.stats.setdefault(target, FnStats())
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = _clock()
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
            inclusive = end - start
            if observer is not None:
                self._observe(target, observer, sig, args, kwargs, result, inclusive)
            stats.calls += 1
            stats.self_s += inclusive - frame[1]
            self.spans.append((span_id, parent, target, start, end))
            leave = _clock()
            if stack:
                stack[-1][1] += leave - enter
            self.overhead_s += (leave - enter) - inclusive
            return result
        return traced


def dense_macs(net) -> int:
    """Multiply-adds per input row over a network's Dense layers (in * out)."""
    total = 0
    for layer in getattr(net, "layers", ()):
        w = getattr(layer, "w", None)
        if w is not None and getattr(w, "ndim", 0) == 2:
            total += int(w.shape[0]) * int(w.shape[1])
    return total
