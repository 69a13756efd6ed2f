"""The benchmark's traced names still resolve to the package's functions.

``perfbench/layers.py`` wraps ``roadcache.<module>.<function>`` by name and
reads some call arguments by name in its observers.  A name that stops
resolving silently drops its metrics from a traced run, so the targets are
read from that file's source here (nothing under ``perfbench/`` is
imported or written) and checked against the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers_tree():
    return ast.parse(LAYERS.read_text(encoding="utf-8"))


def _targets():
    """(target, observer method or None) from CHECK_TARGETS and TRACE_TARGETS."""
    found = {}
    for node in _layers_tree().body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("CHECK_TARGETS", "TRACE_TARGETS")):
            found[node.targets[0].id] = ast.literal_eval(node.value)
    assert set(found) == {"CHECK_TARGETS", "TRACE_TARGETS"}
    return [item for table in found.values() for item in table.items()]


def _observer_args():
    """Observer method -> the argument names it reads as ``args["name"]``."""
    reads = {}
    for node in ast.walk(_layers_tree()):
        if isinstance(node, ast.ClassDef) and node.name == "Recorder":
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    reads[method.name] = {
                        sub.slice.value for sub in ast.walk(method)
                        if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                        and sub.value.id == "args" and isinstance(sub.slice, ast.Constant)}
    return reads


def _resolve(target):
    module_name, function_name = target.rsplit(".", 1)
    module = importlib.import_module(f"roadcache.{module_name}")
    return getattr(module, function_name, None)


@pytest.mark.parametrize("target,observer", _targets())
def test_target_resolves(target, observer):
    fn = _resolve(target)
    assert callable(fn), f"roadcache.{target} is gone; its benchmark metrics would be dropped"
    if observer is not None:
        reads = _observer_args()[observer]
        params = set(inspect.signature(fn).parameters)
        assert reads <= params, f"{observer} reads {sorted(reads - params)} of {target}"
