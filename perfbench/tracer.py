"""In-memory span tracer wrapped around isacbeam's public functions.

Every module-level public function of the measured layers is replaced, in
every ``isacbeam`` namespace that binds it (``isacbeam.solve`` as well as
``isacbeam.sca.solve``, ``experiments.scene_from_config`` as well as
``scene.scene_from_config``), by a wrapper that records one span per call:
name, start, end, parent span and solve id. Spans stay in memory until
:meth:`Tracer.save`. A span's self time is its duration minus the durations of
its children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("scene", "metrics", "sca", "lowdim", "experiments")

# A span of one of these opened outside any other solve starts a new solve id.
SOLVE_ROOTS = ("sca.solve", "lowdim.solve_ld")


def public_functions() -> dict:
    """``{"layer.name": function}`` for every public function each layer defines."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"isacbeam.{layer}")
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                found[f"{layer}.{name}"] = obj
    return found


def _namespaces():
    return [m for n, m in list(sys.modules.items()) if n == "isacbeam" or n.startswith("isacbeam.")]


@contextmanager
def patched(replacements: dict):
    """Rebind each function in ``replacements`` ({original: replacement}) in
    every isacbeam namespace for the duration of the block."""
    undo = []
    try:
        for module in _namespaces():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacements:
                    undo.append((module, attr, value))
                    setattr(module, attr, replacements[value])
        yield
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)


class Tracer:
    """Collects spans from wrapped functions while :meth:`active` is entered."""

    def __init__(self, functions: dict):
        self.names = list(functions)
        self.name_id: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.solve: list = []
        self._stack: list = []
        self._solve_state = [-1, 0]  # current solve id, next solve id
        self._wrappers = {
            fn: self._wrap(i, fn, name in SOLVE_ROOTS)
            for i, (name, fn) in enumerate(functions.items())
        }

    def _wrap(self, idx: int, fn, is_root: bool):
        name_id, start, end = self.name_id, self.start, self.end
        parent, solve, stack, state = self.parent, self.solve, self._stack, self._solve_state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = is_root and state[0] < 0
            if opened:
                state[0] = state[1]
                state[1] += 1
            i = len(start)
            name_id.append(idx)
            parent.append(stack[-1] if stack else -1)
            solve.append(state[0])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
                if opened:
                    state[0] = -1

        return traced

    @contextmanager
    def active(self):
        """Trace every wrapped function inside the block."""
        with patched(self._wrappers):
            yield

    def arrays(self) -> dict:
        """Spans as arrays, with each span's self time."""
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "start": start,
            "duration": dur,
            "self": dur - child,
            "parent": parent,
            "solve": np.asarray(self.solve, dtype=np.int64),
        }

    def summary(self) -> dict:
        """Per-function call counts (all, and inside solves) and self time."""
        spans = self.arrays()
        n = len(self.names)
        inside = spans["solve"] >= 0
        calls = np.bincount(spans["name_id"], minlength=n)
        calls_in_solve = np.bincount(spans["name_id"][inside], minlength=n)
        self_s = np.bincount(spans["name_id"], weights=spans["self"], minlength=n)
        return {
            name: {
                "calls": int(calls[i]),
                "calls_in_solve": int(calls_in_solve[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(self.names)
        }

    def root_seconds(self, names) -> float:
        """Total duration of top-level spans of the named functions."""
        spans = self.arrays()
        ids = [self.names.index(n) for n in names if n in self.names]
        top = (spans["parent"] < 0) & np.isin(spans["name_id"], ids)
        return float(spans["duration"][top].sum())

    def self_seconds_under(self, names) -> float:
        """Total self time of every span below (and including) top-level spans
        of the named functions."""
        spans = self.arrays()
        ids = [self.names.index(n) for n in names if n in self.names]
        root = np.arange(len(spans["parent"]))
        parent = spans["parent"]
        # Spans are appended in call order, so a parent precedes its children.
        for i in range(len(root)):
            if parent[i] >= 0:
                root[i] = root[parent[i]]
        top = np.isin(spans["name_id"][root], ids) & (parent[root] < 0)
        return float(spans["self"][top].sum())

    def save(self, path: Path) -> None:
        """Write every span, with the name table, as one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())
