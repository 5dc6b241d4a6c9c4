"""Span tracer that wraps spinrep's functions from outside the package.

``Tracer.install`` replaces every public module-level function of the six
layer modules, the per-metric ``lru_cache`` builders, ``GL4Action.__call__``
and ``numpy.linalg.svd`` with wrappers that record one span each: name,
start, end and the span that was open when it began.  A cached builder's span
is named ``<name>.build`` when the call missed the cache and ``<name>.hit``
otherwise.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

import spinrep  # noqa: F401  (loads every layer module)
from spinrep import transforms

LAYERS = ("_kernels", "grassmann", "clifford", "isomorphisms", "transforms", "dirac")
MODULES = {name: sys.modules[f"spinrep.{name}"] for name in LAYERS}
CACHED = {
    "grassmann": ("_gamma_ops_cached", "_right_gamma_ops_cached", "_hodge_matrix_cached"),
    "clifford": ("_structure_cached",),
    "isomorphisms": ("_matrix_basis_cached", "_right_blade_ops_cached"),
}
# the lru_cache objects themselves, taken before any wrapper replaces them
CACHES = {mod: [getattr(MODULES[mod], n) for n in names] for mod, names in CACHED.items()}
SVD = "numpy.linalg.svd"


def clear_caches() -> None:
    for caches in CACHES.values():
        for cache in caches:
            cache.cache_clear()


def cache_info() -> dict[str, dict[str, int]]:
    """``cache_info()`` of every per-metric cache, by qualified name."""
    return {
        f"{mod}.{name}": cache.cache_info()._asdict()
        for mod, names in CACHED.items() for name, cache in zip(names, CACHES[mod])
    }


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one column per span field, so that long runs stay small in memory
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrap_cached(self, name: str, fn):
        build_id, hit_id = self._id(f"{name}.build"), self._id(f"{name}.hit")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = fn.cache_info().misses
            idx = self._open(hit_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if fn.cache_info().misses != misses:
                    self.name[idx] = build_id

        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for mod_name, mod in MODULES.items():
            public = [
                (attr, obj) for attr, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                and not attr.startswith("_")
            ]
            # an object bound to several names (wedge16 = wedge16_numpy) is
            # traced under its shortest name
            for attr, obj in sorted(public, key=lambda p: len(p[0])):
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(f"{mod_name}.{attr}", obj)
            for attr in CACHED.get(mod_name, ()):
                obj = getattr(mod, attr)
                wrappers[id(obj)] = self._wrap_cached(f"{mod_name}.{attr}", obj)
        # rebind every name under which a spinrep module sees a wrapped object
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "spinrep" or mod_name.startswith("spinrep.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        call = transforms.GL4Action.__call__
        self._patch(transforms.GL4Action, "__call__", self._wrap("transforms.GL4Action.__call__", call))
        self._patch(np.linalg, "svd", self._wrap(SVD, np.linalg.svd))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, and the SVD
        time spent directly under ``transforms.spin_lift``.

        Self time is the span's duration minus its children's.  SVD spans
        are not subtracted from their parent: they only split out a part of
        the caller's own work.
        """
        n = len(self.name)
        svd_id = self._ids.get(SVD, -1)
        lift_id = self._ids.get("transforms.spin_lift", -2)
        children = [0] * n
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        lift_svd = {"calls": 0, "total_s": 0.0}
        for i in range(n):
            p = self.parent[i]
            if p >= 0 and self.name[i] != svd_id:
                children[p] += self.end[i] - self.start[i]
        for i in range(n):
            dur = self.end[i] - self.start[i]
            s = stats[self.names[self.name[i]]]
            s["calls"] += 1
            s["total_s"] += dur * 1e-9
            s["self_s"] += (dur - children[i]) * 1e-9
            p = self.parent[i]
            if self.name[i] == svd_id and p >= 0 and self.name[p] == lift_id:
                lift_svd["calls"] += 1
                lift_svd["total_s"] += dur * 1e-9
        stats["svd-under-spin_lift"] = {**lift_svd, "self_s": lift_svd["total_s"]}
        return dict(stats)

    def cache_counts(self, summary: dict) -> dict[str, tuple[int, int]]:
        """(hits, misses) of each module's caches, counted from the spans."""
        return {
            mod: tuple(sum(summary.get(f"{mod}.{n}.{kind}", {}).get("calls", 0) for n in names)
                       for kind in ("hit", "build"))
            for mod, names in CACHED.items()
        }

    def dump(self, path) -> None:
        """Write, gzip-compressed, the span names as one JSON line, then every
        span as a line [name index, start_ns, end_ns, parent index]."""
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start_ns", "end_ns", "parent"]}) + "\n")
            for i in range(len(self.name)):
                fh.write(f"[{self.name[i]},{self.start[i] - t0},{self.end[i] - t0},{self.parent[i]}]\n")
