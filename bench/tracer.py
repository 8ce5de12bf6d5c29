"""In-memory spans and counters for the traced benchmark run.

Tracing works from outside the library.  `Tracer.patched()` replaces the
functions named in `SPANS` and `COUNTERS`, as they are bound in the modules
that call them, with wrappers that record a span or a count, and puts the
originals back on exit.  Outside `patched()` nothing is wrapped, so untraced
solves run the library unmodified.

A span is (id, parent id, root id, name, start, end).  Every solve and every
set-up is one root; spans of one root share its id.  Spans stay in memory
until `write()` dumps them at the end of the run.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np

from youngbsde import (bsde, cli, diffusion, drivers, experiments, pde_fk,
                       regression)

# (owner, attribute, span name).  Each entry wraps the function as the
# calling module sees it; one layer may be bound in several modules.
SPANS = [
    (cli, "run_experiment", "experiments.run_experiment"),
    (cli, "write_manifest", "manifest.write_manifest"),
    (experiments, "write_csv", "csvio.write_csv"),
    (experiments, "fk_point_estimate", "pde_fk.fk_point_estimate"),
    (pde_fk, "fk_point_estimate", "pde_fk.fk_point_estimate"),
    (pde_fk, "solve_young_pde_double_approximation",
     "pde_fk.double_approximation"),
    (pde_fk, "young_sum_batch", "young_calculus.young_sum_batch"),
    (experiments, "simulate", "diffusion.simulate"),
    (pde_fk, "simulate", "diffusion.simulate"),
    (bsde, "simulate", "diffusion.simulate"),
    (diffusion, "_normal_increments", "diffusion.rng"),
    (bsde, "first_exit", "diffusion.first_exit"),
    (drivers.SpaceTimeDriver, "increment_pairs", "drivers.increment_pairs"),
    (bsde, "poly_basis", "regression.poly_basis"),
    (bsde, "ridge_fit", "regression.ridge_fit"),
    (regression, "ridge_fit", "regression.ridge_fit"),
    (bsde, "solve_localized_bsde", "bsde.solve_localized_bsde"),
    (pde_fk, "solve_localized_bsde", "bsde.solve_localized_bsde"),
    (bsde, "_cross_fitted_control", "bsde.cross_fit"),
]


def _increment_points(args, kwargs, result):
    return {"drivers.increment_pairs.points": int(np.size(args[1]))}


def _ridge_rows(args, kwargs, result):
    return {"regression.ridge_fit.calls": 1,
            "regression.ridge_fit.rows": int(args[0].shape[0])}


def _picard(args, kwargs, result):
    return {"bsde.solve_localized_bsde.calls": 1,
            "bsde.picard_iterations": int(result.picard_iterations)}


# span name -> counts taken from each call's arguments and result
COUNTERS = {
    "drivers.increment_pairs": _increment_points,
    "regression.ridge_fit": _ridge_rows,
    "bsde.solve_localized_bsde": _picard,
}

_current = contextvars.ContextVar("bench_span", default=None)


class _Root:
    def __init__(self, span_id: int, name: str, lock: threading.Lock):
        self.id = span_id
        self.name = name
        self.counts: dict[str, int] = {}
        self._lock = lock

    def add(self, name: str, n: int) -> None:
        with self._lock:  # pool threads of one solve share the root
            self.counts[name] = self.counts.get(name, 0) + n


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.roots: list[_Root] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    @contextmanager
    def root(self, name: str):
        """One solve or set-up: a span with no parent that owns counters."""
        root = _Root(next(self._ids), name, self._lock)
        token = _current.set((root.id, root))
        start = time.perf_counter()
        try:
            yield root
        finally:
            end = time.perf_counter()
            _current.reset(token)
            self.roots.append(root)
            self.spans.append((root.id, None, root.id, name, start, end))

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code that calls into a layer."""
        cur = _current.get()
        sid = next(self._ids)
        token = _current.set((sid, cur[1]))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _current.reset(token)
            self.spans.append((sid, cur[0], cur[1].id, name, start, end))

    def _wrap(self, fn, name: str, counter=None):
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cur = _current.get()
            if cur is None:
                return fn(*args, **kwargs)
            sid = next(ids)
            token = _current.set((sid, cur[1]))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _current.reset(token)
                spans.append((sid, cur[0], cur[1].id, name, start, end))
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    cur[1].add(key, n)
            return result

        return wrapper

    def _count_calls(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cur = _current.get()
            if cur is not None:
                cur[1].add(name, 1)
            return fn(*args, **kwargs)

        return wrapper

    def count_base_field(self, driver):
        """Copy of `driver` whose raw field counts the points it evaluates.

        `mollify_time` captures the raw field of the driver it smooths, so
        the copy must replace the base driver before any mollification."""
        base = driver.fn

        def fn(t, x):
            cur = _current.get()
            if cur is not None:
                cur[1].add("drivers.base_field.points", int(np.size(t)))
            return base(t, x)

        return dataclasses.replace(driver, fn=fn)

    def _parallel_map(self, original):
        # pool threads start from an empty context; run each job in a copy
        # of the caller's so its spans keep their parent and root
        def parallel_map(fn, items, workers):
            ctx = contextvars.copy_context()
            return original(lambda item: ctx.copy().run(fn, item), items,
                            workers)

        return self._wrap(parallel_map, "experiments.parallel_map")

    def _driver_by_names(self, original):
        @functools.wraps(original)
        def driver_by_names(*args, **kwargs):
            return self.count_base_field(original(*args, **kwargs))

        return driver_by_names

    @contextmanager
    def patched(self):
        """Install every wrapper; restore the originals on exit."""
        saved = []

        def install(owner, attr, wrapper):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

        try:
            for owner, attr, name in SPANS:
                install(owner, attr, self._wrap(getattr(owner, attr), name,
                                                COUNTERS.get(name)))
            install(diffusion, "hash64",
                    self._count_calls(diffusion.hash64,
                                      "diffusion.rng.streams"))
            install(experiments, "parallel_map",
                    self._parallel_map(experiments.parallel_map))
            install(experiments, "driver_by_names",
                    self._driver_by_names(experiments.driver_by_names))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def per_root(self, root_name: str) -> list[dict]:
        """For every root of that name: its wall time, per span name the
        summed duration and self time, and its counters.  Self time is the
        span's duration minus the part of it that its children cover."""
        children: dict[int, list] = {}
        by_root: dict[int, list] = {}
        for span in self.spans:
            if span[1] is not None:
                children.setdefault(span[1], []).append(span)
            by_root.setdefault(span[2], []).append(span)
        out = []
        for root in self.roots:
            if root.name != root_name:
                continue
            total: dict[str, float] = {}
            self_s: dict[str, float] = {}
            wall = 0.0
            for sid, parent, _, name, start, end in by_root[root.id]:
                covered = _union(
                    [(max(s[4], start), min(s[5], end))
                     for s in children.get(sid, [])])
                total[name] = total.get(name, 0.0) + (end - start)
                self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
                if parent is None:
                    wall = end - start
            out.append({"wall": wall, "total": total, "self": self_s,
                        "counts": dict(root.counts)})
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "root", "name", "start",
                                  "end"],
                       "roots": [{"id": r.id, "name": r.name,
                                  "counts": r.counts} for r in self.roots],
                       "spans": self.spans}, fh)


def _union(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    length, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        length += end - max(start, reach)
        reach = end
    return length


def median_of(rows: list[dict], kind: str, name: str) -> float:
    return statistics.median(row[kind].get(name, 0.0) for row in rows)
