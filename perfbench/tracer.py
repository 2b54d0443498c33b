"""Span tracer for the benchmark's traced run.

Wraps public functions and methods of the ``lcq`` modules at module level,
so nothing in the package changes.  Each wrapped call records a span
(id, name, start, end, parent span, thread) in memory; a few calls that are
too frequent or too fine for a span are counted, or timed without a span.
Per-layer metrics are computed from the spans after the call; the spans
themselves are written out as TSV for inspection.

A span's self time is its duration minus the part of that interval that its
child spans cover.  Worker threads of the gain-map pool start with an empty
span stack; their spans take as parent the innermost open span of the main
thread, which is the ``gain_map`` call that is waiting on the pool.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
from collections import Counter, defaultdict
from time import perf_counter, thread_time

import numpy as np

from lcq import cli, doppler, liouville, propagate, scans

# Spans whose thread CPU time is recorded too (the gain-map column work).
_CPU_SPANS = ("propagate.cache.build", "propagate.integrate")
_SCAN_SPANS = ("scans.spectra_scan", "scans.switching_curve", "scans.gain_map_records",
               "scans.transparency_crossings")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _systems(*arrays) -> int:
    return int(np.broadcast(*(np.asarray(a) for a in arrays)).size)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, thread, cpu)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._counters: list[Counter] = []
        self._patches: list[tuple] = []
        self.lookup_args: dict = {}    # cache -> [(|G1|, |G3|) of each lookup]
        self.pool_threads: dict[int, int] = {}
        self.csv_bytes = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self) -> Counter:
        # one counter per thread, merged at the end: no read-modify-write is shared
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            self._counters.append(counter)
        return counter

    # -- wrapping ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        tracer = self
        cpu = name in _CPU_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else -1
            sid = next(tracer._ids)
            stack.append(sid)
            c0 = thread_time() if cpu else 0.0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                c1 = thread_time() if cpu else 0.0
                stack.pop()
                tracer.spans.append(
                    (sid, name, t0, t1, parent, threading.get_ident(), c1 - c0))
            if after is not None:
                after(sid, args, kwargs, result)
            return result

        return wrapper

    def _timer(self, name, fn):
        """Time and count calls without opening a span (inside one layer)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counter = tracer._count()
                counter[name + ".busy_s"] += perf_counter() - t0
                counter[name + ".calls"] += 1

        return wrapper

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._count()[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper_for):
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(wrapper_for(original.__func__))
        else:
            wrapped = wrapper_for(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        span, timer, counted = self._span, self._timer, self._counted
        P = self._patch
        P(liouville, "drive_steady_state_batch", lambda f: span(
            "liouville.drive", f, self._after_drive))
        P(liouville, "probe_response_compact", lambda f: span(
            "liouville.probe", f, self._after_probe))
        P(doppler, "average_coefficients", lambda f: span("doppler.average", f))
        P(doppler, "kahan_sum", lambda f: timer("doppler.kahan", f))
        P(doppler.DriveGrid, "__init__", lambda f: span(
            "doppler.drivegrid", f, self._after_drivegrid))
        P(doppler.DriveGrid, "coefficients_for", lambda f: span("doppler.column", f))
        P(propagate.CoefficientCache, "build", lambda f: span(
            "propagate.cache.build", f, self._after_build))
        P(propagate.CoefficientCache, "lookup", lambda f: span(
            "propagate.cache.lookup", f, self._after_lookup))
        P(propagate, "integrate", lambda f: span("propagate.integrate", f))
        P(propagate, "rhs", lambda f: counted("propagate.rhs.calls", f))
        self._gain_map_signature = inspect.signature(propagate.gain_map)
        P(propagate, "gain_map", lambda f: span(
            "propagate.gain_map", f, self._after_gain_map))
        for name in _SCAN_SPANS:
            attr = name.split(".", 1)[1]
            P(scans, attr, lambda f, name=name: span(name, f))
        P(scans, "records_to_csv", lambda f: span("scans.csv", f, self._after_csv))
        P(cli, "main", lambda f: span("cli.main", f))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counts taken after a call, outside its span -----------------------

    def _after_drive(self, sid, args, kwargs, result):
        self._count()["liouville.drive.systems"] += _systems(
            _arg(args, kwargs, 2, "om1p"), _arg(args, kwargs, 3, "om3p"),
            _arg(args, kwargs, 4, "G1"), _arg(args, kwargs, 5, "G3"))

    def _after_probe(self, sid, args, kwargs, result):
        self._count()["liouville.probe.systems"] += _systems(
            *(_arg(args, kwargs, i, n) for i, n in
              ((1, "om1p"), (2, "om2p"), (3, "om4p"), (4, "G1"), (5, "G3"))))

    def _after_drivegrid(self, sid, args, kwargs, result):
        grid = args[0]
        counter = self._count()
        counter["doppler.drivegrid.nodes"] += grid.g1_grid.size * grid.g3_grid.size
        counter["doppler.drivegrid.mib"] += grid.src.nbytes / 2**20

    def _after_build(self, sid, args, kwargs, cache):
        self.lookup_args[cache] = []

    def _after_lookup(self, sid, args, kwargs, result):
        self.lookup_args[args[0]].append(
            (_arg(args, kwargs, 1, "g1_abs"), _arg(args, kwargs, 2, "g3_abs")))

    def _after_gain_map(self, sid, args, kwargs, result):
        bound = self._gain_map_signature.bind(*args, **kwargs)
        self.pool_threads[sid] = bound.arguments.get("threads", 1)

    def _after_csv(self, sid, args, kwargs, result):
        self.csv_bytes += os.path.getsize(_arg(args, kwargs, 1, "path"))

    # -- metrics ----------------------------------------------------------

    def metrics(self, solve_s: float) -> dict[str, float]:
        """Per-layer metrics; a layer that did not run reports 0."""
        counts = Counter()
        for c in self._counters:
            counts.update(c)
        children = defaultdict(list)
        by_name = defaultdict(list)
        for s in self.spans:
            children[s[4]].append(s)
            by_name[s[1]].append(s)

        def covered(sid: int) -> float:
            """Length of the union of the child intervals of span ``sid``."""
            total, reach = 0.0, -np.inf
            for _, _, t0, t1, *_ in sorted(children[sid], key=lambda s: s[2]):
                if t1 > reach:
                    total += t1 - max(t0, reach)
                    reach = t1
            return total

        def busy(name):
            return sum(s[3] - s[2] for s in by_name[name])

        def self_s(*names):
            return sum(s[3] - s[2] - covered(s[0]) for n in names for s in by_name[n])

        def per(a, b, scale=1.0):
            return a / b * scale if b else 0.0

        m = {}
        for layer in ("drive", "probe"):
            name = f"liouville.{layer}"
            systems = counts[name + ".systems"]
            m[name + ".systems"] = int(systems)
            m[name + ".busy_s"] = busy(name)
            m[name + ".ns_per_system"] = per(busy(name), systems, 1e9)
        m["doppler.average.calls"] = len(by_name["doppler.average"])
        m["doppler.average.self_s"] = self_s("doppler.average")
        m["doppler.kahan.calls"] = int(counts["doppler.kahan.calls"])
        m["doppler.kahan.busy_s"] = counts["doppler.kahan.busy_s"]
        m["doppler.drivegrid.nodes"] = int(counts["doppler.drivegrid.nodes"])
        m["doppler.drivegrid.self_s"] = self_s("doppler.drivegrid")
        m["doppler.drivegrid.mib"] = counts["doppler.drivegrid.mib"]
        m["doppler.column.calls"] = len(by_name["doppler.column"])
        m["doppler.column.self_s"] = self_s("doppler.column")

        caches = list(self.lookup_args)
        tabulated = sum(c.g1_grid.size * c.g3_grid.size for c in caches)
        m["propagate.cache.builds"] = len(by_name["propagate.cache.build"])
        m["propagate.cache.nodes"] = tabulated
        m["propagate.cache.self_s"] = self_s("propagate.cache.build")
        m["propagate.cache.lookups"] = len(by_name["propagate.cache.lookup"])
        m["propagate.cache.lookup_s"] = busy("propagate.cache.lookup")
        m["propagate.cache.fallbacks"] = sum(c.fallbacks for c in caches)
        m["propagate.cache.node_use"] = per(
            sum(self._nodes_used(c, args) for c, args in self.lookup_args.items()), tabulated)
        steps = counts["propagate.rhs.calls"] / 4
        m["propagate.integrate.calls"] = len(by_name["propagate.integrate"])
        m["propagate.integrate.rk4_steps"] = int(steps)
        m["propagate.integrate.self_s"] = self_s("propagate.integrate")
        m["propagate.integrate.us_per_step"] = per(busy("propagate.integrate"), steps, 1e6)
        m["propagate.gain_map.parallel_efficiency"] = self._parallel_efficiency(
            by_name["propagate.gain_map"], children)

        m["scans.self_s"] = self_s(*_SCAN_SPANS)
        m["scans.csv_s"] = busy("scans.csv")
        m["scans.csv_bytes"] = self.csv_bytes
        m["cli.self_s"] = self_s("cli.main")
        m["trace.solve_s"] = solve_s
        m["trace.coverage"] = per(sum(covered(s[0]) for s in by_name["cli.main"]), solve_s)
        return m

    @staticmethod
    def _nodes_used(cache, args) -> int:
        """Tabulated nodes inside the 4 x 4 stencil of any cell a lookup hit."""
        if not args:
            return 0
        g = np.asarray(args, dtype=float)
        g1, g3 = cache.g1_grid, cache.g3_grid
        hit = (g[:, 0] >= 0) & (g[:, 0] <= g1[-1]) & (g[:, 1] >= 0) & (g[:, 1] <= g3[-1])
        i = np.clip(np.searchsorted(g1, g[hit, 0]) - 1, 0, g1.size - 2)
        j = np.clip(np.searchsorted(g3, g[hit, 1]) - 1, 0, g3.size - 2)
        used = np.zeros((g1.size, g3.size), dtype=bool)
        for a, b in set(zip(i.tolist(), j.tolist())):
            used[max(a - 1, 0):a + 3, max(b - 1, 0):b + 3] = True
        return int(used.sum())

    def _parallel_efficiency(self, maps, children) -> float:
        """Column thread CPU time / (threads x wall time of the column phase)."""
        cpu = wall = 0.0
        for s in maps:
            cols = [c for c in children[s[0]] if c[1] in _CPU_SPANS]
            if cols:
                cpu += sum(c[6] for c in cols)
                wall += self.pool_threads.get(s[0], 1) * (
                    max(c[3] for c in cols) - min(c[2] for c in cols))
        return cpu / wall if wall else 0.0

    def write_spans(self, path) -> None:
        """All spans as TSV: id, name, start, end (s, from the first span), parent, thread."""
        base = min((s[2] for s in self.spans), default=0.0)
        threads = {}
        lines = ["id\tname\tstart_s\tend_s\tparent\tthread"]
        for sid, name, t0, t1, parent, thread, _ in sorted(self.spans):
            tid = threads.setdefault(thread, len(threads))
            lines.append(f"{sid}\t{name}\t{t0 - base:.6f}\t{t1 - base:.6f}\t{parent}\t{tid}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
