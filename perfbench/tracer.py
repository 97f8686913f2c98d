"""Spans around the calls into each weylhull layer, for ``--trace 1`` runs.

The tracer replaces every public function of every weylhull module with a
wrapper wherever callers look it up: the module attribute itself, and any
name another module bound with ``from ... import``.  Each call becomes a
span (name, start, end, parent span, thread, round, op) kept in memory; the
two functions called once per Monte Carlo sample only add to a per-round
(count, seconds) tally.  Nothing under ``src/`` changes, and the untraced
runs install nothing.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
from collections import defaultdict
from time import perf_counter

#: per-sample functions: tallied, not recorded span by span
HOT = {
    "hull.min_norm_point": lambda args: None,
    "cones.project_onto_weyl_chamber": lambda args: args[0].kind,
}

PER_LAYER = (
    ("exactlp.lp_calls", "count"), ("exactlp.lp_s", "s"), ("exactlp.ms_per_lp", "ms"),
    ("exactlp.open_cone_calls", "count"), ("exactlp.open_cone_feasible", "count"), ("exactlp.rank_s", "s"),
    ("arrangements.enumerate_s", "s"), ("arrangements.regions", "count"),
    ("arrangements.lp_per_region", "lp/region"), ("arrangements.whitney_s", "s"),
    ("arrangements.subspace_count_s", "s"), ("arrangements.general_position_s", "s"),
    ("arrangements.enumerate_cache_hits", "count"),
    ("hull.us_per_sample.d1", "us"), ("hull.us_per_sample.d2", "us"),
    ("hull.us_per_sample.d3", "us"), ("hull.us_per_sample.d4", "us"),
    ("hull.samples.d1", "count"), ("hull.samples.d2", "count"),
    ("hull.samples.d3", "count"), ("hull.samples.d4", "count"),
    ("hull.min_norm_calls", "count"), ("hull.ambiguous", "count"),
    ("walks.estimate_s", "s"), ("walks.self_s", "s"), ("mc.samples_per_s", "1/s"), ("mc.chunks", "count"),
    ("cones.projection_us_per_sample.A", "us"), ("cones.projection_us_per_sample.B", "us"),
    ("cones.projection_us_per_sample.D", "us"), ("cones.steiner_s", "s"), ("cones.crofton_s", "s"),
    ("cones.volumes_s", "s"),
    ("coefficients.row_s", "s"), ("coefficients.prefix_s", "s"), ("coefficients.float_pmf_s", "s"),
    ("coefficients.cache_hits", "count"), ("coefficients.cache_misses", "count"),
    ("absorption.exact_s", "s"), ("absorption.exact_calls", "count"),
    ("absorption.float_s", "s"), ("absorption.float_calls", "count"),
    ("asymptotics.s", "s"), ("cli.process_s", "s"), ("cli.output_bytes", "bytes"),
    ("trace.wall_s", "s"),
)


def _is_public_function(mod, name, value) -> bool:
    if name.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
        return False
    return callable(value) and not isinstance(value, type)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (sid, parent, name, thread, t0, t1, round, op, extra)
        self.hot = defaultdict(lambda: [0, 0.0])  # (round, name, key) -> [calls, seconds]
        self.hot_cover = defaultdict(float)  # parent sid -> seconds spent in hot calls
        self.round = 0
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack = self._stack()
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _parent(self, st):
        if st:
            return st[-1]
        # a pool thread's first span belongs to the open span on the main thread
        return self._main_stack[-1] if self._main_stack else None

    def call(self, name, fn, args, kwargs, hook=None, parent=None):
        st = self._stack()
        parent = parent if parent is not None else self._parent(st)
        sid = next(self._ids)
        finish = None
        if hook is not None:
            args, kwargs, finish = hook(self, sid, args, kwargs)
        st.append(sid)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            st.pop()
        extra = finish(out) if finish else None
        self.spans.append((sid, parent, name, threading.get_ident(), t0, t1, self.round, self.op, extra))
        return out

    def record(self, name, t0, t1, extra=None):
        """A span measured by the benchmark itself (CLI child processes)."""
        st = self._stack()
        self.spans.append((next(self._ids), self._parent(st), name, threading.get_ident(),
                           t0, t1, self.round, self.op, extra))

    def _hot_call(self, name, key_fn, fn, args, kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            parent = self._parent(self._stack())
            with self._lock:
                tally = self.hot[self.round, name, key_fn(args)]
                tally[0] += 1
                tally[1] += dt
                if parent is not None:
                    self.hot_cover[parent] += dt

    # -- installation ------------------------------------------------------

    def install(self, modules) -> None:
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, value in vars(mod).items():
                if _is_public_function(mod, name, value):
                    wrappers[id(value)] = self._wrap(f"{layer}.{name}", value)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers and not name.startswith("__"):
                    self._patched.append((mod, name, value))
                    setattr(mod, name, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._patched):
            setattr(mod, name, value)
        self._patched.clear()

    def _wrap(self, name, fn):
        if name in HOT:
            key_fn = HOT[name]

            @functools.wraps(fn)
            def hot(*args, **kwargs):
                return self._hot_call(name, key_fn, fn, args, kwargs)

            return hot
        hook = _HOOKS.get(name)
        if hook is not None:
            hook = functools.partial(hook, original=fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        return traced

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, name, thread, t0, t1, rnd, op, extra in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "thread": thread,
                                     "start": t0, "end": t1, "round": rnd, "op": op, "extra": extra}) + "\n")
            for (rnd, name, key), (calls, secs) in sorted(self.hot.items(), key=str):
                fh.write(json.dumps({"tally": name, "key": key, "round": rnd, "calls": calls, "seconds": secs}) + "\n")

    # -- per-layer metrics ---------------------------------------------------

    def metrics(self, wall: float, round_walls: list[float], cache_stats: list[tuple[int, int]]) -> dict:
        """Per-layer metrics, each the median over rounds of its per-round
        value; trace.wall_s is the traced counterpart of wall_s."""
        by_round = defaultdict(list)
        for s in self.spans:
            by_round[s[6]].append(s)
        per_round = [self._round_metrics(by_round[r], r) for r in range(len(round_walls))]
        for values, (hits, misses) in zip(per_round, cache_stats):
            values["trace.wall_s"] = wall
            values["coefficients.cache_hits"] = hits
            values["coefficients.cache_misses"] = misses
        return {name: {"value": statistics.median(v.get(name, 0.0) for v in per_round), "unit": unit}
                for name, unit in PER_LAYER}

    def _round_metrics(self, spans, rnd) -> dict:
        by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            children[s[1]].append(s)

        def ancestors(s):
            p = by_id.get(s[1])
            while p is not None:
                yield p
                p = by_id.get(p[1])

        def total(names, outermost=True):
            names = set(names)
            return sum(s[5] - s[4] for s in spans if s[2] in names
                       and not (outermost and any(a[2] in names for a in ancestors(s))))

        def count(name):
            return sum(1 for s in spans if s[2] == name)

        def self_time(s):
            ivs = sorted((max(c[4], s[4]), min(c[5], s[5])) for c in children[s[0]])
            covered, end = 0.0, s[4]
            for a, b in ivs:
                a = max(a, end)
                if b > a:
                    covered += b - a
                    end = b
            return s[5] - s[4] - covered - self.hot_cover.get(s[0], 0.0)

        m = {}
        lp = [s for s in spans if s[2] == "exactlp.simplex_max"]
        m["exactlp.lp_calls"] = len(lp)
        m["exactlp.lp_s"] = sum(s[5] - s[4] for s in lp)
        m["exactlp.ms_per_lp"] = 1e3 * m["exactlp.lp_s"] / len(lp) if lp else 0.0
        m["exactlp.open_cone_calls"] = count("exactlp.open_cone_point")
        m["exactlp.open_cone_feasible"] = sum(1 for s in spans if s[2] == "exactlp.open_cone_point" and s[8]["feasible"])
        m["exactlp.rank_s"] = total(("exactlp.integer_rank", "exactlp.fraction_rank", "exactlp.fraction_nullity"))

        enum = [s for s in spans if s[2] == "arrangements.enumerate_regions"]
        m["arrangements.enumerate_s"] = sum(s[5] - s[4] for s in enum)
        m["arrangements.regions"] = sum(s[8]["regions"] for s in enum)
        m["arrangements.enumerate_cache_hits"] = sum(s[8]["hit"] for s in enum)
        lp_in_enum = sum(1 for s in lp if any(a[2] == "arrangements.enumerate_regions" for a in ancestors(s)))
        m["arrangements.lp_per_region"] = lp_in_enum / m["arrangements.regions"] if m["arrangements.regions"] else 0.0
        m["arrangements.whitney_s"] = total(("arrangements.whitney_characteristic_polynomial",))
        m["arrangements.subspace_count_s"] = total(("arrangements.count_regions_meeting_subspace",))
        m["arrangements.general_position_s"] = total(("arrangements.is_general_position",))

        for d in (1, 2, 3, 4):
            batch = [s for s in spans if s[2] == "hull.batch_origin_in_hull" and s[8]["d"] == d]
            samples = sum(s[8]["n"] for s in batch)
            m[f"hull.samples.d{d}"] = samples
            m[f"hull.us_per_sample.d{d}"] = 1e6 * sum(s[5] - s[4] for s in batch) / samples if samples else 0.0
        m["hull.min_norm_calls"] = sum(v[0] for k, v in self.hot.items() if k[:2] == (rnd, "hull.min_norm_point"))
        m["hull.ambiguous"] = sum(s[8]["amb"] for s in spans if s[2] == "hull.batch_origin_in_hull")

        m["walks.estimate_s"] = total(("walks.estimate_absorption",))
        m["walks.self_s"] = sum(self_time(s) for s in spans if s[2].startswith("walks."))
        runs = [s for s in spans if s[2] == "mc.run_bernoulli_chunks"]
        mc_s = sum(s[5] - s[4] for s in runs)
        m["mc.samples_per_s"] = sum(s[8]["samples"] for s in runs) / mc_s if mc_s else 0.0
        m["mc.chunks"] = sum(1 for s in spans if s[2].endswith(".chunk"))

        for kind in "ABD":
            calls, secs = self.hot.get((rnd, "cones.project_onto_weyl_chamber", kind), (0, 0.0))
            m[f"cones.projection_us_per_sample.{kind}"] = 1e6 * secs / calls if calls else 0.0
        m["cones.steiner_s"] = total(("cones.sample_sphere_distances", "cones.steiner_tail_cdf", "cones.ks_statistic"))
        m["cones.crofton_s"] = total(("cones.crofton_mc_estimate",))
        m["cones.volumes_s"] = total(("cones.weyl_intrinsic_volumes",))

        m["coefficients.row_s"] = total(("coefficients.stirling_row", "coefficients.b_row", "coefficients.d_row",
                                         "coefficients.product_row", "coefficients.product_coefficients",
                                         "coefficients.expand_linear_factors"))
        m["coefficients.prefix_s"] = total(("coefficients.b_prefix", "coefficients.stirling_prefix",
                                            "coefficients.d_prefix"))
        m["coefficients.float_pmf_s"] = total(("coefficients.bernoulli_family_lower_pmf",
                                               "coefficients.poisson_binomial_pmf", "coefficients.bernoulli_family_mgf"))
        m["absorption.exact_s"] = total(("absorption.absorption_probability",))
        m["absorption.exact_calls"] = count("absorption.absorption_probability")
        m["absorption.float_s"] = total(("absorption.absorption_probability_float",
                                         "absorption.non_absorption_probability_float"))
        m["absorption.float_calls"] = count("absorption.absorption_probability_float")
        m["asymptotics.s"] = sum(s[5] - s[4] for s in spans if s[2].startswith("asymptotics.")
                                 and not any(a[2].startswith("asymptotics.") for a in ancestors(s)))
        cli = [s for s in spans if s[2] == "cli.process"]
        m["cli.process_s"] = sum(s[5] - s[4] for s in cli)
        m["cli.output_bytes"] = sum(s[8]["bytes"] for s in cli)
        return m


# -- hooks: read arguments and results at the layer boundary -----------------

def _batch_hook(tracer, sid, args, kwargs, original):
    points = args[0] if args else kwargs["points"]
    shape = points.shape
    return args, kwargs, lambda out: {"n": shape[0], "d": shape[2], "amb": int(out[1].sum())}


def _open_cone_hook(tracer, sid, args, kwargs, original):
    return args, kwargs, lambda out: {"feasible": out is not None}


def _enumerate_hook(tracer, sid, args, kwargs, original):
    hits = original.cache_info().hits

    def finish(out):
        hit = original.cache_info().hits - hits
        return {"hit": hit, "regions": 0 if hit else len(out)}

    return args, kwargs, finish


def _mc_hook(tracer, sid, args, kwargs, original):
    """Give the caller's per-chunk callback a span of its own layer, parented
    to this run_bernoulli_chunks span although it runs on pool threads."""
    args = list(args)
    samples = args[0] if args else kwargs["samples"]
    chunk_fn = args[2] if len(args) > 2 else kwargs["chunk_fn"]
    layer = chunk_fn.__module__.rsplit(".", 1)[-1]

    def chunk(rng, size):
        return tracer.call(f"{layer}.chunk", chunk_fn, (rng, size), {}, parent=sid)

    if len(args) > 2:
        args[2] = chunk
    else:
        kwargs = dict(kwargs, chunk_fn=chunk)
    return tuple(args), kwargs, lambda out: {"samples": samples}


_HOOKS = {
    "hull.batch_origin_in_hull": _batch_hook,
    "exactlp.open_cone_point": _open_cone_hook,
    "arrangements.enumerate_regions": _enumerate_hook,
    "mc.run_bernoulli_chunks": _mc_hook,
}
