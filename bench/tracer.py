"""Outside-in span recorder and per-layer metrics of the solver benchmark.

The tracer wraps public functions of the ``saginpsc`` modules without
touching the package source.  A module calls another module's function
through a name in its own globals (``from .physics import total_energy``),
so :meth:`Tracer.install` rebinds *every* module-global name that refers to
a target function, in every loaded ``saginpsc`` module, and
:meth:`Tracer.uninstall` puts the originals back.

Each wrapped call records one span: id, name, start, end, parent span and
the benchmark operation it belongs to.  Spans stay in memory (seven doubles
each) and :meth:`Tracer.save` writes them out when the run ends.  A span's
self time is its duration minus the part of it that its child spans cover.
A span opened on a worker thread (``sweep --jobs``) with no span of its own
thread open is a child of the span the benchmark's thread has open; such
children may overlap, so their union is what gets subtracted.

Counts come from return values and exceptions only: dual-subgradient
steps, simplex pivots, outer iterations, stuck blocks (an
``InfeasibleBlockError`` raised by a block solver), and grid sizes that
follow from the arguments.  Counters run only during operations.
"""

from __future__ import annotations

import array
import contextlib
import inspect
import json
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

SETUP_REQUEST = -1
_FIELDS = 7  # span id, name id, start, end, parent id, request, adopted
_NO_SPAN = (0, 0.0, 0.0)  # calls, total seconds, self seconds

# Block solvers of the alternating loop, as the subsolvers module names them.
BLOCKS = ("solve_task_allocation", "select_segments", "solve_ratio_lp",
          "solve_cpu_allocation", "solve_power_bandwidth",
          "solve_altitude_beamwidth", "solve_location")
ORACLES = ("oracle_ratio", "oracle_power_bandwidth",
           "oracle_altitude_beamwidth", "oracle_location")
PHYSICS = ("total_energy", "check_feasibility", "energy_breakdown")


def _dual_counts(tracer, args, kwargs, out):
    _, _, steps, feasible = out
    tracer.add("subsolvers.dual_subgradient.iters", steps)
    tracer.add("subsolvers.dual_subgradient.feasible", int(feasible))


def _lp_counts(tracer, args, kwargs, out):
    tracer.add("simplex.solve_bounded_lp.pivots", out.iterations)


def _solve_counts(tracer, args, kwargs, out):
    tracer.add("algorithm.outer_iters", out.iterations)
    tracer.add("algorithm.stuck_blocks",
               sum(len(t.infeasible_blocks) for t in out.trace))


def _location_counts(tracer, args, kwargs, out):
    # Nominal sizes from the arguments: the incumbent, the n x n grid and
    # a 9 x 9 refinement window per level, one float64 per (point, GT).
    cfg, _, opts = args[:3]
    n = opts.location_grid_points
    points = 1 + n * n + 81 * opts.refinement_levels
    tracer.add("subsolvers.solve_location.points", points)
    tracer.add("subsolvers.solve_location.bytes_computed",
               8 * points * cfg.num_gts)


def _oracle_counts(name, fn, dims_of):
    # Nominal grid points: (passes + 1) grids of points ** dims each.
    signature = inspect.signature(fn)

    def count(tracer, args, kwargs, out):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        tracer.add(f"oracle.{name}.points",
                   (a["passes"] + 1) * a["points"] ** dims_of(a))
    return count


_ORACLE_DIMS = {
    "oracle_ratio": lambda a: a["cfg"].num_gts,
    "oracle_power_bandwidth": lambda a: a["cfg"].num_gts,
    "oracle_altitude_beamwidth": lambda a: 2,
    "oracle_location": lambda a: 2,
}


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self._spans = array.array("d")
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._main_stack = self._stack()
        self._patched: list[tuple[object, str, object]] = []
        self.request = SETUP_REQUEST

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def add(self, key: str, amount: float = 1) -> None:
        if self.request == SETUP_REQUEST:
            return
        with self._lock:
            self._counts[key] += amount

    def _open(self):
        stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        adopted = not stack and stack is not self._main_stack
        if stack:
            parent = stack[-1]
        elif adopted and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        stack.append(sid)
        return stack, sid, parent, adopted

    def _close(self, stack, sid, nid, t0, t1, parent, adopted) -> None:
        stack.pop()
        with self._lock:
            self._spans.extend((sid, nid, t0, t1, parent, self.request,
                                float(adopted)))

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of benchmark code (an operation, a set-up)."""
        nid = self._name_id(name)
        stack, sid, parent, adopted = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(stack, sid, nid, t0, perf_counter(), parent, adopted)

    def wrap(self, name: str, fn, after=None, stuck=None):
        """``fn`` recording a span per call; ``after(tracer, args, kwargs,
        result)`` takes counts from the return value, and an exception of
        type ``stuck`` counts as ``<name>.stuck``."""
        nid = self._name_id(name)

        def wrapper(*args, **kwargs):
            stack, sid, parent, adopted = self._open()
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if stuck is not None and isinstance(exc, stuck):
                    self.add(f"{name}.stuck")
                raise
            finally:
                self._close(stack, sid, nid, t0, perf_counter(), parent,
                            adopted)
            if after is not None:
                after(self, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        """``fn`` counting its calls as ``<name>.calls``, without a span."""
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            self.add(key)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "saginpsc"
                                   or mod_name.startswith("saginpsc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        """Wrap the layer functions wherever a module refers to them."""
        from saginpsc import (algorithm, cli, oracle, physics, scenario,
                              simplex, subsolvers)

        stuck = subsolvers.InfeasibleBlockError
        targets = [
            ("scenario.loads_scenario", scenario.loads_scenario, None, None),
            ("algorithm.run_scheme", algorithm.run_scheme, _solve_counts,
             None),
            ("subsolvers.dual_subgradient", subsolvers.dual_subgradient,
             _dual_counts, None),
            ("simplex.solve_bounded_lp", simplex.solve_bounded_lp,
             _lp_counts, None),
        ]
        for name in BLOCKS:
            after = _location_counts if name == "solve_location" else None
            targets.append((f"subsolvers.{name}", getattr(subsolvers, name),
                            after, stuck))
        for name in PHYSICS:
            targets.append((f"physics.{name}", getattr(physics, name), None,
                            None))
        for name in ORACLES:
            fn = getattr(oracle, name)
            targets.append((f"oracle.{name}", fn,
                            _oracle_counts(name, fn, _ORACLE_DIMS[name]),
                            None))

        for name, fn, after, exc in targets:
            self._rebind(fn, self.wrap(name, fn, after, exc))
        self._rebind(physics.rate_uav_gt,
                     self.counter("physics.rate_uav_gt", physics.rate_uav_gt))
        # Click looks a command's callback up on the command object.
        for command in ("heatmap", "sweep"):
            cmd = getattr(cli, command)
            self._patched.append((cmd, "callback", cmd.callback))
            cmd.callback = self.wrap(f"cli.{command}", cmd.callback)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def _table(self) -> np.ndarray:
        return np.frombuffer(self._spans, dtype=float).reshape(-1, _FIELDS)

    def save(self, path) -> None:
        """Write the spans (``<path>.npy``) and their name table
        (``<path>.json``)."""
        np.save(f"{path}.npy", self._table())
        with open(f"{path}.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "request", "adopted"],
                       "names": self._names}, fh)

    def summary(self) -> dict:
        """Calls, total and self seconds per span name, split into set-up
        and operations; the counters; and the time of the direct children
        of each CLI command span."""
        table = self._table()
        ids = table[:, 0].astype(np.int64)
        names = table[:, 1].astype(np.int64)
        dur = table[:, 3] - table[:, 2]
        parent = table[:, 4].astype(np.int64)
        request = table[:, 5]
        adopted = table[:, 6] > 0

        row_of = np.full(self._next_id, -1, np.int64)
        row_of[ids] = np.arange(ids.size)
        has_parent = parent >= 0
        own = has_parent & ~adopted
        covered = np.bincount(row_of[parent[own]], weights=dur[own],
                              minlength=ids.size)
        groups = defaultdict(list)
        for i in np.flatnonzero(has_parent & adopted):
            groups[int(row_of[parent[i]])].append((table[i, 2], table[i, 3]))
        for row, intervals in groups.items():
            union, reach = 0.0, -np.inf
            for start, end in sorted(intervals):
                if end > reach:
                    union += end - max(start, reach)
                    reach = end
            covered[row] += union
        self_time = dur - covered

        out = {"counts": dict(self._counts), "spans": int(ids.size)}
        n = len(self._names)
        in_setup = request == SETUP_REQUEST
        for phase, mask in (("setup", in_setup), ("ops", ~in_setup)):
            calls = np.bincount(names[mask], minlength=n)
            total = np.bincount(names[mask], weights=dur[mask], minlength=n)
            own_time = np.bincount(names[mask], weights=self_time[mask],
                                   minlength=n)
            out[phase] = {self._names[j]: (int(calls[j]), float(total[j]),
                                           float(own_time[j]))
                          for j in range(n) if calls[j]}
        cli_ids = [j for j, name in enumerate(self._names)
                   if name.startswith("cli.")]
        rows = np.flatnonzero(has_parent)
        rows = rows[np.isin(names[row_of[parent[rows]]], cli_ids)]
        children = defaultdict(float)
        for i in rows:
            pname = self._names[names[row_of[parent[i]]]]
            children[(pname, self._names[names[i]])] += dur[i]
        out["cli_children"] = dict(children)
        return out


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_specs():
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = [("bench.traced_op_s.mean", "s", "lower"),
             ("bench.traced_op_s.p50", "s", "lower"),
             ("bench.spans", "count/op", "lower"),
             ("scenario.loads_scenario.setup_calls", "count", "lower"),
             ("scenario.loads_scenario.setup_pct", "%", "lower"),
             ("scenario.loads_scenario.calls", "count/op", "lower"),
             ("scenario.loads_scenario.self_pct", "%", "lower")]
    for name in PHYSICS:
        specs += [(f"physics.{name}.calls", "count/op", "lower"),
                  (f"physics.{name}.self_pct", "%", "lower")]
    specs.append(("physics.rate_uav_gt.calls", "count/op", "lower"))
    specs += [("subsolvers.dual_subgradient.calls", "count/op", "lower"),
              ("subsolvers.dual_subgradient.self_pct", "%", "lower"),
              ("subsolvers.dual_subgradient.iters", "count/op", "lower"),
              ("subsolvers.dual_subgradient.feasible_ratio", "1", "higher")]
    for name in BLOCKS:
        specs += [(f"subsolvers.{name}.calls", "count/op", "lower"),
                  (f"subsolvers.{name}.self_pct", "%", "lower"),
                  (f"subsolvers.{name}.stuck", "count/op", "lower")]
    specs += [("subsolvers.solve_location.points", "count/op", "lower"),
              ("subsolvers.solve_location.bytes_computed", "B/op", "lower"),
              ("simplex.solve_bounded_lp.calls", "count/op", "lower"),
              ("simplex.solve_bounded_lp.self_pct", "%", "lower"),
              ("simplex.solve_bounded_lp.pivots", "count/op", "lower"),
              ("algorithm.run_scheme.calls", "count/op", "lower"),
              ("algorithm.run_scheme.self_pct", "%", "lower"),
              ("algorithm.outer_iters", "count/op", "lower"),
              ("algorithm.stuck_blocks", "count/op", "lower"),
              ("cli.heatmap.solve_pct", "%", "lower"),
              ("cli.heatmap.cells_pct", "%", "lower"),
              ("cli.sweep.rows_pct", "%", "lower")]
    for name in ORACLES:
        specs += [(f"oracle.{name}.self_pct", "%", "lower"),
                  (f"oracle.{name}.points", "count/op", "lower")]
    return specs


def layer_metrics(summary: dict, op_times: list[float]) -> dict:
    """Per-layer values: counts per operation, self time as a share (%) of
    the traced operation time, set-up figures for the one traced set-up."""
    ops = len(op_times)
    op_total = sum(op_times)
    counts = summary["counts"]
    spans = summary["ops"]
    setup_calls, _, setup_self = summary["setup"].get(
        "scenario.loads_scenario", _NO_SPAN)
    setup_total = summary["setup"]["bench.setup"][1]
    heat_total = spans.get("cli.heatmap", _NO_SPAN)[1]
    children = summary["cli_children"]
    heat_solve = children.get(("cli.heatmap", "algorithm.run_scheme"), 0.0)
    sweep_rows = sum(v for (p, _), v in children.items() if p == "cli.sweep")
    dual_calls = spans.get("subsolvers.dual_subgradient", _NO_SPAN)[0]

    values = {
        "bench.traced_op_s.mean": statistics.fmean(op_times),
        "bench.traced_op_s.p50": statistics.median(op_times),
        "bench.spans": summary["spans"] / ops,
        "scenario.loads_scenario.setup_calls": setup_calls,
        "scenario.loads_scenario.setup_pct": 100.0 * setup_self / setup_total,
        "subsolvers.dual_subgradient.feasible_ratio":
            counts.get("subsolvers.dual_subgradient.feasible", 0)
            / max(1, dual_calls),
        "cli.heatmap.solve_pct": 100.0 * heat_solve / op_total,
        "cli.heatmap.cells_pct": 100.0 * (heat_total - heat_solve) / op_total,
        "cli.sweep.rows_pct": 100.0 * sweep_rows / op_total,
    }
    out = {}
    for name, unit, _ in layer_specs():
        if name in values:
            value = values[name]
        elif name.endswith(".calls") and name.rpartition(".")[0] in spans:
            value = spans[name.rpartition(".")[0]][0] / ops
        elif name.endswith(".self_pct"):
            value = 100.0 * spans.get(name.rpartition(".")[0],
                                      _NO_SPAN)[2] / op_total
        else:  # a counter: stuck, iters, pivots, points, bytes, rate calls
            value = counts.get(name, 0) / ops
        out[name] = {"value": value, "unit": unit}
    return out
