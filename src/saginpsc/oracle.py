"""Brute-force reference solvers and high-precision formula evaluation.

Everything in this module re-derives the model from scratch: no function
here calls the production physics or subsolver code, so an agreement
between the two is evidence, not tautology.  The oracles are shipped
with the library (not hidden in the tests) so any documented reference
value can be regenerated.

Exhaustive enumeration is capped at 3^12 combinations.  The grid search
walks the grid in blocks of whole leading-axis rows, about ``_CHUNK``
points each, small enough that a block's float64 temporaries stay in a
core's L2 cache, and hands the score an open mesh of each block, one
array per axis, so a per-block grid oracle computes a term of one axis
once per axis value and only the cross-axis combination once per point,
in the order a per-point evaluation uses; the score is the objective,
+inf wherever a constraint fails.  An oracle whose constraints bound the
second axis also hands the search a column window per block, and only
the block's columns inside it are scored; every column it leaves out
scores +inf.  The ratio, CPU and power/bandwidth energies are sums of
per-GT terms of one axis each, so those oracles also hand the search a
column bound: once a point has scored finite, a column whose bound lies
above the running minimum is left out, and a bound is sound when it is
at most every finite score of its column over the block.  With sound
windows and bounds the result is that of scoring the whole grid.  Ties
break toward the lowest grid index in row-major order.  Sums over GTs
(``_gt_sum``) round exactly as ``np.sum`` over a row does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .scenario import OverheadCurve, ScenarioConfig

__all__ = [
    "OracleSizeError",
    "EmptyFeasibleError",
    "GridSpec",
    "OracleSolution",
    "grid_minimize",
    "refine_minimize",
    "enumerate_task_assignments",
    "enumerate_segment_choices",
    "eval_formula_extended",
    "reference_evaluation",
    "oracle_ratio",
    "oracle_cpu",
    "oracle_power_bandwidth",
    "oracle_altitude_beamwidth",
    "oracle_location",
]

_ENUM_BUDGET = 3 ** 12
# Points per search block: 2^15 keeps each float64 temporary at 256 KiB,
# inside a core's L2 cache; 2^19 made 4 MiB temporaries that streamed
# through memory and were page-faulted afresh for every block.
_CHUNK = 1 << 15
_FEAS_TOL = 1e-12
# A column window's relative margin and its pad in grid cells, both far
# wider than the rounding of the constraint arithmetic it stands for.
_WINDOW_MARGIN = 1e-9
_WINDOW_PAD_CELLS = 2
# NumPy sums a row shorter than this left to right from 0.0; from this
# width on it sums pairwise, which column arithmetic does not reproduce.
_SEQUENTIAL_SUM_WIDTH = 8
# Relative margin of a separable score's column bound (_separable_bound).
# The bound adds the score's own per-GT terms, each at its least over the
# block, by the score's own operations; IEEE rounding is monotone, so the
# bound cannot exceed the score when both round each term alike, and the
# margin stands for any difference between the two.  Let M be the score's
# sum of terms with every term by its absolute value.  A sum of n terms
# rounds at most n - 1 times along any path (fewer when np.sum pairs them,
# from _SEQUENTIAL_SUM_WIDTH terms on), and combining the sums and their
# constant factors at most 9 more, each by a relative u = 2^-53, so the
# score's rounding is at most (n + 8) u M.  A grid of n axes has at least
# 2^n points, so a grid that can be searched has n < 64 and the rounding
# is below 72 u M < 8e-15 M; 1e-12 M is over 100 times that.
_BOUND_MARGIN = 1e-12


class OracleSizeError(ValueError):
    """Requested enumeration exceeds the combinatorial budget."""


class EmptyFeasibleError(RuntimeError):
    """No point passed the feasibility filter."""


@dataclass(frozen=True)
class GridSpec:
    """One grid dimension: closed interval and point count."""

    lower: float
    upper: float
    points: int

    def __post_init__(self):
        if self.points < 2:
            raise ValueError("points must be at least 2")
        if not (self.lower < self.upper):
            raise ValueError("lower must be strictly below upper")

    @property
    def cell(self) -> float:
        return (self.upper - self.lower) / (self.points - 1)


@dataclass
class OracleSolution:
    """Reference optimum: argmin point, objective value, and the oracle's
    own objective function for evaluating other candidate points."""

    point: tuple[float, ...]
    value: float
    evaluate: Callable[[Sequence[float]], float]
    cell: tuple[float, ...]


def _gt_sum(terms):
    """Sum of per-GT terms of shapes that broadcast together, bit for bit
    as ``np.sum`` adds a row of them: in GT order from +0.0 (so -0.0 terms
    sum to +0.0) below ``_SEQUENTIAL_SUM_WIDTH`` terms, and by ``np.sum``
    on the stacked rows from that width on."""
    width = len(terms)
    if width >= _SEQUENTIAL_SUM_WIDTH:
        rows = np.stack(np.broadcast_arrays(*terms), axis=-1)
        return np.sum(rows.reshape(-1, width), axis=1).reshape(rows.shape[:-1])
    total = terms[0] + 0.0
    for term in terms[1:]:
        total = total + term
    return total


def _on_points(objective, feasible=None):
    """Mesh score of a vectorized ``objective`` (and optional ``feasible``
    filter) of (N, ndim) points, built row-major from the mesh block."""
    def score(*mesh):
        rows = np.stack(np.broadcast_arrays(*mesh), axis=-1)
        pts = rows.reshape(-1, len(mesh))
        vals = np.asarray(objective(pts), dtype=float)
        if feasible is not None:
            ok = np.asarray(feasible(pts), dtype=bool)
            vals = np.where(ok, vals, np.inf)
        return vals.reshape(rows.shape[:-1])
    return score


def _grid_search(score, specs: Sequence[GridSpec], window=None, lower=None):
    """Exact minimum of a mesh ``score`` over the cartesian grid of
    ``specs``.

    The grid is walked in blocks of whole leading-axis rows, about
    ``_CHUNK`` points each (at least one row): 2^15 points keep a block's
    float64 temporaries at 256 KiB, inside a core's L2 cache.  ``score``
    receives an open mesh of the block, one array per axis shaped to
    broadcast over it (``np.ix_``), so a term of one axis is computed once
    per axis value; its result is broadcast to the block and read
    row-major.  NaN counts as +inf.  Ties break toward the lowest
    row-major index.

    ``window(rows, cols) -> (lo, hi)``, given a block's leading-axis
    values and the second axis, bounds the columns that can score finite
    in that block; the search scores only ``cols[lo:hi]`` of the block
    (the same open mesh, second axis sliced) and skips a block whose
    window is empty.  A window is sound when every column it leaves out
    scores +inf or NaN on every row of the block.

    ``lower(rows, cols, *later)``, given a block's leading-axis values,
    some of the second axis's values and every later axis, returns one
    value per column: a bound no greater than any score of that column
    over the block.  Once a point has scored finite, the search scores
    only the run of columns from the first to the last whose bound is not
    above the running minimum ``best_val``, inside the window, and skips
    a block with no such column.  A bound is sound when it is at most
    every finite score of its column; a column left out then holds no
    point that could beat or tie ``best_val``, and a NaN bound leaves its
    column in.  With sound windows and bounds the point, the value, the
    tie-break and :class:`EmptyFeasibleError` are those of the whole
    grid."""
    axes = [np.linspace(s.lower, s.upper, s.points) for s in specs]
    lead, *later = np.ix_(*axes)
    sizes = [a.size for a in axes]
    step = max(1, _CHUNK // math.prod(sizes[1:]))
    best_val = math.inf
    best_point = None
    for r0 in range(0, sizes[0], step):
        mesh = [lead[r0:r0 + step], *later]
        lo = 0
        if window is not None or lower is not None:
            rows = axes[0][r0:r0 + step]
            lo, hi = (0, sizes[1]) if window is None else window(rows, axes[1])
            if lower is not None and best_val < math.inf and lo < hi:
                live = np.flatnonzero(~(lower(rows, axes[1][lo:hi], *axes[2:])
                                        > best_val))
                if live.size == 0:
                    continue
                lo, hi = lo + int(live[0]), lo + int(live[-1]) + 1
            if hi <= lo:
                continue
            mesh[1] = later[0][:, lo:hi]
        block = np.broadcast_shapes(*(m.shape for m in mesh))
        vals = np.broadcast_to(np.asarray(score(*mesh), dtype=float),
                               block).ravel()
        j = int(np.argmin(vals))
        if math.isnan(vals[j]):  # argmin stops at the first NaN
            vals = np.where(np.isnan(vals), np.inf, vals)
            j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            corner = (r0, lo) + (0,) * (len(axes) - 2)
            best_point = tuple(float(a[c + i]) for a, c, i in zip(
                axes, corner, np.unravel_index(j, block)))
    if not math.isfinite(best_val):
        raise EmptyFeasibleError("no grid point passed the feasibility filter")
    return best_point, best_val


def grid_minimize(objective, specs: Sequence[GridSpec], feasible=None):
    """Exact minimum of ``objective`` over the cartesian grid, restricted
    to points passing ``feasible``.

    Both callables are vectorized: they receive an (N, ndim) array of
    points in row-major order and return a length-N array.  A separate
    ``feasible`` filter is the same as one score ``np.where(feasible(pts),
    objective(pts), inf)``.  Ties break toward the lowest row-major index
    and NaN counts as +inf.  Raises :class:`EmptyFeasibleError` when no
    point has a finite score.
    """
    return _grid_search(_on_points(objective, feasible), specs)


def refine_minimize(objective, specs: Sequence[GridSpec], feasible=None,
                    passes: int = 3):
    """Grid search followed by ``passes`` zoom-ins around the incumbent,
    clipped to the original bounds.

    A zoom window only shrinks when the incumbent lands in its interior;
    an incumbent pinned to the window edge keeps the window size so the
    search can crawl along an active constraint toward an off-grid
    vertex.  Returns (point, value, final cell sizes)."""
    return _refine(_on_points(objective, feasible), specs, passes)


def _refine(score, specs: Sequence[GridSpec], passes: int, window=None,
            lower=None):
    """:func:`refine_minimize` of a mesh ``score``, each search with the
    column ``window`` and bound ``lower`` (:func:`_grid_search`)."""
    point, value = _grid_search(score, specs, window, lower)
    width = [s.cell for s in specs]
    cells = list(width)
    for _ in range(passes):
        zoom = []
        for d in range(len(specs)):
            lo = max(specs[d].lower, point[d] - width[d])
            hi = min(specs[d].upper, point[d] + width[d])
            if hi <= lo:
                lo, hi = specs[d].lower, specs[d].upper
            zoom.append(GridSpec(lo, hi, specs[d].points))
        try:
            p2, v2 = _grid_search(score, zoom, window, lower)
        except EmptyFeasibleError:
            break
        for d, s in enumerate(zoom):
            near_edge = min(p2[d] - s.lower, s.upper - p2[d]) < 2.0 * s.cell
            at_bound = (s.lower <= specs[d].lower + s.cell
                        or s.upper >= specs[d].upper - s.cell)
            if not near_edge or at_bound:
                width[d] = 2.0 * s.cell
            cells[d] = s.cell
        if v2 < value:
            point, value = p2, v2
        else:
            point = p2 if v2 == value else point
    return point, value, tuple(cells)


# ---------------------------------------------------------------------------
# Independent scalar model (written from the equations, not the library)


def _overhead(curve: OverheadCurve, rho: float) -> float:
    bounds = (1.0,) + curve.boundaries
    for d in range(len(curve.slopes)):
        if bounds[d + 1] < rho <= bounds[d]:
            return curve.slopes[d] * rho + curve.intercepts[d]
    last = len(curve.slopes) - 1
    return curve.slopes[last] * rho + curve.intercepts[last]


def _ref_rate_su(cfg: ScenarioConfig) -> float:
    amp = math.sqrt(cfg.sat_beam_gain) * cfg.sat_wavelength / (
        4.0 * math.pi * cfg.sat_uav_distance)
    return cfg.sat_bandwidth * math.log2(
        1.0 + amp * amp * cfg.sat_tx_power / (cfg.sat_bandwidth * cfg.noise_psd))


def _ref_eval(cfg: ScenarioConfig, xy, altitude, theta, bandwidth, cpu,
              power, ratio, a_sat, a_uav):
    """Total energy and per-GT latency of a fully specified point."""
    kappa = cfg.cycles_per_overhead
    tau = cfg.comp_energy_coeff
    r_su = _ref_rate_su(cfg)
    t_prop = cfg.sat_uav_distance / cfg.lightspeed
    t_sat = 0.0
    t_tx = 0.0
    e_sat = 0.0
    e_uav = 0.0
    e_ug = 0.0
    locals_ = []
    for k in range(cfg.num_gts):
        o = _overhead(cfg.overhead_curves[k], ratio[k])
        a_s, a_u = a_sat[k], a_uav[k]
        t_sat += kappa * a_s * o / cfg.sat_cpu
        t_tx += cfg.data_bits[k] * (a_s * ratio[k] + (1 - a_s)) / r_su
        e_sat += tau * kappa * a_s * o * cfg.sat_cpu ** 2
        if a_u:
            if cpu[k] <= 0.0:
                locals_.append((math.inf, math.inf))
                continue
            t_u = kappa * o / cpu[k]
            e_uav += tau * kappa * o * cpu[k] ** 2
        else:
            t_u = 0.0
        eff = (a_s + a_u) * ratio[k] + (1 - a_s - a_u)
        d2 = ((xy[0] - cfg.gt_positions[k][0]) ** 2
              + (xy[1] - cfg.gt_positions[k][1]) ** 2 + altitude ** 2)
        snr = (cfg.antenna_gain_const * cfg.ref_channel_gain * power[k]
               / (d2 * theta * theta * bandwidth[k] * cfg.noise_psd))
        r_k = bandwidth[k] * math.log2(1.0 + snr)
        if r_k <= 0.0:
            locals_.append((t_u, math.inf))
            continue
        t_ug = cfg.data_bits[k] * eff / r_k
        e_ug += power[k] * t_ug
        locals_.append((t_u, t_ug))
    e_su = t_tx * cfg.sat_tx_power
    energy = e_sat + e_su + e_uav + e_ug
    latency = tuple(t_sat + t_tx + t_prop + t_u + t_ug
                    for t_u, t_ug in locals_)
    return energy, latency


def reference_evaluation(cfg: ScenarioConfig, state):
    """Independent (energy, per-GT latency) of a solver state."""
    al = state.allocation
    pl = state.placement
    return _ref_eval(cfg, pl.uav_xy, pl.altitude, pl.half_beamwidth,
                     al.bandwidth, al.cpu, al.power, al.ratio,
                     al.task_sat, al.task_uav)


# ---------------------------------------------------------------------------
# Exhaustive enumerations


def enumerate_task_assignments(cfg: ScenarioConfig, state):
    """Feasible minimum-energy compression-site assignment by trying all
    3^K combinations.  Ties break toward the earliest combination in
    lexicographic order over (none, UAV, satellite) per GT, so an
    indifferent GT stays unassigned."""
    if 3 ** cfg.num_gts > _ENUM_BUDGET:
        raise OracleSizeError(f"3^{cfg.num_gts} assignments exceed the budget")
    al = state.allocation
    pl = state.placement
    t = cfg.latency_budget
    best = None
    best_energy = math.inf
    for combo in itertools.product(((0, 0), (0, 1), (1, 0)),
                                   repeat=cfg.num_gts):
        a_sat = tuple(c[0] for c in combo)
        a_uav = tuple(c[1] for c in combo)
        energy, latency = _ref_eval(cfg, pl.uav_xy, pl.altitude,
                                    pl.half_beamwidth, al.bandwidth, al.cpu,
                                    al.power, al.ratio, a_sat, a_uav)
        if any(x > t * (1.0 + _FEAS_TOL) for x in latency):
            continue
        if energy < best_energy:
            best_energy = energy
            best = (a_sat, a_uav)
    if best is None:
        raise EmptyFeasibleError("no assignment meets the latency budget")
    return best[0], best[1], best_energy


def enumerate_segment_choices(cfg: ScenarioConfig, state):
    """Feasible minimum-energy overhead-segment choice by trying every
    combination with ratios pinned at the segment midpoints.  Ties break
    toward shallower segments."""
    sizes = [cfg.overhead_curves[k].num_segments for k in range(cfg.num_gts)]
    if math.prod(sizes) > _ENUM_BUDGET:
        raise OracleSizeError("segment combinations exceed the budget")
    al = state.allocation
    pl = state.placement
    t = cfg.latency_budget
    best = None
    best_energy = math.inf
    for combo in itertools.product(*(range(n) for n in sizes)):
        ratio = []
        for k, d in enumerate(combo):
            curve = cfg.overhead_curves[k]
            hi = 1.0 if d == 0 else curve.boundaries[d - 1]
            ratio.append(0.5 * (curve.boundaries[d] + hi))
        energy, latency = _ref_eval(cfg, pl.uav_xy, pl.altitude,
                                    pl.half_beamwidth, al.bandwidth, al.cpu,
                                    al.power, tuple(ratio), al.task_sat,
                                    al.task_uav)
        if any(x > t * (1.0 + _FEAS_TOL) for x in latency):
            continue
        if energy < best_energy:
            best_energy = energy
            best = (combo, tuple(ratio))
    if best is None:
        raise EmptyFeasibleError("no segment choice meets the latency budget")
    return best[0], best[1], best_energy


# ---------------------------------------------------------------------------
# Extended-precision formula catalog


def eval_formula_extended(expr_id: str, cfg: ScenarioConfig, **params) -> float:
    """Evaluate one catalogued formula at 50 significant digits and return
    the nearest double.

    Catalog: ``r_SU`` (satellite downlink rate), ``t_P`` (propagation
    delay), ``g_k`` (UAV-GT channel gain; needs ``horizontal_offset``,
    ``altitude``), ``r_k`` (UAV-GT rate; additionally ``theta``,
    ``bandwidth``, ``power``), ``O_k`` (overhead curve; needs
    ``gt_index``, ``ratio``).
    """
    import mpmath

    with mpmath.workdps(50):
        mpf = mpmath.mpf
        if expr_id == "r_SU":
            amp = (mpmath.sqrt(mpf(cfg.sat_beam_gain)) * mpf(cfg.sat_wavelength)
                   / (4 * mpmath.pi * mpf(cfg.sat_uav_distance)))
            snr = amp ** 2 * mpf(cfg.sat_tx_power) / (
                mpf(cfg.sat_bandwidth) * mpf(cfg.noise_psd))
            out = mpf(cfg.sat_bandwidth) * mpmath.log(1 + snr) / mpmath.log(2)
        elif expr_id == "t_P":
            out = mpf(cfg.sat_uav_distance) / mpf(cfg.lightspeed)
        elif expr_id == "g_k":
            d2 = mpf(params["horizontal_offset"]) ** 2 + mpf(params["altitude"]) ** 2
            out = mpf(cfg.ref_channel_gain) / d2
        elif expr_id == "r_k":
            d2 = mpf(params["horizontal_offset"]) ** 2 + mpf(params["altitude"]) ** 2
            g = mpf(cfg.ref_channel_gain) / d2
            b = mpf(params["bandwidth"])
            snr = (mpf(cfg.antenna_gain_const) * g * mpf(params["power"])
                   / (mpf(params["theta"]) ** 2 * b * mpf(cfg.noise_psd)))
            out = b * mpmath.log(1 + snr) / mpmath.log(2)
        elif expr_id == "O_k":
            curve = cfg.overhead_curves[int(params["gt_index"])]
            rho = float(params["ratio"])
            bounds = (1.0,) + curve.boundaries
            d = len(curve.slopes) - 1
            for i in range(len(curve.slopes)):
                if bounds[i + 1] < rho <= bounds[i]:
                    d = i
                    break
            out = mpf(curve.slopes[d]) * mpf(rho) + mpf(curve.intercepts[d])
        else:
            raise KeyError(f"unknown formula id: {expr_id}")
        return float(out)


# ---------------------------------------------------------------------------
# Per-block grid references


def _columns(cols, lower, upper):
    """Column window of the sorted axis ``cols`` over ``[lower, upper]``,
    widened by ``_WINDOW_PAD_CELLS`` grid cells on each side."""
    pad = _WINDOW_PAD_CELLS * (cols[-1] - cols[0]) / (cols.size - 1)
    return (int(np.searchsorted(cols, lower - pad, "left")),
            int(np.searchsorted(cols, upper + pad, "right")))


def _separable_bound(term, total):
    """Column bound ``lower`` (:func:`_grid_search`) of a score that is
    ``total(terms)`` where feasible: ``terms`` holds one array per GT, in
    GT order, and ``term(k, x)`` gives GT k's terms at the values ``x`` of
    its own axis (along the last axis) by the score's own arithmetic.

    A column's bound totals the leading GT's least terms over the block's
    rows, the column's own terms and every later GT's least terms over its
    axis, less ``_BOUND_MARGIN`` times the total of their absolute values.
    It is sound when ``total`` only adds terms and scales them by factors
    of at least 0, so that it never falls when a term rises."""
    def least(k, x):
        return np.min(term(k, x), axis=-1, keepdims=True)

    def lower(rows, cols, *later):
        terms = [least(0, rows), term(1, cols),
                 *(least(k, a) for k, a in enumerate(later, 2))]
        return (total(terms)
                - _BOUND_MARGIN * total([np.abs(t) for t in terms]))
    return lower


def _ug_rate_vec(cfg: ScenarioConfig, d2, theta, b, p):
    snr = (cfg.antenna_gain_const * cfg.ref_channel_gain * p
           / (d2 * theta * theta * b * cfg.noise_psd))
    return b * np.log2(1.0 + snr)


def _fixed_terms(cfg: ScenarioConfig, state):
    """Latency pieces that no per-block oracle below varies."""
    al = state.allocation
    pl = state.placement
    kappa = cfg.cycles_per_overhead
    r_su = _ref_rate_su(cfg)
    over = [_overhead(cfg.overhead_curves[k], al.ratio[k])
            for k in range(cfg.num_gts)]
    t_sat = kappa * sum(a * o for a, o in zip(al.task_sat, over)) / cfg.sat_cpu
    t_tx = sum((a * al.ratio[k] + (1 - a)) * cfg.data_bits[k]
               for k, a in enumerate(al.task_sat)) / r_su
    t_prop = cfg.sat_uav_distance / cfg.lightspeed
    eff = [(al.task_sat[k] + al.task_uav[k]) * al.ratio[k]
           + (1 - al.task_sat[k] - al.task_uav[k]) for k in range(cfg.num_gts)]
    d2 = [((pl.uav_xy[0] - cfg.gt_positions[k][0]) ** 2
           + (pl.uav_xy[1] - cfg.gt_positions[k][1]) ** 2 + pl.altitude ** 2)
          for k in range(cfg.num_gts)]
    return r_su, over, t_sat, t_tx, t_prop, eff, d2


def _evaluate_with(objective):
    """``OracleSolution.evaluate`` of a mesh objective: the point is
    handed over as a mesh of one value per axis."""
    return lambda x: float(objective(*(np.array([float(v)]) for v in x))[0])


def _hop_terms(cfg: ScenarioConfig, state):
    """Per-GT latency slack left for the UAV-GT hop, the bits it carries,
    its bandwidth and its power."""
    al = state.allocation
    r_su, over, t_sat, t_tx, t_prop, eff, _ = _fixed_terms(cfg, state)
    kappa = cfg.cycles_per_overhead
    slack = np.array([
        cfg.latency_budget - t_sat - t_tx - t_prop
        - ((kappa * over[k] / al.cpu[k]) if al.task_uav[k] else 0.0)
        for k in range(cfg.num_gts)
    ])
    bits = np.array(cfg.data_bits) * np.array(eff)
    return slack, bits, np.array(al.bandwidth), np.array(al.power)


def oracle_ratio(cfg: ScenarioConfig, state, chosen_segments,
                 points: int = 1000, passes: int = 3) -> OracleSolution:
    """Grid reference for the in-segment compression ratios."""
    al = state.allocation
    pl = state.placement
    kappa = cfg.cycles_per_overhead
    tau = cfg.comp_energy_coeff
    n = cfg.num_gts
    r_su = _ref_rate_su(cfg)
    t_prop = cfg.sat_uav_distance / cfg.lightspeed
    slope = np.empty(n)
    intercept = np.empty(n)
    specs = []
    for k in range(n):
        curve = cfg.overhead_curves[k]
        d = chosen_segments[k]
        slope[k], intercept[k] = curve.slopes[d], curve.intercepts[d]
        hi = 1.0 if d == 0 else curve.boundaries[d - 1]
        specs.append(GridSpec(curve.boundaries[d], hi, points))
    a_s = np.array(al.task_sat)
    a_u = np.array(al.task_uav)
    data = np.array(cfg.data_bits)
    f = np.array(al.cpu)
    p = np.array(al.power)
    d2 = np.array([pl.slant_distance(cfg.gt_positions[k]) ** 2
                   for k in range(n)])
    rate = _ug_rate_vec(cfg, d2, pl.half_beamwidth, np.array(al.bandwidth), p)
    f_safe = np.where(f > 0.0, f, 1.0)
    gts = range(n)
    # Per-GT factors, each applied to the GT's own ratio axis.
    sent, kept, forwarded = a_s + a_u, 1 - a_s - a_u, 1 - a_s
    f2, uav_time = f ** 2, kappa * a_u

    def own(k, r):
        """GT k's overhead and downlink time at its ratio ``r``."""
        return (slope[k] * r + intercept[k],
                data[k] * (sent[k] * r + kept[k]) / rate[k])

    def share(i, k, r, over, t_ug):
        """GT k's share, at its ratio, overhead and downlink time, of the
        satellite overhead (i = 0), the satellite link's bits (1), the UAV
        compute energy (2) or the downlink energy (3)."""
        return (a_s[k] * over if i == 0
                else (a_s[k] * r + forwarded[k]) * data[k] if i == 1
                else a_u[k] * over * f2[k] if i == 2
                else p[k] * t_ug)

    def energy(share_of):
        """Total energy, satellite overhead sum and shared satellite
        transmit time of the shares ``share_of(i, k)``, one sum at a time
        so that a block holds few temporaries at once."""
        sat_over = _gt_sum([share_of(0, k) for k in gts])
        t_tx = _gt_sum([share_of(1, k) for k in gts]) / r_su
        e_sat = tau * kappa * cfg.sat_cpu ** 2 * sat_over
        e_su = t_tx * cfg.sat_tx_power
        e_uav = tau * kappa * _gt_sum([share_of(2, k) for k in gts])
        e_ug = _gt_sum([share_of(3, k) for k in gts])
        return e_sat + e_su + e_uav + e_ug, sat_over, t_tx

    def pieces(*rho):
        """Each GT's ratio, overhead and downlink time, the total energy,
        the satellite overhead sum and the shared transmit time."""
        terms = [(r, *own(k, r)) for k, r in enumerate(rho)]
        return (terms, *energy(lambda i, k: share(i, k, *terms[k])))

    def objective(*rho):
        return pieces(*rho)[1]

    def score(*rho):
        terms, total, sat_over, t_tx = pieces(*rho)
        t_shared = kappa * sat_over / cfg.sat_cpu + t_tx + t_prop
        ok = reduce(np.logical_and, [
            t_shared + uav_time[k] * over / f_safe[k] + t_ug
            <= cfg.latency_budget * (1.0 + _FEAS_TOL)
            for k, (_, over, t_ug) in enumerate(terms)])
        return np.where(ok, total, np.inf)

    def shares(k, r):
        """GT k's four shares at the ratios ``r``, stacked."""
        terms = (r, *own(k, r))
        return np.stack([share(i, k, *terms) for i in range(4)])

    lower = _separable_bound(
        shares, lambda terms: energy(lambda i, k: terms[k][i])[0])
    point, value, cell = _refine(score, specs, passes,
                                 lower=lower if n > 1 else None)
    return OracleSolution(point, value, _evaluate_with(objective), cell)


def oracle_cpu(cfg: ScenarioConfig, state, points: int = 400,
               passes: int = 4) -> OracleSolution:
    """Grid reference for the UAV CPU shares of UAV-compressed GTs."""
    al = state.allocation
    active = [k for k in range(cfg.num_gts) if al.task_uav[k]]
    kappa = cfg.cycles_per_overhead
    tau = cfg.comp_energy_coeff
    r_su, over, t_sat, t_tx, t_prop, eff, d2 = _fixed_terms(cfg, state)
    if not active:
        zero = tuple(0.0 for _ in range(cfg.num_gts))
        return OracleSolution(zero, 0.0, lambda x: 0.0, zero)
    rate = [_ug_rate_vec(cfg, d2[k], state.placement.half_beamwidth,
                         al.bandwidth[k], al.power[k]) for k in active]
    base = np.array([cfg.latency_budget - t_sat - t_tx - t_prop
                     - cfg.data_bits[k] * eff[k] / rate[i]
                     for i, k in enumerate(active)])
    ov = np.array([over[k] for k in active])
    specs = [GridSpec(1e-6 * cfg.uav_cpu_total, cfg.uav_cpu_total, points)
             for _ in active]
    cycles, limit = kappa * ov, base * (1.0 + _FEAS_TOL)

    def total(terms):
        return tau * kappa * _gt_sum(terms)

    def objective(*f):
        return total([o * x ** 2 for o, x in zip(ov, f)])

    def score(*f):
        ok = reduce(np.logical_and,
                    [c / x <= t for c, x, t in zip(cycles, f, limit)]
                    + [_gt_sum(f) <= cfg.uav_cpu_total * (1.0 + _FEAS_TOL)])
        return np.where(ok, objective(*f), np.inf)

    lower = _separable_bound(lambda i, x: ov[i] * x ** 2, total)
    point, value, cell = _refine(score, specs, passes,
                                 lower=lower if len(active) > 1 else None)
    full = [0.0] * cfg.num_gts
    for i, k in enumerate(active):
        full[k] = point[i]
    evaluate = _evaluate_with(objective)
    return OracleSolution(tuple(full), value,
                          lambda x: evaluate([x[k] for k in active]), cell)


def oracle_power_bandwidth(cfg: ScenarioConfig, state, points: int = 2000,
                           passes: int = 1) -> OracleSolution:
    """Grid reference over the bandwidth split, with each power taken at
    the latency-tight closed form and the power budget as a filter."""
    al = state.allocation
    r_su, over, t_sat, t_tx, t_prop, eff, d2 = _fixed_terms(cfg, state)
    kappa = cfg.cycles_per_overhead
    n = cfg.num_gts
    slack = np.empty(n)
    demand = np.empty(n)
    v = np.empty(n)
    for k in range(n):
        t_u = (kappa * over[k] / al.cpu[k]) if al.task_uav[k] else 0.0
        slack[k] = cfg.latency_budget - t_sat - t_tx - t_prop - t_u
        if not slack[k] > 0.0:
            raise EmptyFeasibleError(f"GT {k}: no latency left for the "
                                     "UAV-GT hop")
        demand[k] = cfg.data_bits[k] * eff[k] / slack[k]
        v[k] = (cfg.antenna_gain_const * cfg.ref_channel_gain
                / (d2[k] * state.placement.half_beamwidth ** 2 * cfg.noise_psd))
    b_total = cfg.uav_bandwidth_total
    specs = [GridSpec(1e-5 * b_total, b_total, points) for _ in range(n)]
    # The bandwidth a block of b_0 rows leaves b_1 under the total, every
    # later GT at its least bandwidth.
    room = (b_total * (1.0 + _FEAS_TOL) * (1.0 + _WINDOW_MARGIN)
            - sum(s.lower for s in specs[2:]))

    def window(rows, cols):
        return _columns(cols, cols[0], room - rows.min())

    def power(k, x):
        return x * (np.exp2(np.minimum(demand[k] / x, 600.0)) - 1.0) / v[k]

    def energy(pw):
        return _gt_sum([q * t for q, t in zip(pw, slack)])

    def objective(*b):
        return energy([power(k, x) for k, x in enumerate(b)])

    def score(*b):
        pw = [power(k, x) for k, x in enumerate(b)]
        ok = ((_gt_sum(b) <= b_total * (1.0 + _FEAS_TOL))
              & (_gt_sum(pw) <= cfg.uav_power_budget * (1.0 + _FEAS_TOL)))
        return np.where(ok, energy(pw), np.inf)

    lower = _separable_bound(lambda k, x: power(k, x) * slack[k], _gt_sum)
    point, value, cell = _refine(score, specs, passes,
                                 window=window if n > 1 else None,
                                 lower=lower if n > 1 else None)
    return OracleSolution(point, value, _evaluate_with(objective), cell)


def _hop_search(hop, slack, bits, pw, specs, passes, window):
    """Refined grid search of a placement oracle over two axes.

    ``hop(u, w)`` gives the per-GT UAV-GT rates on a mesh and whether
    each point covers every GT; a point is feasible when it covers them
    and every GT's downlink time fits its slack (see :func:`_hop_terms`
    for the per-GT terms).  ``window`` bounds the ``w`` columns
    (:func:`_grid_search`)."""
    load = pw * bits
    limit = slack * (1.0 + _FEAS_TOL)

    def energy(rate):
        return _gt_sum([e / r for e, r in zip(load, rate)])

    def objective(u, w):
        return energy(hop(u, w)[0])

    def score(u, w):
        rate, covered = hop(u, w)
        lat = [b / r <= t for b, r, t in zip(bits, rate, limit)]
        ok = reduce(np.logical_and, lat, covered)
        return np.where(ok, energy(rate), np.inf)

    point, value, cell = _refine(score, specs, passes, window=window)
    return OracleSolution(point, value, _evaluate_with(objective), cell)


def oracle_altitude_beamwidth(cfg: ScenarioConfig, state, points: int = 600,
                              passes: int = 2) -> OracleSolution:
    """Grid reference over (altitude, half-beamwidth)."""
    pl = state.placement
    slack, bits, bw, pw = _hop_terms(cfg, state)
    dists = np.array([pl.horizontal_distance(p) for p in cfg.gt_positions])
    gain = cfg.antenna_gain_const * cfg.ref_channel_gain * pw
    th_lo, th_hi = cfg.beam_range_clamped
    specs = [GridSpec(cfg.altitude_range[0], cfg.altitude_range[1], points),
             GridSpec(th_lo, th_hi, points)]

    def hop(h, theta):
        h2, th2 = h ** 2, theta ** 2
        rate = [b * np.log2(1.0 + g / ((l2 + h2) * th2 * b * cfg.noise_psd))
                for b, g, l2 in zip(bw, gain, dists ** 2)]
        # Every GT is covered iff the farthest one is.
        return rate, dists.max() <= h * np.tan(theta) * (1.0 + _FEAS_TOL)

    def window(rows, cols):
        # Coverage needs tan(theta) >= d_max / (h (1 + tol)), least at the
        # block's highest altitude.
        least = math.atan(dists.max() / (rows.max() * (1.0 + _FEAS_TOL))
                          * (1.0 - _WINDOW_MARGIN)) * (1.0 - _WINDOW_MARGIN)
        return _columns(cols, least, cols[-1])

    return _hop_search(hop, slack, bits, pw, specs, passes, window)


def oracle_location(cfg: ScenarioConfig, state, points: int = 2010,
                    passes: int = 0) -> OracleSolution:
    """Grid reference over the horizontal UAV location.

    The grid covers the bounding box of the intersection of the per-GT
    admissible disks (coverage radius capped by the latency-derived
    radius), re-derived here from the model equations."""
    slack, bits, bw, pw = _hop_terms(cfg, state)
    n = cfg.num_gts
    pl = state.placement
    xs = np.array([p[0] for p in cfg.gt_positions])
    ys = np.array([p[1] for p in cfg.gt_positions])
    h = pl.altitude
    theta = pl.half_beamwidth
    cover = h * math.tan(theta)
    radii = np.empty(n)
    margin = np.empty(n)
    for k in range(n):
        j_k = bits[k] / (bw[k] * slack[k])
        snr = 2.0 ** min(j_k, 600.0) - 1.0
        q2 = (cfg.antenna_gain_const * cfg.ref_channel_gain * pw[k]
              / (theta * theta * bw[k] * cfg.noise_psd * snr)) - h * h
        if q2 < 0.0:
            raise EmptyFeasibleError(f"GT {k}: latency disk is empty")
        radii[k] = min(cover, math.sqrt(q2))
        # The latency test's tolerance moves the disk's d + h^2 by a
        # relative 4e-10 at most (j <= 600), log2(1 + snr)'s rounding by
        # about 1e-16 / snr.
        margin[k] = _WINDOW_MARGIN * (1.0 + 1.0 / snr)
    x_lo, x_hi = float(np.max(xs - radii)), float(np.min(xs + radii))
    y_lo, y_hi = float(np.max(ys - radii)), float(np.min(ys + radii))
    if x_lo >= x_hi or y_lo >= y_hi:
        raise EmptyFeasibleError("admissible disks have empty intersection")
    specs = [GridSpec(x_lo, x_hi, points), GridSpec(y_lo, y_hi, points)]
    gain = cfg.antenna_gain_const * cfg.ref_channel_gain * pw
    reach2 = cover * cover * (1.0 + _FEAS_TOL)
    # A feasible point's squared offset from GT k stays under limit[k];
    # radii <= cover, so the coverage test's reach2 does too.
    limit = (radii * radii + h * h) * (1.0 + margin) - h * h
    widen = _WINDOW_MARGIN * np.abs(ys)

    def hop(x, y):
        d2h = [(x - gx) ** 2 + (y - gy) ** 2 for gx, gy in zip(xs, ys)]
        rate = [b * np.log2(1.0 + g / ((d + h * h) * theta * theta * b
                                       * cfg.noise_psd))
                for b, g, d in zip(bw, gain, d2h)]
        return rate, reduce(np.logical_and, [d <= reach2 for d in d2h])

    def window(rows, cols):
        # Each disk's widest half-chord over the block's rows, from the
        # squared x offsets as the score rounds them; the y intervals meet.
        near = np.min((rows[:, None] - xs) ** 2, axis=0)
        half = (np.sqrt(np.maximum(limit - near, 0.0))
                * (1.0 + 2.0 * _WINDOW_MARGIN))
        return _columns(cols, np.max(ys - widen - half),
                        np.min(ys + widen + half))

    return _hop_search(hop, slack, bits, pw, specs, passes, window)
