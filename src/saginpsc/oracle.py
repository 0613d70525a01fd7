"""Brute-force reference solvers and high-precision formula evaluation.

Everything in this module re-derives the model from scratch: no function
here calls the production physics or subsolver code, so an agreement
between the two is evidence, not tautology.  The oracles are shipped
with the library (not hidden in the tests) so any documented reference
value can be regenerated.

Exhaustive enumeration is capped at 3^12 combinations; the grid search
evaluates in fixed-size chunks and breaks ties toward the lowest grid
index in row-major order.  Each per-block grid oracle scores a chunk in
one pass: it derives the shared latency/rate pieces once and returns the
objective with +inf wherever a constraint fails, so no point is
evaluated twice.  Row reductions over the narrow (points, GTs) arrays use
column arithmetic (``_row_sum``/``_row_all``) with the same rounding as
``np.sum``/``np.all``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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
_CHUNK = 1 << 19
_FEAS_TOL = 1e-12
# NumPy sums a row shorter than this left to right from 0.0; from this
# width on it sums pairwise, which column arithmetic does not reproduce.
_SEQUENTIAL_SUM_WIDTH = 8


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


def _row_sum(a: np.ndarray) -> np.ndarray:
    """``np.sum(a, axis=1)`` of a 2-D array with at least one column, bit
    for bit.

    Rows narrower than ``_SEQUENTIAL_SUM_WIDTH`` are summed column by
    column in NumPy's own order, which avoids its per-row reduction
    overhead; wider rows go to ``np.sum``."""
    width = a.shape[1]
    if width >= _SEQUENTIAL_SUM_WIDTH:
        return np.sum(a, axis=1)
    total = a[:, 0] + 0.0  # NumPy starts from +0.0, so -0.0 rows sum to +0.0
    for k in range(1, width):
        total += a[:, k]
    return total


def _row_all(a: np.ndarray) -> np.ndarray:
    """``np.all(a, axis=1)`` of a 2-D boolean array with at least one
    column, column by column."""
    out = a[:, 0].copy()
    for k in range(1, a.shape[1]):
        out &= a[:, k]
    return out


def _chunk_points(axes, start: int, stop: int) -> np.ndarray:
    """Points ``start:stop`` of the cartesian grid of ``axes`` in
    row-major order, as an (N, ndim) array.

    Along axis ``d`` the grid holds each axis value ``stride`` times in a
    row (``stride`` being the product of the later axis lengths), and the
    axis repeats over the earlier ones; so each column is the axis tiled
    over the runs the chunk touches, each run repeated ``stride`` times,
    trimmed to the chunk.  No arithmetic touches the values.
    """
    pts = np.empty((stop - start, len(axes)))
    stride = 1
    for d in range(len(axes) - 1, -1, -1):
        n = axes[d].size
        first, last = start // stride, -(-stop // stride)  # runs touched
        lead = first - first % n  # first run of the axis period holding `first`
        runs = np.tile(axes[d], -(-(last - lead) // n))[first - lead:last - lead]
        offset = start - first * stride
        pts[:, d] = np.repeat(runs, stride)[offset:offset + stop - start]
        stride *= n
    return pts


def grid_minimize(objective, specs: Sequence[GridSpec], feasible=None):
    """Exact minimum of ``objective`` over the cartesian grid, restricted
    to points passing ``feasible``.

    Both callables are vectorized: they receive an (N, ndim) array and
    return a length-N array.  A separate ``feasible`` filter is the same
    as one score ``np.where(feasible(pts), objective(pts), inf)``; the
    per-block oracles pass such a one-pass score and no filter, so the
    pieces shared by the objective and the constraints are computed once
    per chunk.  Ties break toward the lowest row-major index.  Raises
    :class:`EmptyFeasibleError` when no point has a finite score.
    """
    axes = [np.linspace(s.lower, s.upper, s.points) for s in specs]
    total = math.prod(s.points for s in specs)
    best_val = math.inf
    best_point = None
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        pts = _chunk_points(axes, start, stop)
        vals = np.asarray(objective(pts), dtype=float)
        if feasible is not None:
            ok = np.asarray(feasible(pts), dtype=bool)
            vals = np.where(ok, vals, np.inf)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_point = tuple(float(x) for x in pts[j])
    if not math.isfinite(best_val):
        raise EmptyFeasibleError("no grid point passed the feasibility filter")
    return best_point, best_val


def refine_minimize(objective, specs: Sequence[GridSpec], feasible=None,
                    passes: int = 3):
    """Grid search followed by ``passes`` zoom-ins around the incumbent,
    clipped to the original bounds.

    A window only shrinks when the incumbent lands in its interior; an
    incumbent pinned to the window edge keeps the window size so the
    search can crawl along an active constraint toward an off-grid
    vertex.  Returns (point, value, final cell sizes)."""
    point, value = grid_minimize(objective, specs, feasible)
    width = [s.cell for s in specs]
    cells = list(width)
    for _ in range(passes):
        window = []
        for d in range(len(specs)):
            lo = max(specs[d].lower, point[d] - width[d])
            hi = min(specs[d].upper, point[d] + width[d])
            if hi <= lo:
                lo, hi = specs[d].lower, specs[d].upper
            window.append(GridSpec(lo, hi, specs[d].points))
        try:
            p2, v2 = grid_minimize(objective, window, feasible)
        except EmptyFeasibleError:
            break
        for d, s in enumerate(window):
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

    def pieces(rho):
        """Overheads, satellite overhead sum, shared satellite transmit
        time, per-GT downlink time and the total energy."""
        over = slope[None, :] * rho + intercept[None, :]
        eff = (a_s + a_u)[None, :] * rho + (1 - a_s - a_u)[None, :]
        sat_over = _row_sum(a_s[None, :] * over)
        t_tx = _row_sum((a_s[None, :] * rho + (1 - a_s)[None, :])
                        * data[None, :]) / r_su
        t_ug = data[None, :] * eff / rate[None, :]
        e_sat = tau * kappa * cfg.sat_cpu ** 2 * sat_over
        e_su = t_tx * cfg.sat_tx_power
        e_uav = tau * kappa * _row_sum(a_u[None, :] * over * f[None, :] ** 2)
        e_ug = _row_sum(p[None, :] * t_ug)
        return over, sat_over, t_tx, t_ug, e_sat + e_su + e_uav + e_ug

    def objective(pts):
        return pieces(pts)[-1]

    def score(pts):
        over, sat_over, t_tx, t_ug, energy = pieces(pts)
        t_sat = kappa * sat_over / cfg.sat_cpu
        t_u = kappa * a_u[None, :] * over / f_safe[None, :]
        lat = t_sat[:, None] + t_tx[:, None] + t_prop + t_u + t_ug
        ok = _row_all(lat <= cfg.latency_budget * (1.0 + _FEAS_TOL))
        return np.where(ok, energy, np.inf)

    point, value, cell = refine_minimize(score, specs, passes=passes)
    return OracleSolution(point, value,
                          lambda x: float(objective(np.array([x]))[0]), cell)


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

    def objective(pts):
        return tau * kappa * _row_sum(ov[None, :] * pts ** 2)

    def score(pts):
        t_u = kappa * ov[None, :] / pts
        ok = (_row_all(t_u <= base[None, :] * (1.0 + _FEAS_TOL))
              & (_row_sum(pts) <= cfg.uav_cpu_total * (1.0 + _FEAS_TOL)))
        return np.where(ok, objective(pts), np.inf)

    point, value, cell = refine_minimize(score, specs, passes=passes)
    full = [0.0] * cfg.num_gts
    for i, k in enumerate(active):
        full[k] = point[i]

    def evaluate(x):
        sub = np.array([[x[k] for k in active]], dtype=float)
        return float(objective(sub)[0])

    return OracleSolution(tuple(full), value, evaluate, cell)


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
        demand[k] = cfg.data_bits[k] * eff[k] / slack[k]
        v[k] = (cfg.antenna_gain_const * cfg.ref_channel_gain
                / (d2[k] * state.placement.half_beamwidth ** 2 * cfg.noise_psd))
    b_total = cfg.uav_bandwidth_total
    specs = [GridSpec(1e-5 * b_total, b_total, points) for _ in range(n)]

    def powers(pts):
        x = demand[None, :] / pts
        x = np.minimum(x, 600.0)
        return pts * (np.exp2(x) - 1.0) / v[None, :]

    def objective(pts):
        return _row_sum(powers(pts) * slack[None, :])

    def score(pts):
        pw = powers(pts)
        ok = ((_row_sum(pts) <= b_total * (1.0 + _FEAS_TOL))
              & (_row_sum(pw) <= cfg.uav_power_budget * (1.0 + _FEAS_TOL)))
        return np.where(ok, _row_sum(pw * slack[None, :]), np.inf)

    point, value, cell = refine_minimize(score, specs, passes=passes)
    return OracleSolution(point, value,
                          lambda x: float(objective(np.array([x]))[0]), cell)


def oracle_altitude_beamwidth(cfg: ScenarioConfig, state, points: int = 600,
                              passes: int = 2) -> OracleSolution:
    """Grid reference over (altitude, half-beamwidth)."""
    al = state.allocation
    r_su, over, t_sat, t_tx, t_prop, eff, _ = _fixed_terms(cfg, state)
    kappa = cfg.cycles_per_overhead
    n = cfg.num_gts
    pl = state.placement
    dists = np.array([pl.horizontal_distance(cfg.gt_positions[k])
                      for k in range(n)])
    slack = np.array([
        cfg.latency_budget - t_sat - t_tx - t_prop
        - ((kappa * over[k] / al.cpu[k]) if al.task_uav[k] else 0.0)
        for k in range(n)
    ])
    bits = np.array(cfg.data_bits) * np.array(eff)
    bw = np.array(al.bandwidth)
    pw = np.array(al.power)
    th_lo, th_hi = cfg.beam_range_clamped
    specs = [GridSpec(cfg.altitude_range[0], cfg.altitude_range[1], points),
             GridSpec(th_lo, th_hi, points)]

    def pieces(pts):
        h = pts[:, 0:1]
        theta = pts[:, 1:2]
        d2 = dists[None, :] ** 2 + h ** 2
        snr = (cfg.antenna_gain_const * cfg.ref_channel_gain * pw[None, :]
               / (d2 * theta ** 2 * bw[None, :] * cfg.noise_psd))
        rate = bw[None, :] * np.log2(1.0 + snr)
        return h, theta, rate

    def energy(rate):
        return _row_sum(pw[None, :] * bits[None, :] / rate)

    def objective(pts):
        return energy(pieces(pts)[2])

    def score(pts):
        h, theta, rate = pieces(pts)
        cover = _row_all(dists[None, :]
                         <= h * np.tan(theta) * (1.0 + _FEAS_TOL))
        lat = _row_all(bits[None, :] / rate
                       <= slack[None, :] * (1.0 + _FEAS_TOL))
        return np.where(cover & lat, energy(rate), np.inf)

    point, value, cell = refine_minimize(score, specs, passes=passes)
    return OracleSolution(point, value,
                          lambda x: float(objective(np.array([x]))[0]), cell)


def oracle_location(cfg: ScenarioConfig, state, points: int = 2010,
                    passes: int = 0) -> OracleSolution:
    """Grid reference over the horizontal UAV location.

    The grid covers the bounding box of the intersection of the per-GT
    admissible disks (coverage radius capped by the latency-derived
    radius), re-derived here from the model equations."""
    al = state.allocation
    r_su, over, t_sat, t_tx, t_prop, eff, _ = _fixed_terms(cfg, state)
    kappa = cfg.cycles_per_overhead
    n = cfg.num_gts
    pl = state.placement
    slack = np.array([
        cfg.latency_budget - t_sat - t_tx - t_prop
        - ((kappa * over[k] / al.cpu[k]) if al.task_uav[k] else 0.0)
        for k in range(n)
    ])
    bits = np.array(cfg.data_bits) * np.array(eff)
    bw = np.array(al.bandwidth)
    pw = np.array(al.power)
    xs = np.array([p[0] for p in cfg.gt_positions])
    ys = np.array([p[1] for p in cfg.gt_positions])
    h = pl.altitude
    theta = pl.half_beamwidth
    cover = h * math.tan(theta)
    radii = np.empty(n)
    for k in range(n):
        j_k = bits[k] / (bw[k] * slack[k])
        q2 = (cfg.antenna_gain_const * cfg.ref_channel_gain * pw[k]
              / (theta * theta * bw[k] * cfg.noise_psd
                 * (2.0 ** min(j_k, 600.0) - 1.0))) - h * h
        if q2 < 0.0:
            raise EmptyFeasibleError(f"GT {k}: latency disk is empty")
        radii[k] = min(cover, math.sqrt(q2))
    x_lo, x_hi = float(np.max(xs - radii)), float(np.min(xs + radii))
    y_lo, y_hi = float(np.max(ys - radii)), float(np.min(ys + radii))
    if x_lo >= x_hi or y_lo >= y_hi:
        raise EmptyFeasibleError("admissible disks have empty intersection")
    specs = [GridSpec(x_lo, x_hi, points), GridSpec(y_lo, y_hi, points)]

    def pieces(pts):
        d2h = ((pts[:, 0:1] - xs[None, :]) ** 2
               + (pts[:, 1:2] - ys[None, :]) ** 2)
        snr = (cfg.antenna_gain_const * cfg.ref_channel_gain * pw[None, :]
               / ((d2h + h * h) * theta * theta * bw[None, :] * cfg.noise_psd))
        rate = bw[None, :] * np.log2(1.0 + snr)
        return d2h, rate

    def energy(rate):
        return _row_sum(pw[None, :] * bits[None, :] / rate)

    def objective(pts):
        return energy(pieces(pts)[1])

    def score(pts):
        d2h, rate = pieces(pts)
        in_cover = _row_all(d2h <= cover * cover * (1.0 + _FEAS_TOL))
        lat = _row_all(bits[None, :] / rate
                       <= slack[None, :] * (1.0 + _FEAS_TOL))
        return np.where(in_cover & lat, energy(rate), np.inf)

    point, value, cell = refine_minimize(score, specs, passes=passes)
    return OracleSolution(point, value,
                          lambda x: float(objective(np.array([x]))[0]), cell)
