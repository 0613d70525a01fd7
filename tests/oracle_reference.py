"""The grid search and the per-block grid oracles as they were before the
search handed its score an open mesh, kept verbatim as the references the
mesh versions in ``saginpsc.oracle`` are compared against bit for bit.

Each score here receives (N, ndim) points built chunk by chunk and
computes every per-GT term at every point; narrow row reductions use
``_row_sum``/``_row_all``.  Only the names changed: ``reference_`` in
front of the engine and the oracles.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from saginpsc.oracle import (
    _FEAS_TOL,
    _SEQUENTIAL_SUM_WIDTH,
    EmptyFeasibleError,
    GridSpec,
    OracleSolution,
    _fixed_terms,
    _ref_rate_su,
    _ug_rate_vec,
)
from saginpsc.scenario import ScenarioConfig

_CHUNK = 1 << 19


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


def reference_grid_minimize(objective, specs: Sequence[GridSpec],
                            feasible=None):
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


def reference_refine_minimize(objective, specs: Sequence[GridSpec],
                              feasible=None, passes: int = 3):
    """Grid search followed by ``passes`` zoom-ins around the incumbent,
    clipped to the original bounds.

    A window only shrinks when the incumbent lands in its interior; an
    incumbent pinned to the window edge keeps the window size so the
    search can crawl along an active constraint toward an off-grid
    vertex.  Returns (point, value, final cell sizes)."""
    point, value = reference_grid_minimize(objective, specs, feasible)
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
            p2, v2 = reference_grid_minimize(objective, window, feasible)
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


def reference_oracle_ratio(cfg: ScenarioConfig, state, chosen_segments,
                           points: int = 1000,
                           passes: int = 3) -> OracleSolution:
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

    point, value, cell = reference_refine_minimize(score, specs, passes=passes)
    return OracleSolution(point, value,
                          lambda x: float(objective(np.array([x]))[0]), cell)


def reference_oracle_cpu(cfg: ScenarioConfig, state, points: int = 400,
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

    point, value, cell = reference_refine_minimize(score, specs, passes=passes)
    full = [0.0] * cfg.num_gts
    for i, k in enumerate(active):
        full[k] = point[i]

    def evaluate(x):
        sub = np.array([[x[k] for k in active]], dtype=float)
        return float(objective(sub)[0])

    return OracleSolution(tuple(full), value, evaluate, cell)


def reference_oracle_power_bandwidth(cfg: ScenarioConfig, state,
                                     points: int = 2000,
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

    point, value, cell = reference_refine_minimize(score, specs, passes=passes)
    return OracleSolution(point, value,
                          lambda x: float(objective(np.array([x]))[0]), cell)


def reference_oracle_altitude_beamwidth(cfg: ScenarioConfig, state,
                                        points: int = 600,
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

    point, value, cell = reference_refine_minimize(score, specs, passes=passes)
    return OracleSolution(point, value,
                          lambda x: float(objective(np.array([x]))[0]), cell)


def reference_oracle_location(cfg: ScenarioConfig, state, points: int = 2010,
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

    point, value, cell = reference_refine_minimize(score, specs, passes=passes)
    return OracleSolution(point, value,
                          lambda x: float(objective(np.array([x]))[0]), cell)
