"""Per-block optimizers for the alternating energy-minimization loop.

Each solver optimizes one variable block with every other block held
fixed.  The two combinatorial blocks (compression-site assignment and
overhead-segment selection) run a projected dual subgradient loop and
return the best feasible iterate encountered, falling back to the final
iterate with ``feasible=False`` when no iterate met the latency budget.
The remaining blocks are a dense LP, a closed form, a two-multiplier
convex allocator, and two exhaustive searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .physics import (
    Placement,
    SolutionState,
    channel_gain_ug,
    effective_fraction,
    rate_sat_uav,
    rate_uav_gt,
    total_energy,
)
from .scenario import ScenarioConfig

__all__ = [
    "SolverOptions",
    "SegmentChoice",
    "InfeasibleBlockError",
    "dual_subgradient",
    "solve_task_allocation",
    "select_segments",
    "solve_ratio_lp",
    "solve_cpu_allocation",
    "solve_power_bandwidth",
    "solve_altitude_beamwidth",
    "solve_location",
]


class InfeasibleBlockError(RuntimeError):
    """A block subproblem has no feasible point for the current state."""

    def __init__(self, block: str, detail: str):
        super().__init__(f"{block}: {detail}")
        self.block = block
        self.detail = detail


@dataclass(frozen=True)
class SolverOptions:
    """Budgets and tolerances shared by the block solvers."""

    dual_max_iters: int = 500
    dual_step_scale: float = 1.0
    dual_tolerance: float = 1e-6
    grid_step_theta: float = 1e-3
    location_grid_points: int = 201
    refinement_levels: int = 1
    kkt_tolerance: float = 1e-9

    def __post_init__(self):
        for name in ("dual_max_iters", "dual_step_scale", "dual_tolerance",
                     "grid_step_theta", "location_grid_points",
                     "refinement_levels", "kkt_tolerance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class SegmentChoice:
    """One active overhead segment per GT (0-based indices), with the
    per-(GT, segment) midpoints used to rank them."""

    chosen_segment: tuple[int, ...]
    midpoints: tuple[tuple[float, ...], ...]

    @property
    def alpha(self) -> tuple[tuple[int, ...], ...]:
        """One-hot segment indicators, one row per GT."""
        return tuple(tuple(int(d == chosen) for d in range(len(mids)))
                     for chosen, mids in zip(self.chosen_segment,
                                             self.midpoints))


# ---------------------------------------------------------------------------
# Shared latency pieces


@dataclass(frozen=True)
class _Pieces:
    """Latency/rate components of the current state, reused by the blocks."""

    r_su: float
    t_sat: float
    t_tx: float
    t_prop: float
    t_uav: tuple[float, ...]
    rates: tuple[float, ...]
    overhead: tuple[float, ...]
    eff: tuple[float, ...]


def _pieces(cfg: ScenarioConfig, state: SolutionState) -> _Pieces:
    al = state.allocation
    kappa = cfg.cycles_per_overhead
    r_su = rate_sat_uav(cfg)
    overhead = tuple(cfg.overhead_curves[k].evaluate(al.ratio[k])
                     for k in range(cfg.num_gts))
    t_sat = kappa * sum(a * o for a, o in zip(al.task_sat, overhead)) / cfg.sat_cpu
    t_tx = sum((a * al.ratio[k] + (1 - a)) * cfg.data_bits[k]
               for k, a in enumerate(al.task_sat)) / r_su
    t_prop = cfg.sat_uav_distance / cfg.lightspeed
    t_uav = tuple(
        (kappa * overhead[k] / al.cpu[k]) if al.task_uav[k] else 0.0
        for k in range(cfg.num_gts)
    )
    rates = tuple(rate_uav_gt(cfg, state.placement, al.bandwidth[k], al.power[k], k)
                  for k in range(cfg.num_gts))
    eff = tuple(effective_fraction(al.task_sat[k], al.task_uav[k], al.ratio[k])
                for k in range(cfg.num_gts))
    return _Pieces(r_su, t_sat, t_tx, t_prop, t_uav, rates, overhead, eff)


def _downlink_slacks(cfg: ScenarioConfig, pieces: _Pieces) -> list[float]:
    """Per-GT latency left for the UAV-to-GT hop: T - tS - tT - tP - tU."""
    base = cfg.latency_budget - pieces.t_sat - pieces.t_tx - pieces.t_prop
    return [base - tu for tu in pieces.t_uav]


# ---------------------------------------------------------------------------
# Generic projected dual subgradient loop


def dual_subgradient(adapter, opts: SolverOptions):
    """Maximize a Lagrangian dual by projected subgradient with the
    diminishing step ``step_scale / sqrt(t)`` on normalized residuals.

    The adapter supplies ``num_multipliers``, ``minimize(mult) -> primal``
    (exact Lagrangian minimizer at fixed multipliers), ``residuals(primal)
    -> array`` (positive = violated, already normalized), and
    ``objective(primal) -> float`` (the true block objective, used to rank
    feasible iterates).  Primals must be hashable, and ``residuals`` and
    ``objective`` must be pure functions of the primal: each is evaluated
    once per distinct primal and reused when the minimizer returns to it.

    Returns ``(best_primal, multipliers, steps, feasible_found)`` where
    ``best_primal`` is the feasible iterate of least objective, or the
    final iterate when none was feasible.
    """
    mult = np.zeros(adapter.num_multipliers)
    best_primal = None
    best_obj = math.inf
    primal = None
    scored = {}  # primal -> (residuals, their positive part)
    t = 0
    for t in range(1, opts.dual_max_iters + 1):
        primal = adapter.minimize(mult)
        entry = scored.get(primal)
        if entry is None:
            res = np.asarray(adapter.residuals(primal), dtype=float)
            obj = (adapter.objective(primal)
                   if np.all(res <= opts.dual_tolerance) else math.inf)
            entry = scored[primal] = (res, np.maximum(res, 0.0))
            if obj < best_obj:
                best_obj = obj
                best_primal = primal
        res, res_pos = entry
        projected = np.where(mult > 0.0, res, res_pos)
        if math.sqrt(projected.dot(projected)) < opts.dual_tolerance:
            break
        step = opts.dual_step_scale / math.sqrt(t)
        mult = np.maximum(0.0, mult + step * res)
    if best_primal is not None:
        return best_primal, mult, t, True
    return primal, mult, t, False


def _keep_incumbent(adapter, primal, feasible, incumbent, opts: SolverOptions):
    """``(incumbent, True)`` when the incumbent is feasible and either the
    dual loop found nothing feasible or the incumbent is strictly better,
    else ``(primal, feasible)``: a block must never worsen the state it was
    given."""
    if float(np.max(adapter.residuals(incumbent))) <= opts.dual_tolerance:
        if (not feasible
                or adapter.objective(incumbent) < adapter.objective(primal)):
            return incumbent, True
    return primal, feasible


# ---------------------------------------------------------------------------
# Block 1: compression-site assignment (satellite / UAV / none)


class _TaskAdapter:
    """Primal: ``(task_sat, task_uav)``.  Each GT's Lagrangian is linear in
    its assignment, so ``minimize`` picks per GT the least of the option
    columns none (0), satellite and UAV; ``argmin`` keeps the first
    minimum, so ties resolve to none, then satellite.  GTs without a
    positive UAV CPU share price the UAV option at +inf."""

    def __init__(self, cfg: ScenarioConfig, state: SolutionState,
                 pieces: _Pieces):
        self.cfg = cfg
        self.state = state
        self.num_multipliers = cfg.num_gts
        kappa = cfg.cycles_per_overhead
        tau = cfg.comp_energy_coeff
        al = state.allocation
        obj = np.zeros((cfg.num_gts, 3))
        lat = np.zeros((cfg.num_gts, 3))
        for k in range(cfg.num_gts):
            o = pieces.overhead[k]
            save = cfg.data_bits[k] * (1.0 - al.ratio[k])
            r_k = pieces.rates[k]
            obj[k, 1] = (kappa * tau * o * cfg.sat_cpu ** 2
                         - save * (cfg.sat_tx_power / pieces.r_su
                                   + al.power[k] / r_k))
            lat[k, 1] = (kappa * o / cfg.sat_cpu
                         - save * (1.0 / pieces.r_su + 1.0 / r_k))
            if al.cpu[k] > 0.0:
                obj[k, 2] = (kappa * tau * o * al.cpu[k] ** 2
                             - save * al.power[k] / r_k)
                lat[k, 2] = kappa * o / al.cpu[k] - save / r_k
            else:
                obj[k, 2] = math.inf
        self.obj = obj
        self.lat = lat

    def minimize(self, mult):
        choice = (self.obj + mult[:, None] * self.lat).argmin(axis=1)
        return (tuple((choice == 1).astype(int).tolist()),
                tuple((choice == 2).astype(int).tolist()))

    def _with_assignment(self, primal) -> SolutionState:
        task_sat, task_uav = primal
        al = replace(self.state.allocation,
                     task_sat=tuple(task_sat), task_uav=tuple(task_uav))
        return replace(self.state, allocation=al)

    def residuals(self, primal):
        cand = self._with_assignment(primal)
        pieces = _pieces(self.cfg, cand)
        t = self.cfg.latency_budget
        return np.array([
            (pieces.t_sat + pieces.t_tx + pieces.t_prop + pieces.t_uav[k]
             + self.cfg.data_bits[k] * pieces.eff[k] / pieces.rates[k] - t) / t
            for k in range(self.cfg.num_gts)
        ])

    def objective(self, primal):
        return total_energy(self.cfg, self._with_assignment(primal))


def solve_task_allocation(cfg: ScenarioConfig, state: SolutionState,
                          opts: SolverOptions):
    """Assign the compression site per GT by the dual method.

    Returns ``(task_sat, task_uav, feasible)``.  GTs without a
    positive UAV CPU share can only be assigned to the satellite or left
    uncompressed.
    """
    adapter = _TaskAdapter(cfg, state, _pieces(cfg, state))
    primal, _, _, feasible = dual_subgradient(adapter, opts)
    incumbent = (state.allocation.task_sat, state.allocation.task_uav)
    (task_sat, task_uav), feasible = _keep_incumbent(
        adapter, primal, feasible, incumbent, opts)
    return tuple(task_sat), tuple(task_uav), feasible


# ---------------------------------------------------------------------------
# Block 2a: overhead-segment selection at segment midpoints


class _SegmentAdapter:
    """Primal: the chosen 0-based segment per GT.  ``minimize`` ranks each
    GT's row of midpoint scores; rows of curves with fewer segments are
    padded with +inf, and ``argmin`` keeps the first minimum, so ties
    resolve to the shallowest segment."""

    def __init__(self, cfg: ScenarioConfig, state: SolutionState,
                 pieces: _Pieces):
        self.cfg = cfg
        self.state = state
        self.p = pieces
        self.num_multipliers = cfg.num_gts
        self.mids = [
            [cfg.overhead_curves[k].midpoint(d)
             for d in range(cfg.overhead_curves[k].num_segments)]
            for k in range(cfg.num_gts)
        ]
        kappa = cfg.cycles_per_overhead
        tau = cfg.comp_energy_coeff
        al = state.allocation
        # Per (k, d) objective and latency-residual coefficients of the
        # one-hot segment indicator; GTs with no compression anywhere have
        # all-zero scores and resolve to segment 0 by the tie-break.
        width = max(len(m) for m in self.mids)
        self.score0 = np.full((cfg.num_gts, width), math.inf)
        self.score_lat = np.zeros((cfg.num_gts, width))
        for k in range(cfg.num_gts):
            curve = cfg.overhead_curves[k]
            a_s, a_u = al.task_sat[k], al.task_uav[k]
            if a_u and al.cpu[k] <= 0.0:
                raise InfeasibleBlockError(
                    "select_segments", f"GT {k}: UAV-assigned with zero CPU share")
            for d in range(curve.num_segments):
                mid = self.mids[k][d]
                o_mid = curve.evaluate_on(mid, d)
                self.score0[k, d] = (
                    kappa * tau * cfg.sat_cpu ** 2 * a_s * o_mid
                    + cfg.sat_tx_power * cfg.data_bits[k] * a_s * mid / pieces.r_su
                    + kappa * tau * al.cpu[k] ** 2 * a_u * o_mid
                    + al.power[k] * cfg.data_bits[k] * mid * (a_s + a_u)
                    / pieces.rates[k])
                self.score_lat[k, d] = (
                    kappa * a_s * o_mid / cfg.sat_cpu
                    + cfg.data_bits[k] * a_s * mid / pieces.r_su
                    + (kappa * a_u * o_mid / al.cpu[k] if a_u else 0.0)
                    + cfg.data_bits[k] * mid * (a_s + a_u) / pieces.rates[k])

    def minimize(self, mult):
        scores = self.score0 + mult[:, None] * self.score_lat
        return tuple(scores.argmin(axis=1).tolist())

    def _terms(self, chosen):
        """Midpoint-approximated shared and per-GT latency terms."""
        cfg, al, p = self.cfg, self.state.allocation, self.p
        kappa = cfg.cycles_per_overhead
        t_sat = 0.0
        t_tx = 0.0
        per_gt = []
        for k, d in enumerate(chosen):
            curve = cfg.overhead_curves[k]
            mid = self.mids[k][d]
            o_mid = curve.evaluate_on(mid, d)
            a_s, a_u = al.task_sat[k], al.task_uav[k]
            t_sat += kappa * a_s * o_mid / cfg.sat_cpu
            t_tx += cfg.data_bits[k] * (a_s * mid + (1 - a_s)) / p.r_su
            t_u = kappa * a_u * o_mid / al.cpu[k] if a_u else 0.0
            t_ug = cfg.data_bits[k] * effective_fraction(a_s, a_u, mid) / p.rates[k]
            per_gt.append((t_u, t_ug))
        return t_sat, t_tx, per_gt

    def residuals(self, chosen):
        t_sat, t_tx, per_gt = self._terms(chosen)
        t = self.cfg.latency_budget
        return np.array([
            (t_sat + t_tx + self.p.t_prop + t_u + t_ug - t) / t
            for t_u, t_ug in per_gt
        ])

    def objective(self, chosen):
        return sum(self.score0[k, d] for k, d in enumerate(chosen))


def select_segments(cfg: ScenarioConfig, state: SolutionState,
                    opts: SolverOptions):
    """Pick one overhead segment per GT by ranking the midpoint scores
    under the dual multipliers.  Returns ``(SegmentChoice, feasible)``;
    ties resolve to the shallowest segment."""
    adapter = _SegmentAdapter(cfg, state, _pieces(cfg, state))
    chosen, _, _, feasible = dual_subgradient(adapter, opts)
    incumbent = tuple(
        cfg.overhead_curves[k].segment_of(state.allocation.ratio[k])
        for k in range(cfg.num_gts))
    chosen, feasible = _keep_incumbent(adapter, chosen, feasible, incumbent,
                                       opts)
    choice = SegmentChoice(
        chosen_segment=tuple(chosen),
        midpoints=tuple(tuple(m) for m in adapter.mids),
    )
    return choice, feasible


# ---------------------------------------------------------------------------
# Block 2b: exact compression ratios within the chosen segments (dense LP)


def solve_ratio_lp(cfg: ScenarioConfig, state: SolutionState,
                   choice: SegmentChoice, opts: SolverOptions):
    """Optimize the compression ratios inside their chosen segments.

    Returns ``(ratios, fully_feasible)``.  Latency rows whose coefficients
    are all zero (no decision variable can influence them) are dropped and
    reported through ``fully_feasible=False`` when violated; this lets the
    outer loop keep improving a state whose infeasibility is owned by
    other blocks.  A genuinely contradictory LP raises
    :class:`InfeasibleBlockError` naming the most violated constraint at
    the center of the ratio box.
    """
    from .simplex import solve_bounded_lp

    al = state.allocation
    p = _pieces(cfg, state)
    kappa = cfg.cycles_per_overhead
    tau = cfg.comp_energy_coeff
    n = cfg.num_gts

    lo = np.empty(n)
    hi = np.empty(n)
    slope = np.empty(n)
    intercept = np.empty(n)
    c = np.empty(n)
    for k in range(n):
        curve = cfg.overhead_curves[k]
        d = choice.chosen_segment[k]
        lo[k], hi[k] = curve.segment_bounds(d)
        slope[k], intercept[k] = curve.slopes[d], curve.intercepts[d]
        a_s, a_u = al.task_sat[k], al.task_uav[k]
        if a_u and al.cpu[k] <= 0.0:
            raise InfeasibleBlockError(
                "solve_ratio_lp", f"GT {k}: UAV-assigned with zero CPU share")
        c[k] = (a_s * (kappa * tau * slope[k] * cfg.sat_cpu ** 2
                       + cfg.sat_tx_power * cfg.data_bits[k] / p.r_su)
                + a_u * kappa * tau * slope[k] * al.cpu[k] ** 2
                + (a_s + a_u) * al.power[k] * cfg.data_bits[k] / p.rates[k])

    # Latency rows: shared satellite terms couple every ratio; the UAV
    # compute/downlink terms are local to each GT.
    shared_coef = np.array([
        al.task_sat[k] * (kappa * slope[k] / cfg.sat_cpu
                          + cfg.data_bits[k] / p.r_su)
        for k in range(n)
    ])
    shared_const = sum(
        al.task_sat[k] * kappa * intercept[k] / cfg.sat_cpu
        + (1 - al.task_sat[k]) * cfg.data_bits[k] / p.r_su
        for k in range(n)
    ) + p.t_prop

    rows = []
    rhs = []
    external_violation = False
    for j in range(n):
        a_s, a_u = al.task_sat[j], al.task_uav[j]
        row = shared_coef.copy()
        const = shared_const
        if a_u:
            row[j] += kappa * slope[j] / al.cpu[j]
            const += kappa * intercept[j] / al.cpu[j]
        row[j] += (a_s + a_u) * cfg.data_bits[j] / p.rates[j]
        const += (1 - a_s - a_u) * cfg.data_bits[j] / p.rates[j]
        limit = cfg.latency_budget - const
        if np.max(np.abs(row)) == 0.0:
            if limit < 0.0:
                external_violation = True
            continue
        rows.append(row)
        rhs.append(limit)

    if rows:
        result = solve_bounded_lp(c, np.array(rows), np.array(rhs), lo, hi)
    else:
        result = solve_bounded_lp(c, np.zeros((1, n)), np.array([1.0]), lo, hi)
    if result.status != "optimal":
        center = 0.5 * (lo + hi)
        worst = None
        for row, limit in zip(rows, rhs):
            viol = float(row @ center - limit)
            if worst is None or viol > worst[1]:
                worst = (row, viol)
        raise InfeasibleBlockError(
            "solve_ratio_lp",
            "no ratio vector satisfies the latency rows "
            f"(most violated by {worst[1]:.3e} s at the box center)")
    # Simplex arithmetic can overshoot a bound by an ulp; keep the ratios
    # inside their segments so downstream segment lookups never reject them.
    ratios = np.clip(result.x, lo, hi)
    return tuple(float(x) for x in ratios), not external_violation


# ---------------------------------------------------------------------------
# Block 3: UAV CPU shares (closed form)


def solve_cpu_allocation(cfg: ScenarioConfig, state: SolutionState):
    """Closed-form CPU shares: each UAV-compressed GT gets exactly the
    cycles-per-second that make its end-to-end latency hit the budget;
    everyone else gets zero.  Raises when a slack is nonpositive or the
    shares exceed the UAV CPU budget."""
    al = state.allocation
    p = _pieces(cfg, state)
    kappa = cfg.cycles_per_overhead
    t = cfg.latency_budget
    cpu = []
    for k in range(cfg.num_gts):
        if not al.task_uav[k]:
            cpu.append(0.0)
            continue
        t_ug = cfg.data_bits[k] * p.eff[k] / p.rates[k]
        slack = t - p.t_sat - p.t_tx - p.t_prop - t_ug
        if slack <= 0.0:
            raise InfeasibleBlockError(
                "solve_cpu_allocation",
                f"GT {k}: no latency left for UAV compute (slack {slack:.3e} s)")
        cpu.append(kappa * p.overhead[k] / slack)
    if sum(cpu) > cfg.uav_cpu_total:
        raise InfeasibleBlockError(
            "solve_cpu_allocation",
            f"required CPU {sum(cpu):.3e} exceeds budget {cfg.uav_cpu_total:.3e}")
    return tuple(cpu)


# ---------------------------------------------------------------------------
# Block 4: bandwidth and power (two-multiplier convex allocator)


_EXP_CAP = 500.0  # cap on U/b in bits to avoid overflow in 2**x


def _q(u: float, b: float) -> float:
    """b * (2**(u/b) - 1): transmit power per unit channel gain needed to
    deliver rate demand u over bandwidth b."""
    x = u / b
    if x > _EXP_CAP:
        return math.inf
    return b * (2.0 ** x - 1.0)


def _q_prime(u: float, b: float) -> float:
    x = u / b
    if x > _EXP_CAP:
        return -math.inf
    e = 2.0 ** x
    return e - 1.0 - x * math.log(2.0) * e


def _solve_b_stationary(u: float, weight: float, mu: float) -> float:
    """Bandwidth where weight * q'(b) + mu = 0; q' is increasing in b from
    -inf to 0, so the root is unique.  Safeguarded bisection."""
    target = -mu / weight
    if target >= 0.0:
        return math.inf
    b_hi = u
    while _q_prime(u, b_hi) < target:
        b_hi *= 2.0
    b_lo = b_hi / 2.0 if b_hi > u else u
    if b_hi == u:
        b_lo = u
        while _q_prime(u, b_lo) > target:
            b_lo /= 2.0
            if b_lo < 1e-300:
                return b_lo
    for _ in range(200):
        b_mid = 0.5 * (b_lo + b_hi)
        if _q_prime(u, b_mid) < target:
            b_lo = b_mid
        else:
            b_hi = b_mid
        if b_hi - b_lo <= 1e-15 * b_hi:
            break
    return 0.5 * (b_lo + b_hi)


def solve_power_bandwidth(cfg: ScenarioConfig, state: SolutionState,
                          opts: SolverOptions):
    """Jointly allocate UAV bandwidth and power so every GT's downlink
    uses exactly its remaining latency budget at minimum energy.

    The bandwidth-only reduction is convex and both the objective and the
    per-GT power decrease with more bandwidth, so the bandwidth budget is
    always tight; the power budget multiplier activates only when the
    resulting powers overshoot.  Returns ``(bandwidth, power)``.
    """
    al = state.allocation
    p = _pieces(cfg, state)
    n = cfg.num_gts
    slacks = _downlink_slacks(cfg, p)
    u = []
    v = []
    w = []
    for k in range(n):
        if slacks[k] <= 0.0:
            raise InfeasibleBlockError(
                "solve_power_bandwidth",
                f"GT {k}: no latency left for the downlink (slack {slacks[k]:.3e} s)")
        g_k = channel_gain_ug(cfg, state.placement, k)
        theta = state.placement.half_beamwidth
        u.append(cfg.data_bits[k] * p.eff[k] / slacks[k])
        v.append(cfg.antenna_gain_const * g_k / (theta * theta * cfg.noise_psd))
        w.append(slacks[k] / v[k])

    b_total = cfg.uav_bandwidth_total

    def allocation_for(nu: float) -> tuple[list[float], float]:
        """Bandwidths at power multiplier nu with the bandwidth budget made
        tight by bisection on its own multiplier; returns (b, sum_power)."""
        weights = [w[k] + nu / v[k] for k in range(n)]

        def total_b(mu: float) -> float:
            return sum(min(_solve_b_stationary(u[k], weights[k], mu), 10.0 * b_total)
                       for k in range(n))

        mu_lo, mu_hi = 1e-30, 1.0
        while total_b(mu_hi) > b_total:
            mu_hi *= 10.0
            if mu_hi > 1e60:
                break
        while total_b(mu_lo) < b_total and mu_lo > 1e-200:
            mu_lo /= 10.0
        for _ in range(200):
            mu_mid = math.sqrt(mu_lo * mu_hi)
            if total_b(mu_mid) > b_total:
                mu_lo = mu_mid
            else:
                mu_hi = mu_mid
            if mu_hi / mu_lo < 1.0 + 1e-14:
                break
        mu = math.sqrt(mu_lo * mu_hi)
        b = [_solve_b_stationary(u[k], weights[k], mu) for k in range(n)]
        scale = b_total / sum(b)
        b = [x * scale for x in b]  # exact budget despite bisection residue
        sum_p = sum(_q(u[k], b[k]) / v[k] for k in range(n))
        return b, sum_p

    b, sum_p = allocation_for(0.0)
    if sum_p > cfg.uav_power_budget * (1.0 + opts.kkt_tolerance):
        nu_lo, nu_hi = 0.0, max(w) * max(v)
        while allocation_for(nu_hi)[1] > cfg.uav_power_budget:
            nu_hi *= 10.0
            if nu_hi > 1e80:
                raise InfeasibleBlockError(
                    "solve_power_bandwidth",
                    "power budget unreachable even at the minimum-power split")
        for _ in range(200):
            nu_mid = 0.5 * (nu_lo + nu_hi)
            b, sum_p = allocation_for(nu_mid)
            if sum_p > cfg.uav_power_budget:
                nu_lo = nu_mid
            else:
                nu_hi = nu_mid
            if nu_hi - nu_lo <= 1e-14 * nu_hi:
                break
        b, sum_p = allocation_for(nu_hi)

    power = [_q(u[k], b[k]) / v[k] for k in range(n)]
    return tuple(b), tuple(power)


# ---------------------------------------------------------------------------
# Block 5: altitude and half-beamwidth


def _downlink_objective(cfg: ScenarioConfig, al, eff, positions, uav_xy,
                        altitude, theta, slacks):
    """UAV-to-GT communication energy at a trial (altitude, beamwidth),
    or (inf, False) when some GT misses its latency slack."""
    total = 0.0
    for k in range(cfg.num_gts):
        dx = uav_xy[0] - positions[k][0]
        dy = uav_xy[1] - positions[k][1]
        d2 = dx * dx + dy * dy + altitude * altitude
        g_k = cfg.ref_channel_gain / d2
        snr = (cfg.antenna_gain_const * g_k * al.power[k]
               / (theta * theta * al.bandwidth[k] * cfg.noise_psd))
        r_k = al.bandwidth[k] * math.log2(1.0 + snr)
        bits = cfg.data_bits[k] * eff[k]
        # The power/bandwidth block leaves this constraint exactly tight,
        # so admit the boundary up to roundoff.
        if r_k <= 0.0 or bits / r_k > slacks[k] * (1.0 + 1e-9):
            return math.inf, False
        total += al.power[k] * bits / r_k
    return total, True


def solve_altitude_beamwidth(cfg: ScenarioConfig, state: SolutionState,
                             opts: SolverOptions):
    """Optimize UAV altitude and half-beamwidth with everything else fixed.

    The altitude is pinned to ``max(H_min, L_max / tan(theta))`` (raising
    it further only hurts), which splits the search into the minimum-
    altitude case (beamwidth as small as coverage allows, accepted when a
    closed-form latency test passes) and a one-dimensional beamwidth
    sweep along the coverage-tight curve.  Returns ``(altitude, theta)``.
    """
    al = state.allocation
    p = _pieces(cfg, state)
    slacks = _downlink_slacks(cfg, p)
    if min(slacks) <= 0.0:
        raise InfeasibleBlockError(
            "solve_altitude_beamwidth", "no latency left for the downlink")
    positions = cfg.gt_positions
    uav_xy = state.placement.uav_xy
    l_max = max(state.placement.horizontal_distance(pos) for pos in positions)
    th_lo, th_hi = cfg.beam_range_clamped
    h_min, h_max = cfg.altitude_range

    def pinned_altitude(theta: float) -> float:
        return max(h_min, l_max / math.tan(theta))

    candidates: list[tuple[float, float, float]] = []  # (objective, H, theta)

    # Current placement, when still admissible, guards block monotonicity.
    cur_theta = state.placement.half_beamwidth
    if th_lo <= cur_theta <= th_hi:
        cur_h = pinned_altitude(cur_theta)
        if cur_h <= h_max:
            obj, ok = _downlink_objective(cfg, al, p.eff, positions, uav_xy,
                                          cur_h, cur_theta, slacks)
            if ok:
                candidates.append((obj, cur_h, cur_theta))

    # Minimum-altitude case: smallest beamwidth covering every GT.
    theta1 = max(th_lo, math.atan(l_max / h_min))
    if theta1 <= th_hi:
        limit = th_hi
        feasible1 = True
        for k in range(cfg.num_gts):
            if al.power[k] <= 0.0:
                feasible1 = False
                break
            i_k = (state.placement.horizontal_distance(positions[k]) ** 2
                   + h_min * h_min)
            j_k = cfg.data_bits[k] * p.eff[k] / (al.bandwidth[k] * slacks[k])
            if j_k > _EXP_CAP:
                feasible1 = False
                break
            cap = math.sqrt(cfg.antenna_gain_const * cfg.ref_channel_gain
                            * al.power[k]
                            / (i_k * al.bandwidth[k] * cfg.noise_psd
                               * (2.0 ** j_k - 1.0)))
            limit = min(limit, cap)
        if feasible1 and theta1 <= limit:
            h1 = pinned_altitude(theta1)
            obj, ok = _downlink_objective(cfg, al, p.eff, positions, uav_xy,
                                          h1, theta1, slacks)
            if ok:
                candidates.append((obj, h1, theta1))

    # Coverage-tight sweep: altitude rides L_max / tan(theta).
    if l_max > 0.0:
        steps = max(2, int(math.ceil((th_hi - th_lo) / opts.grid_step_theta)) + 1)
        for theta in np.linspace(th_lo, th_hi, steps):
            theta = float(theta)
            h = l_max / math.tan(theta)
            if h < h_min or h > h_max:
                continue
            h = pinned_altitude(theta)
            obj, ok = _downlink_objective(cfg, al, p.eff, positions, uav_xy,
                                          h, theta, slacks)
            if ok:
                candidates.append((obj, h, theta))

    if not candidates:
        raise InfeasibleBlockError(
            "solve_altitude_beamwidth",
            "no (altitude, beamwidth) pair meets coverage and latency")
    best = min(candidates, key=lambda c: c[0])
    return best[1], best[2]


# ---------------------------------------------------------------------------
# Block 6: horizontal location


def _score_inside_disks(score, px, py, xs, ys, limit):
    """``score`` of the points inside every disk, +inf for the others.

    Disk ``k`` admits the points with squared horizontal distance to
    ``(xs[k], ys[k])`` at most ``limit[k]``.  The points are tested
    against one disk at a time over the shrinking set still inside every
    disk so far, and the result is all-+inf as soon as that set is empty.
    ``score`` maps the (M, K) squared horizontal distances of the M
    survivors to their M objective values, row by row, so a survivor's
    value does not depend on which other points survived.
    """
    out = np.full(px.shape, np.inf)
    keep = np.arange(px.size)
    for k in range(xs.size):
        d2k = (px[keep] - xs[k]) ** 2 + (py[keep] - ys[k]) ** 2
        keep = keep[d2k <= limit[k]]
        if keep.size == 0:
            return out
    d2 = ((px[keep, None] - xs[None, :]) ** 2
          + (py[keep, None] - ys[None, :]) ** 2)
    out[keep] = score(d2)
    return out


def solve_location(cfg: ScenarioConfig, state: SolutionState,
                   opts: SolverOptions):
    """Place the UAV inside the intersection of the per-GT admissible
    disks (coverage radius capped by the latency-derived radius) by
    exhaustive grid search with one refinement pass per level.

    The search is filter-first (``_score_inside_disks``): candidates are
    tested one disk at a time, and only the points inside every disk go
    through the rate and energy terms; the rest score +inf.  The
    incumbent is scored first and kept unless a grid point beats it;
    ties go to the first minimum in grid order.

    Returns ``(uav_xy, objective)``.
    """
    al = state.allocation
    pl = state.placement
    p = _pieces(cfg, state)
    slacks = _downlink_slacks(cfg, p)
    if min(slacks) <= 0.0:
        raise InfeasibleBlockError("solve_location",
                                   "no latency left for the downlink")
    theta = pl.half_beamwidth
    h = pl.altitude
    cover = h * math.tan(theta)

    radii = []
    for k in range(cfg.num_gts):
        if al.power[k] <= 0.0:
            raise InfeasibleBlockError(
                "solve_location", f"GT {k}: zero power, admissible disk empty")
        j_k = cfg.data_bits[k] * p.eff[k] / (al.bandwidth[k] * slacks[k])
        if j_k > _EXP_CAP:
            raise InfeasibleBlockError(
                "solve_location", f"GT {k}: rate demand overflows, disk empty")
        q2 = (cfg.antenna_gain_const * cfg.ref_channel_gain * al.power[k]
              / (theta * theta * al.bandwidth[k] * cfg.noise_psd
                 * (2.0 ** j_k - 1.0))) - h * h
        if q2 < 0.0:
            raise InfeasibleBlockError(
                "solve_location", f"GT {k}: latency disk has imaginary radius")
        radii.append(min(cover, math.sqrt(q2)))

    xs = np.array([pos[0] for pos in cfg.gt_positions])
    ys = np.array([pos[1] for pos in cfg.gt_positions])
    rr = np.array(radii)
    x_lo, x_hi = float(np.max(xs - rr)), float(np.min(xs + rr))
    y_lo, y_hi = float(np.max(ys - rr)), float(np.min(ys + rr))
    if x_lo > x_hi or y_lo > y_hi:
        raise InfeasibleBlockError("solve_location",
                                   "admissible disks have empty intersection")

    pw = np.array(al.power)
    bw = np.array(al.bandwidth)
    bits = np.array(cfg.data_bits) * np.array(p.eff)
    gain = cfg.antenna_gain_const * cfg.ref_channel_gain / (theta * theta
                                                            * cfg.noise_psd)

    limit = (rr ** 2) * (1.0 + 1e-9)

    def downlink(d2: np.ndarray) -> np.ndarray:
        """Downlink energy per row of squared horizontal distances."""
        snr = gain * pw[None, :] / ((d2 + h * h) * bw[None, :])
        r = bw[None, :] * np.log2(1.0 + snr)
        return np.sum(pw[None, :] * bits[None, :] / r, axis=1)

    def evaluate(px: np.ndarray, py: np.ndarray):
        """Objective over flat point arrays, +inf outside any disk."""
        return _score_inside_disks(downlink, px, py, xs, ys, limit)

    # The incumbent location is evaluated first: when the admissible
    # intersection is thinner than the grid pitch (latency constraints
    # tight), the current point is still a valid answer.
    cur = np.array([pl.uav_xy[0]]), np.array([pl.uav_xy[1]])
    best_obj = float(evaluate(*cur)[0])
    best_xy = pl.uav_xy

    n = opts.location_grid_points
    gx = np.linspace(x_lo, x_hi, n) if x_hi > x_lo else np.array([x_lo])
    gy = np.linspace(y_lo, y_hi, n) if y_hi > y_lo else np.array([y_lo])
    cell = (gx[1] - gx[0] if gx.size > 1 else 0.0,
            gy[1] - gy[0] if gy.size > 1 else 0.0)
    mx, my = np.meshgrid(gx, gy, indexing="ij")
    flat_x, flat_y = mx.ravel(), my.ravel()
    obj = evaluate(flat_x, flat_y)
    idx = int(np.argmin(obj))
    if float(obj[idx]) < best_obj:
        best_obj = float(obj[idx])
        best_xy = (float(flat_x[idx]), float(flat_y[idx]))
    if not math.isfinite(best_obj):
        raise InfeasibleBlockError("solve_location",
                                   "no admissible point inside every disk")

    for _ in range(opts.refinement_levels):
        if cell == (0.0, 0.0):
            break
        rx = np.linspace(best_xy[0] - cell[0], best_xy[0] + cell[0], 9)
        ry = np.linspace(best_xy[1] - cell[1], best_xy[1] + cell[1], 9)
        mx, my = np.meshgrid(rx, ry, indexing="ij")
        flat_x, flat_y = mx.ravel(), my.ravel()
        obj = evaluate(flat_x, flat_y)
        idx = int(np.argmin(obj))
        if float(obj[idx]) < best_obj:
            best_obj = float(obj[idx])
            best_xy = (float(flat_x[idx]), float(flat_y[idx]))
        cell = (cell[0] / 2.0, cell[1] / 2.0)

    return best_xy, best_obj
