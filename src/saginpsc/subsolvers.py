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
    LatencyTerms,
    ModelError,
    SolutionState,
    _energy,
    channel_gain_ug,
    latency_terms,
    rate_uav_gt_at,
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
        _require_positive(
            self,
            integers=("dual_max_iters", "location_grid_points",
                      "refinement_levels"),
            reals=("dual_step_scale", "dual_tolerance", "grid_step_theta",
                   "kkt_tolerance"))


def _require_positive(options, integers=(), reals=()) -> None:
    """Reject option fields that are not positive: ``integers`` must hold
    an ``int`` (not a ``bool``), ``reals`` a finite ``int`` or ``float``.
    Option files are JSON, where ``2.5``, ``true`` and ``NaN`` parse."""
    for name in integers:
        value = getattr(options, name)
        if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
            raise ValueError(f"{name} must be a positive integer, "
                             f"got {value!r}")
    for name in reals:
        value = getattr(options, name)
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value) or value <= 0):
            raise ValueError(f"{name} must be a positive finite number, "
                             f"got {value!r}")


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
# The state's latency terms, as the blocks read them


def _block_terms(cfg: ScenarioConfig, state: SolutionState,
                 block: str) -> LatencyTerms:
    """``latency_terms`` of ``state``; a state that leaves a term undefined
    gives ``block`` no feasible point."""
    try:
        return latency_terms(cfg, state)
    except ModelError as exc:
        raise InfeasibleBlockError(block, str(exc)) from exc


# The power/bandwidth block leaves each GT's downlink latency exactly
# tight, so the later blocks admit a latency (or the matching disk radius)
# up to this factor past its limit, to absorb roundoff.
_TIGHT_BOUNDARY = 1.0 + 1e-9


# ---------------------------------------------------------------------------
# Generic projected dual subgradient loop


def _least_option(obj, lat, mult):
    """Per-GT index of the least Lagrangian ``obj + mult * lat`` over the
    option columns of the ``(K, options)`` tables; ``argmin`` keeps the
    first minimum.  ``mult`` is one multiplier vector ``(K,)`` or a batch
    ``(W, K)`` of them, giving ``(K,)`` or ``(W, K)`` choices."""
    return (obj + mult[..., None] * lat).argmin(-1)


# Steps in a run's first window; each next one doubles up to the cap,
# which bounds a call's memory at (_MAX_WINDOW + 1) x K multipliers.
_FIRST_WINDOW = 2
_MAX_WINDOW = 1024


class _Scored:
    """One distinct primal of a dual loop: its residuals and the stopping
    rule's verdict per ``mult > 0`` mask, each computed once."""

    __slots__ = ("primal", "res", "res_pos", "may_stop", "verdicts")

    def __init__(self, primal, res, tol):
        self.primal = primal
        self.res = res
        self.res_pos = np.maximum(res, 0.0)
        # The projected subgradient keeps every positive residual, and a
        # dot product of non-negative terms is at least each rounded term,
        # so a residual this large rules out a stop on this primal (as
        # does a NaN, whichever value ``max`` returns then).
        worst = max(self.res_pos.tolist())
        self.may_stop = not math.sqrt(worst * worst) >= tol
        self.verdicts = {}

    def stops(self, mask, tol) -> bool:
        """The stopping rule: the subgradient projected on the multipliers'
        feasible cone (``mask``: multipliers above 0) is shorter than
        ``tol``."""
        key = mask.tobytes()
        verdict = self.verdicts.get(key)
        if verdict is None:
            projected = np.where(mask, self.res, self.res_pos)
            verdict = self.verdicts[key] = (
                math.sqrt(projected.dot(projected)) < tol)
        return verdict


def dual_subgradient(adapter, opts: SolverOptions):
    """Maximize a Lagrangian dual by projected subgradient with the
    diminishing step ``step_scale / sqrt(t)`` on normalized residuals.

    The adapter supplies ``num_multipliers`` (K); the ``(K, options)``
    tables ``obj`` and ``lat`` of the per-GT Lagrangian ``obj + mult *
    lat``, whose least option per GT (:func:`_least_option`) is the exact
    minimizer at fixed multipliers; ``primal_of(choice) -> primal`` for a
    ``(K,)`` array of option indices; ``residuals(primal) -> array``
    (positive = violated, already normalized); and ``objective(primal) ->
    float`` (the true block objective, used to rank feasible iterates).
    ``residuals`` and ``objective`` must be pure functions of the primal:
    each is evaluated once per distinct choice and reused when the
    minimizer returns to it.

    The loop advances over a whole run of steps on one primal at a time.
    While the primal holds, so do its residuals ``r``, and the multipliers
    entering the run's steps follow ``m <- max(0, m + step_t * r)``.
    ``ufunc.accumulate`` adds sequentially, so accumulating the rows ``m,
    step_t * r, step_(t+1) * r, ...`` gives the unclamped sums in the same
    bits as the per-step update.  A column with ``r_k >= 0`` never needs
    the clamp, and for ``r_k < 0`` the clamp is absorbing (from 0 the next
    sum is negative again), so ``max(0, .)`` of the accumulated column is
    the clamped sequence.  One batched argmin over a window's multipliers
    finds the first step whose primal differs.  The stopping rule depends
    on the residuals and the ``mult > 0`` mask only, so within a run it is
    tested where the mask changes, and never on a primal with a residual
    that alone keeps the projected norm at ``tol`` or above.  A run's
    first window spans ``_FIRST_WINDOW`` steps, and each next one doubles
    up to ``_MAX_WINDOW``.

    Returns ``(best_primal, multipliers, steps, feasible_found)`` where
    ``best_primal`` is the feasible iterate of least objective, or the
    final iterate when none was feasible.
    """
    last = opts.dual_max_iters
    tol = opts.dual_tolerance
    table_obj, table_lat = adapter.obj, adapter.lat
    steps = buf = None
    mult = np.zeros(adapter.num_multipliers)  # entering step t
    choice = _least_option(table_obj, table_lat, mult)
    best_primal = None
    best_obj = math.inf
    scored = {}  # choice bytes -> _Scored
    t = 1
    done = False
    while not done:  # a run of steps t, t + 1, ... on one primal
        key = choice.tobytes()
        entry = scored.get(key)
        if entry is None:
            primal = adapter.primal_of(choice)
            res = np.asarray(adapter.residuals(primal), dtype=float)
            obj = (adapter.objective(primal)
                   if np.all(res <= tol) else math.inf)
            entry = scored[key] = _Scored(primal, res, tol)
            if obj < best_obj:
                best_obj = obj
                best_primal = primal
        primal, res = entry.primal, entry.res
        if entry.may_stop and entry.stops(mult > 0.0, tol):
            break
        if steps is None:
            steps = opts.dual_step_scale / np.sqrt(
                np.arange(1.0, last + 1.0)[:, None])
            buf = np.empty((min(last, _MAX_WINDOW) + 1, mult.size))
        width = _FIRST_WINDOW
        while True:  # a window of steps t .. t + w - 1
            w = min(width, last + 1 - t)
            rows = buf[:w + 1]  # rows[j] enters step t + j
            rows[0] = mult
            np.multiply(steps[t - 1:t - 1 + w], res, out=rows[1:])
            np.add.accumulate(rows, 0, out=rows)
            np.maximum(rows, 0.0, out=rows)
            # the row after the last step is no step's
            after = _least_option(table_obj, table_lat,
                                  rows[1:] if t + w <= last else rows[1:-1])
            if after[:1].tobytes() != key:  # cheap test of the first row
                span = 0
            else:
                moved = (after != choice).nonzero()[0]
                span = int(moved[0]) if moved.size else len(after)
            if entry.may_stop and span:
                # Steps t + 1 .. t + span keep the primal; test the stopping
                # rule where the mask changes (a row may repeat).
                pos = rows[:span + 1] > 0.0
                flips = ((pos[1:] != pos[:-1]).nonzero()[0] + 1).tolist()
                stop = next((j for j in flips if entry.stops(pos[j], tol)),
                            None)
                if stop is not None:
                    t, mult, done = t + stop, rows[stop], True
                    break
            if span < len(after):
                t, mult, choice = t + span + 1, rows[span + 1], after[span]
                break
            if t + w > last:
                t, mult, done = last, rows[w], True
                break
            t, mult, width = t + w, rows[w], min(2 * width, _MAX_WINDOW)
    if buf is not None:
        mult = mult.copy()  # not a view of the window buffer
    if best_primal is not None:
        return best_primal, mult, t, True
    return primal, mult, t, False


class _StateAdapter:
    """Scores a primal by the state ``state_of(primal)`` it stands for:
    the residuals are its GTs' normalized latency excesses and the
    objective its total energy.  Both come from one ``latency_terms``
    derivation per distinct state; the block's own state reuses the
    block's terms."""

    def __init__(self, cfg: ScenarioConfig, state: SolutionState,
                 terms: LatencyTerms):
        self.cfg = cfg
        self.state = state
        self.num_multipliers = cfg.num_gts
        self._scores = {}  # state -> (residuals, energy)
        self._score(state, terms)

    def _score(self, state: SolutionState, terms: LatencyTerms | None = None):
        score = self._scores.get(state)
        if score is None:
            terms = terms or latency_terms(self.cfg, state)
            t = self.cfg.latency_budget
            score = self._scores[state] = (
                (np.array(terms.total) - t) / t,
                _energy(self.cfg, state.allocation, terms).total)
        return score

    def residuals(self, primal):
        return self._score(self.state_of(primal))[0]

    def objective(self, primal):
        return self._score(self.state_of(primal))[1]

    def solve(self, incumbent, opts: SolverOptions):
        """``(primal, feasible)`` of :func:`dual_subgradient`, or
        ``(incumbent, True)`` when the incumbent is feasible and either the
        loop found nothing feasible or the incumbent is strictly better: a
        block must never worsen the state it was given."""
        primal, _, _, feasible = dual_subgradient(self, opts)
        if float(np.max(self.residuals(incumbent))) <= opts.dual_tolerance:
            if (not feasible
                    or self.objective(incumbent) < self.objective(primal)):
                return incumbent, True
        return primal, feasible


# ---------------------------------------------------------------------------
# Block 1: compression-site assignment (satellite / UAV / none)


class _TaskAdapter(_StateAdapter):
    """Primal: ``(task_sat, task_uav)``.  Each GT's Lagrangian is linear in
    its assignment, so the tables ``obj`` and ``lat`` hold per GT the
    option columns none (0), satellite and UAV, and the least option wins;
    ``argmin`` keeps the first minimum, so ties resolve to none, then
    satellite.  GTs without a positive UAV CPU share price the UAV option
    at +inf."""

    def __init__(self, cfg: ScenarioConfig, state: SolutionState,
                 terms: LatencyTerms):
        super().__init__(cfg, state, terms)
        kappa = cfg.cycles_per_overhead
        tau = cfg.comp_energy_coeff
        al = state.allocation
        obj = np.zeros((cfg.num_gts, 3))
        lat = np.zeros((cfg.num_gts, 3))
        for k in range(cfg.num_gts):
            # every option needs the overhead; the terms hold only the
            # compressed GTs'
            o = cfg.overhead_curves[k].evaluate(al.ratio[k])
            save = cfg.data_bits[k] * (1.0 - al.ratio[k])
            r_k = terms.rate[k]
            obj[k, 1] = (kappa * tau * o * cfg.sat_cpu ** 2
                         - save * (cfg.sat_tx_power / terms.r_su
                                   + al.power[k] / r_k))
            lat[k, 1] = (kappa * o / cfg.sat_cpu
                         - save * (1.0 / terms.r_su + 1.0 / r_k))
            if al.cpu[k] > 0.0:
                obj[k, 2] = (kappa * tau * o * al.cpu[k] ** 2
                             - save * al.power[k] / r_k)
                lat[k, 2] = kappa * o / al.cpu[k] - save / r_k
            else:
                obj[k, 2] = math.inf
        self.obj = obj
        self.lat = lat

    def primal_of(self, choice):
        return (tuple((choice == 1).astype(int).tolist()),
                tuple((choice == 2).astype(int).tolist()))

    def state_of(self, primal) -> SolutionState:
        task_sat, task_uav = primal
        al = replace(self.state.allocation,
                     task_sat=tuple(task_sat), task_uav=tuple(task_uav))
        return replace(self.state, allocation=al)


def solve_task_allocation(cfg: ScenarioConfig, state: SolutionState,
                          opts: SolverOptions):
    """Assign the compression site per GT by the dual method.

    Returns ``(task_sat, task_uav, feasible)``.  GTs without a
    positive UAV CPU share can only be assigned to the satellite or left
    uncompressed.
    """
    adapter = _TaskAdapter(
        cfg, state, _block_terms(cfg, state, "solve_task_allocation"))
    (task_sat, task_uav), feasible = adapter.solve(
        (state.allocation.task_sat, state.allocation.task_uav), opts)
    return tuple(task_sat), tuple(task_uav), feasible


# ---------------------------------------------------------------------------
# Block 2a: overhead-segment selection at segment midpoints


class _SegmentAdapter(_StateAdapter):
    """Primal: the chosen 0-based segment per GT, scored as the state with
    each GT's ratio at its chosen segment's midpoint.  The tables ``obj``
    and ``lat`` hold each GT's row of midpoint scores; rows of curves with
    fewer segments are padded with +inf, and ``argmin`` keeps the first
    minimum, so ties resolve to the shallowest segment."""

    def __init__(self, cfg: ScenarioConfig, state: SolutionState,
                 terms: LatencyTerms):
        super().__init__(cfg, state, terms)
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
        self.obj = np.full((cfg.num_gts, width), math.inf)
        self.lat = np.zeros((cfg.num_gts, width))
        for k in range(cfg.num_gts):
            curve = cfg.overhead_curves[k]
            a_s, a_u = al.task_sat[k], al.task_uav[k]
            for d in range(curve.num_segments):
                mid = self.mids[k][d]
                o_mid = curve.evaluate_on(mid, d)
                self.obj[k, d] = (
                    kappa * tau * cfg.sat_cpu ** 2 * a_s * o_mid
                    + cfg.sat_tx_power * cfg.data_bits[k] * a_s * mid / terms.r_su
                    + kappa * tau * al.cpu[k] ** 2 * a_u * o_mid
                    + al.power[k] * cfg.data_bits[k] * mid * (a_s + a_u)
                    / terms.rate[k])
                self.lat[k, d] = (
                    kappa * a_s * o_mid / cfg.sat_cpu
                    + cfg.data_bits[k] * a_s * mid / terms.r_su
                    + (kappa * a_u * o_mid / al.cpu[k] if a_u else 0.0)
                    + cfg.data_bits[k] * mid * (a_s + a_u) / terms.rate[k])

    def primal_of(self, choice):
        return tuple(choice.tolist())

    def state_of(self, chosen) -> SolutionState:
        ratio = tuple(mids[d] for mids, d in zip(self.mids, chosen))
        al = replace(self.state.allocation, ratio=ratio)
        return replace(self.state, allocation=al)


def select_segments(cfg: ScenarioConfig, state: SolutionState,
                    opts: SolverOptions):
    """Pick one overhead segment per GT by ranking the midpoint scores
    under the dual multipliers.  Returns ``(SegmentChoice, feasible)``;
    ties resolve to the shallowest segment."""
    adapter = _SegmentAdapter(
        cfg, state, _block_terms(cfg, state, "select_segments"))
    chosen, feasible = adapter.solve(tuple(
        cfg.overhead_curves[k].segment_of(state.allocation.ratio[k])
        for k in range(cfg.num_gts)), opts)
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
    p = _block_terms(cfg, state, "solve_ratio_lp")
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
        c[k] = (a_s * (kappa * tau * slope[k] * cfg.sat_cpu ** 2
                       + cfg.sat_tx_power * cfg.data_bits[k] / p.r_su)
                + a_u * kappa * tau * slope[k] * al.cpu[k] ** 2
                + (a_s + a_u) * al.power[k] * cfg.data_bits[k] / p.rate[k])

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
        row[j] += (a_s + a_u) * cfg.data_bits[j] / p.rate[j]
        const += (1 - a_s - a_u) * cfg.data_bits[j] / p.rate[j]
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
    p = _block_terms(cfg, state, "solve_cpu_allocation")
    kappa = cfg.cycles_per_overhead
    t = cfg.latency_budget
    cpu = []
    for k in range(cfg.num_gts):
        if not al.task_uav[k]:
            cpu.append(0.0)
            continue
        slack = t - p.t_sat - p.t_tx - p.t_prop - p.t_ug[k]
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
_LN2 = math.log(2.0)
# The stationary t = x ln2 stays at or below this, where exp(t) is still
# finite; it lies past _EXP_CAP * ln2, so _q reads a demand whose root is
# beyond it as unreachable.
_T_CAP = 700.0
# (n - 1) / n! for n = 17 down to 2: the Taylor coefficients of f in
# Horner order.
_F_TAYLOR = tuple((n - 1) / math.factorial(n) for n in range(17, 1, -1))
_MU_STEP_TOL = 1e-14  # the multiplier search stops at a smaller log-step
_MU_STEPS = 200  # bound on the multiplier search's evaluations
_LOG_MU_EXPAND = math.log(1e3)
_LOG_MU_CAP = 700.0  # math.exp overflows just above 709
# A minimum-power split this far (relative) over the power budget proves
# the budget unreachable; it is far past the split's roundoff.
_UNREACHABLE_MARGIN = 1e-9


def _q(u: float, b: float) -> float:
    """b * (2**(u/b) - 1): transmit power per unit channel gain needed to
    deliver rate demand u over bandwidth b."""
    x = u / b
    if x > _EXP_CAP:
        return math.inf
    return b * (2.0 ** x - 1.0)


def _f_over_t(t: float) -> float:
    """f(t) / t, where f(t) = 1 + (t - 1) e**t is -q'(b) at t = u ln2 / b;
    below t = 0.5 from the Taylor series sum((n - 1) t**n / n!, n >= 2),
    which has no cancellation."""
    if t < 0.5:
        s = 0.0
        for a in _F_TAYLOR:
            s = s * t + a
        return s * t
    return (1.0 + (t - 1.0) * math.exp(t)) / t


def _stationary_t(c: float) -> float:
    """The root t > 0 of f(t) = c: 0.0 where c rounds to 0, ``_T_CAP``
    where the root lies past it.

    f is increasing and convex, f(t) >= t**2 / 2 and f(1 + log1p(c)) > c,
    so Newton's method from the smallest of sqrt(2c), 1 + log1p(c) and
    ``_T_CAP`` falls monotonically onto the root; it stops at the first
    iterate that does not decrease.  The step (f(t) - c) / f'(t), with
    f'(t) = t e**t, is taken as (f(t) / t - c / t) / e**t, which keeps
    every term normal for subnormal c.
    """
    if c <= 0.0:
        return 0.0
    t = min(math.sqrt(2.0 * c), 1.0 + math.log1p(c), _T_CAP)
    while True:
        nxt = t - (_f_over_t(t) - c / t) / math.exp(t)
        if not nxt < t:
            return t
        t = nxt


def _bandwidths(u, weights, mu: float):
    """Each GT's stationary bandwidth at multiplier ``mu``, where
    ``weight * q'(b) + mu = 0``, and its ``t = u ln2 / b``."""
    ts = [_stationary_t(mu / w_k) for w_k in weights]
    bs = [u_k * _LN2 / t if t > 0.0 else math.inf for u_k, t in zip(u, ts)]
    return bs, ts


def _split(u, v, weights, b_total: float) -> tuple[list[float], float]:
    """Bandwidths minimizing ``sum(weight * q(u, b))`` with the bandwidth
    budget tight; returns (b, sum_power), the power being ``q(u, b) / v``.

    Newton's method on ``log sum(b)`` against ``log mu`` from the
    small-``x`` asymptote ``f(t) ~ t**2 / 2``, which gives
    ``mu0 = (ln2 * sum(u * sqrt(weight)) / b_total)**2 / 2``;
    differentiating ``f(t) = mu / weight`` gives
    ``db/dmu = -b / (t**2 e**t weight)``.  A step that leaves the
    bracket goes to its geometric midpoint, or 1e3 times farther out
    while the bracket is open on that side.  The search stops at a
    log-step under ``_MU_STEP_TOL``, or where the next point would be a
    bracket end already evaluated (near a large ``log mu`` one ulp of it
    exceeds the tolerance), and rescales the last bandwidths to the exact
    budget."""
    log_b_total = math.log(b_total)
    lo, hi = -math.inf, math.inf  # log mu with sum(b) > b_total, <= b_total
    s = 2.0 * math.log(_LN2 * sum(u_k * math.sqrt(w_k)
                                  for u_k, w_k in zip(u, weights))
                       / b_total) - _LN2
    for _ in range(_MU_STEPS):
        mu = math.exp(s)
        b, ts = _bandwidths(u, weights, mu)
        total = sum(b)
        if total > b_total:
            lo = s
        else:
            hi = s
        rate = sum(b_k * (mu / w_k) / t / t / math.exp(t)
                   for b_k, w_k, t in zip(b, weights, ts)
                   if 0.0 < t < _T_CAP) / total  # -d log sum(b) / d log mu
        nxt = (s + (math.log(total) - log_b_total) / rate
               if rate > 0.0 else math.nan)
        if not lo <= nxt <= hi:
            if -math.inf < lo and hi < math.inf:
                nxt = 0.5 * (lo + hi)
            else:
                nxt = s + (_LOG_MU_EXPAND if hi == math.inf
                           else -_LOG_MU_EXPAND)
        nxt = min(nxt, _LOG_MU_CAP)
        if abs(nxt - s) < _MU_STEP_TOL or nxt in (lo, hi):
            break  # converged, or the bracket has closed to adjacent floats
        s = nxt
    scale = b_total / total
    b = [x * scale for x in b]  # exact budget despite the root's residue
    sum_p = sum(_q(u_k, b_k) / v_k for u_k, b_k, v_k in zip(u, b, v))
    return b, sum_p


def solve_power_bandwidth(cfg: ScenarioConfig, state: SolutionState,
                          opts: SolverOptions):
    """Jointly allocate UAV bandwidth and power so every GT's downlink
    uses exactly its remaining latency budget at minimum energy.

    The bandwidth-only reduction is convex and both the objective and the
    per-GT power decrease with more bandwidth, so the bandwidth budget is
    always tight; the power budget multiplier activates only when the
    resulting powers overshoot.  Returns ``(bandwidth, power)``.

    With ``t = u ln2 / b``, a GT's stationarity ``weight * q'(b) + mu = 0``
    reads ``f(t) = mu / weight`` (``_stationary_t``; in closed form
    ``t = 1 + W0((mu / weight - 1) / e)`` with Lambert's W0).  The
    bandwidth multiplier ``mu`` that makes the bandwidth budget tight is
    one safeguarded Newton root in ``log mu`` (``_split``).
    """
    p = _block_terms(cfg, state, "solve_power_bandwidth")
    n = cfg.num_gts
    slacks = p.hop_slack
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
        u.append(p.bits[k] / slacks[k])
        v.append(cfg.antenna_gain_const * g_k / (theta * theta * cfg.noise_psd))
        w.append(slacks[k] / v[k])

    b_total = cfg.uav_bandwidth_total

    def allocation_for(nu: float) -> tuple[list[float], float]:
        """Bandwidths at power multiplier nu with the bandwidth budget
        tight; returns (b, sum_power)."""
        return _split(u, v, [w[k] + nu / v[k] for k in range(n)], b_total)

    def unreachable() -> InfeasibleBlockError:
        return InfeasibleBlockError(
            "solve_power_bandwidth",
            "power budget unreachable even at the minimum-power split")

    b, sum_p = allocation_for(0.0)
    if sum_p > cfg.uav_power_budget * (1.0 + opts.kkt_tolerance):
        # The power falls toward the minimum-power split (weights 1/v, the
        # nu -> inf limit) as nu grows, so a split over the budget by more
        # than roundoff decides the walk below before it starts.
        min_power = _split(u, v, [1.0 / v[k] for k in range(n)], b_total)[1]
        if min_power > cfg.uav_power_budget * (1.0 + _UNREACHABLE_MARGIN):
            raise unreachable()
        nu_lo, nu_hi = 0.0, max(w) * max(v)
        while allocation_for(nu_hi)[1] > cfg.uav_power_budget:
            nu_hi *= 10.0
            if nu_hi > 1e80:
                raise unreachable()
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


# GTs in the first step of the beamwidth block's walk; each next step
# takes twice as many (see ``_hop_scores``).
_HOP_BLOCK = 16


def _hop_scores(cfg: ScenarioConfig, al, bits, slacks, uav_xy, altitudes,
                thetas):
    """UAV-to-GT energy at each trial ``(altitudes[i], thetas[i])``.

    Returns ``(admitted, energy)``: the indices, in order, of the trials
    at which every GT gets a positive rate ``r`` with ``bits / r`` within
    its latency slack (times ``_TIGHT_BOUNDARY``), and each one's sum of
    ``(p * bits) / r`` in GT order.  The GTs are taken in blocks of
    ``_HOP_BLOCK``, then twice as many each step, over the shrinking set
    of trials that met every GT so far: most trials fail within the first
    GTs, and doubling keeps the steps over the few left (often only the
    incumbent) to about ``log2(K / _HOP_BLOCK)``.  The block's
    energies of the trials that meet all its GTs are added to their
    running sums by one sequential ``np.add.accumulate``.
    """
    xs = np.array([pos[0] for pos in cfg.gt_positions])
    ys = np.array([pos[1] for pos in cfg.gt_positions])
    dx = uav_xy[0] - xs
    dy = uav_xy[1] - ys
    horizontal2 = (dx * dx + dy * dy)[:, None]
    bw = np.array(al.bandwidth)[:, None]
    pw = np.array(al.power)[:, None]
    data = np.array(bits)[:, None]
    load = pw * data
    limit = np.array(slacks)[:, None] * _TIGHT_BOUNDARY
    admitted = np.arange(thetas.size)
    energy = np.zeros((1, thetas.size))
    lo, width = 0, _HOP_BLOCK
    with np.errstate(divide="ignore", invalid="ignore"):
        while lo < cfg.num_gts:
            ks = slice(lo, lo + width)
            lo, width = lo + width, 2 * width
            h = altitudes[admitted]
            r = rate_uav_gt_at(cfg, horizontal2[ks] + h * h, thetas[admitted],
                               bw[ks], pw[ks])
            met = ~((r <= 0.0) | (data[ks] / r > limit[ks])).any(axis=0)
            admitted = admitted[met]
            terms = np.concatenate((energy[:, met], load[ks] / r[:, met]))
            energy = np.add.accumulate(terms)[-1:]
            if admitted.size == 0:
                break
    return admitted, energy[0]


def solve_altitude_beamwidth(cfg: ScenarioConfig, state: SolutionState,
                             opts: SolverOptions):
    """Optimize UAV altitude and half-beamwidth with everything else fixed.

    The altitude is pinned to ``max(H_min, L_max / tan(theta))`` (raising
    it further only hurts), which leaves a one-dimensional beamwidth
    search.  The trials are the incumbent beamwidth (while admissible, so
    the block never worsens the state), the smallest beamwidth covering
    every GT from the minimum altitude, and a sweep along the
    coverage-tight curve within the altitude range.  ``_hop_scores``
    scores them all in one pass, and the first least admitted trial wins.
    The sweep's altitudes come from ``np.tan``; the winner's is re-derived
    with ``math.tan``.  Returns ``(altitude, theta)``.
    """
    al = state.allocation
    p = _block_terms(cfg, state, "solve_altitude_beamwidth")
    slacks = p.hop_slack
    if min(slacks) <= 0.0:
        raise InfeasibleBlockError(
            "solve_altitude_beamwidth", "no latency left for the downlink")
    l_max = max(state.placement.horizontal_distance(pos)
                for pos in cfg.gt_positions)
    th_lo, th_hi = cfg.beam_range_clamped
    h_min, h_max = cfg.altitude_range

    def pinned_altitude(theta: float) -> float:
        return max(h_min, l_max / math.tan(theta))

    fixed = []  # the incumbent and the minimum-altitude beamwidth
    cur_theta = state.placement.half_beamwidth
    if th_lo <= cur_theta <= th_hi and pinned_altitude(cur_theta) <= h_max:
        fixed.append(cur_theta)
    theta1 = max(th_lo, math.atan(l_max / h_min))
    if theta1 <= th_hi:
        fixed.append(theta1)
    thetas = np.array(fixed)
    altitudes = np.array([pinned_altitude(t) for t in fixed])
    if l_max > 0.0:
        steps = max(2, int(math.ceil((th_hi - th_lo) / opts.grid_step_theta)) + 1)
        sweep = np.linspace(th_lo, th_hi, steps)
        tight = l_max / np.tan(sweep)
        inside = (tight >= h_min) & (tight <= h_max)
        thetas = np.concatenate((thetas, sweep[inside]))
        altitudes = np.concatenate((altitudes, tight[inside]))

    admitted, energy = _hop_scores(cfg, al, p.bits, slacks,
                                   state.placement.uav_xy, altitudes, thetas)
    if admitted.size == 0:
        raise InfeasibleBlockError(
            "solve_altitude_beamwidth",
            "no (altitude, beamwidth) pair meets coverage and latency")
    theta = float(thetas[admitted[np.argmin(energy)]])
    return pinned_altitude(theta), theta


# ---------------------------------------------------------------------------
# Block 6: horizontal location


def _score_inside_disks(score, px, py, xs, ys, limit):
    """``score`` of the points inside every disk, +inf for the others.

    Disk ``k`` admits the points with squared horizontal distance to
    ``(xs[k], ys[k])`` at most ``limit[k]``; one ``(M, K)`` pass tests
    the M points against every disk.  ``score`` maps the ``(M', K)``
    squared horizontal distances of the M' points inside all of them to
    their objective values, row by row, so a point's value does not depend
    on which other points are inside.
    """
    d2 = (px[:, None] - xs[None, :]) ** 2 + (py[:, None] - ys[None, :]) ** 2
    inside = np.all(d2 <= limit[None, :], axis=1)
    out = np.full(px.shape, np.inf)
    out[inside] = score(d2[inside])
    return out


# The row pre-test's relative margin, far larger than the few roundings
# by which the disk test's squared distances differ from exact ones, and
# an absolute one for squares that underflow (below 1e-154 m).
_ROW_MARGIN = 1e-9
_ROW_PAD = 1e-150


def _grid_candidates(gx, gy, xs, ys, limit) -> np.ndarray:
    """Row-major flat indices, in order, of the points of the grid
    ``gx x gy`` (``gy`` sorted) that may lie inside every disk; every
    point left out fails ``_score_inside_disks``'s disk test.

    Along row ``gx[i]``, disk ``k`` admits only the ``y`` with
    ``(y - ys[k])**2 <= limit[k] - a``, ``a = (gx[i] - xs[k])**2`` rounded
    as the disk test rounds it: the test's sum is at least ``a`` and its
    rounding is monotone, so an admitted ``y`` lies within the half-chord
    ``sqrt(limit[k] - a)`` of ``ys[k]``.  Raising ``limit`` and the
    half-chord by the relative margin ``m``, and widening the centre by
    ``m * |ys[k]|``, bounds each disk's interval past the rounding of
    ``ys[k] -+ half``; the row's interval is the intersection over the
    disks, and a binary search on ``gy`` turns it into a run of columns.
    A NaN centre, limit or row coordinate, which the disk test rejects,
    empties the row.  The work is O(rows x K), whatever the grid's size.
    """
    m = _ROW_MARGIN
    room = (limit * (1.0 + m))[None, :] - (gx[:, None] - xs[None, :]) ** 2
    half = np.sqrt(np.maximum(room, 0.0)) * (1.0 + 2.0 * m)
    widen = m * np.abs(ys) + _ROW_PAD
    lo = np.searchsorted(gy, np.max((ys - widen)[None, :] - half, axis=1), "left")
    hi = np.searchsorted(gy, np.min((ys + widen)[None, :] + half, axis=1), "right")
    count = np.maximum(hi - lo, 0)
    first = np.arange(gx.size) * gy.size + lo
    skip = np.cumsum(count) - count
    return np.repeat(first - skip, count) + np.arange(int(count.sum()))


def solve_location(cfg: ScenarioConfig, state: SolutionState,
                   opts: SolverOptions):
    """Place the UAV inside the intersection of the per-GT admissible
    disks (coverage radius capped by the latency-derived radius) by
    grid search over the disks' bounding box, with one 9 x 9 refinement
    window around the best point per level.

    Each grid is searched filter-first.  ``_grid_candidates`` finds, row
    by row, the run of columns that may lie inside every disk, in
    O(rows x K) work; only those candidates go through the exact disk
    test and the rate and energy terms (``_score_inside_disks``), in grid
    order.  Every point left out fails the disk test, and a point's score
    does not depend on which others were scored, so the result is that of
    scoring the whole grid.  The incumbent is scored first and kept
    unless a grid point beats it; ties go to the first minimum in grid
    order, and a grid whose first minimum is NaN moves nothing.

    Returns ``(uav_xy, objective)``.
    """
    al = state.allocation
    pl = state.placement
    p = _block_terms(cfg, state, "solve_location")
    slacks = p.hop_slack
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
        j_k = p.bits[k] / (al.bandwidth[k] * slacks[k])
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
    bits = np.array(p.bits)
    gain = cfg.antenna_gain_const * cfg.ref_channel_gain / (theta * theta
                                                            * cfg.noise_psd)

    limit = (rr ** 2) * _TIGHT_BOUNDARY

    def downlink(d2: np.ndarray) -> np.ndarray:
        """Downlink energy per row of squared horizontal distances."""
        snr = gain * pw[None, :] / ((d2 + h * h) * bw[None, :])
        r = bw[None, :] * np.log2(1.0 + snr)
        return np.sum(pw[None, :] * bits[None, :] / r, axis=1)

    def evaluate(px: np.ndarray, py: np.ndarray):
        """Objective over flat point arrays, +inf outside any disk."""
        return _score_inside_disks(downlink, px, py, xs, ys, limit)

    def grid_best(gx: np.ndarray, gy: np.ndarray):
        """``(objective, xy)`` of the first minimum of the grid
        ``gx x gy`` in row-major order; +inf when no point is admitted."""
        rows, cols = np.divmod(_grid_candidates(gx, gy, xs, ys, limit), gy.size)
        if rows.size == 0:
            return math.inf, None
        px, py = gx[rows], gy[cols]
        obj = evaluate(px, py)
        idx = int(np.argmin(obj))
        return float(obj[idx]), (float(px[idx]), float(py[idx]))

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
    obj, xy = grid_best(gx, gy)
    if obj < best_obj:
        best_obj, best_xy = obj, xy
    if not math.isfinite(best_obj):
        raise InfeasibleBlockError("solve_location",
                                   "no admissible point inside every disk")

    for _ in range(opts.refinement_levels):
        if cell == (0.0, 0.0):
            break
        obj, xy = grid_best(
            np.linspace(best_xy[0] - cell[0], best_xy[0] + cell[0], 9),
            np.linspace(best_xy[1] - cell[1], best_xy[1] + cell[1], 9))
        if obj < best_obj:
            best_obj, best_xy = obj, xy
        cell = (cell[0] / 2.0, cell[1] / 2.0)

    return best_xy, best_obj
