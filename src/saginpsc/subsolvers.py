"""Per-block optimizers for the alternating energy-minimization loop.

Each solver optimizes one variable block with every other block held
fixed.  The two combinatorial blocks (compression-site assignment and
overhead-segment selection) run a projected dual subgradient loop and
return the best feasible iterate encountered, falling back to the final
iterate with ``feasible=False`` when no iterate met the latency budget.
The remaining blocks are a dense LP, a closed form, a two-multiplier
convex allocator, and two exhaustive searches.  Each block reads its
state's ``latency_terms`` from its last argument and never derives them;
``_gt_model`` prices compression per GT for the dual blocks and the LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .physics import (
    _REL_TOL,
    LatencyTerms,
    SolutionState,
    _hop_at,
    _overhead,
    _satisfied,
    _squared_distance,
    rate_uav_gt_at,
)
from .scenario import ScenarioConfig

__all__ = [
    "SolverOptions",
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

    def __post_init__(self):
        _require_positive(
            self,
            integers=("dual_max_iters", "location_grid_points",
                      "refinement_levels"),
            reals=("dual_step_scale", "dual_tolerance", "grid_step_theta"))


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


def dual_subgradient(adapter, opts: SolverOptions):
    """Maximize a Lagrangian dual by projected subgradient with the
    diminishing step ``step_scale / sqrt(t)`` on normalized residuals.

    The adapter supplies ``num_multipliers`` (K); the ``(K, options)``
    tables ``obj`` and ``lat`` of the per-GT Lagrangian ``obj + mult *
    lat``, whose least option per GT (:func:`_least_option`) is the exact
    minimizer at fixed multipliers; ``residuals(choice) -> array``
    (positive = violated, already normalized) and ``objective(choice) ->
    float`` (the true block objective, used to rank feasible iterates) of
    a choice, a ``(K,)`` array of option indices.  ``residuals`` and
    ``objective`` must be pure functions of the choice: each is evaluated
    once per distinct choice and reused when the minimizer returns to it.

    The loop advances over a whole run of steps on one choice at a time.
    While the choice holds, so do its residuals ``r``, and the multipliers
    entering the run's steps follow ``m <- max(0, m + step_t * r)``.
    ``ufunc.accumulate`` adds sequentially, so accumulating the rows ``m,
    step_t * r, step_(t+1) * r, ...`` gives the unclamped sums in the same
    bits as the per-step update.  A column with ``r_k >= 0`` never needs
    the clamp, and for ``r_k < 0`` the clamp is absorbing (from 0 the next
    sum is negative again), so ``max(0, .)`` of the accumulated column is
    the clamped sequence.  One batched argmin over a window's multipliers
    finds the first step whose choice differs.  The stopping rule depends
    on the residuals and the ``mult > 0`` mask only, so within a run it is
    tested where the mask changes, and never on a choice with a residual
    that alone keeps the projected norm at ``tol`` or above.  A run's
    first window spans ``_FIRST_WINDOW`` steps, and each next one doubles
    up to ``_MAX_WINDOW``.

    A choice is feasible when every residual is at most ``_REL_TOL``, the
    model's own latency test; ``dual_tolerance`` is only the stopping
    rule's.  Returns ``(best_choice, multipliers, steps, feasible_found)``
    where ``best_choice``, a tuple of option indices, is the feasible
    iterate of least objective, or the final iterate when none was
    feasible.
    """
    last = opts.dual_max_iters
    tol = opts.dual_tolerance
    table_obj, table_lat = adapter.obj, adapter.lat
    steps = buf = None
    mult = np.zeros(adapter.num_multipliers)  # entering step t
    choice = _least_option(table_obj, table_lat, mult)
    best_choice = None
    best_obj = math.inf
    scored = {}  # choice bytes -> (res, res_pos, may_stop)

    def stops(mask):
        """The stopping rule: the subgradient projected on the multipliers'
        feasible cone (``mask``: multipliers above 0) is shorter than
        ``tol``."""
        projected = np.where(mask, res, res_pos)
        return math.sqrt(projected.dot(projected)) < tol

    t = 1
    done = False
    while not done:  # a run of steps t, t + 1, ... on one choice
        key = choice.tobytes()
        if key not in scored:
            res = np.asarray(adapter.residuals(choice), dtype=float)
            res_pos = np.maximum(res, 0.0)
            # The projected subgradient keeps every positive residual, and a
            # dot product of non-negative terms is at least each rounded term,
            # so a residual this large rules out a stop on this choice (as
            # does a NaN, whichever value ``max`` returns then).
            worst = max(res_pos.tolist())
            may_stop = not math.sqrt(worst * worst) >= tol
            scored[key] = res, res_pos, may_stop
            obj = (adapter.objective(choice)
                   if np.all(res <= _REL_TOL) else math.inf)
            if obj < best_obj:
                best_obj = obj
                best_choice = choice
        res, res_pos, may_stop = scored[key]
        if may_stop and stops(mult > 0.0):
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
            moved = (after != choice).nonzero()[0]
            span = int(moved[0]) if moved.size else len(after)
            if may_stop and span:
                # Steps t + 1 .. t + span keep the choice; test the stopping
                # rule where the mask changes (a row may repeat).
                pos = rows[:span + 1] > 0.0
                flips = ((pos[1:] != pos[:-1]).nonzero()[0] + 1).tolist()
                stop = next((j for j in flips if stops(pos[j])), None)
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
    if best_choice is not None:
        return tuple(best_choice.tolist()), mult, t, True
    return tuple(choice.tolist()), mult, t, False


# ---------------------------------------------------------------------------
# The per-GT compression model and the dual blocks over its options


def _gt_model(cfg: ScenarioConfig, al, terms: LatencyTerms, a_s, a_u,
              overhead, forwarded, delivered):
    """Each GT's energy, its part of the shared satellite latency, its UAV
    compute time and its hop time, over grids that broadcast to ``(K,
    options)``: option ``j`` of GT ``k`` compresses at sites ``a_s[k, j]``,
    ``a_u[k, j]`` (0 or 1) with ``overhead`` and sends the fractions
    ``forwarded`` of its data over the satellite link and ``delivered`` to
    the GT; CPU shares and powers are ``al``'s, rates ``terms``'.  A GT's
    latency is the sum of the shared parts over all GTs plus ``t_prop``,
    its UAV time and its hop time.

    The pieces are linear in the last three grids, which on a segment line
    are affine in the ratio (``slope * rho + intercept``, ``a_s * rho + 1 -
    a_s``, ``a * rho + 1 - a``, ``a = a_s + a_u``): at ``(slope, a_s, a)``
    they are the ratio's coefficients, at ``(intercept, 1 - a_s, 1 - a)``
    the constants.  A regrouped term rounds the LP's rows differently."""
    kappa, tau = cfg.cycles_per_overhead, cfg.comp_energy_coeff
    bits, rate = cfg._tables.data_bits[:, None], terms.rate[:, None]
    cpu, power = np.array((al.cpu, al.power), dtype=float)[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        uav = np.where(a_u != 0, kappa * overhead / cpu, 0.0)
    # float_power rounds as Python's float power; np.power may not
    energy = (a_s * kappa * tau * overhead * cfg.sat_cpu ** 2
              + cfg.sat_tx_power * bits * forwarded / terms.r_su
              + a_u * kappa * tau * overhead * np.float_power(cpu, 2)
              + power * bits * delivered / rate)
    shared = (a_s * kappa * overhead / cfg.sat_cpu
              + bits * forwarded / terms.r_su)
    return energy, shared, uav, bits * delivered / rate


class _OptionAdapter:
    """A dual block whose option ``j`` of GT ``k`` is the sites ``a_s[k,
    j]``, ``a_u[k, j]`` with ``overhead[k, j]`` at ``ratio[k, j]``, the
    rest of the state held.  ``obj`` and ``lat`` hold each option's energy
    and latency by :func:`_gt_model`; a choice, with one option per GT,
    scores as that state from the same pieces."""

    def __init__(self, cfg: ScenarioConfig, state: SolutionState,
                 terms: LatencyTerms, a_s, a_u, overhead, ratio):
        a = a_s + a_u
        self._gt_energy, shared, uav, hop = _gt_model(
            cfg, state.allocation, terms, a_s, a_u, overhead,
            a_s * ratio + (1 - a_s), a * ratio + (1 - a))
        self.num_multipliers = cfg.num_gts
        self._shared, self._local = shared, uav + hop
        self.obj, self.lat = self._gt_energy, shared + self._local
        self._rows = np.arange(cfg.num_gts)
        self._t_prop, self._budget = terms.t_prop, cfg.latency_budget

    def residuals(self, choice):
        pick = self._rows, choice
        latency = (float(np.add.reduce(self._shared[pick])) + self._t_prop
                   + self._local[pick])
        return (latency - self._budget) / self._budget

    def objective(self, choice):
        return float(np.add.reduce(self._gt_energy[self._rows, choice]))


# ---------------------------------------------------------------------------
# Block 1: compression-site assignment (satellite / UAV / none)


class _TaskAdapter(_OptionAdapter):
    """Each GT's options are none (0), satellite (1) and UAV (2) at its
    ratio, and the tables ``obj`` and ``lat`` hold them relative to none;
    the least option wins, and ``argmin`` keeps the first minimum, so ties
    resolve to none, then satellite.  GTs without a positive UAV CPU share
    price the UAV option at +inf."""

    def __init__(self, cfg: ScenarioConfig, state: SolutionState,
                 terms: LatencyTerms):
        al = state.allocation
        # np.eye(3)[1:]: the sites of none, satellite and UAV; each needs
        # the overhead, which the terms hold for the compressed GTs only
        super().__init__(cfg, state, terms, *np.eye(3)[1:, None],
                         _overhead(cfg, al.ratio, True)[0][:, None],
                         np.array(al.ratio)[:, None])
        self.obj = self.obj - self.obj[:, :1]
        self.lat = self.lat - self.lat[:, :1]
        no_share = ~(np.array(al.cpu) > 0.0)
        self.obj[no_share, 2], self.lat[no_share, 2] = math.inf, 0.0


def solve_task_allocation(cfg: ScenarioConfig, state: SolutionState,
                          opts: SolverOptions, terms: LatencyTerms):
    """Assign the compression site per GT by the dual method.

    Returns ``(task_sat, task_uav, feasible)``.  GTs without a
    positive UAV CPU share can only be assigned to the satellite or left
    uncompressed.  The incumbent sites are kept when they are feasible and
    either the loop found nothing feasible or they cost strictly less (the
    options price the state's own energy), so the block never worsens the
    state it was given.
    """
    al = state.allocation
    adapter = _TaskAdapter(cfg, state, terms)
    choice, _, _, feasible = dual_subgradient(adapter, opts)
    incumbent = np.dot((1, 2), (al.task_sat, al.task_uav))
    if float(np.max(adapter.residuals(incumbent))) <= _REL_TOL and (
            not feasible
            or adapter.objective(incumbent) < adapter.objective(choice)):
        choice, feasible = incumbent, True
    task_sat, task_uav = (np.array(choice) == ((1,), (2,))).astype(int).tolist()
    return tuple(task_sat), tuple(task_uav), feasible


# ---------------------------------------------------------------------------
# Block 2a: overhead-segment selection at segment midpoints


class _SegmentAdapter(_OptionAdapter):
    """Each GT's options are its 0-based segments at their midpoints, the
    sites held; the padded columns of curves with fewer segments hold +inf
    in ``obj``.  ``argmin`` keeps the first minimum, so ties, and GTs
    compressed nowhere (which score alike on every segment), resolve to
    the shallowest segment."""

    def __init__(self, cfg: ScenarioConfig, state: SolutionState,
                 terms: LatencyTerms):
        tables, al = cfg._tables, state.allocation
        slope, intercept = tables.line.reshape(2, cfg.num_gts, -1)
        super().__init__(cfg, state, terms, *np.array(
            (al.task_sat, al.task_uav), dtype=float)[:, :, None],
            slope * tables.mid + intercept, tables.mid)
        pad = np.isnan(tables.mid)
        self.obj = np.where(pad, math.inf, self.obj)
        self.lat = np.where(pad, 0.0, self.lat)


def select_segments(cfg: ScenarioConfig, state: SolutionState,
                    opts: SolverOptions, terms: LatencyTerms):
    """Pick one overhead segment per GT by ranking the midpoint scores
    under the dual multipliers.  Returns ``(chosen, feasible)``: one
    0-based segment index per GT, the tuple :func:`solve_ratio_lp` and
    ``oracle.oracle_ratio`` take; ties resolve to the shallowest
    segment.  The incumbent segments are not weighed against the choice:
    midpoint energies are not the state's."""
    choice, _, _, feasible = dual_subgradient(
        _SegmentAdapter(cfg, state, terms), opts)
    return choice, feasible


# ---------------------------------------------------------------------------
# Block 2b: exact compression ratios within the chosen segments (dense LP)


def solve_ratio_lp(cfg: ScenarioConfig, state: SolutionState,
                   chosen, opts: SolverOptions, terms: LatencyTerms):
    """Optimize the compression ratios inside the segments ``chosen``, one
    0-based index per GT.

    Returns ``(ratios, fully_feasible)``.  Latency rows whose coefficients
    are all zero (no decision variable can influence them) are dropped and
    reported through ``fully_feasible=False`` when late by the model's
    test; this lets the outer loop keep improving a state whose
    infeasibility is owned by other blocks.  A genuinely contradictory LP
    raises :class:`InfeasibleBlockError` naming the most violated
    constraint at the center of the ratio box.
    """
    from .simplex import solve_bounded_lp

    al, tables, n = state.allocation, cfg._tables, cfg.num_gts
    segment = tables.first + chosen
    lo, hi = tables.lower.take(segment), tables.upper.take(segment)
    a_s, a_u = np.array((al.task_sat, al.task_uav), dtype=float)[:, :, None]
    a = a_s + a_u
    # the model's coefficients of the ratios (column 0) and constants (1)
    energy, shared, uav, hop = _gt_model(
        cfg, al, terms, a_s, a_u, tables.line[:, segment].T,
        np.hstack((a_s, 1 - a_s)), np.hstack((a, 1 - a)))

    # Latency rows: shared satellite terms couple every ratio; the UAV
    # compute/downlink terms are local to each GT, on the diagonal.
    matrix = np.repeat(shared[None, :, 0], n, axis=0)
    matrix.flat[::n + 1] = shared[:, 0] + uav[:, 0] + hop[:, 0]
    limit = cfg.latency_budget - (float(np.add.reduce(shared[:, 1]))
                                  + terms.t_prop + uav[:, 1] + hop[:, 1])
    bound = np.maximum.reduce(np.abs(matrix), axis=1) != 0.0
    rows, rhs = matrix[bound], limit[bound]
    result = solve_bounded_lp(energy[:, 0], rows, rhs, lo, hi)
    if result.status != "optimal":
        worst = np.max(rows @ (0.5 * (lo + hi)) - rhs)
        raise InfeasibleBlockError(
            "solve_ratio_lp",
            "no ratio vector satisfies the latency rows "
            f"(most violated by {worst:.3e} s at the box center)")
    # Simplex arithmetic can overshoot a bound by an ulp; keep the ratios
    # inside their segments so downstream segment lookups never reject them.
    ratios = np.clip(result.x, lo, hi)
    return (tuple(float(x) for x in ratios),
            bool(np.all(_satisfied(limit[~bound], cfg.latency_budget))))


# ---------------------------------------------------------------------------
# Block 3: UAV CPU shares (closed form)


def solve_cpu_allocation(cfg: ScenarioConfig, state: SolutionState,
                         terms: LatencyTerms):
    """Closed-form CPU shares: each UAV-compressed GT gets exactly the
    cycles-per-second that make its end-to-end latency hit the budget;
    everyone else gets zero.  Raises when a slack is nonpositive or the
    shares miss the UAV CPU budget by the model's test."""
    uav = np.array(state.allocation.task_uav) != 0
    slack = cfg.latency_budget - terms.t_sat - terms.t_tx - terms.t_prop - terms.t_ug
    starved = uav & (slack <= 0.0)
    if np.count_nonzero(starved):
        k = int(starved.argmax())
        raise InfeasibleBlockError(
            "solve_cpu_allocation",
            f"GT {k}: no latency left for UAV compute (slack {slack[k]:.3e} s)")
    cpu = np.divide(cfg.cycles_per_overhead * terms.overhead, slack,
                    out=np.zeros(cfg.num_gts), where=uav)
    total = float(np.add.reduce(cpu))
    if not _satisfied(cfg.uav_cpu_total - total, cfg.uav_cpu_total):
        raise InfeasibleBlockError(
            "solve_cpu_allocation",
            f"required CPU {total:.3e} exceeds budget {cfg.uav_cpu_total:.3e}")
    return tuple(cpu.tolist())


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


def _split(u, v, weights, b_total: float) -> tuple[list, list, float]:
    """Bandwidths minimizing ``sum(weight * q(u, b))`` with the bandwidth
    budget tight; returns (b, power, sum(power)), each power being
    ``q(u, b) / v``.

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
    p = [_q(u_k, b_k) / v_k for u_k, b_k, v_k in zip(u, b, v)]
    return b, p, sum(p)


def solve_power_bandwidth(cfg: ScenarioConfig, state: SolutionState,
                          opts: SolverOptions, terms: LatencyTerms):
    """Jointly allocate UAV bandwidth and power so every GT's downlink
    uses exactly its remaining latency budget at minimum energy.

    The bandwidth-only reduction is convex and both the objective and the
    per-GT power decrease with more bandwidth, so the bandwidth budget is
    always tight; the power budget binds only when the resulting powers
    overshoot.  Returns ``(bandwidth, power)``.

    With ``t = u ln2 / b``, a GT's stationarity ``weight * q'(b) + mu = 0``
    reads ``f(t) = mu / weight`` (``_stationary_t``; in closed form
    ``t = 1 + W0((mu / weight - 1) / e)`` with Lambert's W0).  The
    bandwidth multiplier ``mu`` that makes the bandwidth budget tight is
    one safeguarded Newton root in ``log mu`` (``_split``).  A power
    multiplier ``nu >= 0`` adds ``nu / v`` to each weight; up to a common
    scale, which leaves the split unchanged, that is the mix ``alpha =
    nu / (1 + nu)`` in ``[0, 1]`` of the energy weights and the
    minimum-power weights ``1 / v``, and the mix is bisected on that
    bracket until the power meets its budget.
    """
    slacks = terms.hop_slack
    if np.count_nonzero(slacks <= 0.0):
        k = int((slacks <= 0.0).argmax())
        raise InfeasibleBlockError(
            "solve_power_bandwidth",
            f"GT {k}: no latency left for the downlink (slack {slacks[k]:.3e} s)")
    theta = state.placement.half_beamwidth
    gain = cfg.ref_channel_gain / _squared_distance(cfg, state.placement)
    v = cfg.antenna_gain_const * gain / (theta * theta * cfg.noise_psd)
    # the stationary-bandwidth search below iterates on Python floats
    u, w, v = (terms.bits / slacks).tolist(), (slacks / v).tolist(), v.tolist()

    b_total = cfg.uav_bandwidth_total

    def split(alpha: float):
        """The split at mix ``alpha`` of the energy weights (0) and the
        minimum-power weights ``1 / v`` (1); returns (b, power, sum_power)."""
        return _split(u, v, [(1.0 - alpha) * w_k + alpha / v_k
                             for w_k, v_k in zip(w, v)], b_total)

    def over(sum_p: float) -> bool:
        """Whether a split's power misses the budget by the model's test."""
        return not _satisfied(cfg.uav_power_budget - sum_p, cfg.uav_power_budget)

    b, power, sum_p = split(0.0)
    if over(sum_p):
        # The power falls toward the minimum-power split as the mix
        # grows, so the mix 1 decides whether the budget is reachable.
        b, power, sum_p = split(1.0)
        if over(sum_p):
            raise InfeasibleBlockError(
                "solve_power_bandwidth",
                "power budget unreachable even at the minimum-power split")
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            mid_split = split(mid)
            if over(mid_split[2]):
                lo = mid
            else:
                hi = mid
                b, power, sum_p = mid_split
            if hi - lo <= 1e-14 * hi:
                break
    return tuple(b), tuple(power)


# ---------------------------------------------------------------------------
# Block 5: altitude and half-beamwidth


# GTs in the first step of the beamwidth block's walk; each next step
# takes twice as many (see ``_hop_scores``).
_HOP_BLOCK = 16


def _hop_scores(cfg: ScenarioConfig, al, terms: LatencyTerms, uav_xy,
                altitudes, thetas):
    """UAV-to-GT energy at each trial ``(altitudes[i], thetas[i])``.

    Returns ``(admitted, energy)``: the indices, in order, of the trials
    at which every GT's latency, ``t_sat + t_tx + t_prop + t_uav + bits /
    r`` added in ``latency_terms``' order, meets the budget by the model's
    test, and each one's sum of ``(bits / r) * p`` in GT order.  The GTs
    are taken in blocks of ``_HOP_BLOCK``, then twice as many each step,
    over the trials that met every GT so far: most fail within the first
    GTs, so the steps over the few left (often only the incumbent) number
    about ``log2(K / _HOP_BLOCK)``.  One sequential ``np.add.accumulate``
    adds a block's energies to the running sums of the trials that meet
    all its GTs.
    """
    dx, dy = np.array(uav_xy)[:, None] - cfg._tables.xy
    horizontal2 = (dx * dx + dy * dy)[:, None]
    bw, pw = (np.asarray(v, dtype=float)[:, None]
              for v in (al.bandwidth, al.power))
    data = terms.bits[:, None]
    before = (terms.t_sat + terms.t_tx + terms.t_prop + terms.t_uav)[:, None]
    budget = cfg.latency_budget
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
            t_ug = data[ks] / r
            met = _satisfied(budget - (before[ks] + t_ug), budget).all(axis=0)
            admitted = admitted[met]
            energy = np.add.accumulate(np.concatenate(
                (energy[:, met], t_ug[:, met] * pw[ks])))[-1:]
            if admitted.size == 0:
                break
    return admitted, energy[0]


def solve_altitude_beamwidth(cfg: ScenarioConfig, state: SolutionState,
                             opts: SolverOptions, terms: LatencyTerms):
    """Optimize UAV altitude and half-beamwidth with everything else fixed.

    The altitude is pinned to ``max(H_min, L_max / tan(theta))`` (raising
    it further only hurts), which leaves a one-dimensional beamwidth
    search.  The trials are the incumbent beamwidth (while admissible, so
    the block never worsens the state), the smallest beamwidth covering
    every GT from the minimum altitude, and a sweep along the
    coverage-tight curve within the altitude range; one ``np.tan``
    expression gives every trial's altitude.  ``_hop_scores`` scores them
    all in one pass, and the first least admitted trial wins.  Returns
    the winning trial's ``(altitude, theta)``, as it was scored.
    """
    al = state.allocation
    slacks = terms.hop_slack
    if np.count_nonzero(slacks <= 0.0):
        raise InfeasibleBlockError(
            "solve_altitude_beamwidth", "no latency left for the downlink")
    l_max = max(state.placement.horizontal_distance(pos)
                for pos in cfg.gt_positions)
    th_lo, th_hi = cfg.beam_range_clamped
    h_min, h_max = cfg.altitude_range

    theta1 = max(th_lo, math.atan(l_max / h_min))
    steps = max(2, int(math.ceil((th_hi - th_lo) / opts.grid_step_theta)) + 1)
    # the incumbent, the minimum-altitude beamwidth, then the sweep
    thetas = np.concatenate(([state.placement.half_beamwidth, theta1],
                             np.linspace(th_lo, th_hi, steps)))
    tight = l_max / np.tan(thetas)
    altitudes = np.maximum(h_min, tight)
    keep = (th_lo <= thetas) & (thetas <= th_hi) & (altitudes <= h_max)
    # the sweep keeps its coverage-tight trials, none when l_max == 0
    keep[2:] &= tight[2:] >= h_min
    thetas, altitudes = thetas[keep], altitudes[keep]

    admitted, energy = _hop_scores(cfg, al, terms, state.placement.uav_xy,
                                   altitudes, thetas)
    if admitted.size == 0:
        raise InfeasibleBlockError(
            "solve_altitude_beamwidth",
            "no (altitude, beamwidth) pair meets coverage and latency")
    best = admitted[np.argmin(energy)]
    return float(altitudes[best]), float(thetas[best])


# ---------------------------------------------------------------------------
# Block 6: horizontal location


# The row pre-test's relative margin, far larger than the few roundings
# by which the disk test's squared distances differ from exact ones, and
# an absolute one for squares that underflow (below 1e-154 m).
_ROW_MARGIN = 1e-9
_ROW_PAD = 1e-150


def _grid_candidates(gx, gy, xs, ys, limit) -> np.ndarray:
    """Row-major flat indices, in order, of the points of the grid
    ``gx x gy`` (``gy`` sorted) that may lie inside every disk; every
    point left out fails the disk test: its squared horizontal distance
    ``(x - xs[k])**2 + (y - ys[k])**2`` to some centre exceeds ``limit[k]``.

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
                   opts: SolverOptions, terms: LatencyTerms):
    """Place the UAV inside the intersection of the per-GT admissible
    disks (coverage radius capped by the latency-derived radius) by
    grid search over the disks' bounding box, with one 9 x 9 refinement
    window around the best point per level.

    A point is admitted and scored by the model's own evaluator
    (``physics._hop_at``): coverage and every latency by the model's
    test, and the energy that ``energy_breakdown`` reports as
    ``uav_gt_comm`` for the moved state.  Each grid is searched
    filter-first: ``_grid_candidates`` finds, row by row, the run of
    columns that may lie inside every disk widened to the model's
    allowance (the hop slack plus ``_REL_TOL`` of the budget, the coverage
    radius times ``1 + _REL_TOL``), which holds every admitted point, in
    O(rows x K) work, and only those candidates are scored, in grid
    order.  A point's score does not depend on which others were scored,
    so the result is that of scoring the whole grid.  The incumbent is
    scored first and kept unless a grid point beats it; ties go to the
    first minimum in grid order.

    Returns ``(uav_xy, objective)``.
    """
    al = state.allocation
    pl = state.placement
    slacks = terms.hop_slack
    if np.count_nonzero(slacks <= 0.0):
        raise InfeasibleBlockError("solve_location",
                                   "no latency left for the downlink")
    theta, h = pl.half_beamwidth, pl.altitude
    bw, pw = np.array((al.bandwidth, al.power), dtype=float)
    # Row 0: each GT's disk at its hop slack and coverage radius, whose
    # bounding box the grid spans; row 1: the disk at the model's
    # allowance, which holds every point the model admits.
    allowance = np.array([[0.0], [_REL_TOL]])
    cover = pl.coverage_radius * (1.0 + allowance)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        demand = terms.bits / (bw * (slacks + allowance * cfg.latency_budget))
        q2 = (cfg.antenna_gain_const * cfg.ref_channel_gain * pw
              / (theta * theta * bw * cfg.noise_psd
                 * (np.float_power(2.0, np.minimum(demand, _EXP_CAP)) - 1.0))) - h * h
        root = np.sqrt(q2)
    empty = np.array((pw <= 0.0, demand[0] > _EXP_CAP, q2[0] < 0.0))
    if np.count_nonzero(empty):
        k = int(empty.any(axis=0).argmax())
        raise InfeasibleBlockError("solve_location", (
            "GT {}: zero power, admissible disk empty",
            "GT {}: rate demand overflows, disk empty",
            "GT {}: latency disk has imaginary radius")[
                int(empty[:, k].argmax())].format(k))
    rr, allowed = np.where(root < cover, root, cover)  # as min(cover, root)

    xs, ys = cfg._tables.xy
    x_lo, x_hi = float(np.max(xs - rr)), float(np.min(xs + rr))
    y_lo, y_hi = float(np.max(ys - rr)), float(np.min(ys + rr))
    if x_lo > x_hi or y_lo > y_hi:
        raise InfeasibleBlockError("solve_location",
                                   "admissible disks have empty intersection")

    limit = allowed * allowed

    def grid_best(gx: np.ndarray, gy: np.ndarray):
        """``(objective, xy)`` of the first minimum of the grid
        ``gx x gy`` in row-major order; +inf when no point is admitted."""
        rows, cols = np.divmod(_grid_candidates(gx, gy, xs, ys, limit), gy.size)
        if rows.size == 0:
            return math.inf, None
        px, py = gx[rows], gy[cols]
        energy, met = _hop_at(cfg, state, terms, px, py)
        obj = np.where(met, energy, math.inf)
        idx = int(np.argmin(obj))
        return float(obj[idx]), (float(px[idx]), float(py[idx]))

    # The incumbent location is scored first: when the admissible
    # intersection is thinner than the grid pitch (latency constraints
    # tight), the current point is still a valid answer.
    energy, met = _hop_at(cfg, state, terms, *pl.uav_xy)
    best_obj = float(energy) if met else math.inf
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
