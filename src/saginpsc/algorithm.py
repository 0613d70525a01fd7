"""Alternating minimization over the six variable blocks, plus the
comparison schemes built on top of it.

The outer loop visits the blocks in a fixed order (compression-site
assignment, segment selection with exact ratios, CPU shares, bandwidth
and power, altitude and beamwidth, horizontal location).  A block's
candidate is accepted only when it raises the total energy by at most
``_REL_TOL`` relative, or repairs a latency-infeasible state; blocks
without a feasible point keep their values and are reported per
iteration.  So the energy is non-increasing, up to ``_REL_TOL``, while
the state meets every budget.  A cheaper candidate is accepted even
when late, and a repair may raise the energy, so the trace need not be
monotone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .physics import (
    _REL_TOL,
    Allocation,
    ModelError,
    Placement,
    SolutionState,
    _energy,
    _late,
    _report,
    latency_terms,
)
from .scenario import ScenarioConfig
from .subsolvers import (
    InfeasibleBlockError,
    SolverOptions,
    _require_positive,
    select_segments,
    solve_altitude_beamwidth,
    solve_cpu_allocation,
    solve_location,
    solve_power_bandwidth,
    solve_ratio_lp,
    solve_task_allocation,
)

__all__ = [
    "SchemeId",
    "AlgorithmOptions",
    "IterationTrace",
    "SolveResult",
    "ALL_BLOCKS",
    "initialize",
    "run_blocks",
    "run_scheme",
]

class SchemeId(str, enum.Enum):
    """Solver variants compared against each other."""

    SAGIN_PSC = "sagin_psc"
    NON_SEMANTIC = "non_semantic"
    RANDOM_COMP = "random_comp"
    FIXED_LOCATION = "fixed_location"


@dataclass(frozen=True)
class AlgorithmOptions:
    outer_tolerance: float = 1e-4
    max_outer_iters: int = 20
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        _require_positive(self, integers=("max_outer_iters",),
                          reals=("outer_tolerance",))


@dataclass(frozen=True)
class IterationTrace:
    """One outer iteration: objective after the block sweep, whether the
    state met every constraint, and which blocks had no feasible move."""

    iteration: int
    objective: float
    feasible: bool
    infeasible_blocks: tuple[str, ...]


@dataclass(frozen=True)
class SolveResult:
    """The answer of one alternating loop.  ``converged`` holds only when
    the loop met its stopping rule at a feasible state: an infeasible
    answer never reports converged, and for such an answer ``iterations``
    below ``max_outer_iters`` means that the loop stalled."""

    scheme: str
    state: SolutionState
    objective: float
    feasible: bool
    converged: bool
    iterations: int
    trace: tuple[IterationTrace, ...]


def initialize(cfg: ScenarioConfig) -> SolutionState:
    """Deterministic starting point: UAV at the GT centroid, lowest
    altitude/beamwidth pair that covers every GT, equal bandwidth and
    power split, no compression anywhere."""
    n = cfg.num_gts
    cx = sum(p[0] for p in cfg.gt_positions) / n
    cy = sum(p[1] for p in cfg.gt_positions) / n
    l_max = max(math.hypot(p[0] - cx, p[1] - cy) for p in cfg.gt_positions)
    th_lo, th_hi = cfg.beam_range_clamped
    h_lo, h_hi = cfg.altitude_range
    theta = min(max(th_lo, math.atan(l_max / h_lo)), th_hi)
    altitude = min(max(h_lo, l_max / math.tan(theta)), h_hi)
    placement = Placement(uav_xy=(cx, cy), altitude=altitude,
                          half_beamwidth=theta)
    allocation = Allocation(
        bandwidth=tuple(cfg.uav_bandwidth_total / n for _ in range(n)),
        cpu=tuple(0.0 for _ in range(n)),
        power=tuple(cfg.uav_power_budget / n for _ in range(n)),
        ratio=tuple(1.0 for _ in range(n)),
        task_sat=tuple(0 for _ in range(n)),
        task_uav=tuple(0 for _ in range(n)),
    )
    return SolutionState(placement=placement, allocation=allocation)


def _score(cfg: ScenarioConfig, state: SolutionState):
    """``(state, terms, total energy, every latency within budget)`` from
    one derivation of the latency terms of ``state``.  The loop holds only
    states scored here, and the blocks read their kept terms."""
    terms = latency_terms(cfg, state)
    return (state, terms, _energy(cfg, state.allocation, terms).total,
            not _late(cfg, terms))


def _trace(cfg: ScenarioConfig, iteration: int, scored,
           stuck: tuple[str, ...]) -> IterationTrace:
    """The trace entry of the :func:`_score` tuple ``scored``; a state
    that misses a latency budget is infeasible without its full report."""
    state, terms, obj, met = scored
    return IterationTrace(iteration, obj,
                          met and _report(cfg, state, terms).feasible, stuck)


# The sweep's blocks in visiting order: the state record each one moves,
# the fields set by the leading values of its solver's result, and the
# solver call, which looks the solver up by module-global name each time,
# so a wrapper bound to that name (the benchmark's tracer binds one) sees it.
_BLOCKS = {
    "tasks": ("allocation", ("task_sat", "task_uav"),
              lambda *args: solve_task_allocation(*args)),
    "segments": ("allocation", ("ratio",), lambda cfg, s, opts, terms: (
        solve_ratio_lp(cfg, s, select_segments(cfg, s, opts, terms)[0],
                       opts, terms))),
    "cpu": ("allocation", ("cpu",), lambda cfg, s, opts, terms: (
        solve_cpu_allocation(cfg, s, terms),)),
    "power_bandwidth": ("allocation", ("bandwidth", "power"),
                        lambda *args: solve_power_bandwidth(*args)),
    "placement": ("placement", ("altitude", "half_beamwidth"),
                  lambda *args: solve_altitude_beamwidth(*args)),
    "location": ("placement", ("uav_xy",), lambda *args: solve_location(*args)),
}
ALL_BLOCKS = tuple(_BLOCKS)


def _sweep(cfg: ScenarioConfig, scored, blocks: tuple[str, ...],
           solver: SolverOptions):
    """One pass over the enabled blocks from the :func:`_score` tuple
    ``scored``; returns the updated tuple and the names of blocks without
    a feasible move.  A candidate equal to the state is kept without
    scoring it again; any other is accepted iff it does not worsen the
    energy, or it turns a latency-infeasible state feasible."""
    stuck: list[str] = []
    for name, (record, fields, solve) in _BLOCKS.items():
        if name not in blocks:
            continue
        state, terms, obj, met = scored
        try:
            values = solve(cfg, state, solver, terms)
        except InfeasibleBlockError:
            stuck.append(name)
            continue
        moved = replace(getattr(state, record), **dict(zip(fields, values)))
        candidate = replace(state, **{record: moved})
        if candidate == state:
            continue
        try:
            cand = _score(cfg, candidate)
        except ModelError:
            continue
        cand_obj, cand_met = cand[2:]
        if cand_obj <= obj * (1.0 + _REL_TOL) or (cand_met and not met):
            scored = cand
    return scored, tuple(stuck)


def run_blocks(cfg: ScenarioConfig, state: SolutionState,
               options: AlgorithmOptions | None = None,
               blocks: tuple[str, ...] = ALL_BLOCKS,
               scheme: str = SchemeId.SAGIN_PSC.value) -> SolveResult:
    """Alternate over the enabled blocks until the energy stops moving.

    Convergence needs both a relative objective change below
    ``outer_tolerance`` and either an exact fixed point or a second
    consecutive small change (which absorbs sub-tolerance oscillation
    between equally good states).  A loop that stops on this rule at an
    infeasible state has stalled, and does not report converged.
    """
    options = options or AlgorithmOptions()
    unknown = set(blocks) - set(ALL_BLOCKS)
    if unknown:
        raise ValueError(f"unknown blocks: {sorted(unknown)}")
    scored = _score(cfg, state)
    trace = [_trace(cfg, 0, scored, ())]
    converged = False
    prev_small = False
    for it in range(1, options.max_outer_iters + 1):
        prev_state, _, prev_obj, _ = scored
        scored, stuck = _sweep(cfg, scored, blocks, options.solver)
        trace.append(_trace(cfg, it, scored, stuck))
        state, _, obj, _ = scored
        rel = abs(prev_obj - obj) / max(abs(prev_obj), 1e-30)
        small = rel < options.outer_tolerance
        if small and (state == prev_state or prev_small):
            converged = trace[-1].feasible
            break
        prev_small = small
    return SolveResult(
        scheme=scheme,
        state=state,
        objective=trace[-1].objective,
        feasible=trace[-1].feasible,  # the final state's entry
        converged=converged,
        iterations=len(trace) - 1,
        trace=tuple(trace),
    )


def _equal_cpu_for(cfg: ScenarioConfig, task_uav: tuple[int, ...]):
    m = sum(task_uav)
    if m == 0:
        return tuple(0.0 for _ in task_uav)
    share = cfg.uav_cpu_total / m
    return tuple(share if a else 0.0 for a in task_uav)


def run_scheme(cfg: ScenarioConfig, scheme: SchemeId | str,
               options: AlgorithmOptions | None = None,
               seed: int = 0) -> SolveResult:
    """Run one of the comparison schemes: one alternating loop from the
    deterministic start of :func:`initialize`.

    ``sagin_psc`` sweeps every block.  ``non_semantic`` forwards
    everything raw and only tunes the communication and placement blocks.
    ``random_comp`` draws the compression site per GT uniformly from
    {none, satellite, UAV} with the given seed and never revisits it.
    ``fixed_location`` keeps the UAV pinned above the GT centroid.
    """
    scheme = SchemeId(scheme)
    state = initialize(cfg)
    blocks = ALL_BLOCKS
    if scheme is SchemeId.NON_SEMANTIC:
        blocks = ("power_bandwidth", "placement", "location")
    elif scheme is SchemeId.RANDOM_COMP:
        rng = np.random.default_rng(seed)
        pairs = ((0, 0), (0, 1), (1, 0))
        picks = [pairs[int(i)] for i in rng.integers(0, 3, size=cfg.num_gts)]
        task_sat = tuple(p[0] for p in picks)
        task_uav = tuple(p[1] for p in picks)
        al = replace(state.allocation, task_sat=task_sat, task_uav=task_uav,
                     cpu=_equal_cpu_for(cfg, task_uav))
        state = replace(state, allocation=al)
        blocks = tuple(b for b in ALL_BLOCKS if b != "tasks")
    elif scheme is SchemeId.FIXED_LOCATION:
        blocks = tuple(b for b in ALL_BLOCKS if b != "location")
    return run_blocks(cfg, state, options, blocks=blocks, scheme=scheme.value)
