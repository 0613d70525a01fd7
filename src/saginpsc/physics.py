"""Pure evaluation of the channel, rate, latency, and energy model.

Everything here is a deterministic function of an immutable scenario and a
candidate solution state.  Convention used throughout: any term of the
form ``a * X / Y`` with ``a == 0`` evaluates to 0 regardless of ``Y``
(an unassigned GT needs no CPU share, so ``f_k == 0`` is legitimate
there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import ScenarioConfig

__all__ = [
    "ModelError",
    "Placement",
    "Allocation",
    "SolutionState",
    "LatencyBreakdown",
    "LatencyTerms",
    "EnergyBreakdown",
    "ConstraintViolation",
    "FeasibilityReport",
    "rate_sat_uav",
    "channel_gain_ug",
    "rate_uav_gt",
    "rate_uav_gt_at",
    "effective_fraction",
    "latency_terms",
    "latency_breakdown",
    "energy_breakdown",
    "total_energy",
    "check_feasibility",
    "downlink_energy_grid",
]


class ModelError(ValueError):
    """Raised when a state makes a model expression undefined."""


@dataclass(frozen=True)
class Placement:
    """UAV position: horizontal coordinates, altitude, half-beamwidth."""

    uav_xy: tuple[float, float]
    altitude: float
    half_beamwidth: float

    def horizontal_distance(self, gt_xy: tuple[float, float]) -> float:
        return math.hypot(self.uav_xy[0] - gt_xy[0], self.uav_xy[1] - gt_xy[1])

    def slant_distance(self, gt_xy: tuple[float, float]) -> float:
        return math.hypot(self.horizontal_distance(gt_xy), self.altitude)

    @property
    def coverage_radius(self) -> float:
        return self.altitude * math.tan(self.half_beamwidth)


@dataclass(frozen=True)
class Allocation:
    """Per-GT decision variables: bandwidth, CPU, power, compression ratio,
    and the binary compression-site indicators."""

    bandwidth: tuple[float, ...]
    cpu: tuple[float, ...]
    power: tuple[float, ...]
    ratio: tuple[float, ...]
    task_sat: tuple[int, ...]
    task_uav: tuple[int, ...]


@dataclass(frozen=True)
class SolutionState:
    placement: Placement
    allocation: Allocation


@dataclass(frozen=True)
class LatencyBreakdown:
    """Per-GT end-to-end latency and its shared/individual components.

    ``sat_compute``, ``sat_uav_tx``, ``sat_uav_prop`` are shared by all
    GTs; ``uav_compute`` and ``uav_gt_tx`` are per GT.  ``total`` is the
    exact componentwise sum.
    """

    sat_compute: float
    sat_uav_tx: float
    sat_uav_prop: float
    uav_compute: tuple[float, ...]
    uav_gt_tx: tuple[float, ...]
    total: tuple[float, ...]


@dataclass(frozen=True)
class LatencyTerms:
    """Every latency term of one state, with the rates and data volumes
    they come from.

    ``r_su``, ``t_sat``, ``t_tx`` and ``t_prop`` are shared by all GTs;
    the tuples hold one entry per GT.  ``overhead`` is the GT's overhead at
    its ratio (0.0 where it is uncompressed), ``bits`` the data the UAV
    delivers to it, ``rate`` its UAV-to-GT rate, ``total`` its end-to-end
    latency and ``hop_slack`` the latency budget left for its UAV-to-GT
    hop, ``T - t_sat - t_tx - t_prop - t_uav``.
    """

    r_su: float
    t_sat: float
    t_tx: float
    t_prop: float
    overhead: tuple[float, ...]
    bits: tuple[float, ...]
    t_uav: tuple[float, ...]
    rate: tuple[float, ...]
    t_ug: tuple[float, ...]
    total: tuple[float, ...]
    hop_slack: tuple[float, ...]


@dataclass(frozen=True)
class EnergyBreakdown:
    sat_compute: float
    sat_uav_comm: float
    uav_compute: float
    uav_gt_comm: float
    total: float


@dataclass(frozen=True)
class ConstraintViolation:
    """One violated constraint: code, optional GT index, signed slack
    (negative slack = amount of violation, in the constraint's unit)."""

    code: str
    gt_index: int | None
    slack: float


@dataclass(frozen=True)
class FeasibilityReport:
    violations: tuple[ConstraintViolation, ...]

    @property
    def feasible(self) -> bool:
        return not self.violations

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}


# Default relative tolerance of a constraint slack (see check_feasibility).
_REL_TOL = 1e-9


def _satisfied(slack, scale: float, rel_tol: float = _REL_TOL):
    """Whether ``slack`` (a float or an array) is at least ``-rel_tol``
    times ``scale``; a NaN slack is not."""
    return slack >= -rel_tol * max(abs(scale), 1e-30)


def rate_sat_uav(cfg: ScenarioConfig) -> float:
    """Satellite-to-UAV downlink rate in bit/s."""
    h = math.sqrt(cfg.sat_beam_gain) * cfg.sat_wavelength / (4.0 * math.pi * cfg.sat_uav_distance)
    snr = h * h * cfg.sat_tx_power / (cfg.sat_bandwidth * cfg.noise_psd)
    return cfg.sat_bandwidth * math.log2(1.0 + snr)


def channel_gain_ug(cfg: ScenarioConfig, placement: Placement, gt_index: int) -> float:
    """LoS channel gain between the UAV and one GT (inverse-square law)."""
    d = placement.slant_distance(cfg.gt_positions[gt_index])
    return cfg.ref_channel_gain / (d * d)


def rate_uav_gt(cfg: ScenarioConfig, placement: Placement,
                b_k: float, p_k: float, gt_index: int) -> float:
    """UAV-to-GT downlink rate in bit/s for a given bandwidth/power slice.

    Main-lobe antenna gain scales as ``antenna_gain_const / Theta^2``;
    sidelobes are ignored.
    """
    if p_k == 0.0:
        return 0.0
    if b_k <= 0.0:
        raise ModelError("rate undefined: zero bandwidth with positive power")
    g_k = channel_gain_ug(cfg, placement, gt_index)
    theta = placement.half_beamwidth
    snr = cfg.antenna_gain_const * g_k * p_k / (theta * theta * b_k * cfg.noise_psd)
    return b_k * math.log2(1.0 + snr)


def rate_uav_gt_at(cfg: ScenarioConfig, d2, theta, bandwidth, power):
    """:func:`rate_uav_gt` at trial placements, elementwise over arrays
    that broadcast: ``d2`` is the squared UAV-to-GT distance and ``theta``
    the half-beamwidth.  numpy's ``log2`` may round differently from
    ``math``'s in the last bit."""
    snr = (cfg.antenna_gain_const * (cfg.ref_channel_gain / d2) * power
           / (theta * theta * bandwidth * cfg.noise_psd))
    return bandwidth * np.log2(1.0 + snr)


def effective_fraction(a_sat: int, a_uav: int, rho: float) -> float:
    """Fraction of the original data the UAV must deliver to the GT:
    ``rho`` if the data was compressed anywhere upstream, else 1."""
    a = a_sat + a_uav
    return a * rho + (1 - a)


def latency_terms(cfg: ScenarioConfig, state: SolutionState) -> LatencyTerms:
    """Derive every latency term of ``state``; the only derivation outside
    the grid oracles.  An overhead is evaluated only where its GT is
    compressed.  Raises :class:`ModelError` when a UAV-compressed GT has
    no CPU share, or a GT with data to receive has no rate."""
    al = state.allocation
    kappa = cfg.cycles_per_overhead
    r_su = rate_sat_uav(cfg)
    overhead = tuple(
        cfg.overhead_curves[k].evaluate(al.ratio[k]) if a_s or a_u else 0.0
        for k, (a_s, a_u) in enumerate(zip(al.task_sat, al.task_uav)))

    t_sat = kappa * sum(
        a * overhead[k] for k, a in enumerate(al.task_sat) if a
    ) / cfg.sat_cpu
    t_tx = sum(
        (a * al.ratio[k] + (1 - a)) * cfg.data_bits[k]
        for k, a in enumerate(al.task_sat)
    ) / r_su
    t_prop = cfg.sat_uav_distance / cfg.lightspeed
    before_uav = cfg.latency_budget - t_sat - t_tx - t_prop

    bits, t_uav, rates, t_ug, totals, hop_slack = [], [], [], [], [], []
    for k in range(cfg.num_gts):
        if al.task_uav[k]:
            if al.cpu[k] <= 0.0:
                raise ModelError(f"GT {k}: UAV compression assigned with zero CPU share")
            tu = kappa * overhead[k] / al.cpu[k]
        else:
            tu = 0.0
        b_k = cfg.data_bits[k] * effective_fraction(al.task_sat[k], al.task_uav[k], al.ratio[k])
        r_k = rate_uav_gt(cfg, state.placement, al.bandwidth[k], al.power[k], k)
        if r_k <= 0.0 and b_k > 0.0:
            raise ModelError(f"GT {k}: zero UAV-GT rate with positive data")
        tg = b_k / r_k
        bits.append(b_k)
        t_uav.append(tu)
        rates.append(r_k)
        t_ug.append(tg)
        totals.append(t_sat + t_tx + t_prop + tu + tg)
        hop_slack.append(before_uav - tu)
    return LatencyTerms(r_su, t_sat, t_tx, t_prop, overhead, tuple(bits),
                        tuple(t_uav), tuple(rates), tuple(t_ug),
                        tuple(totals), tuple(hop_slack))


def latency_breakdown(cfg: ScenarioConfig, state: SolutionState) -> LatencyBreakdown:
    terms = latency_terms(cfg, state)
    return LatencyBreakdown(
        sat_compute=terms.t_sat,
        sat_uav_tx=terms.t_tx,
        sat_uav_prop=terms.t_prop,
        uav_compute=terms.t_uav,
        uav_gt_tx=terms.t_ug,
        total=terms.total,
    )


def _energy(cfg: ScenarioConfig, al: Allocation,
            terms: LatencyTerms) -> EnergyBreakdown:
    """The energy terms of a state with allocation ``al`` and ``terms``."""
    tau = cfg.comp_energy_coeff
    e_sat = tau * terms.t_sat * cfg.sat_cpu ** 3
    e_su = terms.t_tx * cfg.sat_tx_power
    e_uav = tau * sum(t * f ** 3 for t, f in zip(terms.t_uav, al.cpu))
    e_ug = sum(t * p for t, p in zip(terms.t_ug, al.power))
    return EnergyBreakdown(
        sat_compute=e_sat,
        sat_uav_comm=e_su,
        uav_compute=e_uav,
        uav_gt_comm=e_ug,
        total=e_sat + e_su + e_uav + e_ug,
    )


def energy_breakdown(cfg: ScenarioConfig, state: SolutionState) -> EnergyBreakdown:
    return _energy(cfg, state.allocation, latency_terms(cfg, state))


def _late(cfg: ScenarioConfig, terms: LatencyTerms,
          rel_tol: float = _REL_TOL) -> list[tuple[int, float]]:
    """``(GT, slack)`` of each GT whose end-to-end latency in ``terms``
    exceeds the budget by more than ``rel_tol`` of it (or is NaN)."""
    t = cfg.latency_budget
    return [(k, t - total) for k, total in enumerate(terms.total)
            if not _satisfied(t - total, t, rel_tol)]


def total_energy(cfg: ScenarioConfig, state: SolutionState) -> float:
    return energy_breakdown(cfg, state).total


def check_feasibility(cfg: ScenarioConfig, state: SolutionState,
                      rel_tol: float = _REL_TOL) -> FeasibilityReport:
    """Evaluate every constraint of the joint problem; violations are data.

    Slacks are signed: nonnegative slack means satisfied.  Several blocks
    make their constraint tight by construction (latency equalities,
    coverage at the beamwidth edge), so a slack is only flagged when it is
    negative beyond ``rel_tol`` times the constraint's own scale, or NaN.
    A state whose latency terms are undefined misses every latency
    budget.  Constraint codes: latency, power_budget, coverage, altitude,
    bandwidth_budget, cpu_budget, ratio_bounds, task_binary,
    task_exclusive, beamwidth, nonnegativity.
    """
    try:
        terms = latency_terms(cfg, state)
    except ModelError:
        terms = None
    return _report(cfg, state, terms, rel_tol)


def _report(cfg: ScenarioConfig, state: SolutionState,
            terms: LatencyTerms | None,
            rel_tol: float = _REL_TOL) -> FeasibilityReport:
    """:func:`check_feasibility` of ``state`` from its ``terms``; ``None``
    stands for undefined terms."""
    al = state.allocation
    pl = state.placement
    out: list[ConstraintViolation] = []

    def check(cond_slack: float, code: str, gt: int | None = None,
              scale: float = 1.0):
        if not _satisfied(cond_slack, scale, rel_tol):
            out.append(ConstraintViolation(code=code, gt_index=gt, slack=cond_slack))

    for k in range(cfg.num_gts):
        for name, v in (("bandwidth", al.bandwidth[k]), ("cpu", al.cpu[k]),
                        ("power", al.power[k])):
            check(v, f"nonnegativity:{name}", k)
        a_s, a_u = al.task_sat[k], al.task_uav[k]
        if a_s not in (0, 1) or a_u not in (0, 1):
            out.append(ConstraintViolation("task_binary", k, -1.0))
        check(1 - (a_s + a_u), "task_exclusive", k)
        lo = cfg.overhead_curves[k].ratio_min
        check(al.ratio[k] - lo, "ratio_bounds", k)
        check(1.0 - al.ratio[k], "ratio_bounds", k)
        check(pl.coverage_radius - pl.horizontal_distance(cfg.gt_positions[k]),
              "coverage", k, scale=pl.coverage_radius)

    check(cfg.uav_power_budget - sum(al.power), "power_budget",
          scale=cfg.uav_power_budget)
    check(cfg.uav_bandwidth_total - sum(al.bandwidth), "bandwidth_budget",
          scale=cfg.uav_bandwidth_total)
    check(cfg.uav_cpu_total - sum(al.cpu), "cpu_budget", scale=cfg.uav_cpu_total)
    check(pl.altitude - cfg.altitude_range[0], "altitude",
          scale=cfg.altitude_range[0])
    check(cfg.altitude_range[1] - pl.altitude, "altitude",
          scale=cfg.altitude_range[1])
    th_lo, th_hi = cfg.beam_range_clamped
    check(pl.half_beamwidth - th_lo, "beamwidth")
    check(th_hi - pl.half_beamwidth, "beamwidth")

    late = (_late(cfg, terms, rel_tol) if terms is not None
            else [(k, -math.inf) for k in range(cfg.num_gts)])
    out += [ConstraintViolation("latency", k, slack) for k, slack in late]

    return FeasibilityReport(violations=tuple(out))


def downlink_energy_grid(cfg: ScenarioConfig, state: SolutionState,
                         xs: np.ndarray, ys: np.ndarray):
    """UAV-to-GT energy and feasibility with the UAV moved to every
    ``(xs[i], ys[j])``, everything else held at ``state``.

    Returns ``(energy, feasible)``, two ``(len(xs), len(ys))`` arrays whose
    cells equal ``energy_breakdown(...).uav_gt_comm`` and
    ``check_feasibility(...).feasible`` of the moved state.  The
    constraints and latency terms that do not depend on the horizontal
    position are evaluated once on ``state``; only coverage and the
    UAV-to-GT hop are evaluated per cell.  Raises :class:`ModelError` where
    ``energy_breakdown`` would.
    """
    terms = latency_terms(cfg, state)
    static_ok = all(v.code in ("coverage", "latency")
                    for v in _report(cfg, state, terms).violations)
    al = state.allocation
    pl = state.placement
    cover = pl.coverage_radius
    theta = pl.half_beamwidth
    shared = terms.t_sat + terms.t_tx + terms.t_prop
    px = np.asarray(xs, dtype=float)[:, None]
    py = np.asarray(ys, dtype=float)[None, :]
    energy = np.zeros((px.shape[0], py.shape[1]))
    feasible = np.full(energy.shape, static_ok)
    for k in range(cfg.num_gts):
        gx, gy = cfg.gt_positions[k]
        horizontal = np.hypot(px - gx, py - gy)
        feasible &= _satisfied(cover - horizontal, cover)
        # latency_terms above raised unless power and bandwidth are
        # positive, so only a vanishing per-cell rate is left to reject.
        d = np.hypot(horizontal, pl.altitude)
        r_k = rate_uav_gt_at(cfg, d * d, theta, al.bandwidth[k], al.power[k])
        if np.any(r_k <= 0.0):
            raise ModelError(f"GT {k}: zero UAV-GT rate with positive data")
        t_ug = terms.bits[k] / r_k
        energy += t_ug * al.power[k]
        total = shared + terms.t_uav[k] + t_ug
        feasible &= _satisfied(cfg.latency_budget - total, cfg.latency_budget)
    return energy, feasible
