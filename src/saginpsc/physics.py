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
    "LatencyTerms",
    "EnergyBreakdown",
    "ConstraintViolation",
    "FeasibilityReport",
    "rate_sat_uav",
    "rate_uav_gt",
    "rate_uav_gt_at",
    "latency_terms",
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


@dataclass(frozen=True, eq=False)
class LatencyTerms:
    """Every latency term of one state, with the rates and data volumes
    they come from.

    ``r_su``, ``t_sat``, ``t_tx`` and ``t_prop`` are floats shared by all
    GTs; the arrays hold one entry per GT: ``overhead`` at its ratio (0.0
    where uncompressed), ``bits`` the UAV delivers to it, ``rate`` of its
    UAV-to-GT hop, ``total`` end-to-end latency and ``hop_slack``, the
    budget left for its hop, ``T - t_sat - t_tx - t_prop - t_uav``.
    """

    r_su: float
    t_sat: float
    t_tx: float
    t_prop: float
    overhead: np.ndarray
    bits: np.ndarray
    t_uav: np.ndarray
    rate: np.ndarray
    t_ug: np.ndarray
    total: np.ndarray
    hop_slack: np.ndarray


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


# Relative tolerance of a constraint slack (see check_feasibility).
_REL_TOL = 1e-9
# The per-GT constraints, in the order each GT's violations are listed.
_PER_GT = ("nonnegativity:bandwidth", "nonnegativity:cpu", "nonnegativity:power",
           "task_binary", "task_exclusive", "ratio_bounds", "ratio_bounds",
           "coverage")


def _satisfied(slack, scale: float):
    """Whether ``slack`` (a float or an array) is at least ``-_REL_TOL``
    times ``scale``; a NaN slack is not."""
    return slack >= -_REL_TOL * max(abs(scale), 1e-30)


def rate_sat_uav(cfg: ScenarioConfig) -> float:
    """Satellite-to-UAV downlink rate in bit/s."""
    h = math.sqrt(cfg.sat_beam_gain) * cfg.sat_wavelength / (4.0 * math.pi * cfg.sat_uav_distance)
    snr = h * h * cfg.sat_tx_power / (cfg.sat_bandwidth * cfg.noise_psd)
    return cfg.sat_bandwidth * math.log2(1.0 + snr)


def _squared_distance(cfg: ScenarioConfig, placement: Placement) -> np.ndarray:
    """Each GT's squared distance to the UAV, ``dx*dx + dy*dy + h*h``: the
    one every UAV-to-GT rate reads."""
    dxy = np.array(placement.uav_xy)[:, None] - cfg._tables.xy
    return np.add.reduce(dxy * dxy) + placement.altitude * placement.altitude


def rate_uav_gt(cfg: ScenarioConfig, placement: Placement,
                b_k: float, p_k: float, gt_index: int) -> float:
    """UAV-to-GT downlink rate in bit/s for a given bandwidth/power slice:
    :func:`rate_uav_gt_at` at one GT's squared distance."""
    if p_k == 0.0:
        return 0.0
    if b_k <= 0.0:
        raise ModelError("rate undefined: zero bandwidth with positive power")
    return float(rate_uav_gt_at(cfg, _squared_distance(cfg, placement)[gt_index],
                                placement.half_beamwidth, b_k, p_k))


def rate_uav_gt_at(cfg: ScenarioConfig, d2, theta, bandwidth, power):
    """The UAV-to-GT rate ``b * log2(1 + SNR)`` in bit/s, elementwise over
    arrays that broadcast, at squared distance ``d2`` and half-beamwidth
    ``theta``; main-lobe gain ``antenna_gain_const / theta**2``, no
    sidelobes.  Every UAV-to-GT rate of the model is evaluated here."""
    snr = (cfg.antenna_gain_const * (cfg.ref_channel_gain / d2) * power
           / (theta * theta * bandwidth * cfg.noise_psd))
    return bandwidth * np.log2(1.0 + snr)


def _overhead(cfg: ScenarioConfig, ratio: tuple, where):
    """Each GT's overhead at ``ratio`` where ``where`` holds (else 0.0), and
    the flat index of its segment as :meth:`OverheadCurve.segment_of` finds
    it (one past the last, on its line, at the domain minimum); raises
    :class:`ModelError` for the first GT in ``where`` whose ratio lies
    outside its curve's domain or is NaN."""
    tables, rho = cfg._tables, np.array(ratio, dtype=float)
    segment = tables.first + (tables.lower < rho[:, None]).argmax(axis=1)
    slope, intercept = tables.line.take(segment, axis=1)
    outside = where & (np.minimum(np.maximum(rho, tables.ratio_min), 1.0) != rho)
    if np.count_nonzero(outside):  # outside the curve's domain, or NaN
        k = int(outside.argmax())
        raise ModelError(f"ratio {ratio[k]} outside overhead domain"
                         f" [{cfg.overhead_curves[k].ratio_min}, 1]")
    return np.where(where, slope * rho + intercept, 0.0), segment


def latency_terms(cfg: ScenarioConfig, state: SolutionState) -> LatencyTerms:
    """Derive every latency term of ``state`` over the GT arrays; the only
    derivation outside the grid oracles.  Raises :class:`ModelError` for
    the first compressed GT whose ratio lies outside its curve's domain
    (an uncompressed GT's ratio is not read), then for the first GT that
    is UAV-compressed with no CPU share, or has power and no bandwidth, or
    has data to receive and no rate.  The arrays are read-only, as one
    record may be read by several blocks."""
    al, pl = state.allocation, state.placement
    a_s, a_u, ratio, cpu, bandwidth, power = v = np.array(
        (al.task_sat, al.task_uav, al.ratio, al.cpu, al.bandwidth, al.power),
        dtype=float)
    overhead = _overhead(cfg, al.ratio, np.logical_or(a_s, a_u))[0]
    # rows a_sat and a_sat + a_uav: the data forwarded over the satellite
    # link, and the data the UAV delivers (rho of it where compressed
    # upstream, else all)
    a = v[:2].cumsum(axis=0)
    forwarded, bits = (a * ratio + (1 - a)) * cfg._tables.data_bits
    r_su, kappa = rate_sat_uav(cfg), cfg.cycles_per_overhead
    t_sat = kappa * float(np.add.reduce(a_s * overhead)) / cfg.sat_cpu
    t_tx, t_prop = float(np.add.reduce(forwarded)) / r_su, cfg.sat_uav_distance / cfg.lightspeed
    uav = a_u != 0.0
    with np.errstate(all="ignore"):  # a failing GT raises below
        t_uav = np.where(uav, kappa * overhead / cpu, 0.0)
        rate = np.where(power != 0.0, rate_uav_gt_at(
            cfg, _squared_distance(cfg, pl), pl.half_beamwidth, bandwidth,
            power), 0.0)
    failed = np.array((uav & (cpu <= 0.0), (power != 0.0) & (bandwidth <= 0.0),
                       (rate <= 0.0) & (bits > 0.0)))
    if np.count_nonzero(failed):  # the first GT, by its first failure
        k = int(failed.any(axis=0).argmax())
        raise ModelError(("GT {}: UAV compression assigned with zero CPU share",
                          "rate undefined: zero bandwidth with positive power",
                          "GT {}: zero UAV-GT rate with positive data")[
                              int(failed[:, k].argmax())].format(k))
    t_ug = bits / rate
    total = t_sat + t_tx + t_prop + t_uav + t_ug
    hop_slack = cfg.latency_budget - t_sat - t_tx - t_prop - t_uav
    for per_gt in (overhead, bits, t_uav, rate, t_ug, total, hop_slack):
        per_gt.flags.writeable = False
    return LatencyTerms(r_su, t_sat, t_tx, t_prop, overhead, bits, t_uav, rate,
                        t_ug, total, hop_slack)


def _energy(cfg: ScenarioConfig, al: Allocation,
            terms: LatencyTerms) -> EnergyBreakdown:
    """The energy terms of a state with allocation ``al`` and ``terms``."""
    tau = cfg.comp_energy_coeff
    e_sat = tau * terms.t_sat * cfg.sat_cpu ** 3
    e_su = terms.t_tx * cfg.sat_tx_power
    # sum(t_uav * cpu**3) and sum(t_ug * power); float_power rounds as
    # Python's float power (np.power may not), and x**1 is x
    e_uav, e_ug = np.add.reduce(np.array((terms.t_uav, terms.t_ug)) * np.float_power(
        (al.cpu, al.power), ((3,), (1,))), axis=1).tolist()
    e_uav *= tau
    return EnergyBreakdown(e_sat, e_su, e_uav, e_ug, e_sat + e_su + e_uav + e_ug)


def energy_breakdown(cfg: ScenarioConfig, state: SolutionState) -> EnergyBreakdown:
    return _energy(cfg, state.allocation, latency_terms(cfg, state))


def _late(cfg: ScenarioConfig, terms: LatencyTerms) -> list[tuple[int, float]]:
    """``(GT, slack)`` of each GT whose end-to-end latency in ``terms``
    exceeds the budget by more than ``_REL_TOL`` of it (or is NaN)."""
    slack = cfg.latency_budget - terms.total
    met = _satisfied(slack, cfg.latency_budget)
    return ([] if np.count_nonzero(met) == met.size else
            [(k, slack[k].item()) for k in np.flatnonzero(~met).tolist()])


def total_energy(cfg: ScenarioConfig, state: SolutionState) -> float:
    return energy_breakdown(cfg, state).total


def check_feasibility(cfg: ScenarioConfig, state: SolutionState) -> FeasibilityReport:
    """Evaluate every constraint of the joint problem; violations are data.

    Slacks are signed: nonnegative slack means satisfied.  Several blocks
    make their constraint tight by construction (latency equalities,
    coverage at the beamwidth edge), so a slack is only flagged when it is
    negative beyond ``_REL_TOL`` (1e-9) times the constraint's own scale,
    or NaN.
    A state whose latency terms are undefined misses every latency
    budget.  Constraint codes: latency, power_budget, coverage, altitude,
    bandwidth_budget, cpu_budget, ratio_bounds, task_binary,
    task_exclusive, beamwidth, nonnegativity.
    """
    try:
        terms = latency_terms(cfg, state)
    except ModelError:
        terms = None
    return _report(cfg, state, terms)


def _report(cfg: ScenarioConfig, state: SolutionState,
            terms: LatencyTerms | None) -> FeasibilityReport:
    """:func:`check_feasibility` of ``state`` from its ``terms``; ``None``
    stands for undefined terms.  Violations are listed GT by GT, then the
    shared constraints, then the latency budgets."""
    al, pl, cover = state.allocation, state.placement, state.placement.coverage_radius
    tasks = np.array((al.task_sat, al.task_uav))
    shares = np.array((al.bandwidth, al.cpu, al.power))
    ratio = np.array(al.ratio, dtype=float)
    # each GT's slack per constraint of _PER_GT, in the order listed
    slacks = (*shares,
              np.where(np.logical_or(*(tasks * (tasks - 1))), -1.0, 0.0),  # 0, 1
              1 - np.add.reduce(tasks), ratio - cfg._tables.ratio_min, 1.0 - ratio,
              cover - np.hypot(*(np.array(pl.uav_xy)[:, None] - cfg._tables.xy)))
    met = _satisfied(np.array(slacks, dtype=float), 1.0)
    met[-1] = _satisfied(slacks[-1], cover)  # scaled by the radius
    out = [] if np.count_nonzero(met) == met.size else [
        ConstraintViolation(_PER_GT[c], k, slacks[c][k].item())
        for k, c in np.argwhere(~met.T).tolist()]
    (h_lo, h_hi), (th_lo, th_hi) = cfg.altitude_range, cfg.beam_range_clamped
    bandwidth, cpu, power = np.add.reduce(shares, axis=1).tolist()
    shared = (
        ("power_budget", cfg.uav_power_budget - power, cfg.uav_power_budget),
        ("bandwidth_budget", cfg.uav_bandwidth_total - bandwidth, cfg.uav_bandwidth_total),
        ("cpu_budget", cfg.uav_cpu_total - cpu, cfg.uav_cpu_total),
        ("altitude", pl.altitude - h_lo, h_lo),
        ("altitude", h_hi - pl.altitude, h_hi),
        ("beamwidth", pl.half_beamwidth - th_lo, 1.0),
        ("beamwidth", th_hi - pl.half_beamwidth, 1.0))
    out += [ConstraintViolation(code, None, slack) for code, slack, scale in shared
            if not _satisfied(slack, scale)]
    late = (_late(cfg, terms) if terms is not None
            else [(k, -math.inf) for k in range(cfg.num_gts)])
    out += [ConstraintViolation("latency", k, slack) for k, slack in late]

    return FeasibilityReport(violations=tuple(out))


def _hop_at(cfg: ScenarioConfig, state: SolutionState, terms: LatencyTerms,
            px, py):
    """UAV-to-GT energy, and whether every GT is covered and within its
    latency budget, with the UAV moved to ``(px, py)`` (arrays that
    broadcast) and everything else held at ``state``, whose latency terms
    are ``terms``.

    Returns ``(energy, met)`` in the broadcast shape: ``energy`` sums
    ``(bits / r) * p`` over the GTs as :func:`_energy` does, and ``met`` is
    :func:`_report`'s coverage test and :func:`_late`'s latency test, with
    each latency added in :func:`latency_terms`' order.  ``terms`` exists,
    so every GT has power and bandwidth; raises :class:`ModelError` where
    a moved GT's rate still vanishes."""
    pl, cover = state.placement, state.placement.coverage_radius
    bandwidth, power = np.array((state.allocation.bandwidth,
                                 state.allocation.power), dtype=float)
    dx = np.asarray(px, dtype=float)[..., None] - cfg._tables.xy[0]
    dy = np.asarray(py, dtype=float)[..., None] - cfg._tables.xy[1]
    r = rate_uav_gt_at(cfg, dx * dx + dy * dy + pl.altitude * pl.altitude,
                       pl.half_beamwidth, bandwidth, power)
    if np.count_nonzero(r <= 0.0):
        k = int((r <= 0.0).any(axis=tuple(range(r.ndim - 1))).argmax())
        raise ModelError(f"GT {k}: zero UAV-GT rate with positive data")
    t_ug = terms.bits / r
    total = terms.t_sat + terms.t_tx + terms.t_prop + terms.t_uav + t_ug
    met = np.all(_satisfied(cover - np.hypot(dx, dy), cover)
                 & _satisfied(cfg.latency_budget - total, cfg.latency_budget),
                 axis=-1)
    return np.add.reduce(t_ug * power, axis=-1), met


def downlink_energy_grid(cfg: ScenarioConfig, state: SolutionState,
                         xs: np.ndarray, ys: np.ndarray):
    """UAV-to-GT energy and feasibility with the UAV moved to every
    ``(xs[i], ys[j])``, everything else held at ``state``.

    Returns ``(energy, feasible)``, two ``(len(xs), len(ys))`` arrays whose
    cells equal ``energy_breakdown(...).uav_gt_comm`` and
    ``check_feasibility(...).feasible`` of the moved state.  Only coverage
    and the hop are evaluated per cell (:func:`_hop_at`), in ``(rows,
    len(ys), K)`` blocks of about 16k entries.  Raises :class:`ModelError`
    where ``energy_breakdown`` would.
    """
    terms = latency_terms(cfg, state)
    static_ok = all(v.code in ("coverage", "latency")
                    for v in _report(cfg, state, terms).violations)
    px, py = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    energy = np.empty((px.size, py.size))
    feasible = np.empty(energy.shape, dtype=bool)
    rows = max(1, (1 << 14) // (py.size * cfg.num_gts))
    for i in range(0, px.size, rows):
        energy[i:i + rows], met = _hop_at(cfg, state, terms,
                                          px[i:i + rows, None], py)
        feasible[i:i + rows] = static_ok & met
    return energy, feasible
