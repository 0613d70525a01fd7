"""Problem instances: physical parameters, GT placement, and overhead curves.

A scenario bundles every constant of the model: the satellite-to-UAV link
budget, the UAV-to-GT channel, per-GT data sizes and positions, the
computation-overhead curves, and all resource/latency budgets.  Scenarios
are immutable after construction and safe to share across solver runs.

Scenario documents are plain JSON.  Fields that are conventionally quoted
in non-SI units carry a unit suffix in the document (``data_bytes``,
``sat_beam_gain_db``, ``noise_psd_dbm_hz``) and are converted to SI on
load; everything else is SI already (Hz, W, m, s, radians, cycles).
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Sequence

__all__ = [
    "ScenarioError",
    "OverheadCurve",
    "ScenarioConfig",
    "default_overhead_curve",
    "default_document",
    "load_scenario",
    "loads_scenario",
    "scenario_to_document",
    "generate_gt_positions",
]

SPEED_OF_LIGHT = 2.99792458e8

# Working half-beamwidth range is clamped away from the degenerate
# endpoints 0 and pi/2 (tan(0) = 0 forbids any coverage).
BEAMWIDTH_CLAMP = 1e-3


class ScenarioError(ValueError):
    """A scenario document failed parsing or invariant validation."""


def _require(cond: bool, field_name: str, rule: str) -> None:
    if not cond:
        raise ScenarioError(f"{field_name}: {rule}")


@dataclass(frozen=True)
class OverheadCurve:
    """Piecewise-linear computation overhead as a function of the
    compression ratio.

    Segment ``d`` (0-based here) is the line ``slopes[d] * rho +
    intercepts[d]`` on the half-open interval ``(boundaries[d],
    boundaries[d-1]]``, with an implicit upper boundary of 1 for the first
    segment.  The last segment is closed below, so the curve's domain is
    ``[boundaries[-1], 1]``.  Slopes are negative (deeper compression costs
    more) and their magnitude grows toward small ratios.
    """

    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]
    boundaries: tuple[float, ...]

    def __post_init__(self):
        d = len(self.slopes)
        _require(d >= 1, "overhead_curve", "needs at least one segment")
        _require(
            len(self.intercepts) == d and len(self.boundaries) == d,
            "overhead_curve",
            "slopes, intercepts, boundaries must have equal length",
        )
        for a in self.slopes:
            _require(a < 0, "overhead_curve.slopes", "every slope must be negative")
        for b in self.intercepts:
            _require(b > 0, "overhead_curve.intercepts", "every intercept must be positive")
        bounds = (1.0,) + self.boundaries
        for lo, hi in zip(bounds[1:], bounds[:-1]):
            _require(0.0 < lo < hi, "overhead_curve.boundaries",
                     "boundaries not strictly decreasing within (0, 1)")
        for a_prev, a_next in zip(self.slopes, self.slopes[1:]):
            _require(abs(a_prev) <= abs(a_next), "overhead_curve.slopes",
                     "slope magnitude must be nondecreasing toward small ratios")
        # Positivity over the whole domain: each segment is decreasing in
        # the ratio, so its minimum sits at the segment's upper ratio end.
        for idx in range(d):
            hi = 1.0 if idx == 0 else self.boundaries[idx - 1]
            _require(self.slopes[idx] * hi + self.intercepts[idx] > 0,
                     "overhead_curve", "overhead must be strictly positive on its domain")

    @property
    def num_segments(self) -> int:
        return len(self.slopes)

    @property
    def ratio_min(self) -> float:
        return self.boundaries[-1]

    def segment_bounds(self, d: int) -> tuple[float, float]:
        """(lower, upper) ratio bounds of 0-based segment ``d``."""
        upper = 1.0 if d == 0 else self.boundaries[d - 1]
        return self.boundaries[d], upper

    def midpoint(self, d: int) -> float:
        lo, hi = self.segment_bounds(d)
        return 0.5 * (lo + hi)

    def segment_of(self, rho: float) -> int:
        """0-based segment index containing ``rho``.

        The lookup is exhaustive and exclusive on ``[ratio_min, 1]``: the
        ratio belongs to segment ``d`` when ``boundaries[d] < rho``, except
        that the domain minimum itself belongs to the last segment.
        """
        if not (self.ratio_min <= rho <= 1.0):
            raise ScenarioError(
                f"ratio {rho} outside overhead domain [{self.ratio_min}, 1]")
        for d, lower in enumerate(self.boundaries):
            if rho > lower:
                return d
        return self.num_segments - 1

    def evaluate(self, rho: float) -> float:
        d = self.segment_of(rho)
        return self.slopes[d] * rho + self.intercepts[d]

    def evaluate_on(self, rho: float, d: int) -> float:
        """Value of segment ``d``'s line at ``rho`` (no domain check)."""
        return self.slopes[d] * rho + self.intercepts[d]


def default_overhead_curve() -> OverheadCurve:
    """Three-segment default curve, in CPU cycles (unit overhead factor 1).

    Calibrated so that deep compression of the default data volume stays
    inside the latency budget even at half the default satellite CPU,
    while the compute energy remains a visible fraction of the
    satellite-link energy.
    """
    return OverheadCurve(
        slopes=(-1.0e7, -4.0e7, -1.1e8),
        intercepts=(2.2e7, 4.4e7, 7.6e7),
        boundaries=(0.70, 0.45, 0.25),
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated, SI-unit problem instance.

    All gains are linear, noise is W/Hz, data sizes are bits, angles are
    radians.  ``beam_range_clamped`` is the working half-beamwidth range
    used by the solver.
    """

    num_gts: int
    data_bits: tuple[float, ...]
    gt_positions: tuple[tuple[float, float], ...]
    sat_uav_distance: float
    sat_beam_gain: float
    sat_wavelength: float
    sat_bandwidth: float
    sat_tx_power: float
    noise_psd: float
    ref_channel_gain: float
    antenna_gain_const: float
    comp_energy_coeff: float
    cycles_per_overhead: float
    sat_cpu: float
    uav_cpu_total: float
    latency_budget: float
    uav_power_budget: float
    uav_bandwidth_total: float
    altitude_range: tuple[float, float]
    beamwidth_range: tuple[float, float]
    overhead_curves: tuple[OverheadCurve, ...]
    lightspeed: float = SPEED_OF_LIGHT

    def __post_init__(self):
        _require(self.num_gts >= 1, "num_gts", "must be at least 1")
        positives = [
            ("sat_uav_distance", self.sat_uav_distance),
            ("sat_beam_gain", self.sat_beam_gain),
            ("sat_wavelength", self.sat_wavelength),
            ("sat_bandwidth", self.sat_bandwidth),
            ("sat_tx_power", self.sat_tx_power),
            ("noise_psd", self.noise_psd),
            ("ref_channel_gain", self.ref_channel_gain),
            ("antenna_gain_const", self.antenna_gain_const),
            ("comp_energy_coeff", self.comp_energy_coeff),
            ("cycles_per_overhead", self.cycles_per_overhead),
            ("sat_cpu", self.sat_cpu),
            ("uav_cpu_total", self.uav_cpu_total),
            ("latency_budget", self.latency_budget),
            ("uav_power_budget", self.uav_power_budget),
            ("uav_bandwidth_total", self.uav_bandwidth_total),
            ("lightspeed", self.lightspeed),
        ] + [("data_bits", bits) for bits in self.data_bits]
        for name, value in positives:
            _require(value > 0, name, "must be strictly positive")
        h_lo, h_hi = self.altitude_range
        _require(0 < h_lo <= h_hi, "altitude_range", "requires 0 < min <= max")
        th_lo, th_hi = self.beam_range_clamped
        _require(th_lo < th_hi, "beamwidth_range",
                 "clamped working range is empty")
        k = self.num_gts
        _require(len(self.data_bits) == k, "data_bits", f"expected {k} entries")
        _require(len(self.gt_positions) == k, "gt_positions", f"expected {k} entries")
        _require(len(self.overhead_curves) == k, "overhead_curves", f"expected {k} entries")

    @property
    def beam_range_clamped(self) -> tuple[float, float]:
        lo, hi = self.beamwidth_range
        return (max(lo, BEAMWIDTH_CLAMP), min(hi, math.pi / 2 - BEAMWIDTH_CLAMP))


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


def _number(value, name: str) -> float:
    """``value`` as a float; anything but a finite number (a ``bool``, a
    string, NaN, an infinity) is a :class:`ScenarioError` naming ``name``."""
    _require(isinstance(value, numbers.Real) and not isinstance(value, bool)
             and abs(value) <= sys.float_info.max, name,
             "must be a finite number")
    return float(value)


def _numbers(value, name: str, count: int) -> tuple[float, ...]:
    _require(isinstance(value, (list, tuple)) and len(value) == count, name,
             f"must be a list of {count} numbers")
    return tuple(_number(x, name) for x in value)


def _curve_from_document(doc, k: int) -> OverheadCurve:
    name = f"overhead_curves[{k}]"
    try:
        segments = [_numbers(s, name, 3) for s in doc["segments"]]
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"{name}: malformed segment list") from exc
    return OverheadCurve(slopes=tuple(s[0] for s in segments),
                         intercepts=tuple(s[1] for s in segments),
                         boundaries=tuple(s[2] for s in segments))


def loads_scenario(document: dict | str) -> ScenarioConfig:
    """Build a validated :class:`ScenarioConfig` from a JSON document.

    Accepts either a parsed dict or a JSON string.  dB/dBm fields are
    converted to linear/SI, data sizes from bytes to bits.  Missing
    optional fields take their documented defaults; missing required
    fields, and values that are not finite numbers of the field's shape,
    raise :class:`ScenarioError` naming the field.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ScenarioError("scenario document must be a JSON object")

    def read(name: str, default=None):
        _require(name in document or default is not None, name,
                 "required field missing")
        return document.get(name, default)

    def number(name: str, default: float | None = None) -> float:
        return _number(read(name, default), name)

    k = read("num_gts")
    _require(isinstance(k, int) and not isinstance(k, bool) and k >= 1,
             "num_gts", "must be an integer of at least 1")

    data_bytes = read("data_bytes")
    if not isinstance(data_bytes, (list, tuple)):
        data_bytes = [data_bytes] * k
    data_bits = tuple(8.0 * x for x in _numbers(data_bytes, "data_bytes", k))

    positions = read("gt_positions")
    _require(isinstance(positions, (list, tuple)), "gt_positions",
             "must be a list of [x, y] pairs")
    positions = tuple(_numbers(p, f"gt_positions[{i}]", 2)
                      for i, p in enumerate(positions))

    curves_doc = document.get("overhead_curves")
    if curves_doc is None:
        curves = tuple(default_overhead_curve() for _ in range(k))
    elif isinstance(curves_doc, dict):
        curves = tuple(_curve_from_document(curves_doc, 0) for _ in range(k))
    else:
        _require(isinstance(curves_doc, (list, tuple)) and len(curves_doc) == k,
                 "overhead_curves", f"expected {k} entries")
        curves = tuple(_curve_from_document(c, i) for i, c in enumerate(curves_doc))

    return ScenarioConfig(
        num_gts=k,
        data_bits=data_bits,
        gt_positions=positions,
        sat_uav_distance=number("sat_uav_distance"),
        sat_beam_gain=_db_to_linear(number("sat_beam_gain_db")),
        sat_wavelength=number("sat_wavelength"),
        sat_bandwidth=number("sat_bandwidth"),
        sat_tx_power=number("sat_tx_power"),
        noise_psd=_db_to_linear(number("noise_psd_dbm_hz")) * 1e-3,
        ref_channel_gain=number("ref_channel_gain"),
        antenna_gain_const=number("antenna_gain_const", 2.2846),
        comp_energy_coeff=number("comp_energy_coeff", 1e-28),
        cycles_per_overhead=number("cycles_per_overhead", 1.0),
        sat_cpu=number("sat_cpu"),
        uav_cpu_total=number("uav_cpu_total"),
        latency_budget=number("latency_budget"),
        uav_power_budget=number("uav_power_budget"),
        uav_bandwidth_total=number("uav_bandwidth_total"),
        altitude_range=_numbers(read("altitude_range"), "altitude_range", 2),
        beamwidth_range=_numbers(read("beamwidth_range"),
                                 "beamwidth_range", 2),
        lightspeed=number("lightspeed", SPEED_OF_LIGHT),
        overhead_curves=curves,
    )


def load_scenario(path) -> ScenarioConfig:
    """Load and validate a scenario from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    return loads_scenario(document)


def scenario_to_document(cfg: ScenarioConfig) -> dict:
    """Inverse of :func:`loads_scenario`: emit a document that round-trips."""
    return {
        "num_gts": cfg.num_gts,
        "data_bytes": [bits / 8.0 for bits in cfg.data_bits],
        "gt_positions": [list(p) for p in cfg.gt_positions],
        "sat_uav_distance": cfg.sat_uav_distance,
        "sat_beam_gain_db": _linear_to_db(cfg.sat_beam_gain),
        "sat_wavelength": cfg.sat_wavelength,
        "sat_bandwidth": cfg.sat_bandwidth,
        "sat_tx_power": cfg.sat_tx_power,
        "noise_psd_dbm_hz": _linear_to_db(cfg.noise_psd * 1e3),
        "ref_channel_gain": cfg.ref_channel_gain,
        "antenna_gain_const": cfg.antenna_gain_const,
        "comp_energy_coeff": cfg.comp_energy_coeff,
        "cycles_per_overhead": cfg.cycles_per_overhead,
        "sat_cpu": cfg.sat_cpu,
        "uav_cpu_total": cfg.uav_cpu_total,
        "latency_budget": cfg.latency_budget,
        "uav_power_budget": cfg.uav_power_budget,
        "uav_bandwidth_total": cfg.uav_bandwidth_total,
        "altitude_range": list(cfg.altitude_range),
        "beamwidth_range": list(cfg.beamwidth_range),
        "lightspeed": cfg.lightspeed,
        "overhead_curves": [
            {"segments": [[a, b, c] for a, b, c in
                          zip(cv.slopes, cv.intercepts, cv.boundaries)]}
            for cv in cfg.overhead_curves
        ],
    }


def generate_gt_positions(count: int, radius: float, seed: int) -> list[tuple[float, float]]:
    """Sample ``count`` positions area-uniformly over a disk of ``radius`` m.

    Deterministic for a fixed seed.  Area-uniform means the radial
    coordinate is ``radius * sqrt(u)``, not ``radius * u``.
    """
    import numpy as np

    if count < 1:
        raise ScenarioError("count must be at least 1")
    if radius <= 0:
        raise ScenarioError("radius must be positive")
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    phi = rng.random(count) * 2.0 * math.pi
    r = radius * np.sqrt(u)
    return [(float(ri * math.cos(pi)), float(ri * math.sin(pi)))
            for ri, pi in zip(r, phi)]


def default_document(num_gts: int = 4, data_kib: float = 64.0,
                     radius: float = 300.0, seed: int = 7,
                     unequal_data: bool = False) -> dict:
    """Scenario document with the default desk-scale parameter set.

    GTs are placed area-uniformly in a disk of ``radius`` m.  With
    ``unequal_data`` the per-GT data sizes are staggered around
    ``data_kib`` instead of equal.
    """
    positions = generate_gt_positions(num_gts, radius, seed)
    if unequal_data:
        factors = [0.5 + i * (1.0 / max(1, num_gts - 1)) for i in range(num_gts)]
        data_bytes = [1024.0 * data_kib * f for f in factors]
    else:
        data_bytes = [1024.0 * data_kib] * num_gts
    return {
        "num_gts": num_gts,
        "data_bytes": data_bytes,
        "gt_positions": [list(p) for p in positions],
        "sat_uav_distance": 200e3,
        "sat_beam_gain_db": 25.0,
        "sat_wavelength": 0.01,
        "sat_bandwidth": 1e9,
        "sat_tx_power": 1.0,
        "noise_psd_dbm_hz": -174.0,
        "ref_channel_gain": 1.42e-4,
        "comp_energy_coeff": 1e-28,
        "cycles_per_overhead": 1.0,
        "sat_cpu": 1e9,
        "uav_cpu_total": 0.5e9,
        "latency_budget": 0.7,
        "uav_power_budget": 1.0,
        "uav_bandwidth_total": 10e6,
        "altitude_range": [50.0, 500.0],
        "beamwidth_range": [0.0, math.pi / 2],
    }
