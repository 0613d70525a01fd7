import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from saginpsc.algorithm import run_scheme
from saginpsc.physics import (
    Allocation,
    ModelError,
    Placement,
    SolutionState,
    _hop_at,
    _squared_distance,
    check_feasibility,
    energy_breakdown,
    latency_terms,
    rate_sat_uav,
    rate_uav_gt,
    rate_uav_gt_at,
    total_energy,
)
from saginpsc.scenario import (
    default_document,
    load_scenario,
    loads_scenario,
)

from conftest import feasible_instances

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture()
def cfg():
    return loads_scenario(default_document())


def single_gt_cfg(offset=300.0):
    doc = default_document(num_gts=1)
    doc["gt_positions"] = [[offset, 0.0]]
    return loads_scenario(doc)


class TestRates:
    def test_sat_uav_rate_reference_value(self, cfg):
        # High-precision evaluation of the same link budget.
        assert rate_sat_uav(cfg) == pytest.approx(1813100.5605684672,
                                                  rel=1e-12)

    def test_channel_gain_inverse_square(self):
        cfg = single_gt_cfg(offset=300.0)
        pl = Placement(uav_xy=(0.0, 0.0), altitude=400.0,
                       half_beamwidth=math.pi / 4)
        # 300^2 + 400^2 = 2.5e5
        gain = cfg.ref_channel_gain / _squared_distance(cfg, pl)[0]
        assert gain == pytest.approx(1.42e-4 / 2.5e5, rel=1e-14)

    def test_uav_gt_rate_reference_value(self):
        cfg = single_gt_cfg(offset=300.0)
        pl = Placement(uav_xy=(0.0, 0.0), altitude=400.0,
                       half_beamwidth=math.pi / 4)
        r = rate_uav_gt(cfg, pl, 2.5e6, 0.25, 0)
        assert r == pytest.approx(39223557.71962295, rel=1e-12)

    def test_one_gt_rate_is_the_rate_at_its_squared_distance(self):
        # The one-GT rate is rate_uav_gt_at at d2 = dx*dx + dy*dy + h*h, to
        # the bit, over random placements, bandwidths and powers: math's
        # log2 and numpy's disagree in the last bit on about 1 draw in 1,500.
        cfg = loads_scenario(default_document(num_gts=3))
        rng = np.random.default_rng(11)
        n = 3000
        xy = rng.uniform(-400.0, 400.0, (n, 2))
        h = rng.uniform(*cfg.altitude_range, n)
        theta = rng.uniform(*cfg.beam_range_clamped, n)
        b, p = rng.uniform(1e5, 1e7, n), rng.uniform(1e-3, 1.0, n)
        k = rng.integers(cfg.num_gts, size=n)
        gt = np.array(cfg.gt_positions)[k]
        dx, dy = (xy - gt).T
        want = rate_uav_gt_at(cfg, dx * dx + dy * dy + h * h, theta, b, p)
        got = [rate_uav_gt(cfg, Placement(tuple(xy[i].tolist()), float(h[i]),
                                          float(theta[i])),
                           float(b[i]), float(p[i]), int(k[i]))
               for i in range(n)]
        assert np.array_equal(got, want)

    def test_zero_power_means_zero_rate(self):
        cfg = single_gt_cfg()
        pl = Placement((0.0, 0.0), 100.0, 0.5)
        assert rate_uav_gt(cfg, pl, 1e6, 0.0, 0) == 0.0

    def test_zero_bandwidth_with_power_is_an_error(self):
        cfg = single_gt_cfg()
        pl = Placement((0.0, 0.0), 100.0, 0.5)
        with pytest.raises(ModelError):
            rate_uav_gt(cfg, pl, 0.0, 0.5, 0)

    def test_rate_increases_with_bandwidth(self):
        # b * log2(1 + snr/b) grows with b for fixed power.
        cfg = single_gt_cfg()
        pl = Placement((0.0, 0.0), 100.0, 0.5)
        rates = [rate_uav_gt(cfg, pl, b, 0.3, 0)
                 for b in (1e5, 1e6, 5e6, 1e7)]
        assert rates == sorted(rates)


class TestEffectiveFraction:
    def test_cases(self, cfg):
        # The UAV delivers the fraction rho of a GT's data where it was
        # compressed upstream (GT 1 on the satellite, GT 2 on the UAV),
        # else all of it (GT 0).
        state = _state(cfg, task_sat=(0, 1, 0, 0), task_uav=(0, 0, 1, 0),
                       cpu=(0.0, 0.0, cfg.uav_cpu_total, 0.0),
                       ratio=(0.4,) * 4)
        bits = latency_terms(cfg, state).bits
        assert bits[0] / cfg.data_bits[0] == 1.0
        assert bits[1] / cfg.data_bits[1] == pytest.approx(0.4)
        assert bits[2] / cfg.data_bits[2] == pytest.approx(0.4)


def _state(cfg, **overrides):
    n = cfg.num_gts
    base = dict(
        bandwidth=(cfg.uav_bandwidth_total / n,) * n,
        cpu=(0.0,) * n,
        power=(cfg.uav_power_budget / n,) * n,
        ratio=(1.0,) * n,
        task_sat=(0,) * n,
        task_uav=(0,) * n,
    )
    base.update(overrides)
    pl = Placement(uav_xy=(0.0, 0.0), altitude=300.0, half_beamwidth=1.2)
    return SolutionState(placement=pl, allocation=Allocation(**base))


class TestLatency:
    def test_propagation_delay_exact(self, cfg):
        state = _state(cfg)
        lat = latency_terms(cfg, state)
        assert lat.t_prop == 200000 / 299792458

    def test_unassigned_gt_needs_no_cpu(self, cfg):
        # a * X / Y with a == 0 is 0 even when f == 0.
        lat = latency_terms(cfg, _state(cfg))
        assert lat.t_uav.tolist() == [0.0] * 4

    def test_uav_assignment_with_zero_cpu_raises(self, cfg):
        state = _state(cfg, task_uav=(1, 0, 0, 0), ratio=(0.4,) * 4)
        with pytest.raises(ModelError):
            latency_terms(cfg, state)

    def test_totals_are_componentwise_sums(self, cfg):
        state = _state(cfg, task_sat=(1, 1, 0, 0), ratio=(0.3,) * 4)
        lat = latency_terms(cfg, state)
        for k in range(4):
            expected = (lat.t_sat + lat.t_tx + lat.t_prop
                        + lat.t_uav[k] + lat.t_ug[k])
            assert lat.total[k] == expected


_NO_CPU = "GT {}: UAV compression assigned with zero CPU share"
_NO_BANDWIDTH = "rate undefined: zero bandwidth with positive power"
_NO_RATE = "GT {}: zero UAV-GT rate with positive data"


class TestLatencyTermsErrors:
    """Which error a state raises: a compressed GT's ratio outside its
    curve's domain before any other :class:`ModelError`, then the first GT
    that fails, by the first check it fails (CPU share, bandwidth, rate).  The
    default curves' domain is [0.25, 1]; the base state forwards raw data
    on equal power and bandwidth shares with no CPU share."""

    @pytest.mark.parametrize("overrides, error, message", [
        pytest.param(dict(ratio=(1.0, 0.1, 1.0, 1.0)), None, None,
                     id="uncompressed-ratio-outside-domain"),
        pytest.param(dict(task_sat=(0, 1, 0, 0), ratio=(1.0, 0.1, 1.0, 1.0)),
                     ModelError, "ratio 0.1 outside overhead domain",
                     id="compressed-ratio-outside-domain"),
        pytest.param(dict(task_uav=(1, 0, 0, 0), task_sat=(0, 0, 1, 0),
                          ratio=(0.5, 1.0, 0.1, 1.0), power=(0.25, 0.0, 0.25, 0.25)),
                     ModelError, "ratio 0.1 outside overhead domain",
                     id="domain-before-model-errors-of-lower-gts"),
        pytest.param(dict(task_uav=(0, 0, 1, 0), ratio=(1.0, 1.0, 0.5, 1.0)),
                     ModelError, _NO_CPU.format(2), id="no-cpu-share"),
        pytest.param(dict(bandwidth=(2.5e6, 0.0, 2.5e6, 2.5e6)),
                     ModelError, _NO_BANDWIDTH, id="no-bandwidth"),
        pytest.param(dict(power=(0.25, 0.25, 0.25, 0.0)),
                     ModelError, _NO_RATE.format(3), id="no-rate"),
        pytest.param(dict(task_uav=(0, 0, 1, 0), ratio=(1.0, 1.0, 0.5, 1.0),
                          power=(0.25, 0.0, 0.25, 0.25)),
                     ModelError, _NO_RATE.format(1), id="lower-gt-wins"),
        pytest.param(dict(task_uav=(0, 0, 1, 0), ratio=(1.0, 1.0, 0.5, 1.0),
                          bandwidth=(2.5e6, 2.5e6, 0.0, 2.5e6),
                          power=(0.25, 0.25, 0.25, 0.0)),
                     ModelError, _NO_CPU.format(2), id="first-failure-of-a-gt"),
    ])
    def test_error_contract(self, cfg, overrides, error, message):
        state = _state(cfg, **overrides)
        if error is None:
            terms = latency_terms(cfg, state)
            assert terms.overhead.tolist() == [0.0] * 4
            return
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            latency_terms(cfg, state)

    def test_returned_arrays_are_read_only(self, cfg):
        # The outer loop hands one record to every block it runs.
        terms = latency_terms(cfg, _state(cfg, task_sat=(1, 0, 0, 0),
                                          task_uav=(0, 1, 0, 0),
                                          cpu=(0.0, 1e8, 0.0, 0.0),
                                          ratio=(0.3, 0.5, 1.0, 1.0)))
        arrays = {name: value for name, value in vars(terms).items()
                  if isinstance(value, np.ndarray)}
        assert len(arrays) == 7
        assert [name for name, value in arrays.items()
                if value.flags.writeable] == []


class TestEnergy:
    def test_sum_check(self, cfg):
        state = _state(cfg, task_sat=(1, 0, 1, 0), ratio=(0.3,) * 4)
        eb = energy_breakdown(cfg, state)
        assert eb.total == pytest.approx(
            eb.sat_compute + eb.sat_uav_comm + eb.uav_compute + eb.uav_gt_comm,
            rel=1e-15)
        assert min(eb.sat_compute, eb.sat_uav_comm,
                   eb.uav_compute, eb.uav_gt_comm) >= 0.0

    def test_sat_compute_energy_scales_with_cpu_squared(self, cfg):
        # e_S = tau * kappa * O * F^2 per compressed GT: doubling the CPU
        # frequency quadruples the compute energy (the time shrinks 2x,
        # the per-second power grows 8x).
        state = _state(cfg, task_sat=(1, 1, 1, 1), ratio=(0.3,) * 4)
        fast = replace(cfg, sat_cpu=2.0 * cfg.sat_cpu)
        e1 = energy_breakdown(cfg, state).sat_compute
        e2 = energy_breakdown(fast, state).sat_compute
        assert e2 == pytest.approx(4.0 * e1, rel=1e-12)

    def test_sat_link_energy_proportional_to_forwarded_bits(self, cfg):
        lo = _state(cfg, task_sat=(1, 1, 1, 1), ratio=(0.25,) * 4)
        hi = _state(cfg, task_sat=(1, 1, 1, 1), ratio=(0.5,) * 4)
        r = energy_breakdown(cfg, hi).sat_uav_comm / \
            energy_breakdown(cfg, lo).sat_uav_comm
        assert r == pytest.approx(2.0, rel=1e-12)

    def test_matches_independent_evaluation_on_random_states(self):
        from saginpsc.oracle import reference_evaluation
        for cfg, state in feasible_instances(5, start_seed=100):
            e_ref, lat_ref = reference_evaluation(cfg, state)
            assert total_energy(cfg, state) == pytest.approx(e_ref, rel=1e-12)
            lat = latency_terms(cfg, state).total
            for a, b in zip(lat, lat_ref):
                assert a == pytest.approx(b, rel=1e-12)


class TestFeasibility:
    def test_clean_state_with_slack_passes(self):
        cfg, state = feasible_instances(1, start_seed=0)[0]
        assert check_feasibility(cfg, state).feasible

    def test_latency_violation_flagged(self, cfg):
        state = _state(cfg)  # no compression: transmission alone exceeds T
        report = check_feasibility(cfg, state)
        assert "latency" in report.codes()

    def test_budget_violations_flagged(self, cfg):
        n = cfg.num_gts
        state = _state(cfg, power=(cfg.uav_power_budget,) * n,
                       bandwidth=(cfg.uav_bandwidth_total,) * n)
        codes = check_feasibility(cfg, state).codes()
        assert "power_budget" in codes
        assert "bandwidth_budget" in codes

    def test_coverage_violation_flagged(self, cfg):
        state = _state(cfg)
        tight = replace(state, placement=replace(state.placement,
                                                 half_beamwidth=1e-3))
        assert "coverage" in check_feasibility(cfg, tight).codes()

    def test_altitude_bounds_flagged(self, cfg):
        state = _state(cfg)
        low = replace(state, placement=replace(state.placement, altitude=10.0))
        assert "altitude" in check_feasibility(cfg, low).codes()

    def test_ratio_bounds_flagged(self, cfg):
        state = _state(cfg, ratio=(0.1, 1.0, 1.0, 1.0))
        assert "ratio_bounds" in check_feasibility(cfg, state).codes()

    def test_exactly_tight_constraints_not_flagged(self, cfg):
        n = cfg.num_gts
        state = _state(cfg, power=(cfg.uav_power_budget / n,) * n)
        codes = check_feasibility(cfg, state).codes()
        assert "power_budget" not in codes


class TestHopAt:
    """The moved-UAV evaluator that the location block and the heatmap
    share reads every point as the model reads the moved state."""

    def test_matches_moved_states_on_random_points(self, shipped_answer):
        # Random points within 1.3 coverage radii of the UAV, around
        # states with latency slack (K = 2 and 8) and the shipped answer,
        # whose downlink latencies are tight: each point's energy is
        # ``uav_gt_comm`` of the moved state, to the bit, and it is met iff
        # ``check_feasibility`` flags neither coverage nor latency there.
        rng = np.random.default_rng(5)
        cases = (feasible_instances(10, start_seed=0)
                 + feasible_instances(5, start_seed=0, num_gts=8)
                 + [shipped_answer])
        verdicts = set()
        for cfg, state in cases:
            pl = state.placement
            radius = 1.3 * pl.coverage_radius
            px, py = (np.array(pl.uav_xy)[:, None]
                      + rng.uniform(-radius, radius, size=(2, 40)))
            energy, met = _hop_at(cfg, state, latency_terms(cfg, state), px, py)
            for x, y, e, ok in zip(px.tolist(), py.tolist(), energy.tolist(),
                                   met.tolist()):
                moved = replace(state, placement=replace(pl, uav_xy=(x, y)))
                assert e == energy_breakdown(cfg, moved).uav_gt_comm
                codes = check_feasibility(cfg, moved).codes()
                assert ok == (not codes & {"coverage", "latency"})
                verdicts.add(ok)
        assert verdicts == {True, False}


@pytest.fixture(scope="module")
def shipped_answer():
    cfg = load_scenario(SCENARIOS / "default.json")
    return cfg, run_scheme(cfg, "sagin_psc").state


def _with_nan(state, field):
    """``state`` with a NaN in one field: GT 0's power or bandwidth, the
    altitude, or the UAV's x position."""
    pl, al = state.placement, state.allocation
    if field in ("power", "bandwidth"):
        values = (math.nan,) + getattr(al, field)[1:]
        return replace(state, allocation=replace(al, **{field: values}))
    if field == "altitude":
        return replace(state, placement=replace(pl, altitude=math.nan))
    return replace(state, placement=replace(
        pl, uav_xy=(math.nan, pl.uav_xy[1])))


class TestNanState:
    @pytest.mark.parametrize("field", ["power", "bandwidth", "altitude",
                                       "uav_x"])
    def test_nan_field_is_infeasible(self, shipped_answer, field):
        cfg, state = shipped_answer
        assert check_feasibility(cfg, state).feasible
        report = check_feasibility(cfg, _with_nan(state, field))
        assert not report.feasible
        # the outer loop's repair test reads the latency code
        assert "latency" in report.codes()

    @pytest.mark.parametrize("ratio", [0.1, 1.5, math.nan])
    def test_compressed_ratio_outside_domain_is_reported(self, shipped_answer,
                                                         ratio):
        # Every GT of the shipped answer is satellite-compressed at the
        # domain minimum; a ratio outside [0.25, 1] leaves the latency
        # terms undefined, so every GT misses its budget.
        cfg, state = shipped_answer
        al = state.allocation
        assert al.task_sat == (1,) * cfg.num_gts
        assert al.ratio == (0.25,) * cfg.num_gts
        moved = replace(state, allocation=replace(
            al, ratio=(ratio,) + al.ratio[1:]))
        report = check_feasibility(cfg, moved)
        assert {(v.code, v.gt_index) for v in report.violations} == (
            {("ratio_bounds", 0)}
            | {("latency", k) for k in range(cfg.num_gts)})


@given(st.floats(min_value=1e-6, max_value=1e3),
       st.floats(min_value=1e-6, max_value=1e3))
def test_snr_to_rate_is_monotone(x, y):
    # log2(1 + x) ordering carries over to the rate for fixed bandwidth.
    cfg = single_gt_cfg()
    pl = Placement((0.0, 0.0), 100.0, 0.5)
    lo, hi = sorted((x, y))
    assert (rate_uav_gt(cfg, pl, 1e6, lo * 1e-3, 0)
            <= rate_uav_gt(cfg, pl, 1e6, hi * 1e-3, 0))
