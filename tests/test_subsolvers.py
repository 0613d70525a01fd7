import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from saginpsc import algorithm, subsolvers
from saginpsc.algorithm import initialize, run_scheme
from saginpsc.oracle import (
    EmptyFeasibleError,
    enumerate_segment_choices,
    enumerate_task_assignments,
    oracle_cpu,
    oracle_power_bandwidth,
    oracle_ratio,
)
from saginpsc.physics import latency_breakdown, total_energy
from saginpsc.scenario import (
    OverheadCurve,
    default_document,
    load_scenario,
    loads_scenario,
)
from saginpsc.subsolvers import (
    InfeasibleBlockError,
    SolverOptions,
    _SegmentAdapter,
    _TaskAdapter,
    _pieces,
    _q,
    dual_subgradient,
    select_segments,
    solve_altitude_beamwidth,
    solve_cpu_allocation,
    solve_location,
    solve_power_bandwidth,
    solve_ratio_lp,
    solve_task_allocation,
)

from conftest import feasible_instances

OPTS = SolverOptions()
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-30)


class _StubAdapter:
    """Scripted residuals for exercising the dual loop in isolation."""

    def __init__(self, residual_fn):
        self.num_multipliers = 1
        self._fn = residual_fn
        self.calls = 0

    def minimize(self, mult):
        self.calls += 1
        return float(mult[0])

    def residuals(self, primal):
        return np.array([self._fn(primal)])

    def objective(self, primal):
        return primal


class _FixedPrimalAdapter:
    """Always the same feasible primal whose residuals keep the projected
    subgradient above the tolerance, so the loop runs its full budget;
    counts every call."""

    num_multipliers = 16

    def __init__(self):
        self.calls = {"minimize": 0, "residuals": 0, "objective": 0}

    def minimize(self, mult):
        self.calls["minimize"] += 1
        return ("fixed",)

    def residuals(self, primal):
        self.calls["residuals"] += 1
        return np.full(self.num_multipliers, 0.5 * OPTS.dual_tolerance)

    def objective(self, primal):
        self.calls["objective"] += 1
        return 1.0


def reference_dual_subgradient(adapter, opts):
    """The dual loop with every iterate scored afresh (the sequential
    reference for ``dual_subgradient``)."""
    mult = np.zeros(adapter.num_multipliers)
    best_primal = None
    best_obj = math.inf
    primal = None
    t = 0
    for t in range(1, opts.dual_max_iters + 1):
        primal = adapter.minimize(mult)
        res = np.asarray(adapter.residuals(primal), dtype=float)
        if np.all(res <= opts.dual_tolerance):
            obj = adapter.objective(primal)
            if obj < best_obj:
                best_obj = obj
                best_primal = primal
        projected = np.where(mult > 0.0, res, np.maximum(res, 0.0))
        if float(np.linalg.norm(projected)) < opts.dual_tolerance:
            break
        step = opts.dual_step_scale / math.sqrt(t)
        mult = np.maximum(0.0, mult + step * res)
    if best_primal is not None:
        return best_primal, mult, t, True
    return primal, mult, t, False


def _assignment_rule(a_sat_coef, a_uav_coef):
    """Reference per-GT assignment for a linear Lagrangian: pick the
    negative coefficient, or the more negative one when both are.  ``None``
    for the UAV coefficient means UAV compression is unavailable."""
    if a_uav_coef is None:
        return (1, 0) if a_sat_coef < 0.0 else (0, 0)
    if a_sat_coef >= 0.0 and a_uav_coef >= 0.0:
        return (0, 0)
    if a_sat_coef >= 0.0 or (a_uav_coef < a_sat_coef < 0.0):
        return (0, 1)
    return (1, 0)


def reference_task_minimize(adapter, mult):
    """Per-GT scalar loop over the satellite and UAV coefficients."""
    out = []
    for k in range(len(mult)):
        a_s = adapter.obj[k, 1] + mult[k] * adapter.lat[k, 1]
        if adapter.obj[k, 2] == math.inf:
            a_u = None
        else:
            a_u = adapter.obj[k, 2] + mult[k] * adapter.lat[k, 2]
        out.append(_assignment_rule(a_s, a_u))
    return tuple(zip(*out))


def reference_segment_minimize(adapter, mult):
    """Per-GT scan of the unpadded score row, shallowest segment on ties."""
    chosen = []
    for k, mids in enumerate(adapter.mids):
        scores = [adapter.score0[k, d] + mult[k] * adapter.score_lat[k, d]
                  for d in range(len(mids))]
        chosen.append(min(range(len(scores)), key=lambda d: (scores[d], d)))
    return tuple(chosen)


def _task_table_adapter(sat, uav):
    """Task adapter over given Lagrangian coefficients: ``sat`` and ``uav``
    are per-GT ``(objective, latency)`` pairs, ``None`` for no UAV share."""
    adapter = object.__new__(_TaskAdapter)
    adapter.obj = np.array([[0.0, s[0], math.inf if u is None else u[0]]
                            for s, u in zip(sat, uav)])
    adapter.lat = np.array([[0.0, s[1], 0.0 if u is None else u[1]]
                            for s, u in zip(sat, uav)])
    return adapter


def _segment_instances():
    """Real segment adapters: random compressed states, a state with no
    compression (all-zero rows), and curves of 1, 2 and 3 segments."""
    out = [_SegmentAdapter(cfg, state, _pieces(cfg, state))
           for cfg, state in feasible_instances(4, start_seed=0, num_gts=3)]
    cfg, state = feasible_instances(1, start_seed=50, num_gts=3)[0]
    curves = (OverheadCurve(slopes=(-1.0e7,), intercepts=(2.2e7,),
                            boundaries=(0.25,)),
              OverheadCurve(slopes=(-1.0e7, -4.0e7), intercepts=(2.2e7, 4.4e7),
                            boundaries=(0.70, 0.25)),
              cfg.overhead_curves[2])
    uneven = replace(cfg, overhead_curves=curves)
    out.append(_SegmentAdapter(uneven, state, _pieces(uneven, state)))
    bare = replace(state, allocation=replace(
        state.allocation, task_sat=(0, 0, 0), task_uav=(0, 0, 0)))
    out.append(_SegmentAdapter(cfg, bare, _pieces(cfg, bare)))
    return out


class TestDualSubgradient:
    def test_zero_residual_returns_immediately(self):
        adapter = _StubAdapter(lambda p: 0.0)
        primal, mult, steps, feasible = dual_subgradient(adapter, OPTS)
        assert feasible
        assert steps == 1
        assert mult[0] == 0.0

    def test_constant_violation_exhausts_budget_with_flag(self):
        adapter = _StubAdapter(lambda p: 1.0)
        primal, mult, steps, feasible = dual_subgradient(adapter, OPTS)
        assert not feasible
        assert steps == OPTS.dual_max_iters
        # multiplier accumulated the diminishing-step series on the
        # constant unit residual
        expected = sum(1.0 / math.sqrt(t)
                       for t in range(1, OPTS.dual_max_iters + 1))
        assert mult[0] == pytest.approx(expected, rel=1e-12)

    def test_best_feasible_iterate_is_kept(self):
        # Residual flips sign as the multiplier grows; the loop must
        # return the lowest-objective iterate among the feasible ones.
        adapter = _StubAdapter(lambda p: 1.0 if p < 0.5 else -1.0)
        primal, mult, steps, feasible = dual_subgradient(adapter, OPTS)
        assert feasible
        assert primal >= 0.5

    def test_repeated_primal_is_scored_once(self):
        adapter = _FixedPrimalAdapter()
        primal, mult, steps, feasible = dual_subgradient(adapter, OPTS)
        assert steps == OPTS.dual_max_iters
        assert adapter.calls == {"minimize": OPTS.dual_max_iters,
                                 "residuals": 1, "objective": 1}
        ref = reference_dual_subgradient(_FixedPrimalAdapter(), OPTS)
        assert (primal, steps, feasible) == (ref[0], ref[2], ref[3])
        assert np.array_equal(mult, ref[1])

    def test_matches_sequential_reference_on_block_adapters(self):
        adapters = [_StubAdapter(lambda p: 1.0),
                    _StubAdapter(lambda p: 1.0 if p < 0.5 else -1.0)]
        for cfg, state in feasible_instances(6, start_seed=0, num_gts=3):
            adapters.append(_TaskAdapter(cfg, state, _pieces(cfg, state)))
        adapters += _segment_instances()
        for adapter in adapters:
            got = dual_subgradient(adapter, OPTS)
            ref = reference_dual_subgradient(adapter, OPTS)
            assert (got[0], got[2], got[3]) == (ref[0], ref[2], ref[3])
            assert np.array_equal(got[1], ref[1])


class TestTableMinimize:
    def test_task_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        adapters = [_TaskAdapter(cfg, state, _pieces(cfg, state))
                    for cfg, state in feasible_instances(6, start_seed=0,
                                                         num_gts=4)]
        # Exact ties for every multiplier: satellite equal to UAV, and
        # satellite equal to leaving the GT uncompressed.
        adapters.append(_task_table_adapter(
            [(-1.0, 0.5), (0.0, 0.0), (-2.0, 1.0), (3.0, -1.0)],
            [(-1.0, 0.5), None, (-2.0, 1.0), None]))
        for adapter in adapters:
            k = adapter.obj.shape[0]
            for mult in [np.zeros(k)] + [rng.exponential(s, size=k)
                                         for s in (1e-6, 1e-3, 1.0, 1e3)
                                         for _ in range(10)]:
                assert adapter.minimize(mult) == reference_task_minimize(
                    adapter, mult)

    def test_segment_matches_scalar_reference(self):
        rng = np.random.default_rng(6)
        for adapter in _segment_instances():
            k = len(adapter.mids)
            for mult in [np.zeros(k)] + [rng.exponential(s, size=k)
                                         for s in (1e-6, 1e-3, 1.0, 1e3)
                                         for _ in range(10)]:
                assert adapter.minimize(mult) == reference_segment_minimize(
                    adapter, mult)


class TestTaskAllocation:
    def test_assignment_rule_tie_break(self):
        for (a_s, a_u), expected in [((0.0, 0.0), (0, 0)),
                                     ((-1.0, None), (1, 0)),
                                     ((1.0, None), (0, 0)),
                                     ((1.0, -1.0), (0, 1)),
                                     ((-1.0, -2.0), (0, 1)),
                                     ((-2.0, -1.0), (1, 0)),
                                     ((-1.0, -1.0), (1, 0)),
                                     ((0.0, None), (0, 0)),
                                     ((-0.0, -0.0), (0, 0))]:
            assert _assignment_rule(a_s, a_u) == expected
            adapter = _task_table_adapter(
                [(a_s, 0.0)], [None if a_u is None else (a_u, 0.0)])
            task_sat, task_uav = adapter.minimize(np.zeros(1))
            assert (task_sat[0], task_uav[0]) == expected

    def test_output_is_binary_and_exclusive(self):
        for cfg, state in feasible_instances(5, start_seed=0):
            a_s, a_u, feasible = solve_task_allocation(cfg, state, OPTS)
            for s, u in zip(a_s, a_u):
                assert s in (0, 1) and u in (0, 1)
                assert s + u <= 1

    def test_matches_enumeration_on_random_instances(self):
        for cfg, state in feasible_instances(10, start_seed=0):
            a_s, a_u, feasible = solve_task_allocation(cfg, state, OPTS)
            try:
                e_s, e_u, e_obj = enumerate_task_assignments(cfg, state)
            except EmptyFeasibleError:
                assert not feasible
                continue
            if (a_s, a_u) != (e_s, e_u):
                cand = replace(state, allocation=replace(
                    state.allocation, task_sat=a_s, task_uav=a_u))
                assert feasible
                assert rel(total_energy(cfg, cand), e_obj) < 1e-9

    def test_never_worsens_input(self):
        for cfg, state in feasible_instances(5, start_seed=20):
            a_s, a_u, _ = solve_task_allocation(cfg, state, OPTS)
            cand = replace(state, allocation=replace(
                state.allocation, task_sat=a_s, task_uav=a_u))
            assert total_energy(cfg, cand) <= total_energy(cfg, state) * (1 + 1e-9)


class TestSegmentSelection:
    def test_exactly_one_active_segment_per_gt(self):
        for cfg, state in feasible_instances(5, start_seed=0):
            choice, feasible = select_segments(cfg, state, OPTS)
            for k, row in enumerate(choice.alpha):
                assert sum(row) == 1
                assert row[choice.chosen_segment[k]] == 1

    def test_matches_enumeration_on_random_instances(self):
        for cfg, state in feasible_instances(10, start_seed=0):
            choice, feasible = select_segments(cfg, state, OPTS)
            try:
                e_combo, e_rho, e_obj = enumerate_segment_choices(cfg, state)
            except EmptyFeasibleError:
                assert not feasible
                continue
            if choice.chosen_segment != e_combo and feasible:
                rho = tuple(choice.midpoints[k][choice.chosen_segment[k]]
                            for k in range(cfg.num_gts))
                cand = replace(state, allocation=replace(
                    state.allocation, ratio=rho))
                assert rel(total_energy(cfg, cand), e_obj) < 1e-9


class TestRatioLp:
    def test_matches_grid_reference(self):
        for cfg, state in feasible_instances(10, start_seed=0):
            segs = tuple(
                cfg.overhead_curves[k].segment_of(state.allocation.ratio[k])
                for k in range(cfg.num_gts))
            choice, _ = select_segments(cfg, state, OPTS)
            choice = replace(choice, chosen_segment=segs)
            ratios, clean = solve_ratio_lp(cfg, state, choice, OPTS)
            sol = oracle_ratio(cfg, state, segs)
            assert rel(sol.evaluate(ratios), sol.value) < 1e-6

    def test_uninfluenced_violated_rows_reported_not_fatal(self):
        # With no compression anywhere the latency rows have all-zero
        # coefficients; a violated budget is then someone else's problem.
        cfg = loads_scenario(default_document())
        state = initialize(cfg)
        choice, _ = select_segments(cfg, state, OPTS)
        ratios, clean = solve_ratio_lp(cfg, state, choice, OPTS)
        assert not clean
        lo, _ = cfg.overhead_curves[0].segment_bounds(choice.chosen_segment[0])
        assert ratios == (lo,) * cfg.num_gts

    def test_contradictory_rows_raise(self):
        cfg = loads_scenario(default_document())
        state = initialize(cfg)
        state = replace(state, allocation=replace(
            state.allocation, task_sat=(1, 0, 0, 0)))
        choice, _ = select_segments(cfg, state, OPTS)
        with pytest.raises(InfeasibleBlockError, match="ratio"):
            solve_ratio_lp(cfg, state, choice, OPTS)


class TestCpuAllocation:
    def test_latency_exactly_tight_for_active_gts(self):
        for cfg, state in feasible_instances(10, start_seed=0):
            if not any(state.allocation.task_uav):
                continue
            cpu = solve_cpu_allocation(cfg, state)
            cand = replace(state, allocation=replace(state.allocation, cpu=cpu))
            lat = latency_breakdown(cfg, cand).total
            for k in range(cfg.num_gts):
                if state.allocation.task_uav[k]:
                    assert rel(lat[k], cfg.latency_budget) < 1e-12
                else:
                    assert cpu[k] == 0.0

    def test_matches_grid_reference(self):
        for cfg, state in feasible_instances(6, start_seed=0):
            if not any(state.allocation.task_uav):
                continue
            cpu = solve_cpu_allocation(cfg, state)
            cand = replace(state, allocation=replace(state.allocation, cpu=cpu))
            sol = oracle_cpu(cfg, cand)
            if sol.value > 0:
                assert rel(sol.evaluate(cpu), sol.value) < 1e-4

    def test_no_latency_slack_raises(self):
        cfg = loads_scenario(default_document())
        state = initialize(cfg)
        state = replace(state, allocation=replace(
            state.allocation, task_uav=(1, 0, 0, 0),
            cpu=(cfg.uav_cpu_total, 0.0, 0.0, 0.0), ratio=(0.4, 1.0, 1.0, 1.0)))
        with pytest.raises(InfeasibleBlockError, match="no latency left"):
            solve_cpu_allocation(cfg, state)

    def test_cpu_budget_exceeded_raises(self):
        for cfg, state in feasible_instances(10, start_seed=0):
            if not any(state.allocation.task_uav):
                continue
            tiny = replace(cfg, uav_cpu_total=1e3)
            with pytest.raises(InfeasibleBlockError, match="budget"):
                solve_cpu_allocation(tiny, state)
            break


class TestPowerBandwidth:
    def test_bandwidth_budget_tight_and_latency_equalities(self):
        for cfg, state in feasible_instances(10, start_seed=0):
            bw, pw = solve_power_bandwidth(cfg, state, OPTS)
            assert rel(sum(bw), cfg.uav_bandwidth_total) < 1e-12
            assert sum(pw) <= cfg.uav_power_budget * (1 + 1e-9)
            cand = replace(state, allocation=replace(
                state.allocation, bandwidth=bw, power=pw))
            lat = latency_breakdown(cfg, cand).total
            for t in lat:
                assert rel(t, cfg.latency_budget) < 1e-9

    def test_matches_grid_reference(self):
        for cfg, state in feasible_instances(5, start_seed=0):
            bw, pw = solve_power_bandwidth(cfg, state, OPTS)
            cand = replace(state, allocation=replace(
                state.allocation, bandwidth=bw, power=pw))
            sol = oracle_power_bandwidth(cfg, cand)
            assert rel(sol.evaluate(bw), sol.value) < 1e-4

    def test_no_downlink_slack_raises(self):
        cfg = loads_scenario(default_document())
        state = initialize(cfg)  # uncompressed 64 KB x4 overruns the budget
        with pytest.raises(InfeasibleBlockError, match="no latency left"):
            solve_power_bandwidth(cfg, state, OPTS)

    def test_never_worsens_input(self):
        for cfg, state in feasible_instances(5, start_seed=30):
            bw, pw = solve_power_bandwidth(cfg, state, OPTS)
            cand = replace(state, allocation=replace(
                state.allocation, bandwidth=bw, power=pw))
            assert total_energy(cfg, cand) <= total_energy(cfg, state) * (1 + 1e-9)


class TestAltitudeBeamwidth:
    def test_altitude_identity_exact(self):
        for cfg, state in feasible_instances(10, start_seed=0):
            h, theta = solve_altitude_beamwidth(cfg, state, OPTS)
            l_max = max(state.placement.horizontal_distance(p)
                        for p in cfg.gt_positions)
            assert h == max(cfg.altitude_range[0], l_max / math.tan(theta))

    def test_within_bounds_and_never_worsens(self):
        for cfg, state in feasible_instances(5, start_seed=0):
            h, theta = solve_altitude_beamwidth(cfg, state, OPTS)
            lo, hi = cfg.beam_range_clamped
            assert lo <= theta <= hi
            assert cfg.altitude_range[0] <= h <= cfg.altitude_range[1]
            cand = replace(state, placement=replace(
                state.placement, altitude=h, half_beamwidth=theta))
            assert total_energy(cfg, cand) <= total_energy(cfg, state) * (1 + 1e-9)

    def test_no_downlink_slack_raises(self):
        cfg = loads_scenario(default_document())
        state = initialize(cfg)
        with pytest.raises(InfeasibleBlockError):
            solve_altitude_beamwidth(cfg, state, OPTS)


class TestLocation:
    def test_single_gt_sits_on_the_gt(self):
        # Every distance-dependent term improves toward the only GT.
        doc = default_document(num_gts=1, data_kib=16.0)
        doc["gt_positions"] = [[120.0, -40.0]]
        cfg = loads_scenario(doc)
        state = initialize(cfg)
        state = replace(state, placement=replace(
            state.placement, uav_xy=(80.0, 0.0), half_beamwidth=1.0),
            allocation=replace(state.allocation, task_sat=(1,), ratio=(0.3,)))
        xy, obj = solve_location(cfg, state, OPTS)
        assert xy[0] == pytest.approx(120.0, abs=1.0)
        assert xy[1] == pytest.approx(-40.0, abs=1.0)

    def test_mirrored_gts_respect_the_symmetry_axis(self):
        # With identical GTs at (+-150, 0) the objective is symmetric in
        # x and unimodal in y, so the solution sits on y = 0 and beats
        # the midpoint (which at low altitude is a local maximum: the
        # UAV prefers to hover near one of the GTs).
        doc = default_document(num_gts=2, data_kib=16.0)
        doc["gt_positions"] = [[150.0, 0.0], [-150.0, 0.0]]
        cfg = loads_scenario(doc)
        state = initialize(cfg)
        state = replace(state, placement=replace(
            state.placement, uav_xy=(10.0, 0.0), half_beamwidth=1.35),
            allocation=replace(state.allocation, task_sat=(1, 1),
                               ratio=(0.3, 0.3)))
        xy, obj = solve_location(cfg, state, OPTS)
        assert xy[1] == pytest.approx(0.0, abs=2.0)
        mid = replace(state, placement=replace(state.placement,
                                               uav_xy=(0.0, 0.0)))
        best = replace(state, placement=replace(state.placement, uav_xy=xy))
        assert total_energy(cfg, best) <= total_energy(cfg, mid)

    def test_empty_disk_raises(self):
        for cfg, state in feasible_instances(1, start_seed=0):
            starved = replace(state, allocation=replace(
                state.allocation,
                power=tuple(1e-15 for _ in state.allocation.power)))
            with pytest.raises(InfeasibleBlockError):
                solve_location(cfg, starved, OPTS)

    def test_never_worsens_input(self):
        for cfg, state in feasible_instances(5, start_seed=40):
            xy, obj = solve_location(cfg, state, OPTS)
            cand = replace(state, placement=replace(state.placement, uav_xy=xy))
            assert total_energy(cfg, cand) <= total_energy(cfg, state) * (1 + 1e-9)


def dense_score_inside_disks(score, px, py, xs, ys, limit):
    """The location search's scoring before the disk filter came first:
    every (point, GT) pair is scored, then points outside a disk are
    masked to +inf."""
    d2 = ((px[:, None] - xs[None, :]) ** 2
          + (py[:, None] - ys[None, :]) ** 2)
    inside = np.all(d2 <= limit[None, :], axis=1)
    obj = score(d2)
    obj[~inside] = np.inf
    return obj


def _location_outcome(cfg, state):
    try:
        return repr(solve_location(cfg, state, OPTS))
    except InfeasibleBlockError as exc:
        return f"InfeasibleBlockError: {exc}"


def _solve_location_calls(cfg):
    """The ``(cfg, state)`` of every ``solve_location`` call of one
    ``sagin_psc`` solve."""
    calls = []

    def record(cfg, state, opts):
        calls.append((cfg, state))
        return solve_location(cfg, state, opts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algorithm, "solve_location", record)
        run_scheme(cfg, "sagin_psc")
    return calls


def _scale_config(num_gts=256):
    """Default scenario at ``num_gts`` terminals with the shared resources
    scaled by K/4 and the satellite beam 10*log10(K/4) + 3 dB stronger,
    so the solve stays feasible as it scales."""
    doc = default_document(num_gts=num_gts, seed=1)
    factor = num_gts / 4
    doc["sat_beam_gain_db"] += 10.0 * math.log10(factor) + 3.0
    for key in ("sat_cpu", "uav_cpu_total", "uav_bandwidth_total",
                "uav_power_budget"):
        doc[key] *= factor
    return loads_scenario(doc)


class TestFilteredLocationSearch:
    def test_matches_dense_reference_bit_for_bit(self, monkeypatch):
        # Random instances (widened beams leave interior points), the
        # states both shipped solves hand to the block, and a K=256
        # solve's states, where the tight latency disks leave no grid
        # point inside all of them.
        cases = list(feasible_instances(100, start_seed=0))
        for name in ("default.json", "heatmap_unequal.json"):
            cases += _solve_location_calls(load_scenario(SCENARIOS / name))
        cases += _solve_location_calls(_scale_config())
        assert len(cases) > 100

        filtered = [_location_outcome(cfg, state) for cfg, state in cases]
        grids = []

        def reference(score, px, py, xs, ys, limit):
            obj = dense_score_inside_disks(score, px, py, xs, ys, limit)
            if px.size > 1:
                grids.append(int(np.isfinite(obj).sum()))
            return obj

        monkeypatch.setattr(subsolvers, "_score_inside_disks", reference)
        dense = [_location_outcome(cfg, state) for cfg, state in cases]
        assert filtered == dense
        assert any(n > 0 for n in grids)
        assert any(n == 0 for n in grids)

    def test_filter_matches_dense_scores_on_random_points(self):
        # Disks of radius 150..500 around centres within 200 of the
        # origin: some draws leave points inside all of them, some none.
        rng = np.random.default_rng(5)
        counts = []
        for _ in range(40):
            k = int(rng.integers(1, 40))
            xs, ys = rng.uniform(-200, 200, size=(2, k))
            limit = rng.uniform(150, 500, size=k) ** 2
            px, py = rng.uniform(-400, 400, size=(2, 2000))

            def score(d2):
                return np.sum(np.log2(1.0 + 1e6 / (d2 + 1e4)), axis=1)

            got = subsolvers._score_inside_disks(score, px, py, xs, ys, limit)
            want = dense_score_inside_disks(score, px, py, xs, ys, limit)
            assert got.tobytes() == want.tobytes()
            counts.append(int(np.isfinite(got).sum()))
        assert 0 in counts and max(counts) > 0


@given(st.floats(min_value=1e3, max_value=1e7),
       st.floats(min_value=1e3, max_value=1e7),
       st.floats(min_value=1e3, max_value=1e7))
def test_power_curve_is_decreasing_and_convex_in_bandwidth(u, b1, b2):
    # q(b) = b (2^(u/b) - 1): needed transmit power falls as the channel
    # widens, and the tradeoff is convex.
    lo, hi = sorted((b1, b2))
    if lo == hi:
        return
    assert _q(u, lo) >= _q(u, hi) * (1 - 1e-12)
    mid = 0.5 * (lo + hi)
    chord = 0.5 * (_q(u, lo) + _q(u, hi))
    assert _q(u, mid) <= chord * (1 + 1e-9)
