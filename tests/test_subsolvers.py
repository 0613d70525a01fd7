import math
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from saginpsc import algorithm, subsolvers
from saginpsc.algorithm import initialize, run_blocks, run_scheme
from saginpsc.oracle import (
    EmptyFeasibleError,
    enumerate_segment_choices,
    enumerate_task_assignments,
    oracle_cpu,
    oracle_power_bandwidth,
    oracle_ratio,
)
from saginpsc.physics import (
    _REL_TOL,
    ModelError,
    _squared_distance,
    energy_breakdown,
    latency_terms,
    total_energy,
)
from saginpsc.scenario import (
    OverheadCurve,
    default_document,
    load_scenario,
    loads_scenario,
)
from saginpsc.subsolvers import (
    InfeasibleBlockError,
    SolverOptions,
    _EXP_CAP,
    _SegmentAdapter,
    _TaskAdapter,
    _least_option,
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

from conftest import feasible_instances, record_latency_terms, scale_document

OPTS = SolverOptions()
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-30)


class _TableAdapter:
    """A dual-loop adapter over given ``(K, options)`` tables, for
    exercising the loop in isolation.  ``residual_fn(choice)`` gives the K
    residuals of a choice of one option per GT, and the objective is the
    summed ``obj`` entries of the chosen options.  Counts every call of
    the adapter contract."""

    def __init__(self, obj, lat, residual_fn):
        self.obj = np.array(obj, dtype=float)
        self.lat = np.array(lat, dtype=float)
        self.num_multipliers = self.obj.shape[0]
        self._fn = residual_fn
        self.calls = {"residuals": 0, "objective": 0}

    def residuals(self, choice):
        self.calls["residuals"] += 1
        return np.array(self._fn(choice), dtype=float)

    def objective(self, choice):
        self.calls["objective"] += 1
        return float(sum(self.obj[k, c] for k, c in enumerate(choice)))


def _stub_adapter(residual_fn):
    """One GT, two options: option 0 while the multiplier is at most 0.5,
    option 1 above (``obj + m * lat`` is ``m`` against ``0.5``)."""
    return _TableAdapter([[0.0, 0.5]], [[1.0, 0.0]],
                         lambda p: [residual_fn(p[0])])


# A stopping tolerance far below the residuals of the fixed primal below.
FIXED_PRIMAL_OPTS = SolverOptions(dual_tolerance=1e-12)


def _fixed_primal_adapter():
    """Always the same feasible primal (one option per GT), with residuals
    within the model's latency tolerance; under ``FIXED_PRIMAL_OPTS`` they
    keep the projected subgradient above the stopping tolerance, so the
    loop runs its full budget."""
    return _TableAdapter(np.ones((16, 1)), np.ones((16, 1)),
                         lambda p: np.full(16, 0.5 * _REL_TOL))


def reference_dual_subgradient(adapter, opts, history=None):
    """The dual loop one step at a time, with every iterate scored afresh
    (the sequential reference for ``dual_subgradient``).  A primal is
    feasible when every residual is at most the model's ``_REL_TOL``.
    Each step's ``(t, primal, multipliers)`` is appended to ``history``
    when given."""
    mult = np.zeros(adapter.num_multipliers)
    best_primal = None
    best_obj = math.inf
    primal = None
    t = 0
    for t in range(1, opts.dual_max_iters + 1):
        choice = (adapter.obj + mult[:, None] * adapter.lat).argmin(axis=1)
        primal = tuple(choice.tolist())
        if history is not None:
            history.append((t, primal, mult))
        res = np.asarray(adapter.residuals(primal), dtype=float)
        if np.all(res <= _REL_TOL):
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


def assert_matches_reference(adapter, opts):
    got = dual_subgradient(adapter, opts)
    ref = reference_dual_subgradient(adapter, opts)
    assert repr((got[0], got[2], got[3])) == repr((ref[0], ref[2], ref[3]))
    assert np.array_equal(got[1], ref[1], equal_nan=True)
    return ref


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


def reference_segment_minimize(cfg, adapter, mult):
    """Per-GT scan of the unpadded score row, shallowest segment on ties."""
    chosen = []
    for k, curve in enumerate(cfg.overhead_curves):
        scores = [adapter.obj[k, d] + mult[k] * adapter.lat[k, d]
                  for d in range(curve.num_segments)]
        chosen.append(min(range(len(scores)), key=lambda d: (scores[d], d)))
    return tuple(chosen)


def _primal(adapter, choice):
    """A dual block's choice of option indices as the block returns it:
    ``(task_sat, task_uav)`` of a task choice (0 none, 1 satellite, 2
    UAV), or the 0-based segments of a segment choice."""
    choice = np.asarray(choice).tolist()
    if isinstance(adapter, _TaskAdapter):
        return tuple(tuple(int(c == site) for c in choice) for site in (1, 2))
    return tuple(choice)


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
    """Real segment adapters, each with its scenario: random compressed
    states, a state with no compression (all-zero rows), and curves of 1,
    2 and 3 segments."""
    out = [(cfg, _SegmentAdapter(cfg, state, latency_terms(cfg, state)))
           for cfg, state in feasible_instances(4, start_seed=0, num_gts=3)]
    cfg, state = feasible_instances(1, start_seed=50, num_gts=3)[0]
    curves = (OverheadCurve(slopes=(-1.0e7,), intercepts=(2.2e7,),
                            boundaries=(0.25,)),
              OverheadCurve(slopes=(-1.0e7, -4.0e7), intercepts=(2.2e7, 4.4e7),
                            boundaries=(0.70, 0.25)),
              cfg.overhead_curves[2])
    uneven = replace(cfg, overhead_curves=curves)
    out.append((uneven, _SegmentAdapter(uneven, state,
                                        latency_terms(uneven, state))))
    bare = replace(state, allocation=replace(
        state.allocation, task_sat=(0, 0, 0), task_uav=(0, 0, 0)))
    out.append((cfg, _SegmentAdapter(cfg, bare, latency_terms(cfg, bare))))
    return out


class TestDualSubgradient:
    def test_zero_residual_returns_immediately(self):
        adapter = _stub_adapter(lambda p: 0.0)
        primal, mult, steps, feasible = dual_subgradient(adapter, OPTS)
        assert feasible
        assert steps == 1
        assert mult[0] == 0.0

    def test_constant_violation_exhausts_budget_with_flag(self):
        adapter = _TableAdapter([[0.0]], [[1.0]], lambda p: [1.0])
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
        adapter = _stub_adapter(lambda p: 1.0 if p == 0 else -1.0)
        primal, mult, steps, feasible = dual_subgradient(adapter, OPTS)
        assert feasible
        assert primal == (1,)

    def test_repeated_primal_is_scored_once(self):
        adapter = _fixed_primal_adapter()
        primal, mult, steps, feasible = dual_subgradient(
            adapter, FIXED_PRIMAL_OPTS)
        assert steps == FIXED_PRIMAL_OPTS.dual_max_iters
        assert adapter.calls == {"residuals": 1, "objective": 1}
        ref = reference_dual_subgradient(_fixed_primal_adapter(),
                                         FIXED_PRIMAL_OPTS)
        assert (primal, steps, feasible) == (ref[0], ref[2], ref[3])
        assert np.array_equal(mult, ref[1])

    @pytest.mark.parametrize("residual, feasible", [
        (5e-7, False), (0.5 * _REL_TOL, True)])
    def test_feasible_means_within_the_model_tolerance(self, residual,
                                                       feasible):
        # A residual inside the stopping tolerance but past the model's
        # latency tolerance is late, as check_feasibility would report it.
        adapter = _TableAdapter([[0.0]], [[1.0]], lambda p: [residual])
        assert residual <= OPTS.dual_tolerance
        assert dual_subgradient(adapter, OPTS)[3] is feasible
        assert reference_dual_subgradient(adapter, OPTS)[3] is feasible

    def test_matches_sequential_reference_on_block_adapters(self):
        adapters = [_TableAdapter([[0.0]], [[1.0]], lambda p: [1.0]),
                    _stub_adapter(lambda p: 1.0 if p == 0 else -1.0)]
        for cfg, state in feasible_instances(6, start_seed=0, num_gts=3):
            adapters.append(_TaskAdapter(cfg, state, latency_terms(cfg, state)))
        adapters += [adapter for _, adapter in _segment_instances()]
        for adapter in adapters:
            assert_matches_reference(adapter, OPTS)


class TestTableMinimize:
    @staticmethod
    def _mults(rng, k):
        return [np.zeros(k)] + [rng.exponential(s, size=k)
                                for s in (1e-6, 1e-3, 1.0, 1e3)
                                for _ in range(10)]

    @staticmethod
    def _check(adapter, mults, reference):
        batch = _least_option(adapter.obj, adapter.lat, np.array(mults))
        for mult, row in zip(mults, batch):
            expected = reference(adapter, mult)
            assert _primal(adapter, _least_option(
                adapter.obj, adapter.lat, mult)) == expected
            # a batch of multiplier vectors ranks each row alike
            assert _primal(adapter, row) == expected

    def test_task_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        adapters = [_TaskAdapter(cfg, state, latency_terms(cfg, state))
                    for cfg, state in feasible_instances(6, start_seed=0,
                                                         num_gts=4)]
        # Exact ties for every multiplier: satellite equal to UAV, and
        # satellite equal to leaving the GT uncompressed.
        adapters.append(_task_table_adapter(
            [(-1.0, 0.5), (0.0, 0.0), (-2.0, 1.0), (3.0, -1.0)],
            [(-1.0, 0.5), None, (-2.0, 1.0), None]))
        for adapter in adapters:
            self._check(adapter, self._mults(rng, adapter.obj.shape[0]),
                        reference_task_minimize)

    def test_segment_matches_scalar_reference(self):
        rng = np.random.default_rng(6)
        for cfg, adapter in _segment_instances():
            self._check(adapter, self._mults(rng, cfg.num_gts),
                        partial(reference_segment_minimize, cfg))


def _switch_adapter(threshold):
    """One GT, unit residual on both options: option 0 while the
    multiplier is at most ``threshold``, option 1 above."""
    return _TableAdapter([[0.0, threshold]], [[1.0, 0.0]], lambda p: [1.0])


def _decay_adapter(res_after):
    """GT 0 leaves option 0 once its multiplier passes 3 (at step 6); GT 1
    has one option.  Both residuals are +1 before the move and
    ``res_after`` after it, so GT 1's multiplier climbs and then decays."""
    return _TableAdapter([[0.0, 3.0], [0.0, math.inf]],
                         [[1.0, 0.0], [0.0, 0.0]],
                         lambda p: [1.0, 1.0] if p[0] == 0 else res_after)


def _alternating_adapter(halves=(0.5,)):
    """Option 1 (residual -1) above the multiplier ``half`` of each GT,
    option 0 (residual +1) below it, so every primal flips back."""
    return _TableAdapter([[0.0, 2.0 * h] for h in halves],
                         [[1.0, -1.0] for _ in halves],
                         lambda p: [1.0 if c == 0 else -1.0 for c in p])


def _runs(history):
    """Steps at which the primal differs from the step before."""
    return [t for (t, p, _), (_, q, _) in zip(history[1:], history) if p != q]


def _hand_tables():
    """Tables whose dual runs hit each event of the run replay: a
    multiplier clamped to 0 and a stop in the middle of a run, a primal
    change at the second and at the last step, alternating primals, and a
    NaN residual on one option: the second option, the first, and one GT
    of two after the other GT moves."""
    last = OPTS.dual_max_iters
    entering = 0.0  # the multiplier entering step last - 1
    for t in range(1, last - 1):
        entering = max(0.0, entering + OPTS.dual_step_scale / math.sqrt(t))
    return [_decay_adapter([1.0, -0.2]), _decay_adapter([0.0, -0.2]),
            _switch_adapter(0.5), _switch_adapter(entering),
            _alternating_adapter(), _alternating_adapter((0.5, 0.3, 2.0, 0.1)),
            _stub_adapter(lambda c: 1.0 if c == 0 else math.nan),
            _stub_adapter(lambda c: math.nan if c == 0 else -1.0),
            _decay_adapter([1.0, math.nan])]


def _option_grid():
    return [SolverOptions(dual_max_iters=n, dual_step_scale=a,
                          dual_tolerance=e)
            for n in (1, 2, 7, 500, 2000) for a in (1e-3, 1.0, 1e3)
            for e in (1e-12, 1e-6, 1e-2)]


def _record_dual_calls(monkeypatch):
    calls = []
    inner = subsolvers.dual_subgradient

    def record(adapter, opts):
        calls.append((adapter, opts))
        return inner(adapter, opts)

    monkeypatch.setattr(subsolvers, "dual_subgradient", record)
    return calls


class TestDualReplay:
    """``dual_subgradient`` advances over whole runs of one primal; each
    result must equal the step-by-step reference bit for bit."""

    def test_hand_tables_hit_every_replay_event(self):
        clamp, stop, second, final, flip, flips, *nans = _hand_tables()
        history = []
        reference_dual_subgradient(clamp, OPTS, history)
        zeroed = [t for (t, p, m), (_, q, n) in zip(history[1:], history)
                  if m[1] == 0.0 < n[1]]
        assert len(zeroed) == 1 and zeroed[0] not in _runs(history)
        assert zeroed[0] + 1 not in _runs(history) and zeroed[0] > 20
        history = []
        ref = reference_dual_subgradient(stop, OPTS, history)
        assert ref[3] and 20 < ref[2] < OPTS.dual_max_iters
        assert ref[2] not in _runs(history)
        history = []
        reference_dual_subgradient(second, OPTS, history)
        assert _runs(history) == [2]
        history = []
        reference_dual_subgradient(final, OPTS, history)
        assert _runs(history) == [OPTS.dual_max_iters]
        for alternating in (flip, flips):
            history = []
            reference_dual_subgradient(alternating, OPTS, history)
            assert len(_runs(history)) > 0.6 * OPTS.dual_max_iters
        for nan in nans:
            history = []
            reference_dual_subgradient(nan, OPTS, history)
            assert any(np.isnan(m).any() for _, _, m in history)

    def test_hand_tables_across_options(self):
        for opts in _option_grid():
            for adapter in _hand_tables():
                assert_matches_reference(adapter, opts)

    def test_runs_longer_than_the_window_cap(self):
        opts = SolverOptions(dual_max_iters=3 * subsolvers._MAX_WINDOW)
        for adapter in _hand_tables():
            assert_matches_reference(adapter, opts)

    def test_block_adapters_across_options(self, monkeypatch):
        # The first task and segment calls of a shipped solve run the
        # whole default budget; a feasible instance's stop at step 1.
        calls = _record_dual_calls(monkeypatch)
        run_scheme(load_scenario(SCENARIOS / "default.json"), "sagin_psc")
        adapters = [adapter for adapter, _ in calls[:2]]
        assert [type(a) for a in adapters] == [_TaskAdapter, _SegmentAdapter]
        cfg, state = feasible_instances(1, start_seed=0, num_gts=3)[0]
        terms = latency_terms(cfg, state)
        adapters += [_TaskAdapter(cfg, state, terms),
                     _SegmentAdapter(cfg, state, terms)]
        for opts in _option_grid():
            for adapter in adapters:
                assert_matches_reference(adapter, opts)

    @pytest.mark.parametrize("num_gts", [1, 3, 8])
    def test_feasible_instances(self, num_gts, monkeypatch):
        calls = _record_dual_calls(monkeypatch)
        for cfg, state in feasible_instances(4, start_seed=0,
                                             num_gts=num_gts):
            terms = latency_terms(cfg, state)
            solve_task_allocation(cfg, state, OPTS, terms)
            select_segments(cfg, state, OPTS, terms)
        assert len(calls) == 8
        for adapter, opts in calls:
            assert_matches_reference(adapter, opts)

    def test_shipped_scenarios_and_data_bits_sweep(self, monkeypatch):
        calls = _record_dual_calls(monkeypatch)
        for name in ("default.json", "heatmap_unequal.json"):
            cfg = load_scenario(SCENARIOS / name)
            for scheme in algorithm.SchemeId:
                run_scheme(cfg, scheme)
        cfg = load_scenario(SCENARIOS / "default.json")
        for kib in (16, 32, 64, 128):
            row = replace(cfg, data_bits=(kib * 8192.0,) * cfg.num_gts)
            for scheme in algorithm.SchemeId:
                run_scheme(row, scheme)
        assert len(calls) > 50
        for adapter, opts in calls:
            assert_matches_reference(adapter, opts)


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
            task_sat, task_uav = _primal(adapter, _least_option(
                adapter.obj, adapter.lat, np.zeros(1)))
            assert (task_sat[0], task_uav[0]) == expected

    def test_output_is_binary_and_exclusive(self):
        for cfg, state in feasible_instances(5, start_seed=0):
            a_s, a_u, feasible = solve_task_allocation(
                cfg, state, OPTS, latency_terms(cfg, state))
            for s, u in zip(a_s, a_u):
                assert s in (0, 1) and u in (0, 1)
                assert s + u <= 1

    def test_matches_enumeration_on_random_instances(self):
        for cfg, state in feasible_instances(10, start_seed=0):
            a_s, a_u, feasible = solve_task_allocation(
                cfg, state, OPTS, latency_terms(cfg, state))
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
            a_s, a_u, _ = solve_task_allocation(
                cfg, state, OPTS, latency_terms(cfg, state))
            cand = replace(state, allocation=replace(
                state.allocation, task_sat=a_s, task_uav=a_u))
            assert total_energy(cfg, cand) <= total_energy(cfg, state) * (1 + 1e-9)


class TestSegmentSelection:
    def test_exactly_one_active_segment_per_gt(self):
        for cfg, state in feasible_instances(5, start_seed=0):
            chosen, feasible = select_segments(
                cfg, state, OPTS, latency_terms(cfg, state))
            assert len(chosen) == cfg.num_gts
            for k, d in enumerate(chosen):
                assert 0 <= d < cfg.overhead_curves[k].num_segments

    def test_matches_enumeration_on_random_instances(self):
        for cfg, state in feasible_instances(10, start_seed=0):
            chosen, feasible = select_segments(
                cfg, state, OPTS, latency_terms(cfg, state))
            try:
                e_combo, e_rho, e_obj = enumerate_segment_choices(cfg, state)
            except EmptyFeasibleError:
                assert not feasible
                continue
            if chosen != e_combo and feasible:
                rho = tuple(cfg.overhead_curves[k].midpoint(d)
                            for k, d in enumerate(chosen))
                cand = replace(state, allocation=replace(
                    state.allocation, ratio=rho))
                assert rel(total_energy(cfg, cand), e_obj) < 1e-9


class TestRatioLp:
    def test_matches_grid_reference(self):
        for cfg, state in feasible_instances(10, start_seed=0):
            segs = tuple(
                cfg.overhead_curves[k].segment_of(state.allocation.ratio[k])
                for k in range(cfg.num_gts))
            terms = latency_terms(cfg, state)
            ratios, clean = solve_ratio_lp(cfg, state, segs, OPTS, terms)
            sol = oracle_ratio(cfg, state, segs)
            assert rel(sol.evaluate(ratios), sol.value) < 1e-6

    def test_uninfluenced_violated_rows_reported_not_fatal(self):
        # With no compression anywhere the latency rows have all-zero
        # coefficients; a violated budget is then someone else's problem.
        cfg = loads_scenario(default_document())
        state = initialize(cfg)
        terms = latency_terms(cfg, state)
        chosen, _ = select_segments(cfg, state, OPTS, terms)
        ratios, clean = solve_ratio_lp(cfg, state, chosen, OPTS, terms)
        assert not clean
        lo, _ = cfg.overhead_curves[0].segment_bounds(chosen[0])
        assert ratios == (lo,) * cfg.num_gts

    def test_contradictory_rows_raise(self):
        cfg = loads_scenario(default_document())
        state = initialize(cfg)
        state = replace(state, allocation=replace(
            state.allocation, task_sat=(1, 0, 0, 0)))
        terms = latency_terms(cfg, state)
        choice, _ = select_segments(cfg, state, OPTS, terms)
        with pytest.raises(InfeasibleBlockError, match="ratio"):
            solve_ratio_lp(cfg, state, choice, OPTS, terms)


class TestCpuAllocation:
    def test_latency_exactly_tight_for_active_gts(self):
        for cfg, state in feasible_instances(10, start_seed=0):
            if not any(state.allocation.task_uav):
                continue
            cpu = solve_cpu_allocation(cfg, state, latency_terms(cfg, state))
            cand = replace(state, allocation=replace(state.allocation, cpu=cpu))
            lat = latency_terms(cfg, cand).total
            for k in range(cfg.num_gts):
                if state.allocation.task_uav[k]:
                    assert rel(lat[k], cfg.latency_budget) < 1e-12
                else:
                    assert cpu[k] == 0.0

    def test_matches_grid_reference(self):
        for cfg, state in feasible_instances(6, start_seed=0):
            if not any(state.allocation.task_uav):
                continue
            cpu = solve_cpu_allocation(cfg, state, latency_terms(cfg, state))
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
            solve_cpu_allocation(cfg, state, latency_terms(cfg, state))

    def test_cpu_budget_exceeded_raises(self):
        for cfg, state in feasible_instances(10, start_seed=0):
            if not any(state.allocation.task_uav):
                continue
            tiny = replace(cfg, uav_cpu_total=1e3)
            with pytest.raises(InfeasibleBlockError, match="budget"):
                solve_cpu_allocation(tiny, state, latency_terms(tiny, state))
            break


class TestPowerBandwidth:
    def test_bandwidth_budget_tight_and_latency_equalities(self):
        for cfg, state in feasible_instances(10, start_seed=0):
            bw, pw = solve_power_bandwidth(
                cfg, state, OPTS, latency_terms(cfg, state))
            assert rel(sum(bw), cfg.uav_bandwidth_total) < 1e-12
            assert sum(pw) <= cfg.uav_power_budget * (1 + 1e-9)
            cand = replace(state, allocation=replace(
                state.allocation, bandwidth=bw, power=pw))
            lat = latency_terms(cfg, cand).total
            for t in lat:
                assert rel(t, cfg.latency_budget) < 1e-9

    def test_matches_grid_reference(self):
        for cfg, state in feasible_instances(5, start_seed=0):
            bw, pw = solve_power_bandwidth(
                cfg, state, OPTS, latency_terms(cfg, state))
            cand = replace(state, allocation=replace(
                state.allocation, bandwidth=bw, power=pw))
            sol = oracle_power_bandwidth(cfg, cand)
            assert rel(sol.evaluate(bw), sol.value) < 1e-4

    def test_no_downlink_slack_raises(self):
        cfg = loads_scenario(default_document())
        state = initialize(cfg)  # uncompressed 64 KB x4 overruns the budget
        with pytest.raises(InfeasibleBlockError, match="no latency left"):
            solve_power_bandwidth(cfg, state, OPTS, latency_terms(cfg, state))

    def test_never_worsens_input(self):
        for cfg, state in feasible_instances(5, start_seed=30):
            bw, pw = solve_power_bandwidth(
                cfg, state, OPTS, latency_terms(cfg, state))
            cand = replace(state, allocation=replace(
                state.allocation, bandwidth=bw, power=pw))
            assert total_energy(cfg, cand) <= total_energy(cfg, state) * (1 + 1e-9)


class TestAltitudeBeamwidth:
    def test_altitude_identity_exact(self):
        for cfg, state in feasible_instances(10, start_seed=0):
            h, theta = solve_altitude_beamwidth(
                cfg, state, OPTS, latency_terms(cfg, state))
            l_max = max(state.placement.horizontal_distance(p)
                        for p in cfg.gt_positions)
            assert h == max(cfg.altitude_range[0], l_max / math.tan(theta))

    def test_within_bounds_and_never_worsens(self):
        for cfg, state in feasible_instances(5, start_seed=0):
            h, theta = solve_altitude_beamwidth(
                cfg, state, OPTS, latency_terms(cfg, state))
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
            solve_altitude_beamwidth(
                cfg, state, OPTS, latency_terms(cfg, state))


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
        xy, obj = solve_location(cfg, state, OPTS, latency_terms(cfg, state))
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
        xy, obj = solve_location(cfg, state, OPTS, latency_terms(cfg, state))
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
                solve_location(cfg, starved, OPTS, latency_terms(cfg, starved))

    def test_never_worsens_input(self):
        for cfg, state in feasible_instances(5, start_seed=40):
            xy, obj = solve_location(
                cfg, state, OPTS, latency_terms(cfg, state))
            cand = replace(state, placement=replace(state.placement, uav_xy=xy))
            assert total_energy(cfg, cand) <= total_energy(cfg, state) * (1 + 1e-9)


class TestZeroCpuShare:
    """A UAV-assigned GT without a CPU share has no defined UAV compute
    time, so the state has no latency terms.  No block is handed such a
    state: the loop refuses it at its start, before any block runs."""

    def test_loop_refuses_the_start(self):
        cfg = load_scenario(SCENARIOS / "default.json")
        state = initialize(cfg)
        state = replace(state, allocation=replace(
            state.allocation, task_uav=(0, 1, 0, 0), ratio=(1.0, 0.4, 1.0, 1.0)))
        with pytest.raises(ModelError, match="GT 1: .*zero CPU share"):
            latency_terms(cfg, state)
        with pytest.raises(ModelError, match="GT 1: .*zero CPU share"):
            run_blocks(cfg, state)


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


def _result(solver, cfg, state, opts=OPTS):
    """A block solver's return on the state's latency terms, or the text
    of the error it raised."""
    try:
        return solver(cfg, state, opts, latency_terms(cfg, state))
    except InfeasibleBlockError as exc:
        return f"InfeasibleBlockError: {exc}"


def _outcome(solver, cfg, state, opts=OPTS):
    """``repr`` of a block solver's return, or of the error it raised."""
    got = _result(solver, cfg, state, opts)
    return got if isinstance(got, str) else repr(got)


def _block_calls(cfg, block, scheme="sagin_psc"):
    """The ``(cfg, state)`` of every call of the block solver named
    ``block`` in one solve of ``scheme``; for ``sagin_psc``, those of a
    ``non_semantic`` solve first, whose no-compression states the
    communication and placement blocks also meet."""
    calls = []
    solver = getattr(subsolvers, block)

    def record(cfg, state, *args):  # the other arguments, terms last
        calls.append((cfg, state))
        return solver(cfg, state, *args)

    schemes = (("non_semantic", scheme) if scheme == "sagin_psc"
               else (scheme,))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algorithm, block, record)
        for name in schemes:
            run_scheme(cfg, name)
    return calls


class TestDualBlocksDeriveEachStateOnce:
    """A dual block derives no latency terms: it scores every distinct
    primal of the dual loop, and the task block the incumbent that its
    answer is compared with, from the per-GT model over the terms of its
    own state, which its caller hands it."""

    def test_no_state_is_derived_twice(self, monkeypatch):
        blocks = ("solve_task_allocation", "select_segments")
        cfg = load_scenario(SCENARIOS / "default.json")
        cases = [(block, case) for block in blocks
                 for case in _block_calls(cfg, block)]
        for num_gts in (1, 3, 8):
            cases += [(block, case) for block in blocks
                      for case in feasible_instances(3, num_gts=num_gts)]
        derived = record_latency_terms(monkeypatch, subsolvers)
        for block, (cfg, state) in cases:
            terms = latency_terms(cfg, state)  # bound at import: unrecorded
            derived.clear()
            getattr(subsolvers, block)(cfg, state, OPTS, terms)
            assert derived == [], block


def _stands_for(cfg, adapter, state, choice):
    """The state that a choice of a dual block's ``adapter`` stands for:
    ``state`` with the choice's sites, or with each GT's ratio at the
    midpoint of its chosen segment."""
    primal = _primal(adapter, choice)
    if isinstance(adapter, _TaskAdapter):
        al = replace(state.allocation, task_sat=primal[0],
                     task_uav=primal[1])
    else:
        al = replace(state.allocation, ratio=tuple(
            cfg.overhead_curves[k].midpoint(d) for k, d in enumerate(primal)))
    return replace(state, allocation=al)


class TestModelScoresLikePhysics:
    """The dual blocks score a choice from the per-GT model; its
    latencies and energy must be those that ``latency_terms`` and
    ``energy_breakdown`` derive for the state it stands for."""

    @staticmethod
    def _check(cfg, state):
        terms = latency_terms(cfg, state)
        budget = cfg.latency_budget
        for adapter in (_TaskAdapter(cfg, state, terms),
                        _SegmentAdapter(cfg, state, terms)):
            for column in range(adapter.obj.shape[1]):
                # every GT on the column where it has that option, else
                # on option 0
                priced = np.isfinite(adapter.obj[:, column])
                if not priced.any():
                    continue
                choice = np.where(priced, column, 0)
                moved = _stands_for(cfg, adapter, state, choice)
                np.testing.assert_allclose(
                    budget * (1.0 + adapter.residuals(choice)),
                    latency_terms(cfg, moved).total, rtol=1e-12, atol=0.0)
                assert rel(adapter.objective(choice),
                           energy_breakdown(cfg, moved).total) <= 1e-12

    @pytest.mark.parametrize("num_gts", [1, 3, 8])
    def test_feasible_instances(self, num_gts):
        for cfg, state in feasible_instances(4, start_seed=0,
                                             num_gts=num_gts):
            self._check(cfg, state)

    @pytest.mark.parametrize("scenario", ["default", "scale16"])
    def test_shipped_block_calls(self, scenario):
        cfg = (load_scenario(SCENARIOS / "default.json")
               if scenario == "default" else _scale_config(16))
        cases = [case for block in ("solve_task_allocation",
                                    "select_segments")
                 for case in _block_calls(cfg, block)]
        assert cases
        for case in cases:
            self._check(*case)


class TestBlocksReadTheirTerms:
    def test_non_dual_blocks_derive_nothing(self, monkeypatch):
        # The ratio LP, CPU, power/bandwidth, beamwidth and location blocks
        # read every latency term from the terms they are handed.
        cases = list(feasible_instances(5, start_seed=0, num_gts=3))
        cases += _block_calls(load_scenario(SCENARIOS / "default.json"),
                              "solve_location")
        derived = record_latency_terms(monkeypatch, subsolvers)
        outcomes = set()
        for cfg, state in cases:
            terms = latency_terms(cfg, state)
            choice = select_segments(cfg, state, OPTS, terms)[0]
            derived.clear()
            for call in (
                    lambda: solve_ratio_lp(cfg, state, choice, OPTS, terms),
                    lambda: solve_cpu_allocation(cfg, state, terms),
                    lambda: solve_power_bandwidth(cfg, state, OPTS, terms),
                    lambda: solve_altitude_beamwidth(cfg, state, OPTS, terms),
                    lambda: solve_location(cfg, state, OPTS, terms)):
                try:
                    call()
                    outcomes.add("solved")
                except InfeasibleBlockError:
                    outcomes.add("infeasible")
            assert derived == []
        assert "solved" in outcomes


def _scale_config(num_gts=256):
    """The scenario of ``scale_document(num_gts)``."""
    return loads_scenario(scale_document(num_gts))


def reference_solve_location(cfg, state, opts, terms, grids):
    """``solve_location`` before the row pre-test: every point of the full
    grid and of each refinement window is scored by
    ``dense_score_inside_disks``.  Appends each grid's count of finite
    scores to ``grids``."""
    al = state.allocation
    pl = state.placement
    slacks = terms.hop_slack
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
        j_k = terms.bits[k] / (al.bandwidth[k] * slacks[k])
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
    limit = (rr ** 2) * subsolvers._TIGHT_BOUNDARY

    def downlink(d2):
        # the UAV-to-GT rate at squared distance d2 + h * h
        snr = (cfg.antenna_gain_const * (cfg.ref_channel_gain / (d2 + h * h))
               * pw / (theta * theta * bw * cfg.noise_psd))
        r = bw * np.log2(1.0 + snr)
        return np.sum(pw * terms.bits / r, axis=1)

    def evaluate(px, py):
        return dense_score_inside_disks(downlink, px, py, xs, ys, limit)

    def mesh_best(gx, gy):
        mx, my = np.meshgrid(gx, gy, indexing="ij")
        flat_x, flat_y = mx.ravel(), my.ravel()
        obj = evaluate(flat_x, flat_y)
        grids.append(int(np.isfinite(obj).sum()))
        idx = int(np.argmin(obj))
        return float(obj[idx]), (float(flat_x[idx]), float(flat_y[idx]))

    cur = np.array([pl.uav_xy[0]]), np.array([pl.uav_xy[1]])
    best_obj = float(evaluate(*cur)[0])
    best_xy = pl.uav_xy

    n = opts.location_grid_points
    gx = np.linspace(x_lo, x_hi, n) if x_hi > x_lo else np.array([x_lo])
    gy = np.linspace(y_lo, y_hi, n) if y_hi > y_lo else np.array([y_lo])
    cell = (gx[1] - gx[0] if gx.size > 1 else 0.0,
            gy[1] - gy[0] if gy.size > 1 else 0.0)
    obj, xy = mesh_best(gx, gy)
    if obj < best_obj:
        best_obj, best_xy = obj, xy
    if not math.isfinite(best_obj):
        raise InfeasibleBlockError("solve_location",
                                   "no admissible point inside every disk")

    for _ in range(opts.refinement_levels):
        if cell == (0.0, 0.0):
            break
        obj, xy = mesh_best(
            np.linspace(best_xy[0] - cell[0], best_xy[0] + cell[0], 9),
            np.linspace(best_xy[1] - cell[1], best_xy[1] + cell[1], 9))
        if obj < best_obj:
            best_obj, best_xy = obj, xy
        cell = (cell[0] / 2.0, cell[1] / 2.0)

    return best_xy, best_obj


# The ``data_bits`` values of the benchmark's ``default.json`` sweep
# (16, 32, 64 and 128 KiB).
SWEEP_DATA_BITS = (131072.0, 262144.0, 524288.0, 1048576.0)


def _sweep_location_calls():
    """The states every scheme's solve of the ``default.json`` sweep rows
    hands to the location block."""
    cfg = load_scenario(SCENARIOS / "default.json")
    calls = []
    for bits in SWEEP_DATA_BITS:
        row = replace(cfg, data_bits=(bits,) * cfg.num_gts)
        for scheme in algorithm.SchemeId:
            calls += _block_calls(row, "solve_location", scheme)
    return calls


def _dense_admitted(gx, gy, xs, ys, limit):
    """Row-major flat indices of the grid points inside every disk, by the
    disk test's own expression."""
    mx, my = np.meshgrid(gx, gy, indexing="ij")
    obj = dense_score_inside_disks(lambda d2: np.zeros(len(d2)), mx.ravel(),
                                   my.ravel(), xs, ys, limit)
    return np.flatnonzero(np.isfinite(obj))


def _random_disk_grids(rng):
    """Random grids and disks: plain draws, an offset of 1e6 m, single-point
    axes, K = 1 and K = 256, and disks whose limit is within 3 ulps of a
    grid point's squared distance."""
    for draw in range(120):
        k = (1, 2, 5, 256)[draw % 4]
        offset = 1e6 if draw % 3 == 2 else 0.0
        xs, ys = rng.uniform(-200, 200, size=(2, k)) + offset
        limit = rng.uniform(50, 400, size=k) ** 2
        x_lo, y_lo = rng.uniform(-300, 100, size=2) + offset
        x_hi = x_lo if draw % 5 == 0 else x_lo + rng.uniform(1, 300)
        y_hi = y_lo if draw % 7 == 0 else y_lo + rng.uniform(1, 300)
        nx, ny = int(rng.integers(2, 80)), int(rng.integers(2, 80))
        gx = np.linspace(x_lo, x_hi, nx) if x_hi > x_lo else np.array([x_lo])
        gy = np.linspace(y_lo, y_hi, ny) if y_hi > y_lo else np.array([y_lo])
        yield gx, gy, xs, ys, limit
        # Put grid points on the boundary of disk 0 alone, to the last bit.
        for _ in range(8):
            i, j = int(rng.integers(gx.size)), int(rng.integers(gy.size))
            d2 = (gx[i] - xs[0]) ** 2 + (gy[j] - ys[0]) ** 2
            for ulps in (-3, 0, 1, 3):
                yield gx, gy, xs[:1], ys[:1], np.array([_nudge(float(d2), ulps)])


class TestFilteredLocationSearch:
    def test_matches_dense_reference_bit_for_bit(self):
        # Random instances (widened beams leave interior points), the
        # states both shipped solves and the ``default.json`` sweep rows
        # hand to the block, and a K=256 solve's states, where the tight
        # latency disks leave no grid point inside all of them.
        cases = list(feasible_instances(100, start_seed=0))
        for name in ("default.json", "heatmap_unequal.json"):
            cases += _block_calls(load_scenario(SCENARIOS / name),
                                  "solve_location")
        cases += _sweep_location_calls()
        cases += _block_calls(_scale_config(), "solve_location")
        assert len(cases) > 130

        grids = []

        def reference(cfg, state, opts, terms):
            return reference_solve_location(cfg, state, opts, terms, grids)

        for opts in (OPTS, SolverOptions(location_grid_points=57,
                                         refinement_levels=3)):
            for cfg, state in cases:
                assert (_outcome(solve_location, cfg, state, opts)
                        == _outcome(reference, cfg, state, opts))
        assert any(n > 0 for n in grids)
        assert any(n == 0 for n in grids)

    def test_candidates_cover_every_admitted_grid_point(self):
        rng = np.random.default_rng(9)
        verdicts = set()
        extra = total = 0
        for gx, gy, xs, ys, limit in _random_disk_grids(rng):
            got = subsolvers._grid_candidates(gx, gy, xs, ys, limit)
            want = _dense_admitted(gx, gy, xs, ys, limit)
            assert np.all(np.diff(got) > 0)
            assert got.size == 0 or 0 <= got[0] and got[-1] < gx.size * gy.size
            assert np.isin(want, got).all()
            verdicts.add(want.size > 0)
            extra += got.size - want.size
            total += gx.size * gy.size
        assert verdicts == {True, False}
        # The pre-test is close to the disk test itself.
        assert extra < 0.001 * total

    def test_full_grid_scores_no_point_on_the_sweep_states(self, monkeypatch):
        # The benchmark's sweep leaves every downlink latency tight, so the
        # disks meet only near the incumbent: no point of the full grid is
        # handed to the scorer, only the incumbent and window points.
        scored, grids = [], []
        score = subsolvers._score_inside_disks
        candidates = subsolvers._grid_candidates

        def counting_score(fn, px, *args):
            scored.append(px.size)
            return score(fn, px, *args)

        def counting_candidates(gx, gy, *args):
            out = candidates(gx, gy, *args)
            grids.append((gx.size * gy.size, out.size))
            return out

        monkeypatch.setattr(subsolvers, "_score_inside_disks", counting_score)
        monkeypatch.setattr(subsolvers, "_grid_candidates", counting_candidates)
        calls = _sweep_location_calls()
        assert len(calls) >= 16
        n = OPTS.location_grid_points
        solved = 0
        for cfg, state in calls:
            scored.clear()
            grids.clear()
            try:
                solve_location(cfg, state, OPTS, latency_terms(cfg, state))
            except InfeasibleBlockError:
                continue
            solved += 1
            assert grids[0] == (n * n, 0)
            assert all(size == 81 for size, _ in grids[1:])
            assert sum(scored) == 1 + sum(kept for _, kept in grids)
        assert solved >= 16

    def test_fine_grid_allocates_per_row_not_per_point(self):
        # At 20,001 points a side, the full mesh would be 4e8 points (3.2 GB
        # per float64 array); the row pre-test needs a few (rows, K) arrays.
        cfg, state = _sweep_location_calls()[0]
        opts = SolverOptions(location_grid_points=20001)
        tracemalloc.start()
        try:
            solve_location(cfg, state, opts, latency_terms(cfg, state))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * opts.location_grid_points * cfg.num_gts * 8

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


def reference_downlink_objective(cfg, al, bits, positions, uav_xy,
                                 altitude, theta, slacks):
    """UAV-to-GT communication energy at a trial (altitude, beamwidth),
    one GT at a time, or (inf, False) when some GT misses its latency
    slack.  The rate is the model's one expression, with numpy's
    ``log2``."""
    total = 0.0
    for k in range(cfg.num_gts):
        dx = uav_xy[0] - positions[k][0]
        dy = uav_xy[1] - positions[k][1]
        d2 = dx * dx + dy * dy + altitude * altitude
        snr = (cfg.antenna_gain_const * (cfg.ref_channel_gain / d2) * al.power[k]
               / (theta * theta * al.bandwidth[k] * cfg.noise_psd))
        r_k = al.bandwidth[k] * float(np.log2(1.0 + snr))
        if r_k <= 0.0 or bits[k] / r_k > slacks[k] * subsolvers._TIGHT_BOUNDARY:
            return math.inf, False
        total += al.power[k] * bits[k] / r_k
    return total, True


def reference_solve_altitude_beamwidth(cfg, state, opts, terms):
    """``solve_altitude_beamwidth`` as a scalar search: the incumbent, the
    minimum-altitude case (behind its closed-form latency test) and every
    in-range sweep beamwidth are scored one at a time by
    ``reference_downlink_objective``, with every altitude from
    ``math.tan``."""
    al = state.allocation
    slacks = terms.hop_slack
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
            obj, ok = reference_downlink_objective(
                cfg, al, terms.bits, positions, uav_xy, cur_h, cur_theta,
                slacks)
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
            j_k = terms.bits[k] / (al.bandwidth[k] * slacks[k])
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
            obj, ok = reference_downlink_objective(
                cfg, al, terms.bits, positions, uav_xy, h1, theta1, slacks)
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
            obj, ok = reference_downlink_objective(
                cfg, al, terms.bits, positions, uav_xy, h, theta, slacks)
            if ok:
                candidates.append((obj, h, theta))

    if not candidates:
        raise InfeasibleBlockError(
            "solve_altitude_beamwidth",
            "no (altitude, beamwidth) pair meets coverage and latency")
    best = min(candidates, key=lambda c: c[0])
    return best[1], best[2]


def _beamwidth_cases():
    """Random instances, the states every scheme's solve of both shipped
    scenarios hands to the beamwidth block, a K=256 solve's states, and
    default-document solves at K = 1, 3, 8 and 16."""
    cases = list(feasible_instances(100, start_seed=0))
    for name in ("default.json", "heatmap_unequal.json"):
        for scheme in algorithm.SchemeId:
            cases += _block_calls(load_scenario(SCENARIOS / name),
                                  "solve_altitude_beamwidth", scheme)
    cases += _block_calls(_scale_config(), "solve_altitude_beamwidth")
    for num_gts in (1, 3, 8, 16):
        cases += _block_calls(loads_scenario(default_document(num_gts=num_gts)),
                              "solve_altitude_beamwidth")
    return cases


def _nudge(x, ulps):
    """``x`` moved ``ulps`` floating-point steps up (or down, if negative)."""
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.inf if ulps > 0 else 0.0))
    return x


class TestBeamwidthPrefilter:
    def test_matches_full_sweep_bit_for_bit(self):
        cases = _beamwidth_cases()
        assert len(cases) > 130
        outcomes = []
        for cfg, state in cases:
            got = _outcome(solve_altitude_beamwidth, cfg, state)
            assert got == _outcome(reference_solve_altitude_beamwidth, cfg, state)
            outcomes.append(got.startswith("Infeasible"))
        assert False in outcomes


def reference_q_prime(u, b):
    x = u / b
    if x > 500.0:
        return -math.inf
    e = 2.0 ** x
    return e - 1.0 - x * math.log(2.0) * e


def reference_solve_b_stationary(u, weight, mu):
    """The stationary bandwidth by bisection on q'(b) = -mu / weight."""
    target = -mu / weight
    if target >= 0.0:
        return math.inf
    b_hi = u
    while reference_q_prime(u, b_hi) < target:
        b_hi *= 2.0
    b_lo = b_hi / 2.0 if b_hi > u else u
    if b_hi == u:
        b_lo = u
        while reference_q_prime(u, b_lo) > target:
            b_lo /= 2.0
            if b_lo < 1e-300:
                return b_lo
    for _ in range(200):
        b_mid = 0.5 * (b_lo + b_hi)
        if reference_q_prime(u, b_mid) < target:
            b_lo = b_mid
        else:
            b_hi = b_mid
        if b_hi - b_lo <= 1e-15 * b_hi:
            break
    return 0.5 * (b_lo + b_hi)


def _downlink_terms(cfg, state, terms):
    """Each GT's rate demand ``u``, gain-to-noise ``v`` and weight
    ``w = slack / v``, as the power/bandwidth block builds them from the
    state's latency ``terms``."""
    slacks, bits = terms.hop_slack.tolist(), terms.bits.tolist()
    d2 = _squared_distance(cfg, state.placement).tolist()
    u = []
    v = []
    w = []
    for k in range(cfg.num_gts):
        if slacks[k] <= 0.0:
            raise InfeasibleBlockError(
                "solve_power_bandwidth",
                f"GT {k}: no latency left for the downlink (slack {slacks[k]:.3e} s)")
        g_k = cfg.ref_channel_gain / d2[k]  # LoS inverse-square gain
        theta = state.placement.half_beamwidth
        u.append(bits[k] / slacks[k])
        v.append(cfg.antenna_gain_const * g_k / (theta * theta * cfg.noise_psd))
        w.append(slacks[k] / v[k])
    return u, v, w


def reference_solve_power_bandwidth(cfg, state, opts, terms):
    """``solve_power_bandwidth`` as a nested bisection: each GT's
    bandwidth bisected on q', the bandwidth multiplier bisected on the
    capped bandwidth sum, and the power multiplier walked and bisected."""
    u, v, w = _downlink_terms(cfg, state, terms)
    n = cfg.num_gts
    b_total = cfg.uav_bandwidth_total

    def allocation_for(nu):
        weights = [w[k] + nu / v[k] for k in range(n)]

        def total_b(mu):
            return sum(min(reference_solve_b_stationary(u[k], weights[k], mu),
                           10.0 * b_total)
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
        b = [reference_solve_b_stationary(u[k], weights[k], mu)
             for k in range(n)]
        scale = b_total / sum(b)
        b = [x * scale for x in b]
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


def _budget_cases(count=15):
    """Feasible instances with the UAV power budget cut to 0.999999, 0.9999
    and 0.99 of the power the unconstrained split spends."""
    cases = []
    for cfg, state in feasible_instances(count, start_seed=200):
        free = replace(cfg, uav_power_budget=math.inf)
        spent = sum(solve_power_bandwidth(
            free, state, OPTS, latency_terms(free, state))[1])
        for factor in (0.999999, 0.9999, 0.99):
            cases.append((replace(cfg, uav_power_budget=factor * spent), state))
    return cases


def _block_states():
    """Random instances, the states both shipped solves hand to the
    power/bandwidth block, and a K=256 solve's states."""
    cases = list(feasible_instances(100, start_seed=0))
    for name in ("default.json", "heatmap_unequal.json"):
        cases += _block_calls(load_scenario(SCENARIOS / name),
                              "solve_power_bandwidth")
    cases += _block_calls(_scale_config(), "solve_power_bandwidth")
    return cases


def _terahertz_cases():
    return [(replace(cfg, uav_bandwidth_total=1e12), state)
            for cfg, state in feasible_instances(4, start_seed=500)]


def _check_against_reference(cfg, state):
    """The block raises exactly the nested bisection's error, or meets its
    total energy within 1e-12 with the bandwidth budget tight, the power
    budget tight wherever the reference's is, and every latency at the
    budget.  Returns whether it raised."""
    got = _result(solve_power_bandwidth, cfg, state)
    want = _result(reference_solve_power_bandwidth, cfg, state)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return True

    def spend(bandwidth, power):
        return replace(state, allocation=replace(
            state.allocation, bandwidth=bandwidth, power=power))

    (bw, pw), (ref_bw, ref_pw) = got, want
    cand = spend(bw, pw)
    assert rel(total_energy(cfg, cand),
               total_energy(cfg, spend(ref_bw, ref_pw))) < 1e-12
    assert rel(sum(bw), cfg.uav_bandwidth_total) < 1e-12
    assert sum(pw) <= cfg.uav_power_budget * (1 + 1e-9)
    if sum(ref_pw) >= cfg.uav_power_budget * (1 - 1e-9):
        assert sum(pw) >= cfg.uav_power_budget * (1 - 1e-9)
    for t in latency_terms(cfg, cand).total:
        assert rel(t, cfg.latency_budget) < 1e-9
    return False


def _counting(monkeypatch, name):
    """Wrap ``subsolvers.<name>`` so that it counts its calls in the
    returned one-item list."""
    calls = [0]
    inner = getattr(subsolvers, name)

    def wrapper(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(subsolvers, name, wrapper)
    return calls


def mp_stationary_t(c):
    """The root of 1 + (t - 1) e**t = c, as 1 + W0((c - 1) / e) with enough
    digits to resolve a tiny c next to W0's branch point."""
    with mpmath.workdps(40 + max(0, int(-math.log10(c)))):
        return float(1 + mpmath.lambertw((mpmath.mpf(c) - 1) / mpmath.e).real)


class TestPowerBandwidthReplay:
    def test_matches_full_bisection(self):
        cases = _block_states()
        assert len(cases) > 110
        for cfg, state in cases:
            _check_against_reference(cfg, state)

    def test_power_budget_bisection_matches(self, monkeypatch):
        # A call that splits the bandwidth more than twice (no power
        # multiplier, then the minimum-power split) bisected the power
        # multiplier.
        cases = _budget_cases()
        splits = _counting(monkeypatch, "_split")
        bisected = 0
        for cfg, state in cases:
            splits[0] = 0
            raised = _check_against_reference(cfg, state)
            if splits[0] > 2 and not raised:
                bisected += 1
        assert bisected >= 3

    def test_extreme_bandwidth_budgets_match(self, monkeypatch):
        # Budgets from 1 kHz (spectral efficiencies past the 2**x cap, or
        # no way to meet the power budget) to 1 THz (tiny x everywhere).
        # At 1 kHz a root sits near log mu = 204, where one ulp of log mu
        # exceeds the step tolerance: the multiplier search must stop
        # where its bracket closes, not alternate between its ends.
        splits = _counting(monkeypatch, "_split")
        evaluations = _counting(monkeypatch, "_bandwidths")
        outcomes = set()
        for cfg, state in feasible_instances(4, start_seed=500):
            for b_total in (1e3, 1e4, 1e12):
                wide = replace(cfg, uav_bandwidth_total=b_total)
                splits[0] = evaluations[0] = 0
                outcomes.add(_check_against_reference(wide, state))
                assert 0 < evaluations[0] <= 16 * splits[0]
        assert outcomes == {True, False}

    def test_raises_the_same_errors(self):
        cfg, state = feasible_instances(1, start_seed=0)[0]
        starved = replace(cfg, uav_power_budget=1e-30)
        no_slack = loads_scenario(default_document())
        for cfg, state, match in ((starved, state, "unreachable"),
                                  (no_slack, initialize(no_slack),
                                   "no latency left")):
            assert _check_against_reference(cfg, state)
            assert match in _result(solve_power_bandwidth, cfg, state)

    def test_unreachable_budget_is_decided_by_the_minimum_power_split(
            self, monkeypatch):
        # allocation_for(0) and the minimum-power split, not a walk of
        # the power multiplier up to 1e80.
        splits = _counting(monkeypatch, "_split")
        for cfg, state in feasible_instances(10, start_seed=0):
            splits[0] = 0
            with pytest.raises(InfeasibleBlockError, match="unreachable"):
                starved = replace(cfg, uav_power_budget=1e-30)
                solve_power_bandwidth(starved, state, OPTS,
                                      latency_terms(starved, state))
            assert splits[0] <= 3

    def test_stationary_bandwidth_matches_reference(self):
        # The root of f(t) = c against 1 + W0((c - 1) / e) at extended
        # precision, for random demands, weights and multipliers.
        rng = np.random.default_rng(3)
        for _ in range(2000):
            u = float(10 ** rng.uniform(2, 8))
            weight = float(10 ** rng.uniform(-25, -5))
            mu = float(10 ** rng.uniform(-320, 10))
            t = subsolvers._stationary_t(mu / weight)
            assert rel(t, mp_stationary_t(mu / weight)) <= 1e-14
            assert subsolvers._bandwidths([u], [weight], mu)[0] == [
                u * subsolvers._LN2 / t]
        # A multiplier that rounds to 0 against its weight: b = inf.
        assert 5e-324 / 1e10 == 0.0
        assert subsolvers._bandwidths([1e6], [1e10], 5e-324)[0] == [math.inf]
        # Roots past the 2**x cap, up to and past the largest finite
        # exp(t): _q reads each bandwidth as an unreachable demand.
        t_cap = subsolvers._T_CAP
        for c in (1e155, 1e200, 1e300, 1e306, 1e307, 1e308, math.inf):
            t = subsolvers._stationary_t(c)
            if c < 1.0 + (t_cap - 1.0) * math.exp(t_cap):
                assert rel(t, mp_stationary_t(c)) <= 1e-14
            else:
                assert t == t_cap
            assert _q(1e6, 1e6 * subsolvers._LN2 / t) == math.inf

    def test_stationarity_holds_to_roundoff(self):
        # Every GT's bandwidth is stationary for one multiplier: at 50
        # digits, weight * f(u ln2 / b) spreads over the GTs by roundoff
        # only.  Calls where the power budget binds are skipped, because
        # the power multiplier moves the weights.
        checked = 0
        for cfg, state in _block_states() + _terahertz_cases():
            got = _result(solve_power_bandwidth, cfg, state)
            if isinstance(got, str):
                continue
            bw, pw = got
            if sum(pw) >= cfg.uav_power_budget * (1 - 1e-9):
                continue
            u, _, w = _downlink_terms(cfg, state, latency_terms(cfg, state))
            with mpmath.workdps(50):
                mus = []
                for u_k, w_k, b_k in zip(u, w, bw):
                    t = mpmath.mpf(u_k) * mpmath.log(2) / mpmath.mpf(b_k)
                    mus.append(mpmath.mpf(w_k) * (1 + (t - 1) * mpmath.exp(t)))
                assert (max(mus) - min(mus)) / max(mus) <= 1e-13
            checked += 1
        assert checked > 110

    def test_block_call_evaluates_few_totals(self, monkeypatch):
        # At K=256 each bandwidth split evaluates a handful of multipliers.
        states = _block_calls(_scale_config(), "solve_power_bandwidth")
        splits = _counting(monkeypatch, "_split")
        evaluations = _counting(monkeypatch, "_bandwidths")
        for cfg, state in states:
            splits[0] = evaluations[0] = 0
            solve_power_bandwidth(cfg, state, OPTS, latency_terms(cfg, state))
            assert 0 < evaluations[0] <= 8 * splits[0]


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
