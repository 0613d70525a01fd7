import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from saginpsc import oracle
from saginpsc.oracle import (
    EmptyFeasibleError,
    GridSpec,
    OracleSizeError,
    _row_all,
    _row_sum,
    enumerate_segment_choices,
    enumerate_task_assignments,
    eval_formula_extended,
    grid_minimize,
    oracle_altitude_beamwidth,
    oracle_location,
    oracle_power_bandwidth,
    refine_minimize,
    reference_evaluation,
)
from saginpsc.physics import (
    channel_gain_ug,
    check_feasibility,
    energy_breakdown,
    latency_breakdown,
    rate_sat_uav,
    rate_uav_gt,
    total_energy,
)
from saginpsc.scenario import default_document, loads_scenario

from conftest import feasible_instances


class TestGridSpec:
    def test_rejects_degenerate_intervals(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            GridSpec(2.0, 1.0, 10)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 1)

    def test_cell_size(self):
        assert GridSpec(0.0, 1.0, 101).cell == pytest.approx(0.01)


class TestGridMinimize:
    def test_separable_parabola_finds_center(self):
        specs = [GridSpec(-1.0, 1.0, 201), GridSpec(-2.0, 2.0, 201)]
        point, value = grid_minimize(
            lambda pts: np.sum((pts - np.array([0.3, -0.5])) ** 2, axis=1),
            specs)
        assert point[0] == pytest.approx(0.3, abs=specs[0].cell)
        assert point[1] == pytest.approx(-0.5, abs=specs[1].cell)
        assert value >= 0.0

    def test_flat_objective_ties_break_to_lowest_index(self):
        specs = [GridSpec(0.25, 0.75, 11), GridSpec(-1.0, 1.0, 11)]
        point, _ = grid_minimize(lambda pts: np.zeros(pts.shape[0]), specs)
        assert point == (0.25, -1.0)

    def test_all_infeasible_raises(self):
        specs = [GridSpec(0.0, 1.0, 16)]
        with pytest.raises(EmptyFeasibleError):
            grid_minimize(lambda pts: pts[:, 0],
                          specs,
                          feasible=lambda pts: np.zeros(pts.shape[0], bool))

    def test_feasibility_filter_is_respected(self):
        specs = [GridSpec(0.0, 1.0, 101)]
        point, _ = grid_minimize(lambda pts: pts[:, 0], specs,
                                 feasible=lambda pts: pts[:, 0] >= 0.5)
        assert point[0] == pytest.approx(0.5)


def unravel_chunk_points(axes, start, stop):
    """Grid points ``start:stop`` as ``grid_minimize`` built them before:
    ``np.unravel_index``, one fancy index per axis and ``np.stack``."""
    shape = tuple(a.size for a in axes)
    idx = np.unravel_index(np.arange(start, stop), shape)
    return np.stack([axes[d][idx[d]] for d in range(len(axes))], axis=1)


def test_oracle_imports_no_production_model():
    # The oracles are evidence only while they re-derive the model.
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names}
    assert not any(name and name.split(".")[-1] in ("physics", "subsolvers")
                   for name in imported)


class TestChunkPoints:
    @staticmethod
    def _axes(rng, sizes):
        return [np.linspace(rng.uniform(-5.0, 0.0), rng.uniform(1.0, 5.0), n)
                for n in sizes]

    @pytest.mark.parametrize("sizes", [(17,), (5, 7), (3, 4, 6), (2, 2, 2)])
    def test_every_chunk_equals_unravel_build(self, sizes):
        # All (start, stop) pairs: chunks that start or stop mid-row, span
        # several rows or planes, cover the whole grid, or hold one point.
        axes = self._axes(np.random.default_rng(len(sizes)), sizes)
        total = math.prod(sizes)
        for start in range(total):
            for stop in range(start + 1, total + 1):
                got = oracle._chunk_points(axes, start, stop)
                want = unravel_chunk_points(axes, start, stop)
                assert got.tobytes() == want.tobytes()
                assert got.shape == want.shape and got.flags.c_contiguous

    def test_random_chunks_of_larger_grids(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            sizes = tuple(int(n) for n in rng.integers(2, 40,
                                                       size=rng.integers(1, 4)))
            axes = self._axes(rng, sizes)
            total = math.prod(sizes)
            start = int(rng.integers(0, total))
            stop = int(rng.integers(start + 1, total + 1))
            assert (oracle._chunk_points(axes, start, stop).tobytes()
                    == unravel_chunk_points(axes, start, stop).tobytes())

    def test_grid_minimize_unchanged_across_chunk_sizes(self, monkeypatch):
        # A stepped objective with long runs of ties, searched in chunks
        # of 1, 7 and 64 points and in one chunk, against the old build.
        def objective(pts):
            return np.floor(3.0 * np.abs(pts[:, 0] - 0.4)) + np.floor(
                2.0 * np.abs(pts[:, -1] + 0.1))

        specs = [GridSpec(0.0, 1.0, 9), GridSpec(-1.0, 1.0, 7),
                 GridSpec(-0.5, 0.5, 5)]
        for dims in (1, 2, 3):
            for chunk in (1, 7, 64, 1 << 19):
                monkeypatch.setattr(oracle, "_CHUNK", chunk)
                got = grid_minimize(objective, specs[:dims])
                with monkeypatch.context() as patch:
                    patch.setattr(oracle, "_chunk_points", unravel_chunk_points)
                    want = grid_minimize(objective, specs[:dims])
                assert repr(got) == repr(want)


def _fused(objective, feasible):
    """The one-pass score an oracle passes instead of a filter pair."""
    return lambda pts: np.where(feasible(pts), objective(pts), np.inf)


class TestOnePassScore:
    """A score that is +inf where the filter rejects gives the same
    search as the (objective, feasible) pair."""

    @staticmethod
    def _problem():
        # Stepped objective: long runs of exactly equal values, so the
        # row-major tie-break decides.  The filter rejects the whole first
        # chunk (x < 0.3) and a band in the middle.
        def objective(pts):
            return np.floor(4.0 * np.abs(pts[:, 0] - 0.6)) + np.floor(
                3.0 * np.abs(pts[:, 1] - 0.2))

        def feasible(pts):
            return (pts[:, 0] >= 0.3) & ~((pts[:, 1] > 0.4) & (pts[:, 1] < 0.5))

        return objective, feasible

    def test_grid_minimize_same_point_and_value(self, monkeypatch):
        monkeypatch.setattr(oracle, "_CHUNK", 64)
        objective, feasible = self._problem()
        specs = [GridSpec(0.0, 1.0, 41), GridSpec(-1.0, 1.0, 37)]
        pair = grid_minimize(objective, specs, feasible)
        one = grid_minimize(_fused(objective, feasible), specs)
        assert repr(one) == repr(pair)
        assert pair[0][0] >= 0.3

    def test_refine_minimize_same_point_value_and_cell(self, monkeypatch):
        monkeypatch.setattr(oracle, "_CHUNK", 64)
        objective, feasible = self._problem()
        specs = [GridSpec(0.0, 1.0, 23), GridSpec(-1.0, 1.0, 19)]
        for passes in (0, 1, 3):
            pair = refine_minimize(objective, specs, feasible, passes)
            one = refine_minimize(_fused(objective, feasible), specs,
                                  passes=passes)
            assert repr(one) == repr(pair)

    def test_all_infeasible_raises_either_way(self, monkeypatch):
        monkeypatch.setattr(oracle, "_CHUNK", 8)
        specs = [GridSpec(0.0, 1.0, 30)]
        reject = lambda pts: np.zeros(pts.shape[0], bool)
        with pytest.raises(EmptyFeasibleError):
            grid_minimize(lambda pts: pts[:, 0], specs, reject)
        with pytest.raises(EmptyFeasibleError):
            grid_minimize(_fused(lambda pts: pts[:, 0], reject), specs)


class TestRowReductions:
    @pytest.mark.parametrize("width", range(1, 11))
    def test_row_sum_equals_numpy_bit_for_bit(self, width):
        rng = np.random.default_rng(width)
        for rows in (1, 3, 8, 1000):
            a = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(
                -12, 12, size=(rows, width))
            a[0] = -0.0
            if width > 1:
                a[-1, 1] = -a[-1, 0]
            assert _row_sum(a).tobytes() == np.sum(a, axis=1).tobytes()
            strided = np.asfortranarray(a)
            assert (_row_sum(strided).tobytes()
                    == np.sum(strided, axis=1).tobytes())

    @pytest.mark.parametrize("width", range(1, 11))
    def test_row_all_equals_numpy(self, width):
        rng = np.random.default_rng(100 + width)
        for rows in (1, 3, 1000):
            a = rng.random((rows, width)) < 0.9
            assert np.array_equal(_row_all(a), np.all(a, axis=1))


class TestUnfilteredEvaluate:
    """``OracleSolution.evaluate`` scores any point; the feasibility
    filter only restricts the search."""

    def test_location_outside_the_disks(self):
        cfg, state = feasible_instances(1, start_seed=0)[0]
        sol = oracle_location(cfg, state)
        far = (cfg.gt_positions[0][0] + 5e3, cfg.gt_positions[0][1])
        moved = replace(state, placement=replace(state.placement,
                                                 uav_xy=far))
        assert not check_feasibility(cfg, moved).feasible
        value = sol.evaluate(far)
        assert math.isfinite(value)
        assert value == pytest.approx(
            energy_breakdown(cfg, moved).uav_gt_comm, rel=1e-12)

    def test_altitude_beamwidth_too_narrow_to_cover(self):
        cfg, state = feasible_instances(1, start_seed=0)[0]
        sol = oracle_altitude_beamwidth(cfg, state)
        h = cfg.altitude_range[0]
        theta = cfg.beam_range_clamped[0]
        moved = replace(state, placement=replace(
            state.placement, altitude=h, half_beamwidth=theta))
        assert not check_feasibility(cfg, moved).feasible
        value = sol.evaluate((h, theta))
        assert math.isfinite(value)
        assert value == pytest.approx(
            energy_breakdown(cfg, moved).uav_gt_comm, rel=1e-12)

    def test_power_bandwidth_over_the_budget(self):
        cfg, state = feasible_instances(1, start_seed=0)[0]
        sol = oracle_power_bandwidth(cfg, state)
        over = tuple(cfg.uav_bandwidth_total for _ in range(cfg.num_gts))
        value = sol.evaluate(over)
        assert math.isfinite(value) and value > 0.0
        assert value < sol.value


class TestRefineMinimize:
    def test_zoom_beats_base_grid_resolution(self):
        target = np.array([0.31347, -0.5521])
        specs = [GridSpec(-1.0, 1.0, 51), GridSpec(-1.0, 1.0, 51)]
        point, value, cell = refine_minimize(
            lambda pts: np.sum((pts - target) ** 2, axis=1), specs, passes=5)
        assert point[0] == pytest.approx(target[0], abs=1e-4)
        assert point[1] == pytest.approx(target[1], abs=1e-4)
        assert max(cell) < specs[0].cell

    def test_boundary_optimum_reached(self):
        # Minimum pinned to a feasibility edge between grid lines.
        edge = 0.123456
        specs = [GridSpec(0.0, 1.0, 50)]
        point, value, _ = refine_minimize(
            lambda pts: pts[:, 0], specs,
            feasible=lambda pts: pts[:, 0] >= edge, passes=6)
        assert value == pytest.approx(edge, abs=1e-5)


class TestEnumerations:
    def test_task_enumeration_size_cap(self):
        doc = default_document(num_gts=13, data_kib=16.0)
        cfg = loads_scenario(doc)
        from saginpsc.algorithm import initialize
        state = initialize(cfg)
        with pytest.raises(OracleSizeError):
            enumerate_task_assignments(cfg, state)

    def test_task_enumeration_prefers_no_compression_on_ties(self):
        # A generous latency budget makes forwarding raw data feasible,
        # and raw forwarding spends the least energy, so every GT stays
        # unassigned.
        for cfg, state in feasible_instances(2, start_seed=10):
            a_s, a_u, energy = enumerate_task_assignments(cfg, state)
            assert energy <= reference_evaluation(cfg, state)[0] * (1 + 1e-12)

    def test_segment_enumeration_returns_midpoints(self):
        for cfg, state in feasible_instances(2, start_seed=3):
            combo, ratios, energy = enumerate_segment_choices(cfg, state)
            for k, d in enumerate(combo):
                curve = cfg.overhead_curves[k]
                assert ratios[k] == pytest.approx(curve.midpoint(d))
            assert math.isfinite(energy)


class TestFormulaCatalog:
    def test_unknown_id_raises(self):
        cfg = loads_scenario(default_document())
        with pytest.raises(KeyError):
            eval_formula_extended("nope", cfg)

    def test_propagation_delay_is_exact(self):
        cfg = loads_scenario(default_document())
        assert eval_formula_extended("t_P", cfg) == (
            cfg.sat_uav_distance / cfg.lightspeed)

    def test_channel_gain_matches_production(self):
        cfg = loads_scenario(default_document())
        from saginpsc.physics import Placement
        pl = Placement(uav_xy=(cfg.gt_positions[0][0] - 300.0,
                               cfg.gt_positions[0][1]),
                       altitude=400.0, half_beamwidth=1.0)
        ours = channel_gain_ug(cfg, pl, 0)
        ref = eval_formula_extended("g_k", cfg, horizontal_offset=300.0,
                                    altitude=400.0)
        assert ours == pytest.approx(ref, rel=1e-12)

    def test_sat_link_rate_matches_production(self):
        cfg = loads_scenario(default_document())
        assert rate_sat_uav(cfg) == pytest.approx(
            eval_formula_extended("r_SU", cfg), rel=1e-12)

    def test_uav_gt_rate_matches_production(self):
        cfg = loads_scenario(default_document())
        from saginpsc.physics import Placement
        pl = Placement(uav_xy=(0.0, 0.0), altitude=300.0,
                       half_beamwidth=math.pi / 4)
        k = 0
        ours = rate_uav_gt(cfg, pl, 2.5e6, 0.25, k)
        off = pl.horizontal_distance(cfg.gt_positions[k])
        ref = eval_formula_extended("r_k", cfg, horizontal_offset=off,
                                    altitude=300.0, theta=math.pi / 4,
                                    bandwidth=2.5e6, power=0.25)
        assert ours == pytest.approx(ref, rel=1e-12)

    def test_overhead_matches_curve(self):
        cfg = loads_scenario(default_document())
        curve = cfg.overhead_curves[0]
        for rho in (curve.ratio_min, 0.3, 0.45, 0.575, 0.7, 0.9, 1.0):
            assert eval_formula_extended(
                "O_k", cfg, gt_index=0, ratio=rho) == pytest.approx(
                    curve.evaluate(rho), rel=1e-12)


class TestReferenceEvaluation:
    def test_matches_production_model(self):
        for cfg, state in feasible_instances(3, start_seed=21):
            energy, latencies = reference_evaluation(cfg, state)
            assert energy == pytest.approx(total_energy(cfg, state), rel=1e-12)
            lat = latency_breakdown(cfg, state)
            for k in range(cfg.num_gts):
                assert latencies[k] == pytest.approx(lat.total[k], rel=1e-12)
