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
from saginpsc.subsolvers import SolverOptions, select_segments

import oracle_reference
from conftest import feasible_instances
from oracle_reference import (
    _row_all,
    _row_sum,
    reference_grid_minimize,
    reference_refine_minimize,
)


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


def _search_blocks(specs):
    """The (N, ndim) point blocks ``grid_minimize`` hands its objective,
    in the order it hands them over."""
    blocks = []

    def objective(pts):
        blocks.append(pts.copy())
        return np.zeros(pts.shape[0])

    grid_minimize(objective, specs)
    return blocks


class TestChunkPoints:
    """The points the mesh loop builds for an (N, ndim) objective are the
    grid's row-major points, block by block."""

    @staticmethod
    def _specs(rng, sizes):
        return [GridSpec(rng.uniform(-5.0, 0.0), rng.uniform(1.0, 5.0), n)
                for n in sizes]

    @staticmethod
    def _check_blocks(specs):
        axes = [np.linspace(s.lower, s.upper, s.points) for s in specs]
        total = math.prod(s.points for s in specs)
        row = total // specs[0].points
        # Whole leading-axis rows, about _CHUNK points and at least one row.
        step = max(1, oracle._CHUNK // row) * row
        start = 0
        for pts in _search_blocks(specs):
            stop = start + pts.shape[0]
            want = unravel_chunk_points(axes, start, stop)
            assert pts.tobytes() == want.tobytes()
            assert pts.shape == want.shape and pts.flags.c_contiguous
            assert pts.shape[0] == step or stop == total
            start = stop
        assert start == total

    @pytest.mark.parametrize("sizes", [(17,), (5, 7), (3, 4, 6), (2, 2, 2)])
    def test_every_chunk_equals_unravel_build(self, sizes, monkeypatch):
        # Every chunk size from one point to past the whole grid: blocks of
        # one row, of several rows or planes, a short last block, and the
        # whole grid in one block.
        specs = self._specs(np.random.default_rng(len(sizes)), sizes)
        for chunk in range(1, math.prod(sizes) + 2):
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            self._check_blocks(specs)

    def test_random_chunks_of_larger_grids(self, monkeypatch):
        rng = np.random.default_rng(11)
        for _ in range(200):
            sizes = tuple(int(n) for n in rng.integers(2, 40,
                                                       size=rng.integers(1, 4)))
            monkeypatch.setattr(oracle, "_CHUNK",
                                int(rng.integers(1, math.prod(sizes) + 1)))
            self._check_blocks(self._specs(rng, sizes))

    def test_grid_minimize_unchanged_across_chunk_sizes(self, monkeypatch):
        # A stepped objective with long runs of ties, searched in chunks
        # of 1, 7 and 64 points and in one chunk, against the old search.
        def objective(pts):
            return np.floor(3.0 * np.abs(pts[:, 0] - 0.4)) + np.floor(
                2.0 * np.abs(pts[:, -1] + 0.1))

        specs = [GridSpec(0.0, 1.0, 9), GridSpec(-1.0, 1.0, 7),
                 GridSpec(-0.5, 0.5, 5)]
        for dims in (1, 2, 3):
            want = reference_grid_minimize(objective, specs[:dims])
            for chunk in (1, 7, 64, 1 << 19):
                monkeypatch.setattr(oracle, "_CHUNK", chunk)
                got = grid_minimize(objective, specs[:dims])
                assert repr(got) == repr(want)


class TestMeshSearch:
    """The mesh loop against the old search over (N, ndim) points, for
    mesh scores and for point objectives."""

    SPECS = [GridSpec(0.0, 1.0, 9), GridSpec(-1.0, 1.0, 7),
             GridSpec(-0.5, 0.5, 5)]
    CHUNKS = (1, 7, 64, 9 * 7 * 5)

    # (mesh score, the same score of (N, ndim) points)
    CASES = {
        # Long runs of exactly equal values: the row-major tie-break decides.
        "stepped": (
            lambda *m: np.floor(3.0 * np.abs(m[0] - 0.4))
            + np.floor(2.0 * np.abs(m[-1] + 0.1)),
            lambda p: np.floor(3.0 * np.abs(p[:, 0] - 0.4))
            + np.floor(2.0 * np.abs(p[:, -1] + 0.1))),
        # Depends on the last axis only: a lower-rank result is broadcast.
        "one_axis": (lambda *m: np.abs(m[-1] - 0.3),
                     lambda p: np.abs(p[:, -1] - 0.3)),
        "flat": (lambda *m: np.zeros(()), lambda p: np.zeros(p.shape[0])),
        # +inf below 0.3 on the leading axis: whole first blocks reject.
        "filtered": (
            lambda *m: np.where(m[0] >= 0.3, np.abs(m[0] - 0.6) - m[-1],
                                np.inf),
            lambda p: np.where(p[:, 0] >= 0.3,
                               np.abs(p[:, 0] - 0.6) - p[:, -1], np.inf)),
    }

    @pytest.mark.parametrize("dims", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_point_and_value_as_points_search(self, dims, case,
                                                   monkeypatch):
        mesh_score, points_score = self.CASES[case]
        specs = self.SPECS[:dims]
        want = repr(reference_grid_minimize(points_score, specs))
        for chunk in self.CHUNKS:
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            assert repr(oracle._grid_search(mesh_score, specs)) == want
            assert repr(grid_minimize(points_score, specs)) == want

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refine_same_point_value_and_cell(self, case, monkeypatch):
        mesh_score, points_score = self.CASES[case]
        specs = [GridSpec(0.0, 1.0, 23), GridSpec(-1.0, 1.0, 19)]
        monkeypatch.setattr(oracle, "_CHUNK", 64)
        for passes in (0, 1, 3):
            want = repr(reference_refine_minimize(points_score, specs,
                                                  passes=passes))
            assert repr(oracle._refine(mesh_score, specs, passes)) == want
            assert repr(refine_minimize(points_score, specs,
                                        passes=passes)) == want

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_all_infeasible_raises(self, dims, monkeypatch):
        for chunk in self.CHUNKS:
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            for fill in (np.inf, np.nan):
                with pytest.raises(EmptyFeasibleError):
                    oracle._grid_search(lambda *m: np.full((), fill),
                                        self.SPECS[:dims])

    def test_nan_score_is_no_candidate(self):
        # argmin stops at the first NaN; the search used to skip the whole
        # block holding it and raise although 0.2 scores 0.
        point, value = grid_minimize(
            lambda p: np.where(p[:, 0] == 0.0, np.nan, abs(p[:, 0] - 0.2)),
            [GridSpec(0.0, 1.0, 11)])
        assert (point, value) == ((0.2,), 0.0)

    def test_nan_result_independent_of_blocks(self, monkeypatch):
        # NaN on every fourth leading row, the minimum in a block with NaN.
        def score(*m):
            return np.where(np.round(m[0] * 8.0) % 4 == 2, np.nan,
                            np.abs(m[0] - 0.625) + np.abs(m[-1]))

        specs = [GridSpec(0.0, 1.0, 9), GridSpec(-1.0, 1.0, 7)]
        results = set()
        for chunk in self.CHUNKS:
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            results.add(repr(oracle._grid_search(score, specs)))
        assert results == {repr(((0.625, 0.0), 0.0))}


class TestGtSum:
    """``_gt_sum`` adds per-GT terms exactly as ``np.sum`` adds a row."""

    @pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 9, 16, 130, 300])
    def test_equals_numpy_row_sum_bit_for_bit(self, width):
        rng = np.random.default_rng(width)
        rows = rng.standard_normal((60, width)) * 10.0 ** rng.integers(
            -12, 12, size=(60, width))
        rows[0] = -0.0
        rows[-1, -1] = -rows[-1, 0]
        want = np.sum(rows, axis=1)
        assert oracle._gt_sum(list(rows.T)).tobytes() == want.tobytes()
        # The same terms spread over a mesh: term k varies along the
        # first or the second axis of a (6, 10) block, or is one value.
        grid = rows.reshape(6, 10, width)
        terms = [grid[:, :1, k] if k % 3 == 0 else
                 grid[:1, :, k] if k % 3 == 1 else grid[:1, :1, k]
                 for k in range(width)]
        rows = np.stack(np.broadcast_arrays(*terms), axis=-1)
        assert (oracle._gt_sum(terms).tobytes()
                == np.sum(rows.reshape(-1, width), axis=1).tobytes())
        assert oracle._gt_sum(terms).shape == rows.shape[:-1]


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


def _outcome(solver, *args, **kwargs):
    """``repr((point, value, cell))`` of an oracle's solution, or of the
    exception it raised, and the solution (None after an exception)."""
    try:
        sol = solver(*args, **kwargs)
    except (EmptyFeasibleError, ArithmeticError, ValueError) as exc:
        return repr(exc), None
    return repr((sol.point, sol.value, sol.cell)), sol


def _own_segments(cfg, state):
    return tuple(cfg.overhead_curves[k].segment_of(r)
                 for k, r in enumerate(state.allocation.ratio))


ORACLES = ("oracle_ratio", "oracle_cpu", "oracle_power_bandwidth",
           "oracle_altitude_beamwidth", "oracle_location")


def _uav_instance():
    """A 2-GT instance where every GT compresses on the UAV with a CPU
    share, so every UAV term of every oracle is live."""
    cfg, state = feasible_instances(1, start_seed=3)[0]
    n = cfg.num_gts
    al = replace(state.allocation, task_sat=(0,) * n, task_uav=(1,) * n,
                 cpu=tuple(0.45 * cfg.uav_cpu_total for _ in range(n)))
    return cfg, replace(state, allocation=al)


class _FirstScore(Exception):
    pass


def _first_score(monkeypatch, module, refine, solver, *args, **kwargs):
    """The score and grid an oracle hands its first refined search; the
    search itself does not run."""
    def capture(score, specs, *_, **__):
        raise _FirstScore(score, specs)

    with monkeypatch.context() as patch:
        patch.setattr(module, refine, capture)
        with pytest.raises(_FirstScore) as caught:
            getattr(module, solver)(*args, **kwargs)
    return caught.value.args


class TestMeshOraclesMatchReference:
    """Each grid oracle returns the same point, value and cell as its
    pre-mesh version (``oracle_reference``), bit for bit, or raises the
    same exception; and its ``evaluate`` reproduces its value at its
    point."""

    @staticmethod
    def _compare(name, cfg, state, *args, **kwargs):
        new = getattr(oracle, name)
        old = getattr(oracle_reference, "reference_" + name)
        got, sol = _outcome(new, cfg, state, *args, **kwargs)
        assert got == _outcome(old, cfg, state, *args, **kwargs)[0], name
        if sol is not None:
            assert sol.evaluate(sol.point) == sol.value, name
        return sol

    @pytest.mark.slow
    @pytest.mark.parametrize("start_seed", [100, 200])
    def test_benchmark_style_draws(self, start_seed):
        # The benchmark's oracle_instances(1) and (2): the same draws.
        for cfg, state in feasible_instances(4, start_seed=start_seed):
            for name in ORACLES:
                args = ((_own_segments(cfg, state),)
                        if name == "oracle_ratio" else ())
                self._compare(name, cfg, state, *args)

    @pytest.mark.slow
    def test_acceptance_instances(self):
        # The first c02/c03/c05 and c06 instances, as those tests call the
        # oracles; some compress on the UAV with a CPU share.
        uav = 0
        for i, (cfg, state) in enumerate(feasible_instances(10)):
            uav += any(state.allocation.task_uav)
            self._compare("oracle_cpu", cfg, state)
            self._compare("oracle_power_bandwidth", cfg, state)
            choice, feas = select_segments(cfg, state, SolverOptions())
            if feas:
                self._compare("oracle_ratio", cfg, state,
                              choice.chosen_segment)
            if i < 5:
                self._compare("oracle_location", cfg, state)
                self._compare("oracle_altitude_beamwidth", cfg, state)
        assert uav >= 2

    @pytest.mark.parametrize("num_gts, points", [(1, None), (3, 40), (9, 3)])
    def test_other_gt_counts(self, num_gts, points):
        # One axis; three axes; nine axes, where every GT sum runs in
        # np.sum's pairwise order.  The 2-D oracles keep their own sizes
        # except at nine GTs.
        per_gt = {} if points is None else {"points": points}
        planar = {} if num_gts < 9 else {"points": 201}
        seen_cpu = False
        for cfg, state in feasible_instances(2, num_gts=num_gts):
            seen_cpu |= any(c > 0.0 for c in state.allocation.cpu)
            self._compare("oracle_ratio", cfg, state,
                          _own_segments(cfg, state), **per_gt)
            self._compare("oracle_cpu", cfg, state, **per_gt)
            # Three bandwidths per axis leave most GTs at 1e-5 of the
            # total, whose power no budget of nine GTs meets.
            ample = (replace(cfg, uav_power_budget=1e300) if num_gts == 9
                     else cfg)
            assert self._compare("oracle_power_bandwidth", ample, state,
                                 **per_gt) is not None
            self._compare("oracle_altitude_beamwidth", cfg, state, **planar)
            self._compare("oracle_location", cfg, state, **planar)
        assert seen_cpu

    def test_uav_compressing_state(self):
        cfg, state = _uav_instance()
        for name in ORACLES:
            args = ((_own_segments(cfg, state),)
                    if name == "oracle_ratio" else ())
            self._compare(name, cfg, state, *args)

    @pytest.mark.parametrize("name", ORACLES)
    def test_every_grid_score_bit_identical(self, name, monkeypatch):
        # Not only the argmin: the first search's score at every point of
        # its grid, mesh against (N, ndim) points, on a 2-GT instance with
        # every UAV term live (also with 1.3 cycles per overhead unit, so
        # no factor of kappa is exact) and on a 3-GT instance.
        planar = name in ("oracle_altitude_beamwidth", "oracle_location")
        uav_cfg, uav_state = _uav_instance()
        for (cfg, state), points in (
                ((uav_cfg, uav_state), 600),
                ((replace(uav_cfg, cycles_per_overhead=1.3), uav_state), 600),
                (feasible_instances(1, num_gts=3)[0], 600 if planar else 60)):
            kwargs = {"points": points}
            args = ((_own_segments(cfg, state),)
                    if name == "oracle_ratio" else ())
            new, specs = _first_score(monkeypatch, oracle, "_refine", name,
                                      cfg, state, *args, **kwargs)
            old, old_specs = _first_score(
                monkeypatch, oracle_reference, "reference_refine_minimize",
                "reference_" + name, cfg, state, *args, **kwargs)
            assert specs == old_specs
            axes = [np.linspace(s.lower, s.upper, s.points) for s in specs]
            shape = tuple(a.size for a in axes)
            got = np.broadcast_to(new(*np.ix_(*axes)), shape).ravel()
            want = old(unravel_chunk_points(axes, 0, math.prod(shape)))
            assert got.tobytes() == want.tobytes()
            assert np.isfinite(got).any()


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
