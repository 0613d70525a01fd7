import ast
import math
import tracemalloc
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
    _squared_distance,
    check_feasibility,
    energy_breakdown,
    latency_terms,
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


def _result(search, *args):
    """``repr`` of a search's result, or of the EmptyFeasibleError."""
    try:
        return repr(search(*args))
    except EmptyFeasibleError as exc:
        return repr(exc)


class TestColumnWindow:
    """A column window that leaves out only columns scoring +inf changes
    no result of ``_grid_search`` or ``_refine``, at any block size."""

    STRIPS = 6

    @classmethod
    def _problem(cls, rng, dims, kind):
        """A mesh score on [0, 1]^dims, finite only where the second
        coordinate lies in a random interval of the leading coordinate's
        strip, and the exact window of a block's strips; plus a counter of
        the points scored.  ``kind``: "random" values in four levels (long
        runs of ties) with NaN inside the intervals, "flat" (every finite
        point ties, so the first one in row-major order, at a window edge,
        wins) or "empty" (no interval holds a point)."""
        n = cls.STRIPS
        bounds = np.sort(rng.random((n, 2)), axis=1)
        bounds[rng.random(n) < 0.3] = 0.5  # some strips with no interval
        if kind == "empty":
            bounds[:] = 0.5
        table = rng.integers(0, 4, size=(n,) * dims).astype(float)
        if kind == "flat":
            table[:] = 0.0
        else:
            table[rng.random(table.shape) < 0.1] = np.nan
        scored = [0]

        def strip(v):
            return np.minimum((v * n).astype(int), n - 1)

        def score(*m):
            scored[0] += math.prod(np.broadcast_shapes(*(a.shape for a in m)))
            i = strip(m[0])
            inside = (bounds[i, 0] <= m[1]) & (m[1] < bounds[i, 1])
            return np.where(inside, table[tuple(strip(a) for a in m)], np.inf)

        def window(rows, cols):
            lo, hi = bounds[np.unique(strip(rows))].T
            some = lo < hi
            # No interval in the block: lo past hi, an empty window.
            return (int(np.searchsorted(cols, np.min(lo, where=some,
                                                     initial=1.0))),
                    int(np.searchsorted(cols, np.max(hi, where=some,
                                                     initial=0.0))))

        return score, window, scored

    @pytest.mark.parametrize("kind", ["random", "flat", "empty"])
    @pytest.mark.parametrize("sizes", [(9, 11), (6, 7, 5)])
    def test_grid_search_same_result_at_every_chunk_size(self, sizes, kind,
                                                          monkeypatch):
        specs = [GridSpec(0.0, 1.0, n) for n in sizes]
        for seed in range(8):
            score, window, scored = self._problem(
                np.random.default_rng(seed), len(sizes), kind)
            skipped = 0
            for chunk in range(1, math.prod(sizes) + 1):
                monkeypatch.setattr(oracle, "_CHUNK", chunk)
                scored[0] = 0
                want = _result(oracle._grid_search, score, specs)
                whole = scored[0]
                scored[0] = 0
                got = _result(oracle._grid_search, score, specs, window)
                assert got == want, (seed, chunk)
                skipped += whole - scored[0]
                if kind == "empty":
                    assert got.startswith("EmptyFeasibleError")
                    assert scored[0] == 0
            assert skipped > 0

    @pytest.mark.parametrize("kind", ["random", "flat", "empty"])
    def test_refine_same_result(self, kind, monkeypatch):
        specs = [GridSpec(0.0, 1.0, 23), GridSpec(0.0, 1.0, 19),
                 GridSpec(0.0, 1.0, 5)]
        for seed in range(8):
            for dims in (2, 3):
                score, window, _ = self._problem(
                    np.random.default_rng(seed), dims, kind)
                for chunk in (1, 19, 64, 23 * 19 * 5):
                    monkeypatch.setattr(oracle, "_CHUNK", chunk)
                    for passes in (0, 1, 3):
                        args = (score, specs[:dims], passes)
                        assert (_result(oracle._refine, *args, window)
                                == _result(oracle._refine, *args))


class TestColumnBound:
    """A column bound no greater than any finite score of its column
    changes no result of ``_grid_search`` or ``_refine``, at any block
    size, with or without a column window."""

    @staticmethod
    def _problem(rng, dims, kind):
        """``TestColumnWindow``'s problem and a column bound: the least
        finite score of the column over the block and the later axes,
        exact on some column strips, looser by a random amount on others
        and NaN on a few.  In the "flat" kind about half the column strips
        score 1 and the rest 0, so once a 0 is found the bound leaves out
        the strips of 1, and every point it scores ties, the first of them
        at an edge of the run of columns."""
        score, window, scored = TestColumnWindow._problem(rng, dims, kind)
        n = TestColumnWindow.STRIPS
        loose = np.where(rng.random(n) < 0.5, 0.0, rng.random(n))
        loose[rng.random(n) < 0.15] = np.nan
        if kind == "flat":
            high = (rng.random(n) < 0.5).astype(float)
            inner = score

            def score(*m):
                return inner(*m) + high[np.minimum((m[1] * n).astype(int),
                                                   n - 1)]

        def lower(rows, cols, *later):
            before = scored[0]
            vals = np.broadcast_to(score(*np.ix_(rows, cols, *later)),
                                   (rows.size, cols.size,
                                    *(a.size for a in later)))
            scored[0] = before
            vals = np.where(np.isnan(vals), np.inf, vals)
            least = np.moveaxis(vals, 1, 0).reshape(cols.size, -1).min(axis=1)
            return least - loose[np.minimum((cols * n).astype(int), n - 1)]

        return score, window, lower, scored

    @pytest.mark.parametrize("kind", ["random", "flat", "empty"])
    @pytest.mark.parametrize("sizes", [(9, 11), (6, 7, 5)])
    def test_grid_search_same_result_at_every_chunk_size(self, sizes, kind,
                                                          monkeypatch):
        specs = [GridSpec(0.0, 1.0, n) for n in sizes]
        skipped = 0
        for seed in range(4):
            score, window, lower, scored = self._problem(
                np.random.default_rng(seed), len(sizes), kind)
            for chunk in range(1, math.prod(sizes) + 1):
                monkeypatch.setattr(oracle, "_CHUNK", chunk)
                want = _result(oracle._grid_search, score, specs)
                scored[0] = 0
                _result(oracle._grid_search, score, specs, window)
                windowed = scored[0]
                scored[0] = 0
                got = _result(oracle._grid_search, score, specs, window,
                              lower)
                assert got == want, (seed, chunk)
                skipped += windowed - scored[0]
                assert (_result(oracle._grid_search, score, specs, None,
                                lower) == want), (seed, chunk)
        if kind != "empty":
            assert skipped > 0

    @pytest.mark.parametrize("kind", ["random", "flat", "empty"])
    def test_refine_same_result(self, kind, monkeypatch):
        specs = [GridSpec(0.0, 1.0, 23), GridSpec(0.0, 1.0, 19),
                 GridSpec(0.0, 1.0, 5)]
        for seed in range(4):
            for dims in (2, 3):
                score, window, lower, _ = self._problem(
                    np.random.default_rng(seed), dims, kind)
                for chunk in (1, 19, 64, 23 * 19 * 5):
                    monkeypatch.setattr(oracle, "_CHUNK", chunk)
                    for passes in (0, 1, 3):
                        args = (score, specs[:dims], passes)
                        want = _result(oracle._refine, *args)
                        assert _result(oracle._refine, *args, window,
                                       lower) == want
                        assert _result(oracle._refine, *args, None,
                                       lower) == want


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
            chosen, feas = select_segments(
                cfg, state, SolverOptions(), latency_terms(cfg, state))
            if feas:
                self._compare("oracle_ratio", cfg, state, chosen)
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


def _first_call(monkeypatch, solver, cfg, state, *args, **kwargs):
    """The score, grid, column window and column bound an oracle hands its
    first refined search; the search itself does not run."""
    def capture(score, specs, passes, window=None, lower=None):
        raise _FirstScore(score, specs, window, lower)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_refine", capture)
        with pytest.raises(_FirstScore) as caught:
            getattr(oracle, solver)(cfg, state, *args, **kwargs)
    return caught.value.args


def _first_search(monkeypatch, solver, cfg, state, **kwargs):
    """The score, grid and column window of :func:`_first_call`."""
    return _first_call(monkeypatch, solver, cfg, state, **kwargs)[:3]


def _assert_window_sound(score, specs, window):
    """Every grid point that scores finite lies inside its block's column
    window, for blocks of one leading row, of the search's own size and of
    the whole grid.  Returns the share of the grid the search's own blocks
    leave out."""
    axes = [np.linspace(s.lower, s.upper, s.points) for s in specs]
    lead, *later = np.ix_(*axes)
    rows, cols, *rest = (a.size for a in axes)
    step = max(1, oracle._CHUNK // (cols * math.prod(rest)))
    # Whether any point of a (row, column) pair scores finite.
    finite = np.concatenate([
        np.isfinite(np.broadcast_to(score(lead[r:r + step], *later),
                                    (lead[r:r + step].size, cols, *rest)))
        .reshape(-1, cols, math.prod(rest)).any(axis=2)
        for r in range(0, rows, step)])
    assert finite.any()
    left_out = 0
    for block in (1, step, rows):
        for r0 in range(0, rows, block):
            lo, hi = window(axes[0][r0:r0 + block], axes[1])
            live = np.flatnonzero(finite[r0:r0 + block].any(axis=0))
            assert live.size == 0 or lo <= live[0] and live[-1] < hi, (
                block, r0, lo, hi, live[0], live[-1])
            if block == step:
                left_out += (min(block, rows - r0)
                             * (cols - max(hi - lo, 0)))
    return left_out / (rows * cols)


WINDOWED = ("oracle_power_bandwidth", "oracle_altitude_beamwidth",
            "oracle_location")


def _shifted(cfg, state, offset):
    """The instance with the GTs and the UAV moved by ``offset`` m in x
    and y."""
    x, y = state.placement.uav_xy
    cfg = replace(cfg, gt_positions=tuple((gx + offset, gy + offset)
                                          for gx, gy in cfg.gt_positions))
    return cfg, replace(state, placement=replace(
        state.placement, uav_xy=(x + offset, y + offset)))


class TestOracleWindowsSound:
    """The column windows of the power/bandwidth, altitude/beamwidth and
    location oracles leave out only columns that score +inf, on every
    block of the grid the oracle's first search walks."""

    @pytest.mark.parametrize("start_seed", [100, 200])
    def test_benchmark_draws(self, start_seed, monkeypatch):
        # The benchmark's oracle_instances(1) and (2), at default sizes;
        # the windows leave out most of what scores +inf (about half of
        # each power and location grid, a fifth of each altitude grid).
        for cfg, state in feasible_instances(4, start_seed=start_seed):
            left_out = {name: _assert_window_sound(*_first_search(
                monkeypatch, name, cfg, state)) for name in WINDOWED}
            assert left_out["oracle_power_bandwidth"] > 0.45
            assert left_out["oracle_altitude_beamwidth"] > 0.15
            assert left_out["oracle_location"] > 0.45

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_feasible_instances(self, offset, monkeypatch):
        for cfg, state in feasible_instances(5):
            cfg, state = _shifted(cfg, state, offset)
            for name in WINDOWED:
                _assert_window_sound(*_first_search(
                    monkeypatch, name, cfg, state, points=1001))

    @pytest.mark.parametrize("num_gts, points", [(3, 40), (9, 3)])
    def test_power_grids_of_more_gts(self, num_gts, points, monkeypatch):
        for cfg, state in feasible_instances(2, num_gts=num_gts):
            ample = replace(cfg, uav_power_budget=1e300)
            _assert_window_sound(*_first_search(
                monkeypatch, "oracle_power_bandwidth", ample, state,
                points=points))

    def test_latency_disk_ulps_from_a_grid_point(self, monkeypatch):
        # GT 1's latency disk cuts GT 0's, whose bounding box alone sets
        # the grid.  GT 1's power is bisected down to adjacent doubles
        # between which a grid point at its disk's edge turns feasible,
        # where the latency tolerance, not the radius the grid is built
        # from, decides.
        cfg, state = feasible_instances(1)[0]
        x0, y0 = cfg.gt_positions[0]
        cfg = replace(cfg, gt_positions=((x0, y0), (x0 + 50.0, y0 + 50.0)))
        h = state.placement.altitude
        theta = math.atan(400.0 / h)  # both disks latency-bound
        state = replace(state, placement=replace(state.placement,
                                                 half_beamwidth=theta))
        slack, bits, bw, _ = oracle._hop_terms(cfg, state)

        def power(k, radius):
            snr = 2.0 ** (bits[k] / (bw[k] * slack[k])) - 1.0
            return ((radius ** 2 + h * h) * theta * theta * bw[k]
                    * cfg.noise_psd * snr
                    / (cfg.antenna_gain_const * cfg.ref_channel_gain))

        def search(p1):
            al = replace(state.allocation, power=(power(0, 100.0), p1))
            return _first_search(monkeypatch, "oracle_location", cfg,
                                 replace(state, allocation=al), points=201)

        _, specs, _ = search(power(1, 160.0))
        x, y = np.ix_(*(np.linspace(s.lower, s.upper, s.points)
                        for s in specs))
        to_gt1 = np.sqrt((x - x0 - 50.0) ** 2 + (y - y0 - 50.0) ** 2)
        inside = (x - x0) ** 2 + (y - y0) ** 2 < 95.0 ** 2
        i, j = np.unravel_index(np.argmin(np.where(
            inside, np.abs(to_gt1 - 160.0), np.inf)), to_gt1.shape)

        def feasible(p1):
            score, grid, _ = search(p1)
            assert grid == specs
            return bool(np.isfinite(score(x[i:i + 1], y[:, j:j + 1])).all())

        lo = power(1, to_gt1[i, j]) * (1.0 - 1e-9)
        hi = power(1, to_gt1[i, j]) * (1.0 + 1e-9)
        assert not feasible(lo) and feasible(hi)
        while np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if feasible(mid) else (mid, hi)
        for p1 in (lo, hi):
            for _ in range(3):
                _assert_window_sound(*search(p1))
                p1 = np.nextafter(p1, 2.0 * p1 - 0.5 * (lo + hi))


def _assert_bound_sound(score, specs, lower):
    """Every column's bound is at most every finite score of the column,
    for blocks of one leading row, of the search's own size and of the
    whole grid; a NaN bound leaves its column in, so it passes."""
    axes = [np.linspace(s.lower, s.upper, s.points) for s in specs]
    lead, *later = np.ix_(*axes)
    rows, cols, *rest = (a.size for a in axes)
    step = max(1, oracle._CHUNK // (cols * math.prod(rest)))

    def check(r0, r1, least):
        bound = lower(axes[0][r0:r1], axes[1], *axes[2:])
        assert not np.any(bound > least), (r0, r1)

    whole = np.full(cols, np.inf)
    for r0 in range(0, rows, step):
        block = lead[r0:r0 + step]
        vals = np.broadcast_to(score(block, *later), (block.size, cols, *rest))
        # Each (row, column) pair's least finite score over later axes.
        least = np.where(np.isnan(vals), np.inf, vals).reshape(
            block.size, cols, -1).min(axis=2)
        for r in range(block.size):
            check(r0 + r, r0 + r + 1, least[r])
        check(r0, r0 + step, least.min(axis=0))
        whole = np.minimum(whole, least.min(axis=0))
    assert np.isfinite(whole).any()
    check(0, rows, whole)


SEPARABLE = ("oracle_ratio", "oracle_cpu", "oracle_power_bandwidth")


def _segments_arg(name, cfg, state):
    return (_own_segments(cfg, state),) if name == "oracle_ratio" else ()


class TestOracleBoundsSound:
    """The column bounds of the ratio, CPU and power/bandwidth oracles are
    at most every finite score of their columns, on every block of the
    grid the oracle's first search walks."""

    @staticmethod
    def _check(monkeypatch, cfg, state, **kwargs):
        """Checks each separable oracle that hands its search a bound and
        returns their names."""
        bounded = set()
        for name in SEPARABLE:
            if name == "oracle_cpu" and not any(state.allocation.task_uav):
                continue  # no search: no CPU share to choose
            score, specs, _, lower = _first_call(
                monkeypatch, name, cfg, state,
                *_segments_arg(name, cfg, state), **kwargs)
            if lower is not None:
                _assert_bound_sound(score, specs, lower)
                bounded.add(name)
        return bounded

    @pytest.mark.parametrize("start_seed", [100, 200])
    def test_benchmark_draws(self, start_seed, monkeypatch):
        # The benchmark's oracle_instances(1) and (2), at default sizes.
        for cfg, state in feasible_instances(4, start_seed=start_seed):
            assert {"oracle_ratio", "oracle_power_bandwidth"} <= self._check(
                monkeypatch, cfg, state)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_feasible_instances(self, offset, monkeypatch):
        for cfg, state in feasible_instances(5):
            self._check(monkeypatch, *_shifted(cfg, state, offset),
                        points=1001)

    def test_uav_compressing_state(self, monkeypatch):
        assert self._check(monkeypatch, *_uav_instance()) == set(SEPARABLE)

    @pytest.mark.parametrize("num_gts, points", [(3, 40), (9, 3)])
    def test_grids_of_more_gts(self, num_gts, points, monkeypatch):
        # Nine GTs sum their terms in np.sum's pairwise order.
        for cfg, state in feasible_instances(2, num_gts=num_gts):
            ample = replace(cfg, uav_power_budget=1e300)
            assert len(self._check(monkeypatch, ample, state,
                                   points=points)) >= 2

    def test_benchmark_draws_score_under_a_fifth(self, monkeypatch):
        # Over the benchmark's 8 draws the bounds leave the ratio and the
        # power/bandwidth searches about a tenth of their grid points.
        counts = {name: [0, 0] for name in SEPARABLE}
        search = oracle._grid_search

        def counted(score, specs, window=None, lower=None):
            def tally(*mesh):
                counts[name][0] += math.prod(
                    np.broadcast_shapes(*(m.shape for m in mesh)))
                return score(*mesh)
            counts[name][1] += math.prod(s.points for s in specs)
            return search(tally, specs, window, lower)

        monkeypatch.setattr(oracle, "_grid_search", counted)
        for start_seed in (100, 200):
            for cfg, state in feasible_instances(4, start_seed=start_seed):
                for name in ("oracle_ratio", "oracle_power_bandwidth"):
                    getattr(oracle, name)(cfg, state,
                                          *_segments_arg(name, cfg, state))
        for name in ("oracle_ratio", "oracle_power_bandwidth"):
            scored, nominal = counts[name]
            assert 0 < scored < 0.2 * nominal, (name, scored / nominal)


def test_power_bandwidth_without_hop_slack_raises():
    # GT 1's latency left for its UAV-GT hop is -1 ms, so no bandwidth
    # meets its budget; the oracle used to return 1.03e-8 J from negative
    # powers.
    cfg, state = feasible_instances(1, start_seed=100)[0]
    slack = oracle._hop_terms(cfg, state)[0]
    cfg = replace(cfg, latency_budget=cfg.latency_budget - slack[1] - 1e-3)
    assert oracle._hop_terms(cfg, state)[0][1] == pytest.approx(-1e-3)
    with pytest.raises(EmptyFeasibleError, match="GT 1"):
        oracle_power_bandwidth(cfg, state)


@pytest.mark.parametrize("name", ["oracle_ratio", "oracle_power_bandwidth",
                                  "oracle_altitude_beamwidth",
                                  "oracle_location"])
def test_one_oracle_call_peaks_under_4_mb(name):
    # The benchmark's four oracles at their default sizes on its first
    # draw: blocks of _CHUNK points keep each temporary at 256 KiB, where
    # blocks of 2^19 points peaked at 12.5-29.9 MB.
    cfg, state = feasible_instances(1, start_seed=100)[0]
    args = (_own_segments(cfg, state),) if name == "oracle_ratio" else ()
    tracemalloc.start()
    try:
        getattr(oracle, name)(cfg, state, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


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
        ours = cfg.ref_channel_gain / _squared_distance(cfg, pl)[0]
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
            lat = latency_terms(cfg, state)
            for k in range(cfg.num_gts):
                assert latencies[k] == pytest.approx(lat.total[k], rel=1e-12)
