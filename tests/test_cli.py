import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from saginpsc.algorithm import run_scheme
from saginpsc.cli import OPTIONS_ENV_VAR, _grid_axis, main
from saginpsc.physics import (
    check_feasibility,
    downlink_energy_grid,
    energy_breakdown,
    latency_breakdown,
)
from saginpsc.scenario import default_document, load_scenario, loads_scenario

from conftest import feasible_instances

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture()
def runner():
    return CliRunner()


def _write_scenario(path, **kwargs):
    doc = default_document(**kwargs)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture()
def scenario_path(tmp_path):
    return _write_scenario(tmp_path / "scenario.json", num_gts=3,
                           data_kib=16.0)


class TestGenScenario:
    def test_output_round_trips(self, runner, tmp_path):
        out = tmp_path / "doc.json"
        res = runner.invoke(main, ["gen-scenario", "--num-gts", "2",
                                   "--data-kib", "16", "--out", str(out)])
        assert res.exit_code == 0
        cfg = loads_scenario(json.loads(out.read_text()))
        assert cfg.num_gts == 2
        assert cfg.data_bits == (16 * 1024 * 8.0,) * 2

    def test_rejects_nonpositive_sizes(self, runner):
        res = runner.invoke(main, ["gen-scenario", "--data-kib", "0"])
        assert res.exit_code == 1


class TestSolve:
    def test_feasible_run_exits_zero(self, runner, scenario_path, tmp_path):
        out = tmp_path / "result.json"
        res = runner.invoke(main, ["solve", "--scenario", str(scenario_path),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        doc = json.loads(out.read_text())
        assert doc["scheme"] == "sagin_psc"
        assert doc["feasible"] is True
        assert doc["converged"] is True
        assert len(doc["trace"]) - 1 == doc["iterations"] <= 10
        objs = [t["objective"] for t in doc["trace"]]
        assert objs == sorted(objs, reverse=True) or all(
            b <= a * (1 + 1e-9) for a, b in zip(objs, objs[1:]))

    def test_infeasible_model_exits_two(self, runner, tmp_path):
        doc = default_document(num_gts=3, data_kib=16.0)
        doc["latency_budget"] = 1e-3
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        res = runner.invoke(main, ["solve", "--scenario", str(path)])
        assert res.exit_code == 2

    def test_missing_scenario_exits_one(self, runner):
        res = runner.invoke(main, ["solve", "--scenario", "/no/such/file.json"])
        assert res.exit_code == 1

    @pytest.mark.parametrize("field, value", [
        ("num_gts", "four"),
        ("sat_uav_distance", "200e3"),
        ("altitude_range", 100.0),
        ("latency_budget", math.inf),
        ("uav_power_budget", math.inf),
    ])
    def test_bad_scenario_value_exits_one(self, runner, tmp_path, field,
                                          value):
        # Before validation these ended in a traceback, or solved to a NaN
        # energy and exited 2 as if the model were infeasible.
        doc = default_document(num_gts=3, data_kib=16.0)
        doc[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        res = runner.invoke(main, ["solve", "--scenario", str(path)])
        assert res.exit_code == 1
        assert f"Error: {field}: " in res.output

    @pytest.mark.parametrize("position", [[10.0], [math.nan, 0.0]])
    def test_bad_gt_position_exits_one(self, runner, tmp_path, position):
        doc = default_document(num_gts=3, data_kib=16.0)
        doc["gt_positions"][0] = position
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        res = runner.invoke(main, ["solve", "--scenario", str(path)])
        assert res.exit_code == 1
        assert "Error: gt_positions[0]: " in res.output

    def test_bad_scheme_exits_one(self, runner, scenario_path):
        res = runner.invoke(main, ["solve", "--scenario", str(scenario_path),
                                   "--scheme", "magic"])
        assert res.exit_code == 1

    def test_options_file_and_env_var(self, runner, scenario_path, tmp_path):
        opts = tmp_path / "opts.json"
        opts.write_text(json.dumps({"max_outer_iters": 1}), encoding="utf-8")
        out = tmp_path / "result.json"
        runner.invoke(main, ["solve", "--scenario", str(scenario_path),
                             "--opts", str(opts), "--out", str(out)])
        assert json.loads(out.read_text())["iterations"] == 1

        out2 = tmp_path / "result2.json"
        runner.invoke(main, ["solve", "--scenario", str(scenario_path),
                             "--out", str(out2)],
                      env={OPTIONS_ENV_VAR: str(opts)})
        assert json.loads(out2.read_text())["iterations"] == 1

    def test_bad_options_file_exits_one(self, runner, scenario_path, tmp_path):
        opts = tmp_path / "opts.json"
        opts.write_text(json.dumps({"max_outer_iters": -3}), encoding="utf-8")
        res = runner.invoke(main, ["solve", "--scenario", str(scenario_path),
                                   "--opts", str(opts)])
        assert res.exit_code == 1

    @pytest.mark.parametrize("text", [
        '{"solver": {"dual_max_iters": 2.5}}',
        '{"solver": {"location_grid_points": 10.5}}',
        '{"max_outer_iters": true}',
        '{"solver": {"dual_tolerance": NaN}, "outer_tolerance": Infinity}',
        '"max_outer_iters"',
    ])
    def test_non_integer_or_non_finite_options_exit_one(
            self, runner, scenario_path, tmp_path, text):
        # JSON parses each of these; before validation they crashed a
        # solve or the loader, capped a solve at one iteration, or made no
        # dual iterate feasible.
        opts = tmp_path / "opts.json"
        opts.write_text(text, encoding="utf-8")
        res = runner.invoke(main, ["solve", "--scenario", str(scenario_path),
                                   "--opts", str(opts)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "bad options file" in res.output
        assert "Traceback" not in res.output


class TestSweep:
    def _run(self, runner, scenario_path, tmp_path, extra=()):
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--scenario", str(scenario_path),
                "--param", "data_bits",
                "--values", "65536,131072",
                "--schemes", "sagin_psc,non_semantic",
                "--out", str(out)] + list(extra)
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        return out.read_text()

    def test_csv_shape_and_ordering(self, runner, scenario_path, tmp_path):
        text = self._run(runner, scenario_path, tmp_path)
        lines = text.splitlines()
        assert lines[0] == "scheme,param,value,e_S,e_SU,e_U,e_UG,total,iters,feasible"
        assert len(lines) == 1 + 2 * 2
        keys = [(row.split(",")[0], float(row.split(",")[2]))
                for row in lines[1:]]
        assert keys == sorted(keys)
        for row in lines[1:]:
            cells = row.split(",")
            assert cells[1] == "data_bits"
            assert cells[9] in ("true", "false")
            total = float(cells[7])
            parts = sum(float(c) for c in cells[3:7])
            assert total == pytest.approx(parts, rel=1e-9)

    def test_parallel_output_matches_serial(self, runner, scenario_path,
                                            tmp_path):
        serial = self._run(runner, scenario_path, tmp_path)
        parallel = self._run(runner, scenario_path, tmp_path,
                             extra=["--jobs", "3"])
        assert parallel == serial

    def test_empty_values_exit_one(self, runner, scenario_path):
        res = runner.invoke(main, ["sweep", "--scenario", str(scenario_path),
                                   "--param", "data_bits", "--values", " , "])
        assert res.exit_code == 1

    def test_nonnumeric_values_exit_one(self, runner, scenario_path):
        res = runner.invoke(main, ["sweep", "--scenario", str(scenario_path),
                                   "--param", "data_bits", "--values", "a,b"])
        assert res.exit_code == 1

    def test_unknown_scheme_exits_one(self, runner, scenario_path):
        res = runner.invoke(main, ["sweep", "--scenario", str(scenario_path),
                                   "--param", "data_bits",
                                   "--values", "65536",
                                   "--schemes", "sagin_psc,quantum"])
        assert res.exit_code == 1

    def test_negative_value_exits_one(self, runner, scenario_path):
        res = runner.invoke(main, ["sweep", "--scenario", str(scenario_path),
                                   "--param", "data_bits",
                                   "--values", "-65536"])
        assert res.exit_code == 1


class TestHeatmap:
    def test_single_gt_minimum_sits_near_the_gt(self, runner, tmp_path):
        path = _write_scenario(tmp_path / "one.json", num_gts=1,
                               data_kib=16.0)
        doc = json.loads(path.read_text())
        gx, gy = doc["gt_positions"][0]
        out = tmp_path / "heat.csv"
        res = runner.invoke(main, ["heatmap", "--scenario", str(path),
                                   "--grid-points", "41", "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,objective,feasible"
        assert len(lines) == 1 + 41 * 41
        best = min(lines[1:], key=lambda row: float(row.split(",")[2]))
        bx, by = float(best.split(",")[0]), float(best.split(",")[1])
        span = max(abs(float(r.split(",")[0]) - gx) for r in lines[1:])
        assert math.hypot(bx - gx, by - gy) <= 0.1 * span

    @staticmethod
    def reference_cells(cfg, base, xs, ys):
        """Per-cell loop: energy, feasibility and violation codes of the
        state with the UAV moved to each grid point."""
        energy, feasible, codes = [], [], set()
        for x in xs:
            for y in ys:
                state = replace(base, placement=replace(base.placement,
                                                        uav_xy=(x, y)))
                report = check_feasibility(cfg, state)
                energy.append(energy_breakdown(cfg, state).uav_gt_comm)
                feasible.append(report.feasible)
                codes.add(frozenset(report.codes()))
        shape = (len(xs), len(ys))
        return (np.reshape(energy, shape), np.reshape(feasible, shape),
                codes)

    def test_batched_grid_matches_per_cell_loop(self):
        # Location-pinned solves, as the command runs them, plus random
        # states that compress on the UAV.
        cases = [(cfg, run_scheme(cfg, "fixed_location").state) for cfg in (
            load_scenario(SCENARIOS / "default.json"),
            load_scenario(SCENARIOS / "heatmap_unequal.json"),
            loads_scenario(default_document(num_gts=1, data_kib=16.0)),
            loads_scenario(default_document(num_gts=8, data_kib=16.0)))]
        cases += feasible_instances(2, start_seed=0, num_gts=3)
        assert any(any(state.allocation.task_uav) for _, state in cases)
        n = 25
        seen = set()
        for cfg, base in cases:
            scale = 2.0 * cfg.uav_power_budget / sum(base.allocation.power)
            over_budget = replace(base, allocation=replace(
                base.allocation,
                power=tuple(scale * p for p in base.allocation.power)))
            relaxed = replace(cfg, latency_budget=10.0 * cfg.latency_budget)
            tight = replace(cfg, latency_budget=max(
                latency_breakdown(cfg, base).total))
            for case, state in ((cfg, base), (cfg, over_budget),
                                (relaxed, base), (tight, base)):
                cover = state.placement.coverage_radius
                lo_hi = [(min(c) - cover, max(c) + cover)
                         for c in zip(*case.gt_positions)]
                xs, ys = (_grid_axis(lo, hi, n) for lo, hi in lo_hi)
                for axis, (lo, hi) in zip((xs, ys), lo_hi):
                    assert axis.tolist() == [lo + (hi - lo) * i / (n - 1)
                                             for i in range(n)]
                energy, feasible = downlink_energy_grid(case, state, xs, ys)
                ref_e, ref_f, codes = self.reference_cells(
                    case, state, xs.tolist(), ys.tolist())
                seen |= codes
                assert np.array_equal(feasible, ref_f)
                assert np.all((energy == ref_e)
                              | (np.abs(energy - ref_e)
                                 <= 1e-12 * np.abs(ref_e)))
        # The cases cover feasible cells and cells that fail on coverage
        # alone, on latency alone and on a position-independent budget.
        assert {frozenset(), frozenset({"coverage"}),
                frozenset({"latency"})} <= seen
        assert any("power_budget" in c for c in seen)

    def test_rejects_degenerate_grid(self, runner, scenario_path):
        res = runner.invoke(main, ["heatmap", "--scenario", str(scenario_path),
                                   "--grid-points", "1"])
        assert res.exit_code == 1


class TestConvergence:
    def test_traces_are_non_increasing(self, runner, scenario_path, tmp_path):
        out = tmp_path / "conv.csv"
        res = runner.invoke(main, ["convergence", "--scenario",
                                   str(scenario_path),
                                   "--sat-cpus", "0.5e9,1e9,2e9",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = out.read_text().splitlines()
        assert lines[0] == "sat_cpu,iteration,objective"
        series = {}
        for row in lines[1:]:
            cpu, it, obj = row.split(",")
            series.setdefault(cpu, []).append((int(it), float(obj)))
        assert len(series) == 3
        for points in series.values():
            assert [it for it, _ in points] == list(range(len(points)))
            objs = [obj for _, obj in points]
            for a, b in zip(objs, objs[1:]):
                assert b <= a * (1 + 1e-9)
            # Converged: the last step barely moved.
            assert abs(objs[-1] - objs[-2]) <= 1e-4 * max(abs(objs[-2]), 1e-30)

    def test_zero_cpu_exits_one(self, runner, scenario_path):
        res = runner.invoke(main, ["convergence", "--scenario",
                                   str(scenario_path), "--sat-cpus", "0"])
        assert res.exit_code == 1
