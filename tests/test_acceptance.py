"""End-to-end acceptance checks.

Each test prints one ``[criterion] <name>: PASS|FAIL`` line so a log scan
shows the verdicts at a glance (run pytest with ``-s`` or ``-rP`` to see
the lines for passing tests).
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from saginpsc.algorithm import SchemeId, initialize, run_scheme
from saginpsc.cli import main as cli_main
from saginpsc.oracle import (
    enumerate_segment_choices,
    enumerate_task_assignments,
    oracle_altitude_beamwidth,
    oracle_cpu,
    oracle_location,
    oracle_power_bandwidth,
    oracle_ratio,
)
from saginpsc.physics import latency_breakdown, total_energy
from saginpsc.scenario import default_document, loads_scenario
from saginpsc.subsolvers import (
    SolverOptions,
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


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[criterion] {name}: FAIL")
        raise
    print(f"[criterion] {name}: PASS")


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def test_c01_convergence_monotone_and_fast():
    with criterion("C1 outer loop converges monotonically"):
        base = loads_scenario(default_document())
        for sat_cpu in (0.5e9, 1.0e9, 2.0e9):
            cfg = replace(base, sat_cpu=sat_cpu)
            start = time.perf_counter()
            res = run_scheme(cfg, SchemeId.SAGIN_PSC)
            elapsed = time.perf_counter() - start
            assert elapsed < 10.0
            assert res.converged and res.feasible
            assert res.iterations <= 10
            objs = [t.objective for t in res.trace]
            for a, b in zip(objs, objs[1:]):
                assert b <= a * (1 + 1e-9)
            assert _rel(objs[-1], objs[-2]) < 1e-4


def test_c02_cpu_shares_tight_and_optimal():
    with criterion("C2 CPU closed form is latency-tight and grid-optimal"):
        for cfg, state in feasible_instances(100, start_seed=0):
            cpu = solve_cpu_allocation(cfg, state)
            cand = replace(state, allocation=replace(state.allocation,
                                                     cpu=cpu))
            lat = latency_breakdown(cfg, cand)
            for k in range(cfg.num_gts):
                if state.allocation.task_uav[k]:
                    assert _rel(lat.total[k], cfg.latency_budget) < 1e-12
            sol = oracle_cpu(cfg, state)
            ours = sol.evaluate(cpu)
            scale = max(abs(sol.value), 1e-30)
            assert ours <= sol.value + 1e-4 * scale
            assert sol.value <= ours + 1e-4 * scale


@pytest.mark.slow
def test_c03_power_bandwidth_tight_and_optimal():
    with criterion("C3 power/bandwidth meets the latency equalities"):
        for cfg, state in feasible_instances(100, start_seed=0):
            bw, pw = solve_power_bandwidth(cfg, state, OPTS)
            assert sum(bw) == pytest.approx(cfg.uav_bandwidth_total,
                                            rel=1e-12)
            assert sum(pw) <= cfg.uav_power_budget * (1 + 1e-9)
            cand = replace(state, allocation=replace(state.allocation,
                                                     bandwidth=bw, power=pw))
            lat = latency_breakdown(cfg, cand)
            for k in range(cfg.num_gts):
                assert _rel(lat.total[k], cfg.latency_budget) < 1e-6
            sol = oracle_power_bandwidth(cfg, state)
            ours = sol.evaluate(bw)
            scale = max(abs(sol.value), 1e-30)
            assert ours <= sol.value + 1e-4 * scale
            assert sol.value <= ours + 1e-4 * scale


def test_c04_dual_blocks_match_enumeration():
    with criterion("C4 dual assignment blocks match exhaustive enumeration"):
        compared = 0
        for cfg, state in feasible_instances(100, start_seed=0):
            a_s, a_u, feas = solve_task_allocation(cfg, state, OPTS)
            if feas:
                e_s, e_u, best = enumerate_task_assignments(cfg, state)
                if (a_s, a_u) != (e_s, e_u):
                    cand = replace(state, allocation=replace(
                        state.allocation, task_sat=a_s, task_uav=a_u))
                    assert _rel(total_energy(cfg, cand), best) < 1e-9
                compared += 1

            choice, feas = select_segments(cfg, state, OPTS)
            if feas:
                combo, ratios, best = enumerate_segment_choices(cfg, state)
                if choice.chosen_segment != combo:
                    ratio = tuple(m[d] for m, d in zip(choice.midpoints,
                                                       choice.chosen_segment))
                    cand = replace(state, allocation=replace(
                        state.allocation, ratio=ratio))
                    assert _rel(total_energy(cfg, cand), best) < 1e-9
                compared += 1
        assert compared >= 100


@pytest.mark.slow
def test_c05_ratio_lp_matches_grid_reference():
    with criterion("C5 in-segment ratio LP matches the grid reference"):
        for cfg, state in feasible_instances(100, start_seed=0):
            choice, feas = select_segments(cfg, state, OPTS)
            if not feas:
                continue
            ratios, clean = solve_ratio_lp(cfg, state, choice, OPTS)
            if not clean:
                continue
            sol = oracle_ratio(cfg, state, choice.chosen_segment)
            ours = sol.evaluate(ratios)
            scale = max(abs(sol.value), 1e-30)
            assert ours <= sol.value + 1e-6 * scale
            assert sol.value <= ours + 1e-6 * scale


@pytest.mark.slow
def test_c06_placement_blocks_match_grid_references():
    with criterion("C6 placement blocks land on the reference optimum"):
        th_lo, _ = None, None
        for cfg, state in feasible_instances(50, start_seed=0):
            # Horizontal location: within one production grid cell of the
            # reference argmin, and no worse than its objective by 0.1%.
            xy, _ = solve_location(cfg, state, OPTS)
            sol = oracle_location(cfg, state)
            prod_cell = tuple(c * (2010 - 1) / (201 - 1) for c in sol.cell)
            assert abs(xy[0] - sol.point[0]) <= prod_cell[0] * 1.5
            assert abs(xy[1] - sol.point[1]) <= prod_cell[1] * 1.5
            ours = sol.evaluate(xy)
            scale = max(abs(sol.value), 1e-30)
            assert ours <= sol.value + 1e-3 * scale

            # Altitude/beamwidth: the altitude identity holds exactly and
            # the pair sits on the reference's near-optimal level set.
            h, theta = solve_altitude_beamwidth(cfg, state, OPTS)
            l_max = max(state.placement.horizontal_distance(p)
                        for p in cfg.gt_positions)
            assert h == max(cfg.altitude_range[0], l_max / math.tan(theta))
            sol = oracle_altitude_beamwidth(cfg, state)
            ours = sol.evaluate((h, theta))
            scale = max(abs(sol.value), 1e-30)
            assert ours <= sol.value + 1e-3 * scale


def test_c07_scheme_comparison_over_data_sizes():
    with criterion("C7 full scheme dominates the no-compression baseline"):
        base = loads_scenario(default_document())
        lines = []
        for kib in (16.0, 32.0, 64.0, 128.0, 256.0):
            bits = kib * 1024.0 * 8.0
            cfg = replace(base, data_bits=(bits,) * base.num_gts)
            full = run_scheme(cfg, SchemeId.SAGIN_PSC)
            plain = run_scheme(cfg, SchemeId.NON_SEMANTIC)
            rand = run_scheme(cfg, SchemeId.RANDOM_COMP, seed=1)
            fixed = run_scheme(cfg, SchemeId.FIXED_LOCATION)
            # The warm start guarantees row-wise dominance even where the
            # largest payloads exceed the latency budget outright.
            assert full.objective <= plain.objective * (1 + 1e-9)
            lines.append(
                f"  data={kib:g}KiB full={full.objective:.6g}({full.feasible}) "
                f"plain={plain.objective:.6g}({plain.feasible}) "
                f"random={rand.objective:.6g}({rand.feasible}) "
                f"fixed={fixed.objective:.6g}({fixed.feasible})")
        print("\n".join(lines))


def test_c08_energy_trends():
    with criterion("C8 energy trends move the right way"):
        # Small payloads keep the no-compression baseline feasible across
        # the whole range of every swept parameter; the satellite link is
        # shared, so its transmit time scales with the summed data.
        base = loads_scenario(default_document(num_gts=2, data_kib=4.0))
        small = replace(base, data_bits=(8.0 * 1024.0,) * base.num_gts)

        def totals(scheme, cfgs):
            out = []
            for cfg in cfgs:
                res = run_scheme(cfg, scheme)
                assert res.feasible
                out.append(res.objective)
            return out

        # More data costs strictly more energy.
        sizes = [4096.0, 8192.0, 16384.0, 32768.0]
        cfgs = [replace(base, data_bits=(8.0 * s,) * base.num_gts)
                for s in sizes]
        plain = totals(SchemeId.NON_SEMANTIC, cfgs)
        assert all(b > a for a, b in zip(plain, plain[1:]))
        full = totals(SchemeId.SAGIN_PSC, cfgs)
        assert all(b >= a * (1 - 0.01) for a, b in zip(full, full[1:]))

        # A longer satellite hop costs strictly more energy.
        cfgs = [replace(small, sat_uav_distance=d)
                for d in (100e3, 200e3, 400e3, 800e3)]
        plain = totals(SchemeId.NON_SEMANTIC, cfgs)
        assert all(b > a for a, b in zip(plain, plain[1:]))
        full = totals(SchemeId.SAGIN_PSC, cfgs)
        assert all(b >= a * (1 - 0.01) for a, b in zip(full, full[1:]))

        # A stronger satellite beam costs strictly less energy.
        cfgs = [replace(small, sat_beam_gain=10.0 ** (db / 10.0))
                for db in (15.0, 20.0, 25.0, 30.0)]
        plain = totals(SchemeId.NON_SEMANTIC, cfgs)
        assert all(b < a for a, b in zip(plain, plain[1:]))
        full = totals(SchemeId.SAGIN_PSC, cfgs)
        assert all(b <= a * (1 + 0.01) for a, b in zip(full, full[1:]))


def test_c09_location_heatmap_has_offcenter_minimum(tmp_path):
    with criterion("C9 downlink-energy heatmap bottoms out off-centroid"):
        doc = default_document(data_kib=64.0, unequal_data=True)
        doc["uav_bandwidth_total"] = 0.2e6
        scenario = tmp_path / "heat_scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "heat.csv"
        res = CliRunner().invoke(cli_main, [
            "heatmap", "--scenario", str(scenario),
            "--grid-points", "101", "--out", str(out)])
        assert res.exit_code in (0, 2), res.output
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert len(rows) == 101 * 101
        values = np.array([float(r[2]) for r in rows])
        pts = np.array([[float(r[0]), float(r[1])] for r in rows])
        best = int(np.argmin(values))
        assert 1e-4 <= values[best] <= 1e-2

        cfg = loads_scenario(doc)
        centroid = initialize(cfg).placement.uav_xy
        xs = np.unique(pts[:, 0])
        cell = xs[1] - xs[0]
        dist = math.hypot(pts[best, 0] - centroid[0],
                          pts[best, 1] - centroid[1])
        assert dist > 2.0 * cell


def test_c10_sweep_outputs_are_reproducible(tmp_path):
    with criterion("C10 repeated sweeps are byte-identical"):
        doc = default_document(num_gts=3, data_kib=16.0)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            res = CliRunner().invoke(cli_main, [
                "sweep", "--scenario", str(scenario),
                "--param", "data_bits", "--values", "65536,131072,262144",
                "--seed", "3", "--out", str(out)])
            assert res.exit_code == 0, res.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
