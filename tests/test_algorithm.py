import math
from dataclasses import replace

import numpy as np
import pytest

from saginpsc import algorithm, subsolvers
from saginpsc.algorithm import (
    ALL_BLOCKS,
    AlgorithmOptions,
    SchemeId,
    initialize,
    run_blocks,
    run_scheme,
)
from saginpsc.oracle import GridSpec, refine_minimize
from saginpsc.physics import check_feasibility, rate_sat_uav, total_energy
from saginpsc.scenario import default_document, loads_scenario

from conftest import record_latency_terms


def _default_cfg(**doc_kwargs):
    return loads_scenario(default_document(**doc_kwargs))


class TestInitialize:
    def test_deterministic_and_budget_respecting(self):
        cfg = _default_cfg()
        a = initialize(cfg)
        b = initialize(cfg)
        assert a == b
        assert sum(a.allocation.bandwidth) == pytest.approx(
            cfg.uav_bandwidth_total)
        assert sum(a.allocation.power) == pytest.approx(cfg.uav_power_budget)
        assert a.allocation.ratio == (1.0,) * cfg.num_gts
        assert a.allocation.task_sat == (0,) * cfg.num_gts

    def test_start_covers_every_gt(self):
        for seed in range(6):
            doc = default_document(seed=seed)
            cfg = loads_scenario(doc)
            state = initialize(cfg)
            rad = state.placement.coverage_radius
            for pos in cfg.gt_positions:
                assert state.placement.horizontal_distance(pos) <= rad * (1 + 1e-9)

    def test_start_sits_on_the_centroid(self):
        cfg = _default_cfg()
        cx = sum(p[0] for p in cfg.gt_positions) / cfg.num_gts
        cy = sum(p[1] for p in cfg.gt_positions) / cfg.num_gts
        state = initialize(cfg)
        assert state.placement.uav_xy == pytest.approx((cx, cy))


class TestOptionsValidation:
    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            AlgorithmOptions(outer_tolerance=0.0)

    def test_bad_iteration_cap_rejected(self):
        with pytest.raises(ValueError):
            AlgorithmOptions(max_outer_iters=0)

    def test_unknown_block_rejected(self):
        cfg = _default_cfg()
        with pytest.raises(ValueError, match="unknown blocks"):
            run_blocks(cfg, initialize(cfg), blocks=("tasks", "warp_drive"))


class TestOuterLoop:
    @pytest.mark.parametrize("sat_cpu", [0.5e9, 1.0e9, 2.0e9])
    def test_trace_monotone_and_converged(self, sat_cpu):
        cfg = replace(_default_cfg(), sat_cpu=sat_cpu)
        res = run_scheme(cfg, SchemeId.SAGIN_PSC)
        assert res.converged
        assert res.feasible
        objs = [t.objective for t in res.trace]
        for earlier, later in zip(objs, objs[1:]):
            assert later <= earlier * (1 + 1e-9)
        assert res.iterations <= 10

    def test_result_state_matches_reported_objective(self):
        cfg = _default_cfg()
        res = run_scheme(cfg, SchemeId.SAGIN_PSC)
        assert total_energy(cfg, res.state) == pytest.approx(res.objective,
                                                             rel=1e-12)
        assert check_feasibility(cfg, res.state).feasible == res.feasible

    def test_run_twice_identical(self):
        cfg = _default_cfg()
        r1 = run_scheme(cfg, SchemeId.SAGIN_PSC)
        r2 = run_scheme(cfg, SchemeId.SAGIN_PSC)
        assert r1.state == r2.state
        assert r1.objective == r2.objective
        assert [t.objective for t in r1.trace] == [t.objective for t in r2.trace]

    def test_unchanged_candidate_is_not_scored(self, monkeypatch):
        # Every block returns the values it was given, so each candidate
        # equals the state, and the loop derives the state's terms for its
        # start and its trace alone, however many blocks run.  The stubs
        # are bound to the names in ``algorithm`` that the loop calls.
        cfg = _default_cfg()
        state = run_scheme(cfg, SchemeId.SAGIN_PSC).state
        identity = {
            "solve_task_allocation": lambda cfg, s, opts: (
                s.allocation.task_sat, s.allocation.task_uav, True),
            "select_segments": lambda cfg, s, opts: (None, True),
            "solve_ratio_lp": lambda cfg, s, choice, opts: (
                s.allocation.ratio, True),
            "solve_cpu_allocation": lambda cfg, s: s.allocation.cpu,
            "solve_power_bandwidth": lambda cfg, s, opts: (
                s.allocation.bandwidth, s.allocation.power),
            "solve_altitude_beamwidth": lambda cfg, s, opts: (
                s.placement.altitude, s.placement.half_beamwidth),
            "solve_location": lambda cfg, s, opts: (s.placement.uav_xy, 0.0),
        }
        for name, stub in identity.items():
            monkeypatch.setattr(algorithm, name, stub)
        derived = record_latency_terms(monkeypatch, algorithm, subsolvers)
        counts = []
        for blocks in (("cpu",), ALL_BLOCKS):
            derived.clear()
            res = run_blocks(cfg, state, blocks=blocks)
            assert res.state == state and res.iterations == 1
            counts.append(len(derived))
        assert counts[0] == counts[1]

    def test_stuck_blocks_are_reported_not_fatal(self):
        # A 1 ms latency budget leaves no feasible move for most blocks.
        cfg = replace(_default_cfg(), latency_budget=1e-3)
        res = run_scheme(cfg, SchemeId.SAGIN_PSC)
        assert not res.feasible
        assert any(t.infeasible_blocks for t in res.trace)


class TestSchemes:
    def test_scheme_id_accepts_strings(self):
        cfg = _default_cfg(num_gts=2, data_kib=16.0)
        res = run_scheme(cfg, "non_semantic")
        assert res.scheme == "non_semantic"
        with pytest.raises(ValueError):
            run_scheme(cfg, "does_not_exist")

    def test_non_semantic_never_compresses(self):
        cfg = _default_cfg(num_gts=3, data_kib=16.0)
        res = run_scheme(cfg, SchemeId.NON_SEMANTIC)
        al = res.state.allocation
        assert al.task_sat == (0, 0, 0)
        assert al.task_uav == (0, 0, 0)
        assert al.ratio == (1.0, 1.0, 1.0)
        assert al.cpu == (0.0, 0.0, 0.0)

    def test_full_scheme_beats_non_semantic(self):
        cfg = _default_cfg(num_gts=3, data_kib=16.0)
        full = run_scheme(cfg, SchemeId.SAGIN_PSC)
        plain = run_scheme(cfg, SchemeId.NON_SEMANTIC)
        assert full.feasible and plain.feasible
        assert full.objective <= plain.objective * (1 + 1e-9)

    def test_random_comp_is_seed_deterministic(self):
        cfg = _default_cfg(num_gts=3, data_kib=16.0)
        a = run_scheme(cfg, SchemeId.RANDOM_COMP, seed=5)
        b = run_scheme(cfg, SchemeId.RANDOM_COMP, seed=5)
        assert a.state == b.state
        # The assignment is frozen at the draw and never revisited.
        seen = set()
        for seed in range(8):
            res = run_scheme(cfg, SchemeId.RANDOM_COMP, seed=seed)
            seen.add((res.state.allocation.task_sat,
                      res.state.allocation.task_uav))
        assert len(seen) > 1

    def test_fixed_location_keeps_the_centroid(self):
        cfg = _default_cfg(num_gts=3, data_kib=16.0)
        res = run_scheme(cfg, SchemeId.FIXED_LOCATION)
        assert res.state.placement.uav_xy == initialize(cfg).placement.uav_xy


class TestAgainstJointBruteForce:
    def test_single_gt_close_to_exhaustive_search(self):
        # One GT makes the joint problem small enough to grid directly:
        # the UAV hovers on the GT, all bandwidth goes to the single
        # link, and the altitude floor binds, leaving (rho, f, p, theta)
        # per compression-site choice.
        doc = default_document(num_gts=1, data_kib=24.0)
        doc["gt_positions"] = [[90.0, -30.0]]
        cfg = loads_scenario(doc)

        res = run_scheme(cfg, SchemeId.SAGIN_PSC)
        assert res.feasible

        best = math.inf
        curve = cfg.overhead_curves[0]
        d_bits = cfg.data_bits[0]
        r_su = rate_sat_uav(cfg)
        t_prop = cfg.sat_uav_distance / cfg.lightspeed
        h = cfg.altitude_range[0]
        b = cfg.uav_bandwidth_total
        tau, kappa = cfg.comp_energy_coeff, cfg.cycles_per_overhead
        th_lo, th_hi = cfg.beam_range_clamped
        p_hi = cfg.uav_power_budget

        def value_for(a_s, a_u):
            def split(pts):
                if a_s or a_u:
                    rho = pts[:, 0]
                    rest = pts[:, 1:]
                else:
                    rho = np.ones(pts.shape[0])
                    rest = pts
                p, theta = rest[:, 0], rest[:, 1]
                f = rest[:, 2] if a_u else np.zeros_like(p)
                return rho, p, theta, f

            bnd = np.array(curve.boundaries)
            slopes = np.array(curve.slopes)
            icpts = np.array(curve.intercepts)

            def pieces(pts):
                rho, p, theta, f = split(pts)
                seg = np.minimum(np.sum(rho[:, None] <= bnd[None, :], axis=1),
                                 curve.num_segments - 1)
                over = slopes[seg] * rho + icpts[seg]
                t_tx = (a_s * rho + (1 - a_s)) * d_bits / r_su
                t_s = a_s * kappa * over / cfg.sat_cpu
                t_u = np.where(f > 0, a_u * kappa * over / np.maximum(f, 1e-30),
                               np.inf if a_u else 0.0)
                eff = (a_s + a_u) * rho + (1 - a_s - a_u)
                snr = (cfg.antenna_gain_const * cfg.ref_channel_gain * p
                       / (theta ** 2 * b * cfg.noise_psd * h * h))
                r = b * np.log2(1.0 + snr)
                t_g = eff * d_bits / r
                lat = t_s + t_tx + t_prop + t_u + t_g
                e = (tau * kappa * over * (a_s * cfg.sat_cpu ** 2 + a_u * f ** 2)
                     + t_tx * cfg.sat_tx_power + p * t_g)
                return e, lat

            specs = []
            if a_s or a_u:
                specs.append(GridSpec(curve.ratio_min, 1.0, 24))
            specs.append(GridSpec(p_hi * 1e-4, p_hi, 24))
            specs.append(GridSpec(th_lo, th_hi, 24))
            if a_u:
                specs.append(GridSpec(cfg.uav_cpu_total * 1e-4,
                                      cfg.uav_cpu_total, 24))
            _, val, _ = refine_minimize(
                lambda pts: pieces(pts)[0], specs,
                feasible=lambda pts: pieces(pts)[1]
                <= cfg.latency_budget * (1 + 1e-12),
                passes=4)
            return val

        for a_s, a_u in ((0, 0), (1, 0), (0, 1)):
            best = min(best, value_for(a_s, a_u))

        assert res.objective <= best * 1.05
        assert best <= res.objective * 1.05
