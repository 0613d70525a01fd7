"""Shared builders for randomized small problem instances."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from saginpsc import physics
from saginpsc.algorithm import initialize
from saginpsc.physics import check_feasibility
from saginpsc.scenario import (
    default_document,
    generate_gt_positions,
    loads_scenario,
)


def small_instance(seed: int, num_gts: int = 2):
    """One random small scenario plus a compressed candidate state.

    The compression-site draw is biased toward the satellite and the
    ratios toward deep compression so most draws meet the latency budget;
    the beamwidth is widened 30% past the covering minimum so the
    location-feasible region has an interior.  Returns (cfg, state,
    feasible).
    """
    rng = np.random.default_rng(seed)
    doc = default_document(num_gts=num_gts,
                           data_kib=float(rng.uniform(8, 40)),
                           radius=250.0, seed=seed)
    doc["gt_positions"] = [
        list(p) for p in generate_gt_positions(num_gts, 250.0, seed + 1000)
    ]
    cfg = loads_scenario(doc)
    state = initialize(cfg)
    pairs = ((1, 0), (0, 1), (1, 0))
    picks = [pairs[int(i)] for i in rng.integers(0, 3, size=num_gts)]
    task_sat = tuple(p[0] for p in picks)
    task_uav = tuple(p[1] for p in picks)
    ratio = tuple(
        float(rng.uniform(cfg.overhead_curves[k].ratio_min, 0.45))
        for k in range(num_gts)
    )
    active = sum(task_uav)
    cpu = tuple(0.9 * cfg.uav_cpu_total / active if a else 0.0
                for a in task_uav)
    th_lo, th_hi = cfg.beam_range_clamped
    theta = min(th_hi,
                math.atan(1.3 * math.tan(state.placement.half_beamwidth)))
    state = replace(
        state,
        placement=replace(state.placement, half_beamwidth=theta),
        allocation=replace(state.allocation, task_sat=task_sat,
                           task_uav=task_uav, ratio=ratio, cpu=cpu),
    )
    return cfg, state, check_feasibility(cfg, state).feasible


def feasible_instances(count: int, start_seed: int = 0, num_gts: int = 2):
    """First ``count`` feasible draws from consecutive seeds."""
    out = []
    seed = start_seed
    while len(out) < count:
        cfg, state, feasible = small_instance(seed, num_gts)
        seed += 1
        if feasible:
            out.append((cfg, state))
        if seed - start_seed > 20 * count:
            raise RuntimeError("feasible-instance generator starved")
    return out


def scale_document(num_gts: int) -> dict:
    """Default document (seed 1) at ``num_gts`` terminals with the shared
    resources scaled by K/4 and the satellite beam 10*log10(K/4) + 3 dB
    stronger, so the solve stays feasible as it scales."""
    doc = default_document(num_gts=num_gts, seed=1)
    factor = num_gts / 4
    doc["sat_beam_gain_db"] += 10.0 * math.log10(factor) + 3.0
    for key in ("sat_cpu", "uav_cpu_total", "uav_bandwidth_total",
                "uav_power_budget"):
        doc[key] *= factor
    return doc


def record_latency_terms(monkeypatch, *modules):
    """Bind ``latency_terms`` in ``physics`` and each of ``modules`` to a
    wrapper that appends every state it derives to the returned list (a
    module that does not import the name gets it, unused)."""
    derived = []
    inner = physics.latency_terms

    def record(cfg, state):
        derived.append(state)
        return inner(cfg, state)

    for module in (physics, *modules):
        monkeypatch.setattr(module, "latency_terms", record, raising=False)
    return derived
