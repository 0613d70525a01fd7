"""Workloads of the solver benchmark: seeded inputs, one operation, checks.

A workload is two parts run back to back as one operation (the unit that
``op_s.p50`` times).  Every part builds its inputs from the workload seed
alone and hands the program only those inputs.  ``run_op`` performs the
part's share of one operation and keeps what it returns; ``check`` then
verifies every kept output against an independent computation and returns
``(attempted, failed)``; ``report`` gives the part's own end-to-end
figures as ``name -> (value, unit, samples)``.

The program is always reached through module attributes
(``algorithm.run_scheme``, ``oracle.oracle_ratio``, the click entry point),
so the tracer's wrappers apply when they are installed.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import asdict, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from saginpsc import algorithm, cli, oracle, physics, scenario

SCHEMES = tuple(s.value for s in algorithm.SchemeId)
SHIPPED_SCENARIOS = ("scenarios/default.json", "scenarios/heatmap_unequal.json")
HEATMAP_SCENARIO = "scenarios/heatmap_unequal.json"
SWEEP_SCENARIO = "scenarios/default.json"
SWEEP_VALUES = (131072.0, 262144.0, 524288.0, 1048576.0)  # 16..128 KiB
HEATMAP_POINTS = 101
SCALE_GTS = 256
ORACLE_POOL = 4
OBJECTIVE_RTOL = 1e-9


def percentiles(samples) -> dict:
    """Median, plus p90 when at least ten samples lie beyond it."""
    out = {"p50": statistics.median(samples)}
    if len(samples) >= 100:
        out["p90"] = statistics.quantiles(samples, n=10)[-1]
    return out


# ---------------------------------------------------------------------------
# Input generation (pure functions of the seed)


def op_seeds(seed: int, index: int, count: int) -> list[int]:
    """Seeds for operation ``index``.  What a ``random_comp`` solve costs
    depends on its draw, so every operation draws afresh and a run averages
    over many draws instead of resting on one."""
    rng = np.random.default_rng([seed, index])
    return [int(x) for x in rng.integers(2**31, size=count)]


def scale_document(seed: int, num_gts: int = SCALE_GTS) -> dict:
    """Default document at ``num_gts`` terminals with every shared resource
    scaled by K/4 and the satellite beam gain raised by 10*log10(K/4) + 3 dB,
    so each terminal keeps the K=4 resources plus a 2x satellite link."""
    doc = scenario.default_document(num_gts=num_gts, seed=seed)
    factor = num_gts / 4
    doc["sat_beam_gain_db"] += 10.0 * math.log10(factor) + 3.0
    for key in ("sat_cpu", "uav_cpu_total", "uav_bandwidth_total",
                "uav_power_budget"):
        doc[key] *= factor
    return doc


def oracle_instance(seed: int, num_gts: int = 2):
    """A random small scenario and a compressed candidate state, drawn the
    way the acceptance suite draws its oracle instances: satellite-biased
    sites, deep ratios, beamwidth 30% past the covering minimum."""
    rng = np.random.default_rng(seed)
    doc = scenario.default_document(num_gts=num_gts,
                                    data_kib=float(rng.uniform(8, 40)),
                                    radius=250.0, seed=seed)
    doc["gt_positions"] = [list(p) for p in scenario.generate_gt_positions(
        num_gts, 250.0, seed + 1000)]
    cfg = scenario.loads_scenario(doc)
    state = algorithm.initialize(cfg)
    pairs = ((1, 0), (0, 1), (1, 0))
    picks = [pairs[int(i)] for i in rng.integers(0, 3, size=num_gts)]
    task_sat = tuple(p[0] for p in picks)
    task_uav = tuple(p[1] for p in picks)
    ratio = tuple(float(rng.uniform(cfg.overhead_curves[k].ratio_min, 0.45))
                  for k in range(num_gts))
    active = sum(task_uav)
    cpu = tuple(0.9 * cfg.uav_cpu_total / active if a else 0.0
                for a in task_uav)
    _, th_hi = cfg.beam_range_clamped
    theta = min(th_hi, math.atan(1.3 * math.tan(state.placement.half_beamwidth)))
    state = replace(
        state,
        placement=replace(state.placement, half_beamwidth=theta),
        allocation=replace(state.allocation, task_sat=task_sat,
                           task_uav=task_uav, ratio=ratio, cpu=cpu))
    return doc, cfg, state


def oracle_instances(seed: int, count: int = ORACLE_POOL):
    """The first ``count`` feasible draws from instance seeds 100*seed on."""
    out = []
    for draw in range(100 * seed, 100 * seed + 100):
        doc, cfg, state = oracle_instance(draw)
        if physics.check_feasibility(cfg, state).feasible:
            segments = tuple(cfg.overhead_curves[k].segment_of(r)
                             for k, r in enumerate(state.allocation.ratio))
            out.append((doc, cfg, state, segments))
            if len(out) == count:
                return out
    raise RuntimeError(f"seed {seed}: fewer than {count} feasible instances")


# ---------------------------------------------------------------------------
# Workloads


class _Solves:
    """Shared checks and figures for workloads that call ``run_scheme``."""

    def __init__(self):
        self.solves = []  # (cfg, scheme, result, seconds)

    def _solve(self, cfg, scheme, seed=0):
        t0 = perf_counter()
        result = algorithm.run_scheme(cfg, scheme, seed=seed)
        self.solves.append((cfg, scheme, result, perf_counter() - t0))

    def check(self):
        failed = 0
        for cfg, _, result, _ in self.solves:
            energy, _ = oracle.reference_evaluation(cfg, result.state)
            same = (energy == result.objective or abs(energy - result.objective)
                    <= OBJECTIVE_RTOL * abs(result.objective))
            feasible = physics.check_feasibility(cfg, result.state).feasible
            if not same or feasible != result.feasible:
                failed += 1
        return len(self.solves), failed

    def report(self) -> dict:
        times = [s[3] for s in self.solves]
        psc = [s[2] for s in self.solves if s[1] == "sagin_psc"]
        out = {f"solve_s.{k}": (v, "s", len(times))
               for k, v in percentiles(times).items()}
        out["solves_per_s"] = (len(times) / sum(times), "1/s", len(times))
        out["energy_J.mean"] = (statistics.fmean(r.objective for r in psc),
                                "J", len(psc))
        out["infeasible_share"] = (
            sum(not r.feasible for r in psc) / len(psc), "1", len(psc))
        return out


class Shipped(_Solves):
    """Both shipped scenarios x all four schemes (8 solves) per operation."""

    min_ops = 13  # at least 100 solves

    def __init__(self, root: Path, seed: int, out_dir: Path):
        super().__init__()
        self.cfgs = [scenario.load_scenario(root / p) for p in SHIPPED_SCENARIOS]
        self.seed = seed

    def inputs(self) -> dict:
        return {"scenarios": [scenario.scenario_to_document(c)
                              for c in self.cfgs],
                "random_comp_seeds": [op_seeds(self.seed, i, len(self.cfgs))
                                      for i in range(8)]}

    def run_op(self, index: int) -> None:
        comp_seeds = op_seeds(self.seed, index, len(self.cfgs))
        for cfg, comp_seed in zip(self.cfgs, comp_seeds):
            for scheme in SCHEMES:
                self._solve(cfg, scheme, comp_seed)


class Scale(_Solves):
    """One ``sagin_psc`` solve at K=256 per operation."""

    min_ops = 3

    def __init__(self, root: Path, seed: int, out_dir: Path):
        super().__init__()
        self.document = scale_document(seed)
        self.cfg = scenario.loads_scenario(self.document)

    def inputs(self) -> dict:
        return {"document": self.document}

    def run_op(self, index: int) -> None:
        self._solve(self.cfg, "sagin_psc")


class Cli:
    """One ``heatmap`` and one ``sweep --jobs 2`` per operation, in-process
    through the click entry point."""

    min_ops = 3

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.cfgs = {p: scenario.load_scenario(root / p)
                     for p in (HEATMAP_SCENARIO, SWEEP_SCENARIO)}
        out_dir.mkdir(exist_ok=True)
        self.root = root
        self.seed = seed
        self.heat_csv = out_dir / f"heatmap-{seed}.csv"
        self.sweep_csv = out_dir / f"sweep-{seed}.csv"
        self.runs = []  # (command, exit code, seconds, rows, well-formed)

    def _args(self, index: int):
        seed = str(op_seeds(self.seed, index, 1)[0])
        heat = ["heatmap", "--scenario", str(self.root / HEATMAP_SCENARIO),
                "--grid-points", str(HEATMAP_POINTS), "--seed", seed,
                "--out", str(self.heat_csv)]
        sweep = ["sweep", "--scenario", str(self.root / SWEEP_SCENARIO),
                 "--param", "data_bits",
                 "--values", ",".join(f"{v:g}" for v in SWEEP_VALUES),
                 "--jobs", "2", "--seed", seed, "--out", str(self.sweep_csv)]
        return heat, sweep

    def inputs(self) -> dict:
        return {"scenarios": {p: scenario.scenario_to_document(c)
                              for p, c in self.cfgs.items()},
                "commands": [[a[:-2] for a in self._args(i)] for i in range(8)]}

    @staticmethod
    def _rows(path: Path, cells: int):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        rows = lines[1:-1]
        return len(rows), lines[-1] == "" and all(
            r.count(",") == cells - 1 for r in rows)

    def _invoke(self, args, path, cells):
        t0 = perf_counter()
        try:
            cli.main.main(args=args, prog_name="saginpsc", standalone_mode=True)
            code = 0
        except SystemExit as exc:
            code = exc.code or 0
        seconds = perf_counter() - t0
        self.runs.append((args[0], code, seconds, *self._rows(path, cells)))

    def run_op(self, index: int) -> None:
        heat, sweep = self._args(index)
        self._invoke(heat, self.heat_csv, 4)
        self._invoke(sweep, self.sweep_csv, 10)

    def check(self):
        heat_cfg = self.cfgs[HEATMAP_SCENARIO]
        pinned = algorithm.run_scheme(heat_cfg, "fixed_location")
        heat_code = 0 if physics.check_feasibility(
            heat_cfg, pinned.state).feasible else 2
        expected = {"heatmap": (heat_code, HEATMAP_POINTS ** 2),
                    "sweep": (0, len(SWEEP_VALUES) * len(SCHEMES))}
        failed = sum((code, rows) != expected[cmd] or not ok
                     for cmd, code, _, rows, ok in self.runs)
        return len(self.runs), failed

    def report(self) -> dict:
        out = {}
        for cmd in ("heatmap", "sweep"):
            times = [r[2] for r in self.runs if r[0] == cmd]
            out[f"{cmd}_s"] = (statistics.median(times), "s", len(times))
        return out


class Oracle:
    """The four grid oracles on one seeded 2-GT instance per operation."""

    min_ops = 3

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.instances = oracle_instances(seed)
        self.solutions = []
        self.times = []

    def inputs(self) -> dict:
        return {"instances": [
            {"document": doc, "state": asdict(state), "segments": segs}
            for doc, _, state, segs in self.instances]}

    def run_op(self, index: int) -> None:
        _, cfg, state, segments = self.instances[index % len(self.instances)]
        t0 = perf_counter()
        self.solutions += [
            oracle.oracle_ratio(cfg, state, segments),
            oracle.oracle_power_bandwidth(cfg, state),
            oracle.oracle_altitude_beamwidth(cfg, state),
            oracle.oracle_location(cfg, state),
        ]
        self.times.append(perf_counter() - t0)

    def check(self):
        failed = sum(sol.value != sol.evaluate(sol.point)
                     for sol in self.solutions)
        return len(self.solutions), failed

    def report(self) -> dict:
        return {"oracle_s.p50": (statistics.median(self.times), "s",
                                 len(self.times))}


class Workload:
    """Parts run back to back as one operation; each part keeps, checks
    and reports its own outputs."""

    def __init__(self, parts, root: Path, seed: int, out_dir: Path):
        self.parts = [cls(root, seed, out_dir) for cls in parts]
        self.min_ops = max(p.min_ops for p in self.parts)

    def inputs(self) -> dict:
        return {type(p).__name__: p.inputs() for p in self.parts}

    def run_op(self, index: int) -> None:
        for part in self.parts:
            part.run_op(index)

    def check(self):
        results = [p.check() for p in self.parts]
        return sum(r[0] for r in results), sum(r[1] for r in results)

    def report(self) -> dict:
        return {k: v for p in self.parts for k, v in p.report().items()}


# Python-loop-bound work at K=4 against numpy grid work: every layer runs
# in one of the two, and each optimization target is bypassed by the other.
WORKLOADS = {"shipped_cli": (Shipped, Cli), "scale_oracle": (Scale, Oracle)}


def build(name: str, root: Path, seed: int, out_dir: Path) -> Workload:
    return Workload(WORKLOADS[name], root, seed, out_dir)


def inputs_bytes(workload) -> bytes:
    """Canonical bytes of everything the workload generated from its seed."""
    return json.dumps(workload.inputs(), sort_keys=True).encode()
