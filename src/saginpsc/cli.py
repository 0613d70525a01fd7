"""Command-line experiment runner.

Subcommands: ``solve`` (single scenario, JSON result document), ``sweep``
(parameter sweep CSV across schemes), ``heatmap`` (UAV-location energy
grid after a location-pinned solve), ``convergence`` (objective traces
for several satellite CPU frequencies), and ``gen-scenario`` (write a
default scenario document).

Exit codes: 0 success, 1 input or usage error, 2 infeasible model.  All
file outputs are deterministic for identical inputs and seed; CSV uses a
comma separator, ``.`` decimals, a header row, and LF line endings.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, replace

import click
import numpy as np

from .algorithm import AlgorithmOptions, SchemeId, run_scheme
from .physics import (
    ModelError,
    check_feasibility,
    downlink_energy_grid,
    energy_breakdown,
    latency_terms,
)
from .scenario import (ScenarioConfig, ScenarioError, default_document,
                       load_scenario, loads_scenario)
from .subsolvers import SolverOptions

# The exit-code contract reserves 2 for infeasible models, so usage
# errors must not use click's default of 2.
click.UsageError.exit_code = 1

OPTIONS_ENV_VAR = "SAGINPSC_OPTS"

SWEEP_PARAMETERS = ("data_bits", "sat_beam_gain", "sat_uav_distance",
                    "latency_budget", "sat_cpu")

_SCHEME_CHOICES = [s.value for s in SchemeId]
_SEED = click.IntRange(min=0)  # numpy's generators take no negative seed
# The heatmap's n x n float64 energy grid is the largest array it holds,
# and numpy sizes no array beyond the platform's intp in bytes.
_MAX_GRID_POINTS = math.isqrt(np.iinfo(np.intp).max // 8)


def _float_cell(x: float) -> str:
    return format(x, ".12g")


def _load_options(path: str | None) -> AlgorithmOptions:
    if path is None:
        path = os.environ.get(OPTIONS_ENV_VAR)
    if not path:
        return AlgorithmOptions()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("the document must be a JSON object")
        solver = SolverOptions(**doc.pop("solver", {}))
        return AlgorithmOptions(solver=solver, **doc)
    except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
        raise click.ClickException(f"bad options file {path}: {exc}")


def _load_cfg(source, load=load_scenario) -> ScenarioConfig:
    try:
        return load(source)
    except ScenarioError as exc:
        raise click.ClickException(str(exc))


def _apply_parameter(cfg: ScenarioConfig, name: str, value: float) -> ScenarioConfig:
    if not (math.isfinite(value) and value > 0):
        raise click.ClickException(f"{name}: values must be finite and positive")
    if name == "data_bits":
        return replace(cfg, data_bits=tuple(value for _ in range(cfg.num_gts)))
    if name == "sat_beam_gain":
        return replace(cfg, sat_beam_gain=value)
    if name == "sat_uav_distance":
        return replace(cfg, sat_uav_distance=value)
    if name == "latency_budget":
        return replace(cfg, latency_budget=value)
    if name == "sat_cpu":
        return replace(cfg, sat_cpu=value)
    raise click.ClickException(f"unknown sweep parameter: {name}")


def _grid_axis(lo: float, hi: float, n: int) -> np.ndarray:
    """``n`` points from ``lo`` to ``hi``, each ``lo + (hi - lo) * i / (n -
    1)``; ``np.linspace`` rounds some of them differently."""
    return lo + (hi - lo) * np.arange(n) / (n - 1)


def _result_document(cfg: ScenarioConfig, result) -> dict:
    eb = energy_breakdown(cfg, result.state)
    lat = latency_terms(cfg, result.state)
    report = check_feasibility(cfg, result.state)
    return {
        "scheme": result.scheme,
        "objective": result.objective,
        "feasible": result.feasible,
        "converged": result.converged,
        "iterations": result.iterations,
        "state": {
            "placement": asdict(result.state.placement),
            "allocation": asdict(result.state.allocation),
        },
        "energy": asdict(eb),
        "latency": {"sat_compute": lat.t_sat, "sat_uav_tx": lat.t_tx,
                    "sat_uav_prop": lat.t_prop, "uav_compute": lat.t_uav.tolist(),
                    "uav_gt_tx": lat.t_ug.tolist(), "total": lat.total.tolist()},
        "violations": [asdict(v) for v in report.violations],
        "trace": [asdict(t) for t in result.trace],
    }


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


@click.group()
def main() -> None:
    """Energy-minimizing resource allocation for a satellite-UAV-ground
    relay network with semantic compression."""


@main.command()
@click.option("--scenario", required=True, type=str, help="Scenario JSON file.")
@click.option("--scheme", default=SchemeId.SAGIN_PSC.value,
              type=click.Choice(_SCHEME_CHOICES), show_default=True)
@click.option("--seed", default=0, type=_SEED, show_default=True,
              help="Seed for the random-assignment scheme.")
@click.option("--out", default=None, type=str,
              help="Result document path ('-' or omitted for stdout).")
@click.option("--opts", default=None, type=str,
              help=f"Solver options JSON (default from ${OPTIONS_ENV_VAR}).")
def solve(scenario, scheme, seed, out, opts) -> None:
    """Run one scheme on one scenario and write the result document."""
    cfg = _load_cfg(scenario)
    options = _load_options(opts)
    result = run_scheme(cfg, scheme, options, seed=seed)
    doc = _result_document(cfg, result)
    _write_text(out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    click.echo(f"total_energy={_float_cell(result.objective)} "
               f"feasible={str(result.feasible).lower()}", err=True)
    if not result.feasible:
        sys.exit(2)


def _sweep_row(cfg, name, value, scheme, options, seed):
    """One CSV row; a row whose input the model rejects is NaN and
    infeasible, and any other error propagates."""
    row_cfg = _apply_parameter(cfg, name, value)
    try:
        result = run_scheme(row_cfg, scheme, options, seed=seed)
        eb = energy_breakdown(row_cfg, result.state)
        return (scheme, name, value, eb.sat_compute, eb.sat_uav_comm,
                eb.uav_compute, eb.uav_gt_comm, eb.total,
                result.iterations, result.feasible)
    except (ScenarioError, ModelError):
        return (scheme, name, value, math.nan, math.nan, math.nan,
                math.nan, math.nan, 0, False)


@main.command()
@click.option("--scenario", required=True, type=str)
@click.option("--param", "param_name", required=True,
              type=click.Choice(SWEEP_PARAMETERS))
@click.option("--values", required=True, type=str,
              help="Comma-separated parameter values (SI units).")
@click.option("--schemes", default=",".join(_SCHEME_CHOICES), show_default=True,
              type=str, help="Comma-separated scheme names.")
@click.option("--seed", default=0, type=_SEED, show_default=True)
@click.option("--jobs", default=1, type=int, show_default=True,
              help="Accepted for compatibility and ignored: rows always "
                   "run in order on one thread.")
@click.option("--out", default=None, type=str)
@click.option("--opts", default=None, type=str)
def sweep(scenario, param_name, values, schemes, seed, jobs, out, opts) -> None:
    """Sweep one parameter over several values for several schemes."""
    cfg = _load_cfg(scenario)
    options = _load_options(opts)
    try:
        value_list = [float(v) for v in values.split(",") if v.strip()]
    except ValueError:
        raise click.ClickException("--values must be comma-separated numbers")
    if not value_list:
        raise click.ClickException("--values must be nonempty")
    scheme_list = [s.strip() for s in schemes.split(",") if s.strip()]
    if not scheme_list:
        raise click.ClickException("--schemes must be nonempty")
    for s in scheme_list:
        if s not in _SCHEME_CHOICES:
            raise click.ClickException(f"unknown scheme: {s}")
    for v in value_list:
        _apply_parameter(cfg, param_name, v)  # validate before solving any row

    rows = [_sweep_row(cfg, param_name, v, s, options, seed)
            for s, v in sorted((s, v) for s in scheme_list for v in value_list)]

    lines = ["scheme,param,value,e_S,e_SU,e_U,e_UG,total,iters,feasible"]
    for row in rows:
        scheme, name, value, *energies, iters, feasible = row
        cells = [scheme, name, _float_cell(value)]
        cells += [_float_cell(e) for e in energies]
        cells += [str(iters), str(feasible).lower()]
        lines.append(",".join(cells))
    _write_text(out, "\n".join(lines) + "\n")


@main.command()
@click.option("--scenario", required=True, type=str)
@click.option("--grid-points", default=101, type=int, show_default=True)
@click.option("--seed", default=0, type=_SEED, show_default=True)
@click.option("--out", default=None, type=str)
@click.option("--opts", default=None, type=str)
def heatmap(scenario, grid_points, seed, out, opts) -> None:
    """Map the UAV-GT communication energy over candidate UAV locations.

    Every block except the location is fixed by a prior location-pinned
    solve; each grid point is then scored by the downlink energy with the
    UAV moved there, with a per-point feasibility flag.  The whole grid is
    scored in one batched pass (``physics.downlink_energy_grid``): the
    position-independent constraints and latency terms are evaluated once,
    and only coverage and the UAV-to-GT hop per cell.
    """
    if grid_points < 2:
        raise click.ClickException("--grid-points must be at least 2")
    if grid_points > _MAX_GRID_POINTS:
        raise click.ClickException(
            f"--grid-points must be at most {_MAX_GRID_POINTS}: a larger"
            " grid exceeds the largest array numpy can hold")
    cfg = _load_cfg(scenario)
    options = _load_options(opts)
    result = run_scheme(cfg, SchemeId.FIXED_LOCATION, options, seed=seed)
    base = result.state
    cover = base.placement.coverage_radius
    xs = [p[0] for p in cfg.gt_positions]
    ys = [p[1] for p in cfg.gt_positions]
    grid_x = _grid_axis(min(xs) - cover, max(xs) + cover, grid_points)
    grid_y = _grid_axis(min(ys) - cover, max(ys) + cover, grid_points)
    energy, feasible = downlink_energy_grid(cfg, base, grid_x, grid_y)

    cells_y = [_float_cell(y) for y in grid_y.tolist()]
    lines = ["x,y,objective,feasible"]
    for x, e_row, f_row in zip(grid_x.tolist(), energy.tolist(),
                               feasible.tolist()):
        cell_x = _float_cell(x)
        lines += [f"{cell_x},{cell_y},{e:.12g},{'true' if f else 'false'}"
                  for cell_y, e, f in zip(cells_y, e_row, f_row)]
    _write_text(out, "\n".join(lines) + "\n")
    if not result.feasible:
        sys.exit(2)


@main.command()
@click.option("--scenario", required=True, type=str)
@click.option("--sat-cpus", required=True, type=str,
              help="Comma-separated satellite CPU frequencies in Hz.")
@click.option("--seed", default=0, type=_SEED, show_default=True)
@click.option("--out", default=None, type=str)
@click.option("--opts", default=None, type=str)
def convergence(scenario, sat_cpus, seed, out, opts) -> None:
    """Objective trace of the full scheme for each satellite CPU value."""
    cfg = _load_cfg(scenario)
    options = _load_options(opts)
    try:
        values = [float(v) for v in sat_cpus.split(",") if v.strip()]
    except ValueError:
        raise click.ClickException("--sat-cpus must be comma-separated numbers")
    if not values:
        raise click.ClickException("--sat-cpus must be nonempty")
    lines = ["sat_cpu,iteration,objective"]
    any_infeasible = False
    for value in values:
        run_cfg = _apply_parameter(cfg, "sat_cpu", value)
        result = run_scheme(run_cfg, SchemeId.SAGIN_PSC, options, seed=seed)
        any_infeasible = any_infeasible or not result.feasible
        for t in result.trace:
            lines.append(",".join([_float_cell(value), str(t.iteration),
                                   _float_cell(t.objective)]))
    _write_text(out, "\n".join(lines) + "\n")
    if any_infeasible:
        sys.exit(2)


@main.command("gen-scenario")
@click.option("--num-gts", default=4, type=int, show_default=True)
@click.option("--data-kib", default=64.0, type=float, show_default=True)
@click.option("--radius", default=300.0, type=float, show_default=True)
@click.option("--seed", default=7, type=_SEED, show_default=True)
@click.option("--unequal-data", is_flag=True, default=False,
              help="Stagger per-GT data sizes around the given size.")
@click.option("--out", default=None, type=str)
def gen_scenario(num_gts, data_kib, radius, seed, unequal_data, out) -> None:
    """Write a scenario document with the default parameter set."""
    for name, value in (("--num-gts", num_gts), ("--data-kib", data_kib),
                        ("--radius", radius)):
        if not (math.isfinite(value) and value > 0):
            raise click.ClickException(f"{name} must be finite and positive")
    try:
        doc = default_document(num_gts=num_gts, data_kib=data_kib,
                               radius=radius, seed=seed,
                               unequal_data=unequal_data)
    except (ValueError, MemoryError) as exc:  # numpy refuses the arrays
        raise click.ClickException(f"--num-gts {num_gts}: too many ({exc})")
    _load_cfg(doc, loads_scenario)  # write only what `solve` reads back
    _write_text(out, json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
