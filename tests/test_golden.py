"""Byte-for-byte CLI outputs on the shipped scenarios.

``tests/golden/`` holds the ``solve`` JSON of every scheme on both shipped
scenarios and a ``sweep`` CSV over ``data_bits`` on ``default.json``, as
the solver wrote them before its power/bandwidth bisection replayed
comparisons from a record.  A change that keeps every result must keep
these bytes.  They pin the floating-point rounding of the numpy build and
CPU that wrote them, so they may be regenerated (``python
tests/test_golden.py``) only by a change that states a behaviour change.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from saginpsc.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = ("default", "heatmap_unequal")
# Exit code 2: the scheme's answer misses the latency budget.
SCHEMES = {"sagin_psc": 0, "non_semantic": 2, "random_comp": 2,
           "fixed_location": 0}
SWEEP_ARGS = ["sweep", "--scenario", str(ROOT / "scenarios" / "default.json"),
              "--param", "data_bits",
              "--values", "131072,262144,524288,1048576", "--jobs", "1"]


def _solve_args(scenario, scheme):
    return ["solve", "--scenario", str(ROOT / "scenarios" / f"{scenario}.json"),
            "--scheme", scheme]


def _run(args, out: Path) -> int:
    return CliRunner().invoke(main, args + ["--out", str(out)]).exit_code


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_solve_json_is_unchanged(scenario, scheme, tmp_path):
    out = tmp_path / "result.json"
    assert _run(_solve_args(scenario, scheme), out) == SCHEMES[scheme]
    golden = GOLDEN / f"solve_{scenario}_{scheme}.json"
    assert out.read_bytes() == golden.read_bytes()


def test_sweep_csv_is_unchanged(tmp_path):
    out = tmp_path / "sweep.csv"
    assert _run(SWEEP_ARGS, out) == 0
    golden = GOLDEN / "sweep_default_data_bits.csv"
    assert out.read_bytes() == golden.read_bytes()


def regenerate():
    for scenario in SCENARIOS:
        for scheme in SCHEMES:
            _run(_solve_args(scenario, scheme),
                 GOLDEN / f"solve_{scenario}_{scheme}.json")
    _run(SWEEP_ARGS, GOLDEN / "sweep_default_data_bits.csv")


if __name__ == "__main__":
    regenerate()
