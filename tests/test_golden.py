"""Byte-for-byte CLI outputs on the shipped and the scaled scenarios.

``tests/golden/`` holds the ``solve`` JSON of every scheme on both shipped
scenarios, two ``sweep`` CSVs on ``default.json`` (over ``data_bits``, and
the paper's energy-versus-CPU sweep over ``sat_cpu`` at 1-8 GHz, which
records ``sagin_psc`` at ratio 0.45, above the domain minimum, at 6-7 GHz
and 0.6784 at 8 GHz), and the exit code and SHA-256 digest of the 101x101
``heatmap`` CSV of both shipped scenarios (about 536 kB each).  The
shipped scenarios have four GTs, and below eight terms numpy's pairwise
sum agrees with a sequential one, so ``solve_scale_sha256.json`` also
holds the exit code and SHA-256 digest of the ``sagin_psc`` ``solve`` JSON
on ``conftest.scale_document`` at K = 16, 64 and 256, which pin the
summation order at those sizes.  ``probe_sha256.json`` holds the count
and SHA-256 digest of 1,600 ``run_scheme`` results on random small
scenarios (see :func:`_probe_digest`); it pins every block's arithmetic on
draws that the shipped scenarios do not reach.  The files were last
regenerated when the latency terms became per-GT numpy arrays and every
UAV-to-GT rate went through ``rate_uav_gt_at`` (``np.log2`` at the squared
distance ``dx*dx + dy*dy + h*h``, where the state's own hop had used
``math.log2`` at a ``hypot`` distance): six ``solve`` JSONs moved in their
last digits only (largest relative change 5.3e-16; objectives, flags,
iteration counts and traces kept), the ``data_bits`` sweep kept its bytes,
and both digest files changed: one ``default`` heatmap cell's 12-digit
print moved (the cells' largest relative change is 1.3e-14, no flag
changed), and the K = 16/64/256 solves kept their objectives, flags and
iteration counts.  The ``sat_cpu`` sweep and the probe digest were added
after that.  They were regenerated once more when ``sagin_psc`` stopped
warm-starting from a converged ``non_semantic`` solve and began from
``initialize``, and a run that stops on its rule at an infeasible state
stopped reporting ``converged``: the ``non_semantic`` and ``random_comp``
``solve`` JSONs of both shipped scenarios changed only ``converged``
(true to false; largest relative change 0 over 47 floats), the K =
16/64/256 digests moved because ``trace[0]`` is now the energy of the
``initialize`` state (every later trace entry, the answer and the
iteration count kept), and the probe digest moved (744 of its 1,600
lines changed only ``converged``, 15 ``sagin_psc`` lines only their
iteration count, and no line its objective, flag or state); every other
file kept its bytes.  The probe digest alone was regenerated again when
the segment block stopped overruling its dual loop with the incumbent
segments' midpoint energies: 2 of its 1,600 lines moved, ``sagin_psc``
and ``fixed_location`` on the compute-dear draw at K = 8, seed 25, both
feasible before and after, from 0.3655871286144981 to
0.34418628882574076 J.  The probe digest and the ``sat_cpu`` sweep were
regenerated when the loop began to take every block's move while the
state misses a latency budget, and the beamwidth, location, power and CPU
blocks began to judge their budgets by the model's 1e-9 test: both 8 GHz
sweep rows (``sagin_psc`` and ``fixed_location``) turned from infeasible
at 1.1692095762 J to feasible at 1.19890063962 J in 4 iterations, and
130 of the 1,600 probe lines moved (94 turned feasible, none turned
infeasible, and no feasible answer moved by more than 1e-12 relative);
every other file kept its bytes.  The ``data_bits`` sweep must write the same bytes on one
thread and on two.  A change that keeps every result must keep these
bytes.  They pin the floating-point rounding of the numpy build and CPU
that wrote them, so they may be regenerated (``python
tests/test_golden.py``, which prints each changed file with the largest
relative change of its floats and whether any other token changed) only
by a change that states a behaviour change.
"""

import hashlib
import json
import math
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from saginpsc.algorithm import SchemeId, run_scheme
from saginpsc.cli import main
from saginpsc.scenario import loads_scenario

from conftest import probe_documents, scale_document

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = ("default", "heatmap_unequal")
# Exit code 2: the scheme's answer misses the latency budget.
SCHEMES = {"sagin_psc": 0, "non_semantic": 2, "random_comp": 2,
           "fixed_location": 0}
SWEEP_ARGS = ["sweep", "--scenario", str(ROOT / "scenarios" / "default.json"),
              "--param", "data_bits",
              "--values", "131072,262144,524288,1048576"]
SAT_CPU_SWEEP_ARGS = ["sweep", "--scenario",
                      str(ROOT / "scenarios" / "default.json"),
                      "--param", "sat_cpu",
                      "--values", "1e9,2e9,3e9,4e9,5e9,6e9,7e9,8e9"]
HEATMAP_DIGESTS = GOLDEN / "heatmap_101_sha256.json"
SCALE_GTS = (16, 64, 256)
SCALE_DIGESTS = GOLDEN / "solve_scale_sha256.json"
PROBE_DIGEST = GOLDEN / "probe_sha256.json"


def _solve_args(scenario, scheme):
    return ["solve", "--scenario", str(ROOT / "scenarios" / f"{scenario}.json"),
            "--scheme", scheme]


def _heatmap_args(scenario):
    return ["heatmap", "--scenario",
            str(ROOT / "scenarios" / f"{scenario}.json"), "--grid-points", "101"]


def _heatmap_digest(scenario, out: Path) -> dict:
    code = _run(_heatmap_args(scenario), out)
    return {"exit_code": code,
            "sha256": hashlib.sha256(out.read_bytes()).hexdigest()}


def _scale_digest(num_gts, tmp: Path) -> dict:
    """Exit code and SHA-256 digest of the ``sagin_psc`` ``solve`` JSON on
    ``scale_document(num_gts)``, written under the directory ``tmp``."""
    scenario = tmp / f"scale_{num_gts}.json"
    scenario.write_text(json.dumps(scale_document(num_gts)))
    out = tmp / "result.json"
    code = _run(["solve", "--scenario", str(scenario),
                 "--scheme", "sagin_psc"], out)
    return {"exit_code": code,
            "sha256": hashlib.sha256(out.read_bytes()).hexdigest()}


def _probe_digest() -> dict:
    """Count and SHA-256 digest of ``repr((objective, feasible, converged,
    iterations, state))`` of ``run_scheme(cfg, scheme, seed=seed)``, one
    line each, over K in (4, 8), seeds 0-99, both documents of
    :func:`conftest.probe_documents` and the four schemes, in that nesting."""
    digest, count = hashlib.sha256(), 0
    for num_gts in (4, 8):
        for seed in range(100):
            for document in probe_documents(num_gts, seed):
                cfg = loads_scenario(document)
                for scheme in SchemeId:
                    r = run_scheme(cfg, scheme, seed=seed)
                    digest.update(repr((r.objective, r.feasible, r.converged,
                                        r.iterations, r.state)).encode()
                                  + b"\n")
                    count += 1
    return {"count": count, "sha256": digest.hexdigest()}


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
    assert _run(SWEEP_ARGS + ["--jobs", "1"], out) == 0
    golden = GOLDEN / "sweep_default_data_bits.csv"
    assert out.read_bytes() == golden.read_bytes()


def test_sweep_csv_is_unchanged_on_two_threads(tmp_path):
    out = tmp_path / "sweep.csv"
    assert _run(SWEEP_ARGS + ["--jobs", "2"], out) == 0
    golden = GOLDEN / "sweep_default_data_bits.csv"
    assert out.read_bytes() == golden.read_bytes()


def test_sat_cpu_sweep_csv_is_unchanged(tmp_path):
    out = tmp_path / "sweep.csv"
    assert _run(SAT_CPU_SWEEP_ARGS, out) == 0
    golden = GOLDEN / "sweep_default_sat_cpu.csv"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_heatmap_csv_digest_is_unchanged(scenario, tmp_path):
    golden = json.loads(HEATMAP_DIGESTS.read_text())
    assert _heatmap_digest(scenario, tmp_path / "heatmap.csv") == golden[scenario]


@pytest.mark.parametrize("num_gts", SCALE_GTS)
def test_scaled_solve_json_digest_is_unchanged(num_gts, tmp_path):
    golden = json.loads(SCALE_DIGESTS.read_text())
    assert _scale_digest(num_gts, tmp_path) == golden[str(num_gts)]


@pytest.mark.slow
def test_probe_results_digest_is_unchanged():
    assert _probe_digest() == json.loads(PROBE_DIGEST.read_text())


def _tokens(path: Path, data: bytes):
    """``(numbers, others)``: the floats of a JSON or CSV golden and its
    other tokens (keys, flags, strings and integers such as counts and
    exit codes), each in file order.  A CSV cell is a float when it parses
    as one and is not written as an integer."""
    numbers, others = [], []

    def walk(value):
        if isinstance(value, dict):
            others.append(sorted(value))
            for key in sorted(value):
                walk(value[key])
        elif isinstance(value, list):
            others.append(len(value))
            for item in value:
                walk(item)
        elif isinstance(value, float):
            numbers.append(value)
        else:
            others.append(value)

    if path.suffix == ".json":
        walk(json.loads(data))
        return numbers, others
    for line in data.decode().splitlines():
        others.append(line.count(","))
        for cell in line.split(","):
            try:
                int(cell)
                others.append(cell)
            except ValueError:
                try:
                    numbers.append(float(cell))
                except ValueError:
                    others.append(cell)
    return numbers, others


def _relative_change(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    return abs(new - old) / abs(old) if math.isfinite(old) and old else math.inf


def size_of_change(path: Path, old: bytes, new: bytes) -> str:
    """The largest relative change over the floats of a JSON or CSV
    golden, and whether any other token changed."""
    (a, a_other), (b, b_other) = _tokens(path, old), _tokens(path, new)
    if len(a) != len(b):
        return "floats added or removed"
    worst = max(map(_relative_change, a, b), default=0.0)
    return (f"largest relative change {worst:.3g} over {len(a)} floats; "
            f"other tokens {'changed' if a_other != b_other else 'unchanged'}")


def regenerate():
    """Rewrite every golden file and print the name of each whose bytes
    changed, with the size of the change (:func:`size_of_change`)."""
    before = {path.name: path.read_bytes() for path in GOLDEN.iterdir()}
    for scenario in SCENARIOS:
        for scheme in SCHEMES:
            _run(_solve_args(scenario, scheme),
                 GOLDEN / f"solve_{scenario}_{scheme}.json")
    _run(SWEEP_ARGS + ["--jobs", "1"], GOLDEN / "sweep_default_data_bits.csv")
    _run(SAT_CPU_SWEEP_ARGS, GOLDEN / "sweep_default_sat_cpu.csv")
    scratch = GOLDEN / "heatmap.csv.tmp"
    digests = {scenario: _heatmap_digest(scenario, scratch)
               for scenario in SCENARIOS}
    scratch.unlink()
    HEATMAP_DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        digests = {str(k): _scale_digest(k, Path(tmp)) for k in SCALE_GTS}
    SCALE_DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    PROBE_DIGEST.write_text(json.dumps(_probe_digest(), indent=2) + "\n")
    for path in sorted(GOLDEN.iterdir()):
        old, new = before.get(path.name), path.read_bytes()
        if old != new:
            size = "new file" if old is None else size_of_change(path, old, new)
            print(f"changed: {path.relative_to(ROOT)}: {size}")


if __name__ == "__main__":
    regenerate()
