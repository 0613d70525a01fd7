"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that the same seed gives byte-identical generated inputs and
identical objectives, that another seed gives different terminal layouts,
and that ``BENCHMARK.json`` lists exactly the metrics the benchmark prints.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import sys

import run

workloads = run._import_workloads()
from tracer import layer_specs  # noqa: E402  (needs the path set by run)

SEED, OTHER = 3, 4


def _part(cls, seed):
    return cls(run.ROOT, seed, run.OUT_DIR)


def test_same_seed_same_inputs():
    for name in run.WORKLOADS:
        a, b = (workloads.build(name, run.ROOT, SEED, run.OUT_DIR)
                for _ in range(2))
        other = workloads.build(name, run.ROOT, OTHER, run.OUT_DIR)
        assert workloads.inputs_bytes(a) == workloads.inputs_bytes(b), name
        assert workloads.inputs_bytes(a) != workloads.inputs_bytes(other), name


def test_other_seed_other_layouts():
    a, b = _part(workloads.Scale, SEED), _part(workloads.Scale, OTHER)
    assert a.cfg.gt_positions != b.cfg.gt_positions
    a, b = _part(workloads.Oracle, SEED), _part(workloads.Oracle, OTHER)
    layouts = {inst[1].gt_positions for inst in a.instances}
    assert layouts.isdisjoint(inst[1].gt_positions for inst in b.instances)


def test_same_seed_same_objectives():
    for cls in (workloads.Shipped, workloads.Scale):
        a, b = _part(cls, SEED), _part(cls, SEED)
        a.run_op(0)
        b.run_op(0)
        assert ([s[2].objective for s in a.solves]
                == [s[2].objective for s in b.solves]), cls
        assert a.check() == (len(a.solves), 0), cls
    a, b = _part(workloads.Oracle, SEED), _part(workloads.Oracle, SEED)
    for w in (a, b):
        _, cfg, state, _ = w.instances[0]
        w.solutions.append(workloads.oracle.oracle_altitude_beamwidth(cfg,
                                                                      state))
    assert a.solutions[0].value == b.solutions[0].value
    assert a.solutions[0].point == b.solutions[0].point


def test_benchmark_json_lists_every_metric():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == layer_specs())


if __name__ == "__main__":
    for test in (test_same_seed_same_inputs, test_other_seed_other_layouts,
                 test_same_seed_same_objectives,
                 test_benchmark_json_lists_every_metric):
        test()
        print(f"ok {test.__name__}")
    sys.exit(0)
