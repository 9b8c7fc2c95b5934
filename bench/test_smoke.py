"""Smoke test of the benchmark at tiny sizes: output schema, metric names and
units, and the correctness gates.  It asserts no timings.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import gen
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# census at n = 3, four classify and four brace requests, no Z2^4 request
TINY = run.Scale(census_n=3, min_requests=4, max_requests=4, heavy=False)


def test_spec_lists_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert SPEC["command"] == ["python3", "bench/run.py"] and SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run(workload, trace):
    summary, lines = run.run(workload, seed=7, seconds=0, trace=trace, scale=TINY)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0, lines
    assert summary["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for name, metric in summary["metrics"].items():
        if name == "heavy_s" and workload == "classify":
            assert metric["value"] is None      # the Z2^4 request is off in TINY
        else:
            assert isinstance(metric["value"], (int, float)), name
    json.dumps(summary, allow_nan=False)
    assert any(line.startswith("ops: ") for line in lines)
    if trace and workload == "census":
        assert summary["metrics"]["unions.census.classes"]["value"] == 20
    if not trace:
        for named, _ in run.NAMED[workload]:
            assert any(line.startswith(f"{named}: ") for line in lines)
        assert any(line.startswith("gauge: ") for line in lines)


def test_speed_factor_averages_the_nearby_probes():
    import gauge

    times, durations = [0.0, 1.0, 2.0], [gauge.REF_S, gauge.REF_S / 2, gauge.REF_S]
    assert gauge.speed_factor(times, durations, 0.9, 1.1, window=0.2) == 2.0
    assert gauge.speed_factor(times, durations, 0.5, 1.5, window=0.5) == 4 / 3
    assert gauge.speed_factor(times, durations, 5.0, 6.0, window=0.5) == 4 / 3    # none near: all


def _library():
    sys.path.insert(0, str(run.SRC))
    import yangbaxter
    import yangbaxter.brace
    import yangbaxter.cli
    import yangbaxter.solution
    import yangbaxter.unions

    return yangbaxter


def test_gates_reject_wrong_answers(tmp_path):
    import checks
    import serve

    lib = _library()
    assert checks.check_census(3, {"count": 19, "bytes": 1138}, str(tmp_path / "none"))

    wl = run.ClassifyWorkload(lib, tmp_path, 3, 0, TINY)
    wl.pool = gen.classify_decks(3, str(tmp_path), 1)
    wl._decomposed, wl._blocks = {}, {}
    req = next(r for r in wl.pool if r.iso)
    out = serve.classify_request(lib.cli, lib.unions, req.argv())
    assert wl.check(req, out) is None
    assert wl.check(req, {**out, "classify": [1, "not isomorphic\n"]})
    bad = json.loads(json.dumps(out))
    bad["canonical"]["C"][0][0] += 1
    assert wl.check(req, bad)

    catalog = {"z2n(3)": lib.brace.z2n_brace(3)}
    first, second = gen.brace_decks(5, str(tmp_path), catalog, 2)
    reference = {}
    for req in (first, second):
        out = serve.brace_request(lib.cli, req.argv())
        with open(req.out_path, encoding="utf-8") as fh:
            solution_out = json.load(fh)
        assert checks.check_brace(req, out, solution_out, reference) is None
    rc, text, err = out["brace"]
    was = "True" if "bi_skew: True" in text else "False"
    flipped = text.replace(f"bi_skew: {was}", f"bi_skew: {was == 'False'}")
    assert checks.check_brace(second, {"brace": [rc, flipped, err]}, solution_out, reference)


def test_aut_orders_match_the_library():
    AbelianGroup = _library().groups.AbelianGroup

    for factors, order in gen.AUT_ORDER.items():
        if factors != gen.WIDE_TYPE:        # 10+ s; its order 20160 is |GL(4, 2)|
            assert len(AbelianGroup(factors).automorphisms) == order, factors


def test_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "brace", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
