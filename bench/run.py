"""The repository benchmark: three closed-loop workloads over the CLI and the
library, each served by one fresh single-threaded interpreter per run.

    python3 bench/run.py --workload {census,classify,brace} --seed N \
        --seconds S --trace {0,1}

Inputs are generated from the seed and written to files before any timer
starts; the serving process (serve.py) sees only those files.  Every output
is checked (checks.py).  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones from a traced run, plus the tracing overhead.
End-to-end times are given at a reference machine speed, measured alongside
by the gauge in gauge.py; the wall times are printed too.
WORKLOADS.md says why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from math import ceil
from pathlib import Path

import checks
import gauge
import gen
import spans as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = {
    "census": "enumerate 6 --out: unions canonicalisation of many tiny unions plus 8 MB of JSONL",
    "classify": "verify, classify and canonical_form of 2-reductive solutions, n drawn from 8..32",
    "brace": "brace --report full of relabelled braces of order 8..48, cost growing as n^3",
}

# (name, unit, better); every workload reports all of them
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("p50_ms", "ms", "lower"),
    ("tail_ms", "ms", "lower"),
    ("req_per_s", "1/s", "higher"),
    ("heavy_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# per workload, the workload-specific name of each end-to-end metric it owns
NAMED = {
    "census": (("census_s", "heavy_s"), ("census_peak_rss_mb", "peak_rss_mb")),
    "classify": (("classify_req_per_s", "req_per_s"), ("classify_p50_ms", "p50_ms"),
                 ("classify_tail_ms", "tail_ms"), ("classify_wide_s", "heavy_s")),
    "brace": (("brace_req_per_s", "req_per_s"), ("brace_p50_ms", "p50_ms"),
              ("brace_tail_ms", "tail_ms")),
}
PER_LAYER = (
    ("unions.enumerate_cell.s", "s", "lower"),
    ("unions.enumerate_cell.max_s", "s", "lower"),
    ("unions.census.classes", "count", "higher"),
    ("unions.census_merge.s", "s", "lower"),
    ("unions.solution_to_union.s", "s", "lower"),
    ("unions.unions_isomorphic.s", "s", "lower"),
    ("unions.canonical_form.s", "s", "lower"),
    ("unions.union_to_solution.s", "s", "lower"),
    ("groups.automorphisms.s", "s", "lower"),
    ("groups.automorphisms.calls", "count", "lower"),
    ("groups.automorphisms.distinct", "count", "higher"),
    ("groups.perm_closure.s", "s", "lower"),
    ("groups.generates.s", "s", "lower"),
    ("groups.generates.calls", "count", "lower"),
    ("groups.finite_group.s", "s", "lower"),
    ("solution.verify.s", "s", "lower"),
    ("solution.verify.calls", "count", "lower"),
    ("solution.verify.ns_per_triple", "ns", "lower"),
    ("solution.predicates.s", "s", "lower"),
    ("retraction.multipermutation_level.s", "s", "lower"),
    ("retraction.permutation_groups.s", "s", "lower"),
    ("brace.verify_brace.s", "s", "lower"),
    ("brace.lambdas.s", "s", "lower"),
    ("brace.rhos.s", "s", "lower"),
    ("brace.is_biskew.s", "s", "lower"),
    ("brace.socle_series.s", "s", "lower"),
    ("brace.reductivity_profile.s", "s", "lower"),
    ("brace.associated_solution.calls_per_report", "count", "lower"),
    ("cli.write_census.s", "s", "lower"),
    ("cli.write_census.bytes", "bytes", "lower"),
    ("cli.load_payload.s", "s", "lower"),
    ("proc.cpu_s", "s", "lower"),
    ("proc.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

TAIL_PERCENTILE = 90        # with >= Scale.min_requests (100) samples, >= 10 lie beyond it
SETUP_SAMPLES = (6, 9)      # fresh imports timed before and after the serving process
GAUGE_PROBES = 2            # gauge probes just before and just after each of them
RUN_BUDGET_S = 170          # a run, traced or not, ends within this


@dataclass(frozen=True)
class Scale:
    """Sizes of a run; the smoke test shrinks them."""

    census_n: int = 6
    min_requests: int = 100
    max_requests: int = -1      # -1: no cap
    heavy: bool = True


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no library, wrong library)."""


def machine_facts():
    facts = {"cores": os.cpu_count(), "python": platform.python_version()}
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            kb = int(next(line for line in fh if line.startswith("MemTotal")).split()[1])
        facts["ram_gb"] = round(kb / 2**20, 1)
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            facts["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                platform.processor() or "unknown",
            )
    except OSError:
        facts.setdefault("cpu", platform.processor() or "unknown")
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    facts["commit"] = commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "yangbaxter").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    facts["src_sha256"] = digest.hexdigest()[:16]
    return facts


def _child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def time_imports(samples):
    """Times of fresh interpreters importing the library, as (at the reference
    speed, wall); gauge probes taken just before and after set the speed."""
    code = (f"import sys, yangbaxter; "
            f"sys.exit(0 if yangbaxter.__file__.startswith({str(SRC)!r}) else 3)")
    times = []
    for _ in range(samples):
        probes = [gauge.timed_probe()[1] for _ in range(GAUGE_PROBES)]
        # no timeout: Popen.wait(timeout) polls in steps of up to 50 ms
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        probes += [gauge.timed_probe()[1] for _ in range(GAUGE_PROBES)]
        times.append((wall * gauge.REF_S * sum(1 / p for p in probes) / len(probes), wall))
        if done.returncode != 0:
            raise SetupError("a fresh interpreter could not import the checkout's library")
    return times


def serve(workdir, job, tag, deadline):
    """Run serve.py on a job; returns (result or None, rusage, wall seconds, stderr)."""
    job_path, result_path = workdir / f"job-{tag}.json", workdir / f"result-{tag}.json"
    err_path = workdir / f"stderr-{tag}.txt"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "serve.py"), str(job_path), str(result_path)],
            cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0 or not result_path.exists():
        return None, usage, wall, stderr or f"serving process exited {proc.returncode}"
    return json.loads(result_path.read_text(encoding="utf-8")), usage, wall, stderr


# ---------------------------------------------------------------------------
# Workloads: inputs, jobs and checks


class Workload:
    deck_size = 1
    heavy_per_deck = 0          # times the heavy request is served per deck; 0: once, at the end
    pair_heavy = True           # traced runs serve the heavy request both ways

    def __init__(self, lib, workdir, seed, seconds, scale):
        self.lib, self.workdir, self.seed = lib, workdir, seed
        self.seconds, self.scale = seconds, scale
        self.pool, self.heavy = [], None

    def job(self, trace, seconds, min_requests, max_requests):
        return {
            "workload": self.name, "trace": trace, "src": str(SRC),
            "seconds": seconds, "min_requests": min_requests, "max_requests": max_requests,
            "deck_size": self.deck_size, "heavy_per_deck": self.heavy_per_deck,
            "pair_heavy": self.pair_heavy,
            "pool": [r.argv() for r in self.pool],
            "heavy": self.heavy.argv() if self.heavy else None,
        }

    def _decks(self, per_second):
        """Enough decks for the stream at the seed commit's rate, with room."""
        want = max(self.scale.min_requests, self.seconds * per_second) * 1.5
        return max(1, ceil(want / self.deck_size))

    def requests(self):
        by_rid = {r.rid: r for r in self.pool}
        if self.heavy:
            by_rid[self.heavy.rid] = self.heavy
        return by_rid


class CensusWorkload(Workload):
    name = "census"

    @dataclass
    class Request:
        rid: int
        n: int
        out_path: str

        def argv(self):
            return {"rid": self.rid, "n": self.n, "out": self.out_path}

    def build(self):
        self.heavy = self.Request(0, self.scale.census_n, str(self.workdir / "census.jsonl"))

    def check(self, req, out):
        return checks.check_census(req.n, out, req.out_path)


class ClassifyWorkload(Workload):
    name = "classify"
    pair_heavy = False          # a second Z2^4 request would find its cells cached

    def build(self):
        self.deck_size = len(gen.CLASSIFY_SIZES)
        self.pool = gen.classify_decks(self.seed, str(self.workdir), self._decks(20))
        self.heavy = gen.wide_request(str(self.workdir)) if self.scale.heavy else None
        self._decomposed = {}
        self._blocks = {}

    def _decompose(self, tables):
        # the tables were built by algebra.py, so skip the library's n^3 verify
        key = id(tables)
        if key not in self._decomposed:
            sig, ta = (tuple(map(tuple, t)) for t in tables)
            sol = self.lib.solution.FiniteSolution(n=len(sig), sigma=sig, tau=ta)
            self._decomposed[key] = self.lib.unions.solution_to_union(sol)
        return self._decomposed[key]

    def check(self, req, out):
        return checks.check_classify(req, out, self._decompose, self._blocks)


class BraceWorkload(Workload):
    name = "brace"
    heavy_per_deck = 2          # heavy_s is the median of samples spread over the run

    def build(self):
        catalog = gen.build_catalog(self.lib)
        self.deck_size = len(catalog)
        self.pool = gen.brace_decks(self.seed, str(self.workdir), catalog, self._decks(20))
        label, heavy = gen.heavy_brace(self.lib)
        self.heavy = gen.brace_request(random.Random(48), 99999, str(self.workdir), label, heavy)
        self.reference = {}

    def check(self, req, out):
        try:
            with open(req.out_path, encoding="utf-8") as fh:
                solution_out = json.load(fh)
        except (OSError, ValueError):
            solution_out = None
        return checks.check_brace(req, out, solution_out, self.reference)


WORKLOAD_TYPES = {"census": CensusWorkload, "classify": ClassifyWorkload, "brace": BraceWorkload}


def check_result(workload, result):
    """[(rid, reason)] for every failed request of one serving process."""
    by_rid = workload.requests()
    failures = []
    answers = {}
    served = result["stream"] + result["heavy"]
    for rec in served:
        if rec["error"]:
            failures.append((rec["rid"], rec["error"]))
            continue
        if "out_traced" in rec and rec["out_traced"] != rec["out"]:
            failures.append((rec["rid"], "the traced answer differs from the untraced one"))
            continue
        key = json.dumps(rec["out"], sort_keys=True)
        if rec["rid"] in answers:       # a pool entry served again must answer the same
            if answers[rec["rid"]] != key:
                failures.append((rec["rid"], "answer changed when the request was repeated"))
            continue
        answers[rec["rid"]] = key
        why = workload.check(by_rid[rec["rid"]], rec["out"])
        if why:
            failures.append((rec["rid"], why))
    return failures, len(served)


# ---------------------------------------------------------------------------
# Metrics


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, ceil(pct / 100 * len(ordered)) - 1)]


def gauged(result):
    """Each record's latency at the reference speed, without probe time (gauge.py)."""
    times, durations = result["gauge"]
    for rec in result["stream"] + result["heavy"]:
        rec["wall"] = rec["lat"]
        rec["lat"] = (rec["lat"] - rec["probe_s"]) * gauge.speed_factor(
            times, durations, rec["start"], rec["end"])


def end_to_end(result, usage, setup_s):
    """req_per_s is requests over their summed latencies: one client, no think time."""
    lat = [r["lat"] for r in result["stream"]]
    heavy = statistics.median(r["lat"] for r in result["heavy"]) if result["heavy"] else None
    if not lat:                         # census: the one request is the stream
        lat = [heavy]
    return {
        "setup_s": setup_s,
        "p50_ms": statistics.median(lat) * 1e3,
        "tail_ms": nearest_rank(lat, TAIL_PERCENTILE) * 1e3,
        "req_per_s": len(lat) / sum(lat),
        "heavy_s": heavy,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }


def per_layer(workload, traced, usage, wall):
    sp = traced["spans"]
    st = tracing.self_times(sp)

    def own(*names):
        return sum(st[n][2] for n in names if n in st)

    def calls(name):
        return st[name][0] if name in st else 0

    cells = [e - s for name, s, e, *_ in sp if name == "unions.enumerate_cell"]
    autos = [x for name, _, _, _, _, x in sp if name == "groups.automorphisms"]
    verify_triples = sum(x ** 3 for name, _, _, _, _, x in sp if name == "solution.verify")
    verify_incl = st["solution.verify"][1] if "solution.verify" in st else 0.0
    heavy_out = (traced["heavy"][0]["out"] if traced["heavy"] else None) or {}
    reports = len(traced["stream"]) + len(traced["heavy"])

    paired = [r for r in traced["stream"] + traced["heavy"] if "lat" in r and "lat_traced" in r]
    untraced = sum(r["lat"] for r in paired)
    overhead = sum(r["lat_traced"] for r in paired) - untraced
    metrics = {
        "unions.enumerate_cell.s": own("unions.enumerate_cell"),
        "unions.enumerate_cell.max_s": max(cells, default=0.0),
        "unions.census.classes": heavy_out.get("count", 0) if workload.name == "census" else 0,
        "unions.census_merge.s": own("unions.enumerate_2reductive"),
        "unions.solution_to_union.s": own("unions.solution_to_union"),
        "unions.unions_isomorphic.s": own("unions.unions_isomorphic"),
        "unions.canonical_form.s": own("unions.canonical_form"),
        "unions.union_to_solution.s": own("unions.union_to_solution"),
        "groups.automorphisms.s": own("groups.automorphisms"),
        "groups.automorphisms.calls": len(autos),
        "groups.automorphisms.distinct": len({tuple(x) for x in autos}),
        "groups.perm_closure.s": own("groups.perm_closure"),
        "groups.generates.s": own("groups.generates"),
        "groups.generates.calls": calls("groups.generates"),
        "groups.finite_group.s": own("groups.finite_group"),
        "solution.verify.s": own("solution.verify"),
        "solution.verify.calls": calls("solution.verify"),
        "solution.verify.ns_per_triple": verify_incl / verify_triples * 1e9 if verify_triples else 0.0,
        "solution.predicates.s": sum(own(n) for n in st if n.startswith("solution.") and n[9:] in tracing.PREDICATES),
        "retraction.multipermutation_level.s": own("retraction.multipermutation_level"),
        "retraction.permutation_groups.s": own("retraction.permutation_groups"),
        "brace.verify_brace.s": own("brace.verify_brace"),
        "brace.lambdas.s": own("brace.lambdas"),
        "brace.rhos.s": own("brace.rhos"),
        "brace.is_biskew.s": own("brace.is_biskew"),
        "brace.socle_series.s": own("brace.socle_series"),
        "brace.reductivity_profile.s": own("brace.reductivity_profile"),
        "brace.associated_solution.calls_per_report":
            calls("brace.associated_solution") / reports if workload.name == "brace" else 0.0,
        "cli.write_census.s": own("cli.write_census"),
        "cli.write_census.bytes": heavy_out.get("bytes", 0) if workload.name == "census" else 0,
        "cli.load_payload.s": own("cli.load_payload"),
        "proc.cpu_s": usage.ru_utime + usage.ru_stime,
        "proc.wall_s": wall,
        "trace.overhead_s": overhead,
        "trace.overhead_pct": overhead / untraced * 100 if untraced else 0.0,
    }
    return metrics, st


def baseline_lines(st, sp):
    """The ROADMAP's seed baselines, as far as a traced run shows them."""
    lines = []
    if "unions.enumerate_cell" in st:
        cells = [(e - s, x) for name, s, e, _, _, x in sp if name == "unions.enumerate_cell"]
        slow = max(cells)
        lines.append(f"baseline: enumerate_cell total {st['unions.enumerate_cell'][1]:.2f} s over "
                     f"{len(cells)} cells; slowest {slow[1]} {slow[0]:.2f} s")
    for name, s, e, _, _, x in sp:
        if name == "groups.automorphisms" and x == [2, 2, 2, 2]:
            lines.append(f"baseline: AbelianGroup((2,2,2,2)).automorphisms {e - s:.2f} s")
            break
    v32 = [e - s for name, s, e, _, _, x in sp if name == "solution.verify" and x == 32]
    if v32:
        lines.append(f"baseline: verify at n=32 {statistics.median(v32) * 1e3:.1f} ms "
                     f"(median of {len(v32)})")
    return lines


# ---------------------------------------------------------------------------


def run(workload_name, seed, seconds, trace, scale=Scale()):
    """One benchmark run; returns (summary dict, human-readable lines)."""
    if not (SRC / "yangbaxter" / "__init__.py").is_file():
        raise SetupError(f"no library at {SRC / 'yangbaxter'}")
    deadline = time.monotonic() + RUN_BUDGET_S
    lines = [f"workload: {workload_name} (seed {seed}, {seconds} s, trace {int(trace)}): "
             f"{WORKLOADS[workload_name]}", f"machine: {json.dumps(machine_facts())}"]
    imports = [] if trace else time_imports(SETUP_SAMPLES[0])
    sys.path.insert(0, str(SRC))
    import yangbaxter
    import yangbaxter.brace
    import yangbaxter.solution
    import yangbaxter.unions

    if not os.path.abspath(yangbaxter.__file__).startswith(str(SRC)):
        raise SetupError(f"imported {yangbaxter.__file__}, not the checkout's library")
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        wl = WORKLOAD_TYPES[workload_name](yangbaxter, workdir, seed, seconds, scale)
        wl.build()
        job = wl.job(trace, seconds, scale.min_requests, scale.max_requests)
        result, usage, wall, stderr = serve(workdir, job, "traced" if trace else "plain", deadline)
        if result is None:
            return ({"correct": False, "attempted": 1, "failed": 1, "metrics": {}},
                    lines + [f"error: {stderr.strip()[-300:]}"])
        failures, attempted = check_result(wl, result)
        if trace:
            values, st = per_layer(wl, result, usage, wall)
            units = {name: unit for name, unit, _ in PER_LAYER}
            lines += [f"self time {name}: {own:.4f} s in {calls} calls (inclusive {incl:.4f} s)"
                      for name, (calls, incl, own) in sorted(st.items())]
            lines += baseline_lines(st, result["spans"])
        else:
            imports += time_imports(SETUP_SAMPLES[1])
            units = {name: unit for name, unit, _ in END_TO_END}
            walls = end_to_end(result, usage, statistics.median(w for _, w in imports))
            gauged(result)
            values = end_to_end(result, usage, statistics.median(t for t, _ in imports))
            for named, metric in NAMED[workload_name] + (("setup_s", "setup_s"),):
                value, wall = values[metric], walls[metric]
                lines.append(f"{named}: " + ("not measured" if value is None else
                                             f"{value:.6g} {units[metric]} (wall {wall:.6g})"))
            durations = result["gauge"][1]
            lines.append(f"gauge: {len(durations)} probes, median "
                         f"{statistics.median(durations) * 1e3:.3f} ms, reference "
                         f"{gauge.REF_S * 1e3:g} ms; times above are at the reference speed")
            if result["stream"]:
                lines.append(f"tail: p{TAIL_PERCENTILE} of {len(result['stream'])} stream requests "
                             f"(the highest percentile with >= 10 samples beyond it when a run "
                             f"holds >= {scale.min_requests} requests)")
        lines.append(f"ops: {attempted} ops_failed: {len(failures)}")
        lines += [f"failed: request {rid}: {why}" for rid, why in failures[:10]]
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        return ({"correct": not failures, "attempted": attempted, "failed": len(failures),
                 "metrics": metrics}, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
