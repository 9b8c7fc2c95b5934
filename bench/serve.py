"""The serving process: one fresh, single-threaded interpreter per run.

It reads a job file written by run.py, imports the library from the
checkout, sends the requests one after another (a closed loop with one
client) and writes timings and raw outputs to a result file, once, at exit.
It checks nothing itself; run.py does that after it has exited.

With tracing off, a speed gauge (gauge.py) probes the machine 10 times a
second from a timer signal, and each request records its start, end and the
probe time inside it.

With tracing on, every paired request is served twice back to back, once
with the span wrappers and once without, the order alternating, so that
the two timings see the same machine state; their difference is the
tracing overhead.

    python3 bench/serve.py JOB.json RESULT.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from time import perf_counter

from gauge import MAX_STRETCH, Gauge


def _capture(fn, *args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        value = fn(*args)
    return value, out.getvalue(), err.getvalue()


def classify_request(cli, unions, req):
    rc_v, out_v, _ = _capture(cli.main, ["verify", req["a"]])
    rc_c, out_c, _ = _capture(cli.main, ["classify", req["a"], req["b"]])
    _, union = cli.load_payload(req["u"])
    canon = unions.canonical_form(union)
    return {"verify": [rc_v, out_v], "classify": [rc_c, out_c], "canonical": canon.to_dict()}


def brace_request(cli, req):
    rc, out, err = _capture(
        cli.main, ["brace", req["file"], "--report", "full", "--solution-out", req["out"]]
    )
    return {"brace": [rc, out, err]}


def census_request(cli, req):
    record = cli.build_census(req["n"])
    with open(req["out"], "w", encoding="utf-8") as fh:
        cli.write_census(record, fh)
    return {"count": record.count, "bytes": os.path.getsize(req["out"])}


class Server:
    def __init__(self, job, run, recorder, gauge):
        self.job, self.run, self.recorder, self.gauge = job, run, recorder, gauge
        self.served = 0

    def _once(self, req, traced):
        rec, gauge = self.recorder, self.gauge
        if rec is not None:
            rec.request = req["rid"]
            rec.enable() if traced else rec.disable()
        spent = gauge.spent if gauge else 0.0
        t0 = perf_counter()
        try:
            if traced:
                with rec.span("request"):
                    out = self.run(req)
            else:
                out = self.run(req)
            error = None
        except Exception as exc:        # one failed request, not a failed run
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if gauge:
            self.probed = (t0, t1, gauge.spent - spent)
        return t1 - t0, out, error

    def send(self, req, paired=True):
        """Serve a request; with tracing on, `paired` serves it both ways."""
        self.served += 1
        if self.recorder is None:
            lat, out, error = self._once(req, False)
            rec = {"rid": req["rid"], "lat": lat, "out": out, "error": error}
            if self.gauge:
                rec["start"], rec["end"], rec["probe_s"] = self.probed
            return rec
        if not paired:
            lat, out, error = self._once(req, True)
            return {"rid": req["rid"], "lat_traced": lat, "out": out, "error": error}
        passes = {}
        for traced in ((True, False) if self.served % 2 else (False, True)):
            passes[traced] = self._once(req, traced)
        (lat, out, error), (lat_t, out_t, error_t) = passes[False], passes[True]
        return {"rid": req["rid"], "lat": lat, "lat_traced": lat_t, "out": out,
                "out_traced": out_t, "error": error or error_t}

    def stream(self):
        """Whole decks until `seconds` have passed and `min_requests` are done;
        the heavy request goes `heavy_per_deck` times per deck, evenly
        spaced, or once at the end.

        With the gauge on, the seconds are counted at its reference speed, so
        that a slow spell of the machine does not serve fewer requests (the
        library's caches, and with them the peak RSS, grow with every new
        request); MAX_STRETCH caps the wall time this may take."""
        job, pool, deck, gauge = self.job, self.job["pool"], self.job["deck_size"], self.gauge
        every = deck // job["heavy_per_deck"] if job["heavy"] and job["heavy_per_deck"] else 0
        done, heavy = [], []
        start, spent = perf_counter(), gauge.spent if gauge else 0.0

        def over():
            wall = perf_counter() - start
            if gauge is None:
                return wall >= job["seconds"]
            return (wall >= job["seconds"] * MAX_STRETCH
                    or gauge.elapsed(start, spent) >= job["seconds"])

        while pool and len(done) != job["max_requests"]:
            if done and every and len(done) % every == 0:
                heavy.append(self.send(job["heavy"], job["pair_heavy"]))
            if len(done) % deck == 0 and len(done) >= job["min_requests"] and over():
                break
            done.append(self.send(pool[len(done) % len(pool)]))
        if job["heavy"] and not heavy:
            heavy.append(self.send(job["heavy"], job["pair_heavy"]))
        return done, heavy


def main(job_path, result_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import yangbaxter
    from yangbaxter import cli, unions

    if not os.path.abspath(yangbaxter.__file__).startswith(job["src"]):
        raise SystemExit(f"imported {yangbaxter.__file__}, not the checkout's library")
    recorder = gauge = None
    if job["trace"]:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    else:
        gauge = Gauge()
    run = {
        "classify": lambda req: classify_request(cli, unions, req),
        "brace": lambda req: brace_request(cli, req),
        "census": lambda req: census_request(cli, req),
    }[job["workload"]]
    if gauge:
        gauge.start()
    done, heavy = Server(job, run, recorder, gauge).stream()
    if gauge:
        gauge.stop()
    result = {"stream": done, "heavy": heavy, "spans": recorder.spans if recorder else [],
              "gauge": [gauge.times, gauge.durations] if gauge else None}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
