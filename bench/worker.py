"""The workload process: one client running jobs in a closed loop.

    python3 bench/worker.py --root ROOT --workload NAME --seed N --seconds S
        --trace 0|1 --work DIR
    python3 bench/worker.py --root ROOT --probe FILE...

A job starts only after the previous one returns.  Passes over the job
list repeat until ``--seconds`` have gone by; every pass is whole.  With
``--trace 1`` the passes alternate between untraced and traced, so that the
tracing overhead can be read off.  Before each job, outside its timed
region, and once after the last job, the worker times a fixed calibration
loop; ``run.py`` scales each job's time by the loops run near it.  The
worker writes ``result.json`` to the work directory; outputs are checked
afterwards, by ``run.py``.

``--probe`` times the set-up alone: importing mealyforge and parsing each
given input file once.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter

CALIBRATION_ENTRIES = 3000


def import_mealyforge(root):
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import mealyforge
    import mealyforge.cli  # noqa: F401  (not imported by the package itself)

    if os.path.dirname(os.path.dirname(os.path.realpath(mealyforge.__file__))) != src:
        raise ImportError("mealyforge was not imported from %s" % src)
    return mealyforge


def calibrate():
    """Seconds taken by a fixed pure-Python loop that builds, reads and frees
    a dict of tuples: the speed of the host at this moment.  The collector
    is off, so the time does not depend on the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    table = {}
    for i in range(CALIBRATION_ENTRIES):
        table[(i, i >> 3, i & 7)] = (i & 255,)
    total = 0
    for value in table.values():
        total += value[0]
    table = None
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def probe(root, files):
    """Prints the set-up time and the median of calibration loops after it."""
    start = perf_counter()
    mf = import_mealyforge(root)
    for path in files:
        if path.endswith(".group"):
            mf.fileio.load_group(path)
        else:
            mf.fileio.load_machine(path)
    setup = perf_counter() - start
    print(repr(setup), repr(statistics.median(calibrate() for _ in range(21))))


def run_job(mf, job):
    """Run one job; returns (exit code or None, seconds, error text)."""
    error = None
    if "argv" in job:
        argv = job["argv"] + ["--json", "-o", job["out"]]
        start = perf_counter()
        try:
            rc = mf.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 64
        except Exception as exc:  # a raising job counts as failed
            rc, error = None, repr(exc)
        return rc, perf_counter() - start, error
    params = job["params"]
    words = None
    if job["op"] == "stallings":
        # The basis comes from the schreier job just before; reading it is
        # the benchmark's work, not the program's.
        with open(params["basis"], encoding="utf-8") as fh:
            words = [w.split() for w in json.load(fh)["stabilizer_basis"]]
    start = perf_counter()
    try:
        machine = mf.fileio.load_machine(params["machine"])
        if job["op"] == "finiteness":
            verdict = mf.boundary.finiteness_semidecision(machine, params["horizon"])
            payload = vars(verdict)
        else:
            graphs = mf.graphs
            aut = graphs.stallings_automaton(words, graphs.signed_labels(machine.states))
            accepted = sum(1 for w in words if graphs.membership(aut, w))
            payload = {"vertices": len(aut.vertices), "words": len(words),
                       "accepted": accepted, "rank": len(graphs.basis(aut))}
        with open(job["out"], "w", encoding="utf-8") as fh:
            fh.write(mf.fileio.dump_json(payload))
        rc = 0
    except Exception as exc:  # a raising job counts as failed
        rc, error = None, repr(exc)
    return rc, perf_counter() - start, error


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--probe", nargs="*")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work")
    args = ap.parse_args(argv)
    if args.probe is not None:
        return probe(args.root, args.probe)

    import workloads

    mf = import_mealyforge(args.root)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    passes = []
    jobs = []
    started = perf_counter()
    index = 0
    while True:
        pass_started = perf_counter()
        # Traced passes repeat the work of the untraced pass before them.
        content = index // 2 if tracer is not None else index
        p = workloads.build(args.root, args.workload, args.seed, index, args.work, content)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        calibration = []
        begin = perf_counter()
        for job in p.jobs:
            calibration.append(calibrate())
            if traced:
                tracer.job = job["id"]
            rc, seconds, error = run_job(mf, job)
            job.update(rc=rc, seconds=seconds, error=error, traced=traced)
        batch = perf_counter() - begin - sum(calibration)
        calibration.append(calibrate())  # the loop after the last job
        record = {"index": index, "traced": traced, "batch_s": batch, "jobs": len(p.jobs),
                  "calibration_s": calibration}
        if traced:
            record["layers"] = tracer.uninstall().metrics()
        passes.append(record)
        jobs.extend(p.jobs)
        index += 1
        # Stop before a pass that would end after --seconds; traced runs
        # go by whole untraced/traced pairs.
        now = perf_counter()
        ahead = (now - pass_started) * (1 if tracer is None else 2)
        if now - started + ahead > args.seconds and (tracer is None or index % 2 == 0):
            break
    if tracer is not None:
        results = os.path.join(args.root, "bench", "results")
        os.makedirs(results, exist_ok=True)
        tracer.write(os.path.join(results, "trace-%s.jsonl" % args.workload))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(args.work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "jobs": jobs, "peak_rss_kb": peak_kb}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
