"""Benchmark of mealyforge: three workloads, one per way the program reads
a machine through its dual.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; mealyforge is imported from its ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.

Steps: make the inputs of the first pass and time the set-up in fresh
processes; run the workload in its own fresh process (``worker.py``);
check every output with the independent reference (``checks.py``), outside
the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
# Times are scaled to a host on which the calibration loop of worker.py
# takes this long (its median on the 2-vCPU virtual machine of the README).
REFERENCE_CALIBRATION_S = 0.001
WORKER_TIMEOUT_S = 150
# Exit codes 0, 1 and 2 are verdicts; 3 (budget), 64 (usage) or an
# exception (None) is a failed job.
VERDICTS = (0, 1, 2)


def fail(message):
    sys.stderr.write("bench: %s\n" % message)
    sys.exit(2)


def setup_seconds(work, workload, seed):
    """Median over fresh processes of importing mealyforge and parsing every
    input file of one pass, each scaled by the calibration loops run after
    it.  The first, untimed probe warms the caches."""
    p = workloads.build(ROOT, workload, seed, 0, os.path.join(work, "probe"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--probe"]
    times = []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd + p.inputs, capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            fail("set-up probe failed:\n" + out.stderr)
        if i:
            setup, calibration = map(float, out.stdout.split())
            times.append(setup * REFERENCE_CALIBRATION_S / calibration)
    return statistics.median(times)


def run_worker(work, args):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("the workload did not end within %d s" % WORKER_TIMEOUT_S)
    if code != 0:
        fail("the workload process exited with %d" % code)
    with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_jobs(jobs):
    """(failed jobs, wrong outputs, first problems) over all jobs."""
    failed = wrong = 0
    problems = []
    cache = {}
    passes = {}
    for job in jobs:
        passes.setdefault(job["id"].split(".")[0], []).append(job)
    for group in passes.values():
        cache.clear()  # the machines of one pass are not reused by the next
        for job in group:
            reason = None
            if job["rc"] not in VERDICTS:
                reason = "exit %s %s" % (job["rc"], job["error"] or "")
            else:
                payload = read_output(job)
                if payload is None:
                    reason = "no readable output (exit %s)" % job["rc"]
                else:
                    reason = checks.check(job, job["rc"], payload, cache)
                wrong += reason is not None
            if reason is not None:
                failed += 1
                if len(problems) < 5:
                    problems.append("%s %s: %s" % (job["id"], _label(job), reason))
    return failed, wrong, problems


def read_output(job):
    """The job's JSON output, or None when it is missing or does not parse
    (the CLI writes no file when it reports an error)."""
    try:
        with open(job["out"], encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _label(job):
    if "argv" in job:
        return " ".join(os.path.basename(a) for a in job["argv"])
    return job["op"] + " " + os.path.basename(job["params"]["machine"])


def quantile(values, q):
    """The q-quantile by the inclusive method of ``statistics.quantiles``."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def speed_factors(result):
    """The factors that scale times to the reference host: per job id, and
    per pass (its jobs' factors weighted by their times).  The host's speed
    drifts from one second to the next and by up to a third from one minute
    to the next, so a job's factor comes from the calibration loops run
    within four jobs of it: the loops before jobs i-3 .. i+4 of its pass."""
    jobs = {}
    for j in result["jobs"]:
        jobs.setdefault(j["id"].split(".")[0], []).append(j)
    factor = {}
    for p in result["passes"]:
        key = "p%d" % p["index"]
        calibration = p["calibration_s"]
        raw = scaled = 0.0
        for i, j in enumerate(jobs[key]):
            window = calibration[max(0, i - 3): i + 5]
            factor[j["id"]] = REFERENCE_CALIBRATION_S / statistics.median(window)
            raw += j["seconds"]
            scaled += j["seconds"] * factor[j["id"]]
        factor[key] = scaled / raw
    return factor


def end_to_end(result, setup):
    factor = speed_factors(result)
    untraced = [p["batch_s"] * factor["p%d" % p["index"]]
                for p in result["passes"] if not p["traced"]]
    latencies_ms = [1000 * j["seconds"] * factor[j["id"]]
                    for j in result["jobs"] if not j["traced"]]
    return {
        "setup_s": (setup, "s"),
        "batch_s": (statistics.median(untraced), "s"),
        "job_p50_ms": (statistics.median(latencies_ms), "ms"),
        "job_p90_ms": (quantile(latencies_ms, 0.9), "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(result):
    passes = result["passes"]
    factor = speed_factors(result)
    traced = [p for p in passes if p["traced"]]
    out = {}
    for name, (unit, _) in tracing.PER_LAYER.items():
        scale = unit in ("s", "ms")
        out[name] = (statistics.median(
            [p["layers"][name] * (factor["p%d" % p["index"]] if scale else 1)
             for p in traced]), unit)
    batch = {t: statistics.median([p["batch_s"] * factor["p%d" % p["index"]]
                                   for p in passes if p["traced"] == t])
             for t in (False, True)}
    out["trace.overhead_s"] = (batch[True] - batch[False], "s")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mealyforge", "__init__.py")):
        fail("no mealyforge sources under %s" % os.path.join(ROOT, "src"))
    work = os.path.join(HERE, ".work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup = setup_seconds(work, args.workload, args.seed) if not args.trace else None
        result = run_worker(work, args)
        started = perf_counter()
        failed, wrong, problems = check_jobs(result["jobs"])
        for line in problems:
            sys.stderr.write("bench: %s\n" % line)
        sys.stderr.write("bench: checked %d outputs in %.1f s; passes (s): %s\n" % (
            len(result["jobs"]), perf_counter() - started,
            " ".join("%.3f%s" % (p["batch_s"], "t" if p["traced"] else "")
                     for p in result["passes"])))
        metrics = per_layer(result) if args.trace else end_to_end(result, setup)
        results = os.path.join(HERE, "results")
        os.makedirs(results, exist_ok=True)
        shutil.copy(os.path.join(work, "result.json"),
                    os.path.join(results, "last-%s-trace%d.json" % (args.workload, args.trace)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(result["jobs"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
