"""lbfkit benchmark: fresh `python -m lbfkit.cli` jobs, closed loop, one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-mix --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the run first times ``lbfkit --help`` in fresh processes
(setup).  Then it runs the workload's seeded jobs one fresh process at a
time, in a fixed number of whole rounds: as many as fill ``--seconds`` at
the round's nominal duration (``ROUND_SECONDS``).  The count depends only
on the workload and ``--seconds``, never on how fast the machine is, so a
seed always gives the same jobs and the same failures.
``jobs.check_job`` checks every job's report.  With ``--trace 1`` the run
instead replays the workload's first jobs in-process, with a span around
each layer call (see ``tracing.py``).  Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
Scratch files, result records and spans go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import jobs

SETUP_SAMPLES = 5
TAIL_PERCENTILE = 60    # 27-30 jobs per 30 s run leave 11-12 samples above p60
# Nominal wall seconds of one round of each workload, measured on a 2-vCPU
# x86-64 VM: cli-mix 5 jobs, forms-sweep 9 jobs (n = 2..10), transport-sweep 2.
ROUND_SECONDS = {"cli-mix": 5.0, "forms-sweep": 12.0, "transport-sweep": 2.0}
JOB_TIMEOUT_S = 60.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(jobs.ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def run_fresh(argv: list[str], env: dict[str, str]) -> tuple[float, int, int, str]:
    """Run one fresh lbfkit process.

    Returns wall seconds, exit code, the child's max RSS in KiB, and stdout.
    The child is reaped with a blocking wait4: Popen.wait(timeout) polls with
    sleeps of up to 50 ms, which would round every job time up to that grid.
    """
    stdout_path = jobs.WORK / "stdout"
    with open(stdout_path, "wb") as out, open(jobs.WORK / "stderr", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "lbfkit.cli", *argv],
                                stdout=out, stderr=err, env=env)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss, stdout_path.read_text(errors="replace")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    versions = {}
    for name in ("numpy", "scipy"):
        try:
            versions[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            versions[name] = "missing"
    return {"python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "cpu": cpu_model(), "seed": seed}


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    env = child_env()
    setup = [run_fresh(["--help"], env)[0] for _ in range(SETUP_SAMPLES)]

    times, records = [], []
    peak_kb = 0
    failed = 0
    correct = True
    rounds = jobs.job_rounds(workload, seed)
    round_count = max(1, math.ceil(seconds / ROUND_SECONDS[workload]))
    started = time.perf_counter()
    for _ in range(round_count):
        for job in next(rounds):
            jobs.reset_out()
            elapsed, rc, rss_kb, stdout = run_fresh(job.argv, env)
            outcome = jobs.check_job(job, rc, stdout)
            times.append(elapsed)
            peak_kb = max(peak_kb, rss_kb)
            failed += not outcome.ok
            correct &= not outcome.problems
            records.append({"argv": job.argv, "seconds": elapsed, "rc": rc,
                            "ok": outcome.ok, "problems": outcome.problems})
    loop_s = time.perf_counter() - started

    n = len(times)
    metrics = {
        "job_s_p50": metric(statistics.median(times), "s", n),
        "job_s_tail": metric(statistics.quantiles(times, n=100)[TAIL_PERCENTILE - 1]
                             if n > 1 else times[0], "s", n),
        "jobs_per_s": metric(n / loop_s, "1/s", n),
        "setup_s": metric(statistics.median(setup), "s", SETUP_SAMPLES),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB", n),
    }
    tail = metrics["job_s_tail"]["value"]
    info = {
        "failed_ratio": metric(failed / n, "ratio", n),
        "tail": f"job_s_tail is p{TAIL_PERCENTILE}; {sum(t > tail for t in times)} "
                f"of {n} jobs lie beyond it",
    }
    return {"correct": correct, "attempted": n, "failed": failed, "metrics": metrics,
            "info": info, "jobs": records}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (jobs.ROOT / "src" / "lbfkit" / "cli.py").is_file():
        print(f"perfbench: no lbfkit sources under {jobs.ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(jobs.ROOT)
    jobs.WORK.mkdir(exist_ok=True)

    if args.trace:
        import tracing
        result = tracing.run_traced(args.workload, args.seed, args.seconds, child_env())
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    result["environment"] = environment(args.seed)
    result["workload"] = args.workload

    record = jobs.WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=2) + "\n")
    env = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  nproc {env['nproc']}  "
          f"cpu {env['cpu']}")
    for name, m in {**result["metrics"], **result["info"]}.items():
        if isinstance(m, dict):
            print(f"  {name:44s} {m['value']:>14.6g} {m['unit']:6s} n={m['samples']}")
        else:
            print(f"  {name}: {m}")
    print(f"  record: {record}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
