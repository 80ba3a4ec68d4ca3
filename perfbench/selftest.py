"""Self-checks of the benchmark's job generator and report checks.

Run from the root of a checkout (about 20 s):

    python3 perfbench/selftest.py

It asserts that the job stream is a pure function of workload and seed,
that no generated job is a usage error (exit 2), and that every generated
job's report passes the benchmark's checks without a wrong output.  Jobs run
in-process through ``cli.main``, so the run needs ``src/`` but no subprocess.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import jobs

SEEDS = (0, 1, 2)
RUN = {"cli-mix": (SEEDS, 10), "transport-sweep": (SEEDS, 10), "forms-sweep": ((0,), 9)}


def run_inprocess(cli, argv: list[str]) -> tuple[int, str]:
    jobs.reset_out()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, stdout.getvalue()


def main() -> int:
    os.chdir(jobs.ROOT)
    sys.path.insert(0, str(jobs.ROOT / "src"))
    from lbfkit import cli

    errors: list[str] = []
    for workload in jobs.ROUNDS:
        streams = {s: [j.argv for j in jobs.first_jobs(workload, s, 40)] for s in range(5)}
        again = {s: [j.argv for j in jobs.first_jobs(workload, s, 40)] for s in range(5)}
        if streams != again:
            errors.append(f"{workload}: job stream differs between two calls")
        if streams[0] == streams[1]:
            errors.append(f"{workload}: seeds 0 and 1 give the same jobs")

    # The generator's reason for writing --grid=LO:HI:COUNT as one word.
    rc, _ = run_inprocess(cli, ["transport", "--grid", "-0.1:0.1:8"])
    if rc != 2:
        errors.append(f"space-separated negative grid exited {rc}, expected 2")

    for workload, (seeds, count) in RUN.items():
        for seed in seeds:
            for job in jobs.first_jobs(workload, seed, count):
                rc, stdout = run_inprocess(cli, job.argv)
                outcome = jobs.check_job(job, rc, stdout)
                if rc == 2 or outcome.problems:
                    errors.append(f"{workload} seed {seed} {job.argv}: exit {rc}, "
                                  f"{outcome.problems}")

    for line in errors:
        print(f"FAIL {line}")
    print(f"selftest: {'FAILED' if errors else 'ok'} ({len(errors)} failures)")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
