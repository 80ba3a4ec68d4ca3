"""Seeded job generation and the benchmark's own checks of each job's report.

A job is the argv of one ``lbfkit`` invocation.  Each workload yields its
jobs in rounds: one round covers the workload's input domain evenly, and the
seed picks the values inside each stratum and the order of a round.  A run
executes whole rounds only, so every run has the same mix of input sizes and
its quantiles stay steady across seeds.

The checks recompute every verdict from the report text against the rules
the README states; nothing is taken on the program's word.  ``check_job``
returns whether the job succeeded and which of its outputs were wrong.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Relative to the checkout root, which is the working directory of every job.
WORK = Path(".bench_work")
OUT = WORK / "out"

FORMATS = ("json", "csv", "table")
SUFFIX = {"json": ".json", "csv": ".csv", "table": ".txt"}
IDENTITIES = (
    "LIOUVILLE_DUAL", "OMEGA_ALPHA_KERNEL", "OMEGA_ALPHABAR_KERNEL", "TOP_POWER",
    "OMEGA1_KERNEL", "MOSER_DIFF", "VERTICAL_SPLIT", "HESSIAN", "CONTACT_VOLUME",
)
DRIFT_GATE = 1e-8
LIMIT_TOL = 1e-3
# Documented transport level range [-disk1_radius^2, disk2_radius^2].
T_NEG_END = 0.25
T_POS_END = 100.0
T_MIN_ABS = 1e-4
GRID_HALF_WIDTH = 0.24
# Grid half-widths are drawn on a 1/1000 lattice of (0, 0.24].  A finer draw
# could put a grid label within ~8e-8 of t = 0, where the program's central
# stencil (step min(|t|/8, 1e-3), floor 1e-8) refuses the grid with exit 2.
GRID_STEPS = 1000
# Grid point counts C = 2 * m, m in one of these halves: C in 64..158 or 160..256.
C_HALVES = ((32, 79), (80, 128))

# Each suite that `lbfkit all` runs, with the arguments it uses (cli.ALL_SUITES).
ALL_SUITES = (
    ("verify-forms", {"n": 2}),
    ("transport", {"t": 0.25, "grid": (-0.16, 0.16, 8)}),
    ("fillings", {"n": 2, "k": 5, "include_zero": False}),
    ("resolve", {"k": 3, "dim": 1}),
    ("contact-check", {"n": 2}),
)


@dataclass
class Job:
    """One invocation: its argv and what the checks need to know about it."""

    command: str
    params: dict
    fmt: str = "json"
    out: str | None = None          # --out target, relative to the checkout
    argv: list[str] = field(default_factory=list)


def _with_output(rng: random.Random, job: Job, argv: list[str]) -> Job:
    """Add a seeded --format and, half the time, a --out file."""
    flag = rng.choice((None,) + FORMATS)    # None: the json default
    job.fmt = flag or "json"
    if flag:
        argv += ["--format", flag]
    if rng.random() < 0.5:
        job.out = str(OUT / f"report{SUFFIX[job.fmt]}")
        argv += ["--out", job.out]
    job.argv = argv
    return job


def _all(rng: random.Random) -> Job:
    job = Job("all", {}, out=str(OUT / "all"))
    flag = rng.choice((None,) + FORMATS)
    job.fmt = flag or "json"
    job.argv = ["all", "--out", job.out] + (["--format", flag] if flag else [])
    return job


def _fillings(rng: random.Random) -> Job:
    n, k, zero = rng.randint(2, 8), rng.randint(1, 80), rng.random() < 0.5
    argv = ["fillings", "--n", str(n), "--k", str(k)] + (["--include-zero"] if zero else [])
    return _with_output(rng, Job("fillings", {"n": n, "k": k, "include_zero": zero}), argv)


def _resolve(rng: random.Random, lo: int, hi: int) -> Job:
    k, dim = rng.randint(lo, hi), rng.randint(0, 4)
    argv = ["resolve", "--k", str(k), "--dim", str(dim)]
    return _with_output(rng, Job("resolve", {"k": k, "dim": dim}), argv)


def _contact(rng: random.Random) -> Job:
    n = rng.randint(1, 8)
    return _with_output(rng, Job("contact-check", {"n": n}), ["contact-check", "--n", str(n)])


def cli_mix_round(rng: random.Random) -> list[Job]:
    """`all` plus the light subcommands; resolve k is stratified in two halves."""
    jobs = [_all(rng), _fillings(rng), _resolve(rng, 1, 200), _resolve(rng, 201, 401),
            _contact(rng)]
    rng.shuffle(jobs)
    return jobs


def forms_sweep_round(rng: random.Random) -> list[Job]:
    """n = 2..10 once each, in seeded order."""
    ns = list(range(2, 11))
    rng.shuffle(ns)
    return [Job("verify-forms", {"n": n}, argv=["verify-forms", "--n", str(n)]) for n in ns]


def _level(rng: random.Random, end: float) -> float:
    """|t| log-uniform in [T_MIN_ABS, end]."""
    return math.exp(rng.uniform(math.log(T_MIN_ABS), math.log(end)))


def _transport(rng: random.Random, t: float, a_half: int, c_half: int) -> Job:
    """A level with A from half ``a_half`` of its range and C from half ``c_half``."""
    half = GRID_STEPS // 2
    a = GRID_HALF_WIDTH * rng.randint(a_half * half + 1, (a_half + 1) * half) / GRID_STEPS
    c = 2 * rng.randint(*C_HALVES[c_half])    # even, so the grid never holds t = 0
    grid = f"{-a!r}:{a!r}:{c}"
    # One argv word: as a separate word argparse reads "-A:..." as an option.
    argv = ["transport", "--t", repr(t), f"--grid={grid}"]
    return Job("transport", {"t": t, "grid": (-a, a, c)}, argv=argv)


def transport_sweep_round(rng: random.Random) -> list[Job]:
    """One T > 0 and one T < 0; one job in each half of the A and of the C range.

    Job time grows with C and shrinks with A; drawing from both halves of
    each range in every round keeps a run's mix of grid sizes close to the
    same at every seed.
    """
    a_halves, c_halves = rng.sample((0, 1), 2), rng.sample((0, 1), 2)
    jobs = [_transport(rng, _level(rng, T_POS_END), a_halves[0], c_halves[0]),
            _transport(rng, -_level(rng, T_NEG_END), a_halves[1], c_halves[1])]
    rng.shuffle(jobs)
    return jobs


ROUNDS = {
    "cli-mix": cli_mix_round,
    "forms-sweep": forms_sweep_round,
    "transport-sweep": transport_sweep_round,
}


def job_rounds(workload: str, seed: int):
    """Endless, seed-determined stream of rounds of jobs."""
    rng = random.Random(f"{workload}:{seed}")
    make_round = ROUNDS[workload]
    while True:
        yield make_round(rng)


def reset_out() -> None:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)


def first_jobs(workload: str, seed: int, count: int) -> list[Job]:
    stream = (job for jobs in job_rounds(workload, seed) for job in jobs)
    return [next(stream) for _ in range(count)]


# ---------------------------------------------------------------------------
# checks


@dataclass
class Outcome:
    """The benchmark's verdict on one job."""

    ok: bool = True                 # exit 0 and every check passed
    problems: list[str] = field(default_factory=list)   # wrong outputs
    levels: int = 0                 # transport levels audited
    gate_failures: int = 0          # of those, levels over the drift gate
    max_h_drift: float = 0.0
    max_radial_drift: float = 0.0


def _rows(text: str) -> list[list[str]]:
    return [line.split() for line in text.splitlines() if line.strip()]


def _table_result(text: str) -> bool | None:
    for row in _rows(text):
        if row[:1] == ["result"]:
            return row[1:2] == ["PASS"]
    return None


def _expect(cond: bool, problems: list[str], message: str) -> bool:
    if not cond:
        problems.append(message)
    return cond


def _check_verify_forms(p: dict, fmt: str, text: str, out: Outcome) -> bool:
    good = True
    if fmt == "json":
        rep = json.loads(text)
        verdicts = [(r["identity"], r["verdict"]) for r in rep["identities"]]
        good &= _expect(rep["config"]["n"] == p["n"], out.problems,
                        f"config n {rep['config']['n']}, expected {p['n']}")
        good &= _expect(rep["top_power_grid"]["min_value"] > 0.0, out.problems,
                        "TOP_POWER grid minimum <= 0")
    else:
        rows = [r.split(",") for r in text.splitlines()[1:]] if fmt == "csv" else _rows(text)[1:]
        verdicts = [tuple(r) for r in rows if len(r) == 2 and r[0] in IDENTITIES]
    return good & _expect(verdicts == [(name, "exact-equal") for name in IDENTITIES],
                          out.problems, f"verdicts {verdicts}")


def _check_fillings(p: dict, fmt: str, text: str, out: Outcome) -> bool:
    k = p["k"]
    if fmt == "json":
        rows = [(r["ell"], r["weight"], r["chi_betti"]) for r in json.loads(text)["fillings"]]
    else:
        body = ([r.split(",") for r in text.splitlines()[1:]] if fmt == "csv"
                else _rows(text)[1:-1])
        # word letters are space separated in the table, so index from the end
        rows = [(int(r[0]), int(r[-4]), int(r[-3])) for r in body]
    ells = list(range(0 if p["include_zero"] else 1, (k + 1) // 2 + 1))
    good = _expect([r[0] for r in rows] == ells, out.problems, f"ells {[r[0] for r in rows]}")
    good &= _expect(all(r[1] == k + 1 for r in rows), out.problems, "weight != k+1")
    chis = [r[2] for r in rows]
    return good & _expect(len(set(chis)) == len(chis), out.problems, f"chi not distinct {chis}")


def _check_resolve(p: dict, fmt: str, text: str, out: Outcome) -> bool:
    steps = -(-p["k"] // 2)
    if fmt == "json":
        rep = json.loads(text)
        verdicts = [s["verdict"] for s in rep["trace"]["steps"]]
        _expect(len(rep["word_chain"]) == steps, out.problems,
                f"word chain length {len(rep['word_chain'])}, expected {steps}")
    else:
        rows = ([r.split(",") for r in text.splitlines()[1:]] if fmt == "csv"
                else [r for r in _rows(text)[1:] if r[0] != "result"])
        verdicts = [r[-1] for r in rows]
    good = _expect(len(verdicts) == steps, out.problems,
                   f"step count {len(verdicts)}, expected ceil(k/2) = {steps}")
    return good & _expect(verdicts[-1:] == ["Smooth"], out.problems, "last step not Smooth")


def _check_contact(p: dict, fmt: str, text: str, out: Outcome) -> bool:
    if fmt == "json":
        rep = json.loads(text)
        parts = [rep[key]["passed"] for key in ("profile", "corner", "base")]
        return _expect(all(parts), out.problems, f"profile/corner/base passed {parts}")
    if fmt == "csv":
        rows = [[float(v) for v in r.split(",")] for r in text.splitlines()[1:]]
        return _expect(all(d > 0.0 for r, _, _, d in rows if r > 0.0), out.problems,
                       "profile determinant not positive")
    rows = {r[0]: r[1:] for r in _rows(text)}
    good = float(rows["profile"][1]) > 0.0 and rows["corner"][:1] == rows["base"][:1] == ["PASS"]
    return _expect(good, out.problems, f"contact table {rows}")


def _grid(lo: float, hi: float, count: int) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)] if count > 1 else [lo]


def _check_transport(p: dict, fmt: str, text: str, out: Outcome) -> bool:
    if fmt == "csv":
        ts = [float(r.split(",")[0]) for r in text.splitlines()[1:]]
        return _expect(_close(ts, _grid(*p["grid"])), out.problems, "profile t grid")
    if fmt == "json":
        rep = json.loads(text)
        var = rep["trajectory"]["variants"]
        drifts = {v: (var[v]["max_h_drift"], var[v]["max_radial_drift"]) for v in var}
        lim = (rep["limits_at_zero"]["plus"], rep["limits_at_zero"]["minus"])
        _expect(_close(rep["profile"]["t"], _grid(*p["grid"])), out.problems, "profile t grid")
    else:
        rows = {" ".join(r[:2]): r[2:] for r in _rows(text)}
        drifts = {v: tuple(map(float, rows[f"{v} drifts"])) for v in ("weighted", "unweighted")}
        lim = tuple(map(float, rows["limits at"][1:]))
    # The radial invariant is gated only for the weighted denominator.
    gated = [drifts["weighted"][0], drifts["weighted"][1], drifts["unweighted"][0]]
    out.levels = 1
    out.gate_failures = int(max(gated) > DRIFT_GATE)
    out.max_h_drift = max(drifts["weighted"][0], drifts["unweighted"][0])
    out.max_radial_drift = drifts["weighted"][1]
    limits_ok = _expect(abs(lim[0] - 0.5) <= LIMIT_TOL and abs(lim[1] + 0.5) <= LIMIT_TOL,
                        out.problems, f"limits at zero {lim}")
    # A level over the drift gate is a failed job, but not a wrong report:
    # the program flags it itself, and the caller checks that it does.
    return limits_ok and not out.gate_failures


def _close(a: list[float], b: list[float]) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= 1e-12 for x, y in zip(a, b))


CHECKS = {
    "verify-forms": _check_verify_forms,
    "fillings": _check_fillings,
    "resolve": _check_resolve,
    "contact-check": _check_contact,
    "transport": _check_transport,
}


def _check_report(command: str, params: dict, fmt: str, text: str, out: Outcome) -> bool:
    """Check one report; return the verdict the benchmark expects for it."""
    try:
        expected = CHECKS[command](params, fmt, text, out)
        stated = (json.loads(text)["passed"] if fmt == "json"
                  else _table_result(text) if fmt == "table" else None)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        out.problems.append(f"{command} report unreadable: {exc!r}")
        return False
    if stated is not None:
        _expect(stated == expected, out.problems, f"report says passed={stated}")
    return expected


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except FileNotFoundError:
        return None


def check_job(job: Job, rc: int, stdout: str) -> Outcome:
    """Check a finished job against its exit code, stdout and --out files."""
    out = Outcome()
    if job.command == "all":
        expected = True
        for name, params in ALL_SUITES:
            text = _read(Path(job.out) / f"{name}{SUFFIX[job.fmt]}")
            if text is None:
                out.problems.append(f"all: no {name} report")
                expected = False
                continue
            sub = Outcome()
            expected &= _check_report(name, params, job.fmt, text, sub)
            out.problems += [f"all/{name}: {p}" for p in sub.problems]
            out.levels += sub.levels
            out.gate_failures += sub.gate_failures
            out.max_h_drift = max(out.max_h_drift, sub.max_h_drift)
            out.max_radial_drift = max(out.max_radial_drift, sub.max_radial_drift)
        _expect(_read(Path(job.out) / "timing.json") is not None, out.problems,
                "all: no timing.json")
    else:
        text = stdout if job.out is None else _read(Path(job.out))
        if text is None:
            out.problems.append(f"no report at {job.out}")
            expected = False
        else:
            expected = _check_report(job.command, job.params, job.fmt, text, out)
    _expect(rc == (0 if expected else 1), out.problems,
            f"exit code {rc}, expected {0 if expected else 1}")
    out.ok = rc == 0 and expected and not out.problems
    return out
