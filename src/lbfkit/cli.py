"""Batch verification front-end.

Every subcommand runs a fixed suite of checks and emits one report in
json, csv, or table form, either to stdout or atomically to a file.
Reports are deterministic: keys sorted, floats printed via repr, no
timestamps inside.  Wall-clock timings go to a sidecar file instead so
two runs of the same invocation stay byte-identical; for verify-forms the
sidecar also times each identity and the positivity grid.

Exit codes: 0 all checks passed, 1 a verification failed, 2 bad usage
(input outside the documented domain, raised as ``DomainError``), 3 an
internal failure: any other exception, or a resolution trace that halted
with a diagnostic.  Exit 3 prints one ``internal failure`` line on stderr
and no traceback; failed checks are enumerated on stderr.

Subcommands: verify-forms, transport, fillings, resolve, contact-check,
and all, which runs each of the above with its defaults into a
directory.  Every suite runs in one thread, in a fixed order.

Input the numerics cannot represent is a usage error too: a
``contact-check --n`` whose f^(n-1) overflows a double (n >= 1025 for the
default profile), a ``transport --t`` with 0 < |t| <= 5e-13, where the
transport denominator starts at or under its singular floor, and a
``transport --grid`` COUNT above ``MAX_GRID_COUNT`` (10,000).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

import numpy as np

from . import blowup, contact, mcg, models, topo, transport
from .config import DEFAULT_CONFIG, DomainError, ModelConfig

SCHEMA = "lbf-kit/1"
TIMING_SCHEMA = "lbf-kit/1-timing"
FORMATS = ("json", "csv", "table")

# (suite name, default argv) pairs executed by `all`, in emission order.
ALL_SUITES: tuple[tuple[str, list[str]], ...] = (
    ("verify-forms", ["--n", "2"]),
    ("transport", []),
    ("fillings", ["--n", "2", "--k", "5"]),
    ("resolve", ["--k", "3", "--dim", "1"]),
    ("contact-check", ["--n", "2"]),
)

DEFAULT_T_GRID = "-0.16:0.16:8"
# Largest --grid COUNT; checked before the grid is allocated.
MAX_GRID_COUNT = 10_000


@dataclass
class SuiteResult:
    """One suite's outcome: report fields, failures, rows and sidecar timings.

    ``report`` holds the suite's own fields; the schema, the command and
    ``passed`` are added when it is rendered.  Rows are lists of string
    cells, the header first.
    """

    report: dict
    failures: list[str]
    csv_rows: list[list[str]]
    table_rows: list[list[str]]
    timing: dict = field(default_factory=dict)    # per-stage wall times for the sidecar
    internal_failure: str | None = None           # exit 3, after the report is written

    @property
    def passed(self) -> bool:
        return not self.failures


def _clean(obj: object) -> object:
    """Recursively coerce report values, dataclasses included, into plain JSON types."""
    if is_dataclass(obj):
        return _clean(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    return obj


def _json_text(report: dict) -> str:
    return json.dumps(_clean(report), sort_keys=True, indent=2) + "\n"


def _config_dict(cfg: ModelConfig, **run_params: object) -> dict:
    return {**asdict(cfg), **run_params}


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _table(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"


def _csv(rows: list[list[str]]) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def _cell(x: float) -> str:
    return repr(float(x))


def _float_rows(*columns: np.ndarray) -> list[list[str]]:
    """One row of float cells per index of the columns."""
    return [[_cell(v) for v in row] for row in zip(*(c.tolist() for c in columns))]


def _pass_fail(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# ---------------------------------------------------------------------------
# suites


def _suite_verify_forms(n: int) -> SuiteResult:
    cfg = ModelConfig(n=n)
    reports = models.verify_all(cfg)

    started = time.perf_counter()
    grid = models.positivity_grid(cfg)
    grid_ms = (time.perf_counter() - started) * 1e3
    grid_ok = grid.min_value > 0.0

    failures = [f"{r.identity}: {r.verdict}" for r in reports if not r.passed]
    if not grid_ok:
        failures.append(f"TOP_POWER grid minimum {grid.min_value} is not positive")

    report = {
        "config": _config_dict(cfg),
        # wall times stay out of reports; they go to the timing sidecar
        "identities": [{k: v for k, v in asdict(r).items() if k != "ms"} for r in reports],
        "top_power_grid": {
            "min_value": grid.min_value,
            "argmin": grid.argmin,
            "resolution": grid.resolution,
            "positive": grid_ok,
        },
    }

    rows = [["identity", "verdict"]] + [[r.identity, r.verdict] for r in reports]
    table_rows = rows + [
        ["TOP_POWER grid min", _cell(grid.min_value)],
        ["result", _pass_fail(not failures)],
    ]
    timing = {"identities_ms": {r.identity: r.ms for r in reports},
              "top_power_grid_ms": grid_ms}
    return SuiteResult(report, failures, rows, table_rows, timing)


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid spec must be lo:hi:count, got {spec!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise DomainError(f"unparseable grid spec {spec!r}") from exc
    if not 1 <= count <= MAX_GRID_COUNT:
        raise DomainError(f"grid count must be in 1..{MAX_GRID_COUNT}, got {count}")
    if hi < lo:
        raise DomainError(f"grid bounds out of order in {spec!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"grid bounds must be finite, got {spec!r}")
    grid = np.linspace(lo, hi, count)
    if np.any(grid == 0.0):
        raise DomainError(f"grid {spec!r} contains the critical value t = 0")
    return grid


def _suite_transport(t: float, s0: float, grid_spec: str) -> SuiteResult:
    grid = _parse_grid(grid_spec)
    cfg = DEFAULT_CONFIG

    # Both denominator conventions ride along on every trajectory report.
    # Only the corrected one is expected to conserve mu*r2 - s; the other
    # column documents how far the uncorrected form drifts.
    trajectories = {
        variant: {
            "max_h_drift": traj.max_h_drift,
            "max_radial_drift": traj.max_radial_drift,
            "endpoint": traj.endpoint,
            "radial_drift_gated": variant == "weighted",
        }
        for variant, traj in transport.integrate(cfg, t, 0.5).items()
    }

    prof = transport.monodromy_profile(cfg, s0, grid)
    lim_plus, lim_minus = transport.limits_at_zero(cfg, s0)

    gate = transport.DRIFT_GATE
    failures = []
    for variant, data in trajectories.items():
        if data["max_h_drift"] > gate:
            failures.append(f"{variant} h drift {data['max_h_drift']} above {gate:g}")
        if data["radial_drift_gated"] and data["max_radial_drift"] > gate:
            failures.append(
                f"{variant} radial drift {data['max_radial_drift']} above {gate:g}"
            )
    if abs(lim_plus - 0.5) > 1e-3:
        failures.append(f"limit at 0+ = {lim_plus}, expected 0.5 within 1e-3")
    if abs(lim_minus + 0.5) > 1e-3:
        failures.append(f"limit at 0- = {lim_minus}, expected -0.5 within 1e-3")

    report = {
        "config": _config_dict(cfg, t=t, s0=s0, grid=grid_spec),
        "trajectory": {"t": t, "s_max": 0.5, "variants": trajectories},
        "limits_at_zero": {
            "plus": lim_plus,
            "minus": lim_minus,
            "target": 0.5,
            "tolerance": 1e-3,
        },
        "profile": {"s0": s0, "t": prof.t, "R": prof.R, "dR": prof.dR,
                    "dR_cut": prof.dR_cut},
    }

    rows = [["t", "R", "dR", "dR_cut"]] + _float_rows(prof.t, prof.R, prof.dR, prof.dR_cut)
    table_rows = rows + [
        [f"{variant} drifts", _cell(data["max_h_drift"]),
         _cell(data["max_radial_drift"]), ""]
        for variant, data in trajectories.items()
    ]
    table_rows.append(["limits at 0", _cell(lim_plus), _cell(lim_minus), ""])
    table_rows.append(["result", _pass_fail(not failures), "", ""])
    return SuiteResult(report, failures, rows, table_rows)


def _suite_fillings(n: int, k: int, include_zero: bool) -> SuiteResult:
    words = mcg.enumerate_fillings(k, n, include_zero=include_zero)
    euler = topo.distinctness_report(n, k)

    rows_data = []
    for word in words:
        ell = sum(1 for g in word.letters if g.kind == mcg.BOUNDARY)
        rows_data.append({
            "ell": ell,
            "word": word.serialize(),
            "weight": word.weight,
            "chi_betti": topo.chi_filling(n, k, ell, "betti"),
            "chi_alternate": topo.chi_filling(n, k, ell, "alternate"),
        })
    for row in rows_data:
        row["conventions_differ"] = row["chi_betti"] != row["chi_alternate"]

    chis = [row["chi_betti"] for row in rows_data]
    distinct = len(set(chis)) == len(chis)
    summary = (
        f"{len(words)} fillings, "
        + ("pairwise distinct" if distinct else "not distinguished by chi")
    )

    failures = []
    if not distinct:
        failures.append("emitted Euler characteristics are not pairwise distinct")
    bad_weight = [r["ell"] for r in rows_data if r["weight"] != k + 1]
    if bad_weight:
        failures.append(f"weight != k+1 at ell in {bad_weight}")

    report = {
        "config": _config_dict(ModelConfig(n=n), k=k, include_zero=include_zero),
        "fillings": rows_data,
        "summary": summary,
        "milnor_chi": euler.milnor_value,
        "slopes": {"betti": euler.betti_slope, "alternate": euler.alternate_slope},
        "euler_verdict": euler.verdict,
        "notes": euler.notes,
    }

    rows = [["ell", "word", "weight", "chi_betti", "chi_alternate", "differs"]]
    rows += [[str(r["ell"]), r["word"], str(r["weight"]), str(r["chi_betti"]),
              str(r["chi_alternate"]), str(r["conventions_differ"]).lower()]
             for r in rows_data]
    table_rows = rows + [[summary, "", "", "", "", ""]]
    return SuiteResult(report, failures, rows, table_rows)


def _suite_resolve(k: int, dim: int) -> SuiteResult:
    trace = blowup.resolve_A(k, dim)
    chain = blowup.resolution_word_chain(k)

    failures = []
    if trace.diagnostic is not None:
        failures.append(trace.diagnostic)
    elif not trace.resolved:
        failures.append("trace did not end Smooth")
    expected_steps = -(-k // 2)
    if trace.step_count != expected_steps:
        failures.append(
            f"step count {trace.step_count}, expected ceil(k/2) = {expected_steps}"
        )
    if len(chain) != trace.step_count:
        failures.append(
            f"word chain length {len(chain)} != step count {trace.step_count}"
        )

    report = {
        "config": _config_dict(DEFAULT_CONFIG, k=k, dim=dim),
        "trace": trace.as_dict(),
        "word_chain": [
            {
                "position": s.position,
                "direction": s.direction,
                "before": s.before.serialize(),
                "after": s.after.serialize(),
            }
            for s in chain
        ],
    }

    header = ["step", "chart", "polynomial", "multiplicity", "verdict"]
    steps = [(str(i + 1), str(s.chart), s.polynomial.to_text(), str(s.multiplicity),
              str(s.verdict)) for i, s in enumerate(trace.steps)]
    # the csv quotes the polynomial, the one cell that holds spaces and signs
    csv_rows = [header] + [[i, c, f'"{p}"', m, v] for i, c, p, m, v in steps]
    table_rows = [header] + [list(step) for step in steps]
    table_rows.append(["result", _pass_fail(not failures), "", "", ""])
    return SuiteResult(report, failures, csv_rows, table_rows,
                       internal_failure=trace.diagnostic)


def _suite_contact_check(n: int) -> SuiteResult:
    profile = contact.make_profile()
    prof_report = contact.verify_profile(profile, n=n)
    _, corner_report = contact.make_corner_curve(profile.eps)
    base_report = contact.verify_base_profile(contact.make_base_profile())

    failures = []
    if not prof_report.passed:
        failures.append(
            f"profile minimum {prof_report.min_value} at r={prof_report.argmin} "
            "is not positive"
        )
    if not corner_report.passed:
        failures.append("corner curve bullet verification failed")
    if not base_report.passed:
        failures.append("base profile verification failed")

    report = {
        "config": _config_dict(ModelConfig(n=max(n, 2)), n=n),
        "profile": prof_report,
        "corner": corner_report,
        "base": base_report,
        "boundary_hamiltonian": contact.BOUNDARY_HAMILTONIAN,
    }

    csv_rows = [["r", "f", "g", "determinant"]]
    csv_rows += _float_rows(*contact.profile_samples(profile))
    table_rows = [
        ["check", "outcome", "detail"],
        ["profile min", _cell(prof_report.min_value),
         f"at r={_cell(prof_report.argmin)}"],
        ["corner", _pass_fail(corner_report.passed), ""],
        ["base", _pass_fail(base_report.passed), ""],
        ["result", _pass_fail(not failures), ""],
    ]
    return SuiteResult(report, failures, csv_rows, table_rows)


# ---------------------------------------------------------------------------
# dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lbfkit",
        description="deterministic verification reports for the fibration toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=FORMATS, default="json")
        p.add_argument("--out", type=Path, default=None,
                       help="write the report here instead of stdout")

    p = sub.add_parser("verify-forms", help="check the nine form identities")
    p.add_argument("--n", type=int, default=2)
    common(p)

    p = sub.add_parser("transport", help="trajectory drifts and the angle profile")
    p.add_argument("--t", type=float, default=0.25)
    p.add_argument("--s0", type=float, default=1e-3)
    p.add_argument("--grid", default=DEFAULT_T_GRID, metavar="LO:HI:COUNT",
                   help=f"COUNT evenly spaced levels in [LO, HI]; "
                        f"COUNT runs from 1 to {MAX_GRID_COUNT}")
    common(p)

    p = sub.add_parser("fillings", help="twist words and Euler characteristics")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--include-zero", action="store_true")
    common(p)

    p = sub.add_parser("resolve", help="blow-up resolution trace")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--dim", type=int, default=1)
    common(p)

    p = sub.add_parser("contact-check", help="profile, corner, and base checks")
    p.add_argument("--n", type=int, default=2)
    common(p)

    p = sub.add_parser("all", help="every suite with defaults, into a directory")
    p.add_argument("--format", choices=FORMATS, default="json")
    p.add_argument("--out", type=Path, required=True,
                   help="directory receiving one report per suite")
    return parser


def _run_suite(args: argparse.Namespace) -> SuiteResult:
    if args.command == "verify-forms":
        if args.n < 2:
            raise DomainError(f"--n must be >= 2, got {args.n}")
        return _suite_verify_forms(args.n)
    if args.command == "transport":
        return _suite_transport(args.t, args.s0, args.grid)
    if args.command == "fillings":
        if args.n < 2:
            raise DomainError(f"--n must be >= 2, got {args.n}")
        if args.k < 1:
            raise DomainError(f"--k must be >= 1, got {args.k}")
        return _suite_fillings(args.n, args.k, args.include_zero)
    if args.command == "resolve":
        if args.k < 1:
            raise DomainError(f"--k must be >= 1, got {args.k}")
        if args.dim < 0:
            raise DomainError(f"--dim must be >= 0, got {args.dim}")
        return _suite_resolve(args.k, args.dim)
    if args.n < 1:    # contact-check
        raise DomainError(f"--n must be >= 1, got {args.n}")
    return _suite_contact_check(args.n)


def _render(command: str, result: SuiteResult, fmt: str) -> str:
    if fmt == "json":
        return _json_text({"schema": SCHEMA, "command": command, **result.report,
                           "passed": result.passed})
    return _csv(result.csv_rows) if fmt == "csv" else _table(result.table_rows)


def _execute(args: argparse.Namespace, prefix: str,
             emit: Callable[[SuiteResult, float], None]) -> int:
    """Run one suite, pass its result and wall time in ms to ``emit``; the exit code.

    A ``DomainError`` is exit 2 and any other exception exit 3, each with one
    stderr line; a halted trace is exit 3 after its report is emitted.
    Otherwise every failed check gets a stderr line and the code is 1 if
    any failed, else 0.
    """
    started = time.perf_counter()
    try:
        result = _run_suite(args)
    except DomainError as exc:
        print(f"{prefix}: usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"{prefix}: internal failure: {exc}", file=sys.stderr)
        return 3
    emit(result, (time.perf_counter() - started) * 1e3)
    if result.internal_failure:
        print(f"{prefix}: internal failure: {result.internal_failure}", file=sys.stderr)
        return 3
    for line in result.failures:
        print(f"{prefix}: FAIL: {line}", file=sys.stderr)
    return 0 if result.passed else 1


def _run_all(fmt: str, out_dir: Path) -> int:
    parser = _build_parser()
    suffix = {"json": ".json", "csv": ".csv", "table": ".txt"}[fmt]
    worst = 0
    timings: dict[str, float] = {}
    for name, extra in ALL_SUITES:
        def emit(result: SuiteResult, elapsed_ms: float, name: str = name) -> None:
            timings[name] = elapsed_ms
            _write_atomic(out_dir / f"{name}{suffix}", _render(name, result, fmt))

        code = _execute(parser.parse_args([name, *extra]), f"lbfkit all/{name}", emit)
        if code > 1:
            return code
        worst = max(worst, code)
    timing = {"schema": TIMING_SCHEMA, "command": "all", "elapsed_ms": timings}
    _write_atomic(out_dir / "timing.json", _json_text(timing))
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed its message; normalize the code
        code = exc.code
        return 0 if code in (0, None) else 2
    if args.command == "all":
        return _run_all(args.format, args.out)

    def emit(result: SuiteResult, elapsed_ms: float) -> None:
        text = _render(args.command, result, args.format)
        if args.out is None:
            sys.stdout.write(text)
            return
        _write_atomic(args.out, text)
        timing = {"schema": TIMING_SCHEMA, "command": args.command,
                  "elapsed_ms": elapsed_ms, **result.timing}
        _write_atomic(args.out.with_name(args.out.name + ".timing.json"), _json_text(timing))

    return _execute(args, "lbfkit", emit)


if __name__ == "__main__":
    raise SystemExit(main())
