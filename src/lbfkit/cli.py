"""Batch verification front-end.

Every subcommand runs a fixed suite of checks and emits one report in
json, csv, or table form, either to stdout or atomically to a file.
Reports are deterministic: keys sorted, floats printed via repr, no
timestamps inside.  Wall-clock timings go to a sidecar file instead so
two runs of the same invocation stay byte-identical; for verify-forms the
sidecar also times each identity and the positivity grid.

Exit codes: 0 all checks passed, 1 a verification failed, 2 bad usage,
3 an internal failure (integration blew up, classification ran off the
rails).  Failures are enumerated on stderr either way.

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
import dataclasses
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import blowup, contact, mcg, models, topo, transport
from .config import DEFAULT_CONFIG, ModelConfig

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


class UsageError(ValueError):
    """Bad arguments discovered after argparse got out of the way."""


class SuiteResult:
    """One suite's report plus bookkeeping for emission and exit codes."""

    def __init__(self, name: str, report: dict, passed: bool,
                 failures: list[str], csv_text: str, table_text: str,
                 timing: dict | None = None) -> None:
        self.name = name
        self.report = report
        self.passed = passed
        self.failures = failures
        self.csv_text = csv_text
        self.table_text = table_text
        self.timing = timing or {}    # per-stage wall times for the sidecar


def _clean(obj: object) -> object:
    """Recursively coerce report values into plain JSON-stable types."""
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
    if isinstance(obj, float):
        return float(obj)
    return obj


def _json_text(report: dict) -> str:
    return json.dumps(_clean(report), sort_keys=True, indent=2) + "\n"


def _config_dict(cfg: ModelConfig, **run_params: object) -> dict:
    out: dict = dataclasses.asdict(cfg)
    out.update(run_params)
    return out


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
    if not rows:
        return ""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"


def _cell(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# suites


def _suite_verify_forms(n: int) -> SuiteResult:
    cfg = ModelConfig(n=n)
    reports = models.verify_all(cfg)

    started = time.perf_counter()
    grid = models.positivity_grid(models.IdentityId.TOP_POWER, cfg)
    grid_ms = (time.perf_counter() - started) * 1e3
    grid_ok = grid.min_value > 0.0

    failures = [f"{r.identity}: {r.verdict}" for r in reports if not r.passed]
    if not grid_ok:
        failures.append(f"TOP_POWER grid minimum {grid.min_value} is not positive")

    report = {
        "schema": SCHEMA,
        "command": "verify-forms",
        "config": _config_dict(cfg),
        "identities": [r.as_dict(include_timing=False) for r in reports],
        "top_power_grid": {
            "min_value": grid.min_value,
            "argmin": list(grid.argmin),
            "resolution": grid.resolution,
            "positive": grid_ok,
        },
        "passed": not failures,
    }

    rows = [["identity", "verdict"]]
    rows += [[r.identity, r.verdict] for r in reports]
    csv_text = "identity,verdict\n" + "".join(
        f"{r.identity},{r.verdict}\n" for r in reports
    )
    table_rows = rows + [
        ["TOP_POWER grid min", _cell(grid.min_value)],
        ["result", "PASS" if not failures else "FAIL"],
    ]
    timing = {"identities_ms": {r.identity: r.ms for r in reports},
              "top_power_grid_ms": grid_ms}
    return SuiteResult("verify-forms", report, not failures, failures,
                       csv_text, _table(table_rows), timing)


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid spec must be lo:hi:count, got {spec!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"unparseable grid spec {spec!r}") from exc
    if not 1 <= count <= MAX_GRID_COUNT:
        raise UsageError(f"grid count must be in 1..{MAX_GRID_COUNT}, got {count}")
    if hi < lo:
        raise UsageError(f"grid bounds out of order in {spec!r}")
    grid = np.linspace(lo, hi, count)
    if np.any(grid == 0.0):
        raise UsageError(f"grid {spec!r} contains the critical value t = 0")
    return grid


def _suite_transport(t: float, s0: float, grid_spec: str) -> SuiteResult:
    grid = _parse_grid(grid_spec)
    cfg = DEFAULT_CONFIG

    # Both denominator conventions ride along on every trajectory report.
    # Only the corrected one is expected to conserve mu*r2 - s; the other
    # column documents how far the uncorrected form drifts.
    trajectories: dict[str, dict] = {}
    for variant in ("weighted", "unweighted"):
        params = transport.TransportParams(cfg=cfg, denominator=variant)
        traj = transport.integrate(params, t, 0.5)
        trajectories[variant] = {
            "max_h_drift": traj.max_h_drift,
            "max_radial_drift": traj.max_radial_drift,
            "endpoint": list(traj.endpoint),
            "radial_drift_gated": variant == "weighted",
        }

    params = transport.TransportParams(cfg=cfg)
    prof = transport.monodromy_profile(params, s0, grid)
    lim_plus, lim_minus = transport.limits_at_zero(params, s0)

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
        "schema": SCHEMA,
        "command": "transport",
        "config": _config_dict(cfg, t=t, s0=s0, grid=grid_spec),
        "trajectory": {"t": t, "s_max": 0.5, "variants": trajectories},
        "limits_at_zero": {
            "plus": lim_plus,
            "minus": lim_minus,
            "target": 0.5,
            "tolerance": 1e-3,
        },
        "profile": {
            "s0": s0,
            "t": [float(v) for v in prof.t],
            "R": [float(v) for v in prof.R],
            "dR": [float(v) for v in prof.dR],
            "dR_cut": [float(v) for v in prof.dR_cut],
        },
        "passed": not failures,
    }

    csv_text = transport.profile_csv(prof)
    rows = [["t", "R", "dR", "dR_cut"]]
    rows += [[_cell(a), _cell(b), _cell(c), _cell(d)]
             for a, b, c, d in zip(prof.t, prof.R, prof.dR, prof.dR_cut)]
    for variant, data in trajectories.items():
        rows.append([f"{variant} drifts", _cell(data["max_h_drift"]),
                     _cell(data["max_radial_drift"]), ""])
    rows.append(["limits at 0", _cell(lim_plus), _cell(lim_minus), ""])
    rows.append(["result", "PASS" if not failures else "FAIL", "", ""])
    return SuiteResult("transport", report, not failures, failures,
                       csv_text, _table(rows))


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
        "schema": SCHEMA,
        "command": "fillings",
        "config": _config_dict(ModelConfig(n=n), k=k, include_zero=include_zero),
        "fillings": rows_data,
        "summary": summary,
        "milnor_chi": euler.milnor_value,
        "slopes": {"betti": euler.betti_slope, "alternate": euler.alternate_slope},
        "euler_verdict": euler.verdict,
        "notes": list(euler.notes),
        "passed": not failures,
    }

    header = ["ell", "word", "weight", "chi_betti", "chi_alternate", "differs"]
    body = [[str(r["ell"]), r["word"], str(r["weight"]), str(r["chi_betti"]),
             str(r["chi_alternate"]), str(r["conventions_differ"]).lower()]
            for r in rows_data]
    csv_text = ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in body)
    table_rows = [header] + body + [[summary, "", "", "", "", ""]]
    return SuiteResult("fillings", report, not failures, failures,
                       csv_text, _table(table_rows))


def _suite_resolve(k: int, dim: int) -> SuiteResult:
    trace = blowup.resolve_A(k, dim)
    chain = blowup.resolution_word_chain(k)

    failures = []
    if trace.diagnostic is not None:
        # surfaced via exit 3 by the caller
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
        "schema": SCHEMA,
        "command": "resolve",
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
        "passed": not failures,
    }

    header = ["step", "chart", "polynomial", "multiplicity", "verdict"]
    body = [[str(i + 1), str(s.chart), s.polynomial.to_text(),
             str(s.multiplicity), str(s.verdict)]
            for i, s in enumerate(trace.steps)]
    csv_text = ",".join(header) + "\n" + "".join(
        f"{row[0]},{row[1]},\"{row[2]}\",{row[3]},{row[4]}\n" for row in body
    )
    table_rows = [header] + body
    table_rows.append(["result", "PASS" if not failures else "FAIL", "", "", ""])
    return SuiteResult("resolve", report, not failures, failures,
                       csv_text, _table(table_rows))


def _suite_contact_check(n: int) -> SuiteResult:
    profile = contact.make_profile()
    prof_report = contact.verify_profile(profile, n=n)
    curve, corner_report = contact.make_corner_curve(profile.eps)
    base = contact.make_base_profile()
    base_report = contact.verify_base_profile(base)

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
        "schema": SCHEMA,
        "command": "contact-check",
        "config": _config_dict(ModelConfig(n=max(n, 2)), n=n),
        "profile": prof_report.as_dict(),
        "corner": corner_report.as_dict(),
        "base": base_report.as_dict(),
        "boundary_hamiltonian": contact.BOUNDARY_HAMILTONIAN,
        "passed": not failures,
    }

    csv_text = contact.profile_csv(profile)
    rows = [
        ["check", "outcome", "detail"],
        ["profile min", _cell(prof_report.min_value),
         f"at r={_cell(prof_report.argmin)}"],
        ["corner", "PASS" if corner_report.passed else "FAIL", ""],
        ["base", "PASS" if base_report.passed else "FAIL", ""],
        ["result", "PASS" if not failures else "FAIL", ""],
    ]
    return SuiteResult("contact-check", report, not failures, failures,
                       csv_text, _table(rows))


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
            raise UsageError(f"--n must be >= 2, got {args.n}")
        return _suite_verify_forms(args.n)
    if args.command == "transport":
        return _suite_transport(args.t, args.s0, args.grid)
    if args.command == "fillings":
        if args.n < 2:
            raise UsageError(f"--n must be >= 2, got {args.n}")
        if args.k < 1:
            raise UsageError(f"--k must be >= 1, got {args.k}")
        return _suite_fillings(args.n, args.k, args.include_zero)
    if args.command == "resolve":
        if args.k < 1:
            raise UsageError(f"--k must be >= 1, got {args.k}")
        if args.dim < 0:
            raise UsageError(f"--dim must be >= 0, got {args.dim}")
        return _suite_resolve(args.k, args.dim)
    if args.command == "contact-check":
        if args.n < 1:
            raise UsageError(f"--n must be >= 1, got {args.n}")
        return _suite_contact_check(args.n)
    raise UsageError(f"unknown command {args.command!r}")


def _render(result: SuiteResult, fmt: str) -> str:
    if fmt == "json":
        return _json_text(result.report)
    if fmt == "csv":
        return result.csv_text
    return result.table_text


def _emit(result: SuiteResult, fmt: str, out: Path | None,
          elapsed_ms: float) -> None:
    text = _render(result, fmt)
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out, text)
        sidecar = out.with_name(out.name + ".timing.json")
        timing = {
            "schema": TIMING_SCHEMA,
            "command": result.name,
            "elapsed_ms": elapsed_ms,
            **result.timing,
        }
        _write_atomic(sidecar, json.dumps(timing, sort_keys=True, indent=2) + "\n")


def _run_all(fmt: str, out_dir: Path) -> int:
    parser = _build_parser()
    suffix = {"json": ".json", "csv": ".csv", "table": ".txt"}[fmt]
    worst = 0
    timings: dict[str, float] = {}
    for name, extra in ALL_SUITES:
        args = parser.parse_args([name, *extra])
        started = time.perf_counter()
        try:
            result = _run_suite(args)
        except (transport.SingularTransportError,
                transport.IntegrationFailureError) as exc:
            print(f"lbfkit all/{name}: internal failure: {exc}", file=sys.stderr)
            return 3
        timings[name] = (time.perf_counter() - started) * 1e3
        _write_atomic(out_dir / f"{name}{suffix}", _render(result, fmt))
        if not result.passed:
            for line in result.failures:
                print(f"lbfkit all/{name}: FAIL: {line}", file=sys.stderr)
            worst = max(worst, 1)
        if result.name == "resolve" and result.report["trace"].get("diagnostic"):
            return 3
    timing = {"schema": TIMING_SCHEMA, "command": "all", "elapsed_ms": timings}
    _write_atomic(out_dir / "timing.json",
                  json.dumps(timing, sort_keys=True, indent=2) + "\n")
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed its message; normalize the code
        code = exc.code
        return 0 if code in (0, None) else 2

    try:
        if args.command == "all":
            return _run_all(args.format, args.out)
        started = time.perf_counter()
        result = _run_suite(args)
        elapsed_ms = (time.perf_counter() - started) * 1e3
    except UsageError as exc:
        print(f"lbfkit: usage error: {exc}", file=sys.stderr)
        return 2
    except (transport.SingularTransportError,
            transport.IntegrationFailureError) as exc:
        print(f"lbfkit: internal failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"lbfkit: usage error: {exc}", file=sys.stderr)
        return 2

    _emit(result, args.format, args.out, elapsed_ms)
    if result.name == "resolve" and result.report["trace"].get("diagnostic"):
        print(f"lbfkit: internal failure: {result.report['trace']['diagnostic']}",
              file=sys.stderr)
        return 3
    if not result.passed:
        for line in result.failures:
            print(f"lbfkit: FAIL: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
