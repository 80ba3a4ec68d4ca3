"""Batch verification front-end.

Every subcommand runs a fixed suite of checks and emits one report in
json, csv, or table form, either to stdout or atomically to a file.
Reports are deterministic: keys sorted, floats printed via repr, no
timestamps inside.  Wall-clock timings go to a sidecar file instead so
two runs of the same invocation stay byte-identical.  The sidecar also
times each stage: each identity check and the positivity grid for
verify-forms, the trajectories, profile and limits for transport, and the
profile, corner, base and samples for contact-check.  Every wall clock is
read in this module alone.

Exit codes: 0 all checks passed, 1 a verification failed, 2 bad usage
(input outside the documented domain, raised as ``DomainError``), 3 an
internal failure: any other exception, or a resolution trace that halted
with a diagnostic.  An ``--out`` that cannot be written is a usage error
too.  Exits 2 and 3 print one line on stderr and no traceback.  Each suite
states each check once, as a ``(passed, failure text)`` gate in
``SuiteResult.gates``; the report's ``passed``, the table's ``result`` row,
exit 0 or 1 and the stderr ``FAIL:`` lines (one per failed gate, in gate
order) all come from that list.

Subcommands and their options live in one option table, ``COMMANDS``:
each subcommand's summary and suite, and each option's converter, default,
metavar, help text and integer bounds.  One loop parses argv against it
and ``--help`` prints from it.  ``all`` runs each suite with the table's
defaults into a directory.  Every suite runs in one thread, in a fixed order.

Each process loads only what its subcommand runs: importing this module
loads the standard library and ``config``, ``json`` is imported only to
render json, and each suite imports its layers when it starts
(verify-forms ``models``, ``exterior`` and ``poly``, transport
``transport``, fillings ``mcg`` and ``topo``, resolve ``blowup``, ``mcg``
and ``poly``, contact-check ``contact``).  No layer needs more than the
standard library.  Suites call a layer through its module
(``transport.integrate``), so patching a module attribute reaches them.

Each option's help text states its domain, and input outside it is
refused before any work.  That includes input the numerics cannot
represent: a ``contact-check --n`` whose f^(n-1) overflows a double
(n >= 1025 for the default profile) and a ``transport --t`` with
0 < |t| <= 5e-13, where the transport denominator starts at or under its
singular floor.  ``MAX_GRID_COUNT``, ``MAX_K``, ``MAX_N`` and ``MAX_DIM``
cap the inputs whose memory or run time grows steeply.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
import time
from collections.abc import Callable, Sequence
from pathlib import Path

from .config import (DEFAULT_CONFIG, SINGULAR_FLOOR, STENCIL_FLOOR, DomainError, ModelConfig,
                     linspace)

SCHEMA = "lbf-kit/1"
TIMING_SCHEMA = "lbf-kit/1-timing"
FORMATS = ("json", "csv", "table")

# The suites `all` runs, each with its option table defaults, in emission order.
ALL_SUITES = ("verify-forms", "transport", "fillings", "resolve", "contact-check")

DEFAULT_T_GRID = "-0.16:0.16:8"
# Largest --grid COUNT; checked before the grid is allocated.
MAX_GRID_COUNT = 10_000
# Largest fillings and resolve --k: both reports grow as k^2; timings in README.
MAX_K = 1_000
# Largest verify-forms --n: the exact TOP_POWER expansion, and so the run
# time, grows steeply in n; timings in README.
MAX_N = 24
# Largest resolve --dim: run time grows steeply in dim; timings in README.
MAX_DIM = 100


class SuiteResult:
    """One suite's outcome: report fields, gates, rows and sidecar timings.

    ``gates`` holds one ``(passed, failure text)`` pair per check, in the
    suite's order; ``failures`` and ``passed`` are read from it.  ``report``
    holds the suite's own fields, plain JSON data; the schema, the command
    and ``passed`` are added when it is rendered.  Rows are lists of string
    cells, the header first.
    """

    __slots__ = ("report", "gates", "csv_rows", "table_rows", "timing", "internal_failure")

    def __init__(self, report: dict, gates: list[tuple[bool, str]], csv_rows: list[list[str]],
                 table_rows: list[list[str]], timing: dict | None = None,
                 internal_failure: str | None = None) -> None:
        self.report = report
        self.gates = gates
        self.csv_rows = csv_rows
        self.table_rows = table_rows
        self.timing = {} if timing is None else timing   # per-stage wall times for the sidecar
        self.internal_failure = internal_failure         # exit 3, after the report is written

    @property
    def failures(self) -> list[str]:
        return [text for ok, text in self.gates if not ok]

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.gates)


def _json_text(report: dict) -> str:
    """Sorted, indented JSON; tuples print as lists."""
    import json

    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _config_dict(cfg: ModelConfig, **run_params: object) -> dict:
    return {name: getattr(cfg, name) for name in cfg.FIELDS} | run_params


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it.

    A path that cannot be written is a ``DomainError``, and no temporary
    file is left behind.
    """
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from exc
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


def _float_rows(*columns: Sequence[float]) -> list[list[str]]:
    """One row of float cells per index of the columns."""
    return [[_cell(v) for v in row] for row in zip(*columns)]


def _pass_fail(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _result_row(gates: list[tuple[bool, str]], width: int) -> list[str]:
    """The table's last row: PASS when every gate passed, padded to ``width`` cells."""
    return ["result", _pass_fail(all(ok for ok, _ in gates))] + [""] * (width - 2)


def _timed(timing: dict, key: str, fn: Callable, *args: object, **kwargs: object):
    """fn(*args, **kwargs), its wall time in ms stored under ``timing[key]``."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    timing[key] = (time.perf_counter() - started) * 1e3
    return result


# ---------------------------------------------------------------------------
# suites


def _suite_verify_forms(n: int) -> SuiteResult:
    from . import models

    cfg = ModelConfig(n=n)
    identities_ms: dict[str, float] = {}
    timing = {"identities_ms": identities_ms}
    reports = [_timed(identities_ms, identity.value, models.verify_identity, identity, cfg)
               for identity in models.IdentityId]
    grid = _timed(timing, "top_power_grid_ms", models.positivity_grid, cfg)
    grid_ok = grid["min_value"] > 0.0
    gates = [(r["verdict"] == "exact-equal", f"{r['identity']}: {r['verdict']}")
             for r in reports]
    gates.append((grid_ok, f"TOP_POWER grid minimum {grid['min_value']} is not positive"))

    report = {
        "config": _config_dict(cfg),
        "identities": reports,
        "top_power_grid": {**grid, "positive": grid_ok},
    }

    rows = [["identity", "verdict"]] + [[r["identity"], r["verdict"]] for r in reports]
    table_rows = rows + [
        ["TOP_POWER grid min", _cell(grid["min_value"])],
        _result_row(gates, 2),
    ]
    return SuiteResult(report, gates, rows, table_rows, timing)


def _parse_grid(spec: str) -> list[float]:
    """The levels of a LO:HI:COUNT spec, refused before any of them is integrated."""
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
    t_lo, t_hi = DEFAULT_CONFIG.level_range
    if not (t_lo <= lo and hi <= t_hi):
        raise DomainError(f"grid {spec!r} leaves the fiber-coordinate range [{t_lo}, {t_hi}]")
    grid = linspace(lo, hi, count)
    if 0.0 in grid:
        raise DomainError(f"grid {spec!r} contains the critical value t = 0")
    return grid


def _suite_transport(t: float, s0: float, grid: str) -> SuiteResult:
    from . import transport

    cfg = DEFAULT_CONFIG
    levels = _parse_grid(grid)
    # a bad --t or --s0 is a usage error before anything is integrated
    transport._validate_t(cfg, t)
    transport._validate_s0(cfg, s0)
    timing: dict[str, float] = {}
    # ... and so is a grid level without room for its stencil, which the
    # profile refuses before it steps any level
    prof = _timed(timing, "profile_ms", transport.monodromy_profile, cfg, s0, levels)

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
        for variant, traj in _timed(timing, "integrate_ms", transport.integrate,
                                    cfg, t, 0.5).items()
    }

    lim_plus, lim_minus = _timed(timing, "limits_ms", transport.limits_at_zero, cfg, s0)

    # each gate fails on value > bound, so a NaN value passes it
    gate, target, tol = transport.DRIFT_GATE, transport.LIMIT_TARGET, transport.LIMIT_TOLERANCE
    gates = []
    for variant, data in trajectories.items():
        gates.append((not data["max_h_drift"] > gate,
                      f"{variant} h drift {data['max_h_drift']} above {gate:g}"))
        if data["radial_drift_gated"]:
            gates.append((not data["max_radial_drift"] > gate,
                          f"{variant} radial drift {data['max_radial_drift']} above {gate:g}"))
    gates += [(not abs(lim_plus - target) > tol,
               f"limit at 0+ = {lim_plus}, expected 0.5 within 1e-3"),
              (not abs(lim_minus + target) > tol,
               f"limit at 0- = {lim_minus}, expected -0.5 within 1e-3")]

    report = {
        "config": _config_dict(cfg, t=t, s0=s0, grid=grid),
        "trajectory": {"t": t, "s_max": 0.5, "variants": trajectories},
        "limits_at_zero": {
            "plus": lim_plus,
            "minus": lim_minus,
            "target": target,
            "tolerance": tol,
        },
        "profile": prof,
    }

    header = ["t", "R", "dR", "dR_cut"]
    rows = [header] + _float_rows(*(prof[key] for key in header))
    table_rows = rows + [
        [f"{variant} drifts", _cell(data["max_h_drift"]),
         _cell(data["max_radial_drift"]), ""]
        for variant, data in trajectories.items()
    ]
    table_rows += [["limits at 0", _cell(lim_plus), _cell(lim_minus), ""], _result_row(gates, 4)]
    return SuiteResult(report, gates, rows, table_rows, timing)


def _suite_fillings(n: int, k: int, include_zero: bool) -> SuiteResult:
    from . import mcg, topo

    words = mcg.enumerate_fillings(k, n, include_zero=include_zero)
    euler = topo.distinctness_report(n, k)

    rows_data = []
    for word in words:
        ell = word.letters.count(mcg.BOUNDARY)
        _, chi_betti, chi_alternate, differs = euler["rows"][ell]    # rows run over l = 0, 1, ...
        rows_data.append({
            "ell": ell,
            "word": word.serialize(),
            "weight": word.weight,
            "chi_betti": chi_betti,
            "chi_alternate": chi_alternate,
            "conventions_differ": differs,
        })

    chis = [row["chi_betti"] for row in rows_data]
    distinct = len(set(chis)) == len(chis)
    summary = (
        f"{len(words)} fillings, "
        + ("pairwise distinct" if distinct else "not distinguished by chi")
    )

    bad_weight = [r["ell"] for r in rows_data if r["weight"] != k + 1]
    gates = [(distinct, "emitted Euler characteristics are not pairwise distinct"),
             (not bad_weight, f"weight != k+1 at ell in {bad_weight}")]

    report = {
        "config": _config_dict(ModelConfig(n=n), k=k, include_zero=include_zero),
        "fillings": rows_data,
        "summary": summary,
        "milnor_chi": euler["milnor_value"],
        "slopes": {"betti": euler["betti_slope"], "alternate": euler["alternate_slope"]},
        "euler_verdict": euler["verdict"],
        "notes": euler["notes"],
    }

    rows = [["ell", "word", "weight", "chi_betti", "chi_alternate", "differs"]]
    rows += [[str(r["ell"]), r["word"], str(r["weight"]), str(r["chi_betti"]),
              str(r["chi_alternate"]), str(r["conventions_differ"]).lower()]
             for r in rows_data]
    table_rows = rows + [[summary, "", "", "", "", ""]]
    return SuiteResult(report, gates, rows, table_rows)


def _suite_resolve(k: int, dim: int) -> SuiteResult:
    from . import blowup

    trace = blowup.resolve_A(k, dim)
    chain = blowup.resolution_word_chain(k)

    expected_steps = -(-k // 2)
    gates = [
        (trace.resolved, trace.diagnostic or "trace did not end Smooth"),
        (trace.step_count == expected_steps,
         f"step count {trace.step_count}, expected ceil(k/2) = {expected_steps}"),
        (len(chain) == trace.step_count,
         f"word chain length {len(chain)} != step count {trace.step_count}"),
    ]

    # each step's cells, formatted once for the json record and the rows
    header = ["step", "chart", "polynomial", "multiplicity", "verdict"]
    steps = [(s.chart, s.polynomial.to_text(), s.multiplicity, s.verdict)
             for s in trace.steps]
    trace_report = {
        "k": trace.k,
        "n": trace.n,
        "initial": trace.initial.to_text(),
        "initial_verdict": blowup.classify(trace.initial),
        "steps": [dict(zip(header[1:], step)) for step in steps],
        "step_count": trace.step_count,
        "resolved": trace.resolved,
    }
    if trace.diagnostic is not None:
        trace_report["diagnostic"] = trace.diagnostic

    report = {
        "config": _config_dict(DEFAULT_CONFIG, k=k, dim=dim),
        "trace": trace_report,
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

    cells = [[str(i), str(c), p, str(m), v] for i, (c, p, m, v) in enumerate(steps, 1)]
    # the csv quotes the polynomial, the one cell that holds spaces and signs
    csv_rows = [header] + [[i, c, f'"{p}"', m, v] for i, c, p, m, v in cells]
    table_rows = [header] + cells + [_result_row(gates, 5)]
    return SuiteResult(report, gates, csv_rows, table_rows, internal_failure=trace.diagnostic)


def _suite_contact_check(n: int) -> SuiteResult:
    from . import contact

    timing: dict[str, float] = {}
    profile = contact.make_profile()
    prof_report = _timed(timing, "profile_ms", contact.verify_profile, profile, n=n)
    _, corner_report = _timed(timing, "corner_ms", contact.make_corner_curve, profile.eps)
    base_report = _timed(timing, "base_ms", contact.verify_base_profile,
                         contact.make_base_profile())
    samples = _timed(timing, "samples_ms", contact.profile_samples, profile)

    gates = [
        (prof_report["passed"], f"profile minimum {prof_report['min_value']} at "
                                f"r={prof_report['argmin']} is not positive"),
        (corner_report["passed"], "corner curve bullet verification failed"),
        (base_report["passed"], "base profile verification failed"),
    ]

    report = {
        "config": _config_dict(ModelConfig(n=max(n, 2)), n=n),
        "profile": prof_report,
        "corner": corner_report,
        "base": base_report,
        "boundary_hamiltonian": contact.BOUNDARY_HAMILTONIAN,
    }

    csv_rows = [["r", "f", "g", "determinant"]]
    csv_rows += _float_rows(*samples)
    table_rows = [
        ["check", "outcome", "detail"],
        ["profile min", _cell(prof_report["min_value"]),
         f"at r={_cell(prof_report['argmin'])}"],
        ["corner", _pass_fail(corner_report["passed"]), ""],
        ["base", _pass_fail(base_report["passed"]), ""],
        _result_row(gates, 3),
    ]
    return SuiteResult(report, gates, csv_rows, table_rows, timing)


# ---------------------------------------------------------------------------
# dispatch


# One option: its name, converter, default, metavar, help text and, for an
# integer, the bounds (lo, hi) outside which it is refused.  The converter is
# int, float, str or Path, a tuple of choices, or None for a flag.
_FORMAT = ("--format", FORMATS, "json", "|".join(FORMATS), "the report format", None)
_OUT = ("--out", Path, None, "FILE", "write the report here instead of stdout", None)
_T_RANGE = "[{!r}, {!r}]".format(*DEFAULT_CONFIG.level_range)

# The option table: each subcommand's summary, its suite, and its options.
# Each option but --format and --out is passed to the suite by keyword
# (--include-zero as include_zero).
COMMANDS = {
    "verify-forms": ("check the nine form identities", _suite_verify_forms, (
        ("--n", int, 2, "N", f"N runs from 2 to {MAX_N}", (2, MAX_N)), _FORMAT, _OUT)),
    "transport": ("trajectory drifts and the angle profile", _suite_transport, (
        ("--t", float, 0.25, "T", f"T lies in {_T_RANGE} with |T| > {SINGULAR_FLOOR / 2:g}: the "
         f"transport denominator starts at 2|T|, above the singular floor {SINGULAR_FLOOR:g}",
         None),
        ("--s0", float, 1e-3, "S0", "S0 lies in ({!r}, {!r}]".format(*DEFAULT_CONFIG.s0_range)
         + f": the limit stencil's smallest step S0/64 stays above {STENCIL_FLOOR:g}, and its "
         "arcs stay in the small-t regime", None),
        ("--grid", str, DEFAULT_T_GRID, "LO:HI:COUNT", f"COUNT evenly spaced levels in [LO, HI], "
         f"inside {_T_RANGE} and none of them 0; COUNT runs from 1 to {MAX_GRID_COUNT}", None),
        _FORMAT, _OUT)),
    "fillings": ("twist words and Euler characteristics", _suite_fillings, (
        ("--n", int, 2, "N", "N is any integer >= 2", (2, math.inf)),
        ("--k", int, 5, "K", f"K runs from 1 to {MAX_K}", (1, MAX_K)),
        ("--include-zero", None, False, None, "also emit the all-sphere word, l = 0", None),
        _FORMAT, _OUT)),
    "resolve": ("blow-up resolution trace", _suite_resolve, (
        ("--k", int, 3, "K", f"K runs from 1 to {MAX_K}", (1, MAX_K)),
        ("--dim", int, 1, "DIM", f"DIM runs from 0 to {MAX_DIM}", (0, MAX_DIM)), _FORMAT, _OUT)),
    # contact-check refuses n >= 1025 itself, naming the overflow
    "contact-check": ("profile, corner, and base checks", _suite_contact_check, (
        ("--n", int, 2, "N", "N runs from 1 to 1024", (1, math.inf)), _FORMAT, _OUT)),
    "all": ("every suite with defaults, into a directory", None, (
        _FORMAT,
        ("--out", Path, None, "DIR", "directory receiving one report per suite (required)",
         None))),
}


def _key(option: str) -> str:
    return option[2:].replace("-", "_")


def _help(command: str | None) -> str:
    if command is None:
        lines = ["usage: lbfkit COMMAND [OPTION ...]", "",
                 "deterministic verification reports for the fibration toolkit", "", "commands:"]
        lines += [f"  {name:<15} {summary}" for name, (summary, _, _) in COMMANDS.items()]
        return "\n".join(lines + ["", "lbfkit COMMAND --help lists the options of COMMAND.\n"])
    lines = [f"usage: lbfkit {command} [OPTION ...]", "", COMMANDS[command][0], "", "options:"]
    for name, convert, default, metavar, text, _ in COMMANDS[command][2]:
        lines.append(f"  {name} {metavar or ''}".rstrip())
        lines.append("     ")
        # the help text, with its default, broken into lines of at most 79 characters
        for word in (text if convert is None or default is None
                     else f"{text} (default: {default})").split():
            if len(lines[-1]) + len(word) >= 79:
                lines.append("     ")
            lines[-1] += " " + word
    return "\n".join(lines) + "\n"


def _convert(option: str, convert: Callable | tuple, text: str) -> object:
    if isinstance(convert, tuple):                       # a choice
        if text in convert:
            return text
        raise DomainError(f"{option}: invalid choice {text!r} (choose from {', '.join(convert)})")
    try:
        return convert(text)
    except ValueError:
        raise DomainError(f"{option}: invalid {convert.__name__} value {text!r}") from None


def _parse_argv(argv: list[str]) -> tuple[str, dict] | None:
    """The command and its option values keyed as the suites take them, or
    None once help is printed.

    Options take their full names, as ``--opt V`` or ``--opt=V``: V is the
    next token whatever it starts with, and a repeated option keeps its last
    value.  A -h or --help anywhere prints help; every refusal is a ``DomainError``.
    """
    command = argv[0] if argv and argv[0] in COMMANDS else None
    if {"-h", "--help"} & set(argv if command else argv[:1]):
        sys.stdout.write(_help(command))
        return None
    if command is None:
        raise DomainError(f"expected a command, one of {', '.join(COMMANDS)}; got "
                          + (repr(argv[0]) if argv else "none"))
    options = {row[0]: row for row in COMMANDS[command][2]}
    values = {name: row[2] for name, row in options.items()}
    unrecognized = []
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, text = token.partition("=")
        row = options.get(name)
        if row is None:
            unrecognized.append(token)
        elif row[1] is None:                             # a flag takes no value
            if eq:
                raise DomainError(f"{name} takes no value, got {token!r}")
            values[name] = True
        else:
            if not eq and (text := next(tokens, None)) is None:
                raise DomainError(f"{name} needs a value")
            values[name] = _convert(name, row[1], text)
    if unrecognized:
        raise DomainError("unrecognized arguments: " + " ".join(unrecognized))
    if command == "all" and values["--out"] is None:
        raise DomainError("all needs --out DIR")
    for name, *_, bounds in options.values():
        value = values[name]
        if bounds and not bounds[0] <= value <= bounds[1]:
            relation = f">= {bounds[0]}" if value < bounds[0] else f"at most {bounds[1]}"
            raise DomainError(f"{name} must be {relation}, got {value}")
    return command, {_key(name): value for name, value in values.items()}


def _render(command: str, result: SuiteResult, fmt: str) -> str:
    if fmt == "json":
        return _json_text({"schema": SCHEMA, "command": command, **result.report,
                           "passed": result.passed})
    return _csv(result.csv_rows) if fmt == "csv" else _table(result.table_rows)


def _execute(command: str, values: dict, prefix: str,
             emit: Callable[[SuiteResult, float], None]) -> int:
    """Run the suite on ``values``, pass ``emit`` its result and wall ms; the exit code.

    A ``DomainError``, from the suite or from writing its report, is exit 2
    and any other exception exit 3, each with one stderr line; a halted
    trace is exit 3 after its report is emitted.  Otherwise every failed
    gate gets a stderr line, in gate order, and the code is 1 if any failed, else 0.
    """
    started = time.perf_counter()
    try:
        result = COMMANDS[command][1](**values)
        emit(result, (time.perf_counter() - started) * 1e3)
    except DomainError as exc:
        print(f"{prefix}: usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"{prefix}: internal failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    if result.internal_failure:
        print(f"{prefix}: internal failure: {result.internal_failure}", file=sys.stderr)
        return 3
    for line in result.failures:
        print(f"{prefix}: FAIL: {line}", file=sys.stderr)
    return 0 if result.passed else 1


def _run_all(fmt: str, out_dir: Path) -> int:
    suffix = {"json": ".json", "csv": ".csv", "table": ".txt"}[fmt]
    worst = 0
    timings: dict[str, float] = {}
    for name in ALL_SUITES:
        def emit(result: SuiteResult, elapsed_ms: float, name: str = name) -> None:
            timings[name] = elapsed_ms
            _write_atomic(out_dir / f"{name}{suffix}", _render(name, result, fmt))

        defaults = {_key(row[0]): row[2] for row in COMMANDS[name][2]
                    if row not in (_FORMAT, _OUT)}
        code = _execute(name, defaults, f"lbfkit all/{name}", emit)
        if code > 1:
            return code
        worst = max(worst, code)
    timing = {"schema": TIMING_SCHEMA, "command": "all", "elapsed_ms": timings}
    try:
        _write_atomic(out_dir / "timing.json", _json_text(timing))
    except DomainError as exc:
        print(f"lbfkit all: usage error: {exc}", file=sys.stderr)
        return 2
    return worst


def main(argv: list[str] | None = None) -> int:
    try:
        parsed = _parse_argv(sys.argv[1:] if argv is None else argv)
    except DomainError as exc:
        print(f"lbfkit: usage error: {exc}", file=sys.stderr)
        return 2
    if parsed is None:
        return 0                                   # help was printed
    command, values = parsed
    fmt, out = values.pop("format"), values.pop("out")
    if command == "all":
        return _run_all(fmt, out)

    def emit(result: SuiteResult, elapsed_ms: float) -> None:
        text = _render(command, result, fmt)
        if out is None:
            sys.stdout.write(text)
            return
        _write_atomic(out, text)
        timing = {"schema": TIMING_SCHEMA, "command": command,
                  "elapsed_ms": elapsed_ms, **result.timing}
        _write_atomic(out.with_name(out.name + ".timing.json"), _json_text(timing))

    return _execute(command, values, "lbfkit", emit)


if __name__ == "__main__":
    raise SystemExit(main())
