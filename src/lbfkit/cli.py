"""Batch verification front-end: parsing, rendering and exit codes.

Every subcommand runs a fixed suite of checks and emits one report in
json, csv, or table form, either to stdout or atomically to a file.  Each
suite is the ``suite`` function of the layer module it drives (verify-forms
``models``, transport ``transport``, fillings ``topo``, resolve ``blowup``,
contact-check ``contact``) and returns a ``report.SuiteResult``, which this
module renders.  Reports are deterministic: keys sorted, floats printed via
repr, no timestamps inside.  Wall-clock timings go to a sidecar file instead
so two runs of the same invocation stay byte-identical.  The sidecar also
times the import of the suite's module (``imports_ms``) and each stage:
each identity check and the positivity grid for verify-forms, the
trajectories, profile and limits for transport, the words and the Euler
table for fillings, the trace, word chain and polynomial texts for
resolve, and the profile, corner, base and samples for contact-check.
Wall clocks are read in two places alone: ``_execute`` here, around the
import and the whole run, and ``report.timed``, around each stage.

Exit codes: 0 all checks passed, 1 a verification failed, 2 bad usage
(input outside the documented domain, raised as ``DomainError``), 3 an
internal failure: any other exception, such as a resolution trace that
finds no smooth transform, with no report.  An ``--out`` that cannot be
written is a usage error too.  Exits 2 and 3 print one line on stderr and
no traceback.  Each suite states each check once, as a ``(value, bound,
sense, failure text)`` gate in ``SuiteResult.gates`` that ``report.holds``
alone decides (a NaN or infinite value fails it).  The report's
``passed``, the table's ``result`` row, exit 0 or 1 and the stderr
``FAIL:`` lines (one per failed gate, in order) follow.

Subcommands and their options live in one option table, ``COMMANDS``:
each subcommand's summary and suite module, and each option's converter,
default, metavar, help text and integer bounds.  One loop parses argv
against it and ``--help`` prints from it.  ``all`` runs each suite with the
table's defaults into a directory.  Every suite runs in one thread, in a
fixed order.

Each process loads only what its subcommand runs: importing this module
loads the standard library and ``config``, ``json`` is imported only to
render json, and ``_execute`` imports the suite's module and, through it,
``report`` and the layers it needs (verify-forms ``models`` and
``exterior``, transport ``transport``, fillings ``topo`` and ``mcg``,
resolve ``blowup`` and ``mcg``, contact-check ``contact``).
``--help`` and a refused argv load no more than this module and
``config``.  No layer needs more than the standard library, and no module
imports this one: under ``python -m`` that would compile it a second time.
Suites call their layer's functions through module globals
(``integrate``, ``mcg.enumerate_fillings``), so patching a module
attribute reaches them.

Each option's help text states its domain, and input outside it is
refused before any work.  That includes input the numerics cannot
represent: a ``contact-check --n`` whose f^(n-1) overflows a double
(n >= 1025 for the default profile) and a ``transport --t`` or grid
level with 0 < |t| <= 5e-13, where the transport denominator starts at or
under its singular floor.  ``MAX_GRID_COUNT``, ``MAX_K``, ``MAX_N`` and
``MAX_DIM`` cap the inputs whose memory or run time grows steeply; the
slowest grid, 10,000 levels just above 5e-13, runs 11-19 s on a 2-core
x86-64 host: a level near 1.5e-12 takes 884 right-hand-side calls to
step, one at |t| >= 0.01 takes 8-32.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections.abc import Callable

from .config import DEFAULT_CONFIG, MAX_GRID_COUNT, SINGULAR_FLOOR, DomainError

SCHEMA = "lbf-kit/1"
TIMING_SCHEMA = "lbf-kit/1-timing"
FORMATS = ("json", "csv", "table")

# The suites `all` runs, each with its option table defaults, in emission order.
ALL_SUITES = ("verify-forms", "transport", "fillings", "resolve", "contact-check")

DEFAULT_T_GRID = "-0.16:0.16:8"
# Largest fillings and resolve --k: both reports grow as k^2; timings in README.
MAX_K = 1_000
# Largest verify-forms --n: the exact TOP_POWER expansion, and so the run
# time, grows steeply in n; timings in README.
MAX_N = 24
# Largest resolve --dim: run time grows steeply in dim; timings in README.
MAX_DIM = 100


def _json_text(report: dict) -> str:
    """Sorted, indented JSON; tuples print as lists."""
    import json

    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _write_atomic(path: pathlib.Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it.

    A path that cannot be written is a ``DomainError``, and no temporary
    file is left behind.
    """
    import tempfile

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


def _path(text: str) -> pathlib.Path:
    """The --out converter: only a run that writes files loads pathlib."""
    import pathlib

    return pathlib.Path(text)


# One option: its name, converter, default, metavar, help text and, for an
# integer, the bounds (lo, hi) outside which it is refused.  The converter is
# int, float, str or _path, a tuple of choices, or None for a flag.
_FORMAT = ("--format", FORMATS, "json", "|".join(FORMATS), "the report format", None)
_OUT = ("--out", _path, None, "FILE", "write the report here instead of stdout", None)
_T_RANGE = "[{!r}, {!r}]".format(*DEFAULT_CONFIG.level_range)

# The option table: each subcommand's summary, the module whose ``suite`` runs
# it, and its options.  Each option but --format and --out is passed to the
# suite by keyword (--include-zero as include_zero).
COMMANDS = {
    "verify-forms": ("check the nine form identities", "models", (
        ("--n", int, 2, "N", f"N runs from 2 to {MAX_N}", (2, MAX_N)), _FORMAT, _OUT)),
    "transport": ("trajectory drifts and the angle profile", "transport", (
        ("--t", float, 0.25, "T", f"T lies in {_T_RANGE} with |T| > {SINGULAR_FLOOR / 2:g}: the "
         f"transport denominator starts at 2|T|, above the singular floor {SINGULAR_FLOOR:g}",
         None),
        ("--s0", float, 1e-3, "S0", "S0 lies in ({!r}, {!r}]".format(*DEFAULT_CONFIG.s0_range)
         + f": the limit levels +-S0/8 and +-S0/4 keep |t| above {SINGULAR_FLOOR / 2:g}, and "
         "their arcs stay in the small-t regime", None),
        ("--grid", str, DEFAULT_T_GRID, "LO:HI:COUNT", f"COUNT evenly spaced levels in [LO, HI], "
         f"inside {_T_RANGE} and each with |t| > {SINGULAR_FLOOR / 2:g}, as for T; COUNT runs "
         f"from 1 to {MAX_GRID_COUNT}", None),
        _FORMAT, _OUT)),
    "fillings": ("twist words and Euler characteristics", "topo", (
        ("--n", int, 2, "N", "N is any integer >= 2", (2, math.inf)),
        ("--k", int, 5, "K", f"K runs from 1 to {MAX_K}", (1, MAX_K)),
        ("--include-zero", None, False, None, "also emit the all-sphere word, l = 0", None),
        _FORMAT, _OUT)),
    "resolve": ("blow-up resolution trace", "blowup", (
        ("--k", int, 3, "K", f"K runs from 1 to {MAX_K}", (1, MAX_K)),
        ("--dim", int, 1, "DIM", f"DIM runs from 0 to {MAX_DIM}", (0, MAX_DIM)), _FORMAT, _OUT)),
    # contact-check refuses n >= 1025 itself, naming the overflow
    "contact-check": ("profile, corner, and base checks", "contact", (
        ("--n", int, 2, "N", "N runs from 1 to 1024", (1, math.inf)), _FORMAT, _OUT)),
    "all": ("every suite with defaults, into a directory", None, (
        _FORMAT,
        ("--out", _path, None, "DIR", "directory receiving one report per suite (required)",
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

    The suite's module is imported here, and the import's wall time is the
    sidecar's ``imports_ms``.  A ``DomainError``, from the suite or from
    writing its report, is exit 2 and any other exception exit 3, each with
    one stderr line.  Otherwise every failed gate gets a stderr line, in
    gate order, and the code is 1 if any failed, else 0.
    """
    name = COMMANDS[command][1]
    started = time.perf_counter()
    try:
        module = getattr(__import__(__package__, fromlist=[name]), name)
        imports_ms = (time.perf_counter() - started) * 1e3
        result = module.suite(**values)
        result.timing["imports_ms"] = imports_ms
        emit(result, (time.perf_counter() - started) * 1e3)
    except DomainError as exc:
        print(f"{prefix}: usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"{prefix}: internal failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    for line in result.failures:
        print(f"{prefix}: FAIL: {line}", file=sys.stderr)
    return 0 if result.passed else 1


def _run_all(fmt: str, out_dir: pathlib.Path) -> int:
    suffix = {"json": ".json", "csv": ".csv", "table": ".txt"}[fmt]
    worst = 0
    timings: dict[str, float] = {}
    stages: dict[str, dict] = {}
    for name in ALL_SUITES:
        def emit(result: SuiteResult, elapsed_ms: float, name: str = name) -> None:
            timings[name], stages[name] = elapsed_ms, result.timing
            _write_atomic(out_dir / f"{name}{suffix}", _render(name, result, fmt))

        defaults = {_key(row[0]): row[2] for row in COMMANDS[name][2]
                    if row not in (_FORMAT, _OUT)}
        code = _execute(name, defaults, f"lbfkit all/{name}", emit)
        if code > 1:
            return code
        worst = max(worst, code)
    timing = {"schema": TIMING_SCHEMA, "command": "all", "elapsed_ms": timings, **stages}
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
