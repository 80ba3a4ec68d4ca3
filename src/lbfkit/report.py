"""The report model every suite shares.

Each layer module that runs a subcommand ends in one ``suite`` function:
it calls the layer, states each check once as a ``(value, bound, sense,
failure text)`` gate, and returns a ``SuiteResult`` that ``cli`` renders
to json, csv or table.  ``holds`` alone decides a gate (a NaN or infinite
value fails it).  The cell and row helpers give every suite the same
float cells and ``result`` row, and ``timed`` reads the wall clock for
one stage of a suite; stage times go to the timing sidecar, never into a
report.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Sequence

from .config import ModelConfig


def holds(value: object, bound: object, sense: str) -> bool:
    """Whether value keeps bound in sense "<=", ">" or "=="; a non-finite float never does."""
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return value == bound if sense == "==" else value <= bound if sense == "<=" else value > bound


class SuiteResult:
    """One suite's outcome: report fields, gates, rows and sidecar timings.

    ``gates`` holds one ``(value, bound, sense, failure text)`` gate per
    check, in the suite's order; ``failures`` and ``passed`` read it
    through ``holds``.  ``report`` holds the suite's own fields, plain JSON
    data; the schema, the command and ``passed`` are added when it is
    rendered.  Rows are lists of string cells, the header first.
    """

    __slots__ = ("report", "gates", "csv_rows", "table_rows", "timing")

    def __init__(self, report: dict, gates: list[tuple], csv_rows: list[list[str]],
                 table_rows: list[list[str]], timing: dict) -> None:
        self.report = report
        self.gates = gates
        self.csv_rows = csv_rows
        self.table_rows = table_rows
        self.timing = timing                             # per-stage wall times for the sidecar

    @property
    def failures(self) -> list[str]:
        """The failure text of each gate that does not hold, in gate order."""
        return [text for value, bound, sense, text in self.gates
                if not holds(value, bound, sense)]

    @property
    def passed(self) -> bool:
        return not self.failures


def config_dict(cfg: ModelConfig, **run_params: object) -> dict:
    return {name: getattr(cfg, name) for name in cfg.FIELDS} | run_params


def cell(x: float) -> str:
    return repr(float(x))


def float_rows(*columns: Sequence[float]) -> list[list[str]]:
    """One row of float cells per index of the columns."""
    return [[cell(v) for v in row] for row in zip(*columns)]


def pass_fail(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def result_row(gates: list[tuple], width: int) -> list[str]:
    """The table's last row: PASS when every gate holds, padded to ``width`` cells."""
    ok = all(holds(value, bound, sense) for value, bound, sense, _ in gates)
    return ["result", pass_fail(ok)] + [""] * (width - 2)


def timed(timing: dict, key: str, fn: Callable, *args: object, **kwargs: object):
    """fn(*args, **kwargs), its wall time in ms stored under ``timing[key]``."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    timing[key] = (time.perf_counter() - started) * 1e3
    return result
