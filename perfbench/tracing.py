"""Traced run: per-layer timings from in-process replays of a workload's jobs.

The run
1. times ``import numpy``, ``import scipy.integrate`` and ``import lbfkit.cli``
   one after another in fresh processes;
2. runs each of the workload's first ``REPLAY[workload]`` jobs twice through a
   warm in-process ``cli.main(argv)``: once untraced, once with a span around
   every call into a layer's public functions (the ``HOOKS`` table), and
   compares the two runs' report bytes;
3. repeats fixed probes (each identity at n = 2, 5, 8) until ``--seconds``
   have passed, at least ``MIN_PROBES`` times, and reports their medians.

Spans live in memory and are written to ``.bench_work/spans-*.json`` at the
end: name, start, end, parent span index, job index.  The hooks replace
module attributes, so they see calls made through the module (``cli`` calls
``transport.integrate``, ``models`` calls its own ``build_form``), and they
are removed before the probes run.  Span times are inclusive: an
``integrate`` span inside ``monodromy_profile`` counts in both.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs

REPLAY = {"cli-mix": 10, "forms-sweep": 9, "transport-sweep": 10}
PROBE_NS = (2, 5, 8)
MIN_PROBES = 3
IMPORT_SAMPLES = 3

IMPORT_PROBE = """
import json, time
t0 = time.perf_counter(); import numpy
t1 = time.perf_counter(); import scipy.integrate
t2 = time.perf_counter(); import lbfkit.cli
t3 = time.perf_counter()
print(json.dumps({"import.numpy_s": t1 - t0, "import.scipy_s": t2 - t1,
                  "import.lbfkit_s": t3 - t2}))
"""

# (module, attribute, span name); a callable name is applied to the call's
# positional arguments.
HOOKS = (
    ("models", "verify_identity", lambda a: f"models.verify.{getattr(a[0], 'value', a[0])}"),
    ("models", "positivity_grid", "models.positivity_grid"),
    ("models", "build_form", lambda a: f"exterior.build_form.{a[0]}"),
    ("models", "wedge_power", "exterior.wedge_power"),
    ("models", "top_power_coefficient", "exterior.scalar_pow"),
    ("transport", "integrate", "transport.integrate"),
    ("transport", "monodromy_profile", "transport.monodromy_profile"),
    ("transport", "limits_at_zero", "transport.limits_at_zero"),
    ("contact", "verify_profile", "contact.verify_profile"),
    ("contact", "make_corner_curve", "contact.make_corner_curve"),
    ("contact", "verify_base_profile", "contact.verify_base_profile"),
    ("blowup", "resolve_A", "blowup.resolve_A"),
    ("blowup", "resolution_word_chain", "blowup.resolution_word_chain"),
    ("mcg", "enumerate_fillings", "mcg.enumerate_fillings"),
    ("topo", "distinctness_report", "topo.distinctness_report"),
)

# per-layer metric -> span name whose inclusive durations it sums
SPAN_METRICS = {
    "exterior.build_form_s": "exterior.build_form.omega1_tilde",
    "exterior.wedge_power_s": "exterior.wedge_power",
    "exterior.scalar_pow_s": "exterior.scalar_pow",
    "models.positivity_grid_s": "models.positivity_grid",
    **{f"{name}_s": name for name in (
        "transport.integrate", "transport.monodromy_profile", "transport.limits_at_zero",
        "contact.verify_profile", "contact.make_corner_curve", "contact.verify_base_profile",
        "blowup.resolve_A", "blowup.resolution_word_chain", "mcg.enumerate_fillings",
        "topo.distinctness_report")},
}


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, job index, count]."""

    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []   # one stack: the traced code runs one call at a time
        self.job: int | None = None

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None,
                self.job, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
        if name == "exterior.scalar_pow":
            span[5] = len(result.terms)
        return result

    @contextlib.contextmanager
    def hooked(self):
        """Replace each HOOKS attribute by a span-recording wrapper, then restore it."""
        restore = []
        try:
            for mod_name, attr, name in HOOKS:
                module = self.modules[mod_name]
                original = getattr(module, attr)

                def hook(*args, _fn=original, _name=name, **kwargs):
                    span_name = _name(args) if callable(_name) else _name
                    return self.call(span_name, _fn, *args, **kwargs)

                setattr(module, attr, hook)
                restore.append((module, attr, original))
            yield
        finally:
            for module, attr, original in reversed(restore):
                setattr(module, attr, original)

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def self_time(self, index: int) -> float:
        """Duration minus the part of it that direct children cover."""
        start, end = self.spans[index][1:3]
        covered, reach = 0.0, start
        for s in sorted((s for s in self.spans if s[3] == index), key=lambda s: s[1]):
            lo, hi = max(s[1], reach), min(s[2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (end - start) - covered

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "job", "count")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")


def import_times(env: dict[str, str]) -> dict[str, float]:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        samples.append(json.loads(out.splitlines()[-1]))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def run_once(cli, job: jobs.Job, tracer: Tracer | None):
    """Run one job through cli.main, traced or not.

    Returns the wall seconds, the report bytes (exit code, stdout and every
    --out file but the timing sidecars, which differ between runs by design)
    and the job's Outcome.
    """
    jobs.reset_out()
    stdout = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        if tracer is None:
            rc = cli.main(list(job.argv))
        else:
            with tracer.hooked():
                rc = tracer.call("cli.main", cli.main, list(job.argv))
    elapsed = time.perf_counter() - started
    files = {str(p): p.read_bytes() for p in sorted(jobs.OUT.rglob("*"))
             if p.is_file() and not p.name.endswith("timing.json")}
    return elapsed, (rc, stdout.getvalue(), files), jobs.check_job(job, rc, stdout.getvalue())


def run_traced(workload: str, seed: int, seconds: float, env: dict[str, str]) -> dict:
    started = time.perf_counter()
    layer: dict[str, float] = dict(import_times(env))

    sys.path.insert(0, str(jobs.ROOT / "src"))
    from lbfkit import blowup, cli, contact, mcg, models, topo, transport
    from lbfkit.config import ModelConfig

    job_list = jobs.first_jobs(workload, seed, REPLAY[workload])
    tracer = Tracer({"models": models, "transport": transport, "contact": contact,
                     "blowup": blowup, "mcg": mcg, "topo": topo})
    outcomes = []
    untraced_s = traced_s = 0.0
    nondeterministic = 0
    for index, job in enumerate(job_list):
        tracer.job = index
        # alternate which run goes first, so warm-up favours neither
        if index % 2 == 0:
            plain = run_once(cli, job, None)
            hooked = run_once(cli, job, tracer)
        else:
            hooked = run_once(cli, job, tracer)
            plain = run_once(cli, job, None)
        untraced_s += plain[0]
        traced_s += hooked[0]
        outcomes.append(hooked[2])
        nondeterministic += plain[1] != hooked[1]
    tracer.dump(jobs.WORK / f"spans-{workload}-seed{seed}.json")

    roots = [i for i, s in enumerate(tracer.spans) if s[0] == "cli.main"]
    layer["cli.main_s"] = tracer.total("cli.main")
    layer["cli.self_s"] = sum(tracer.self_time(i) for i in roots)
    layer["cli.nondeterministic_reports"] = nondeterministic
    for metric, span_name in SPAN_METRICS.items():
        layer[metric] = tracer.total(span_name)
    layer["exterior.top_power_terms"] = sum(s[5] or 0 for s in tracer.spans
                                            if s[0] == "exterior.scalar_pow")
    for ident in jobs.IDENTITIES:
        layer[f"models.verify.{ident}_s"] = tracer.total(f"models.verify.{ident}")
    layer["transport.levels"] = sum(o.levels for o in outcomes)
    layer["transport.gate_failures"] = sum(o.gate_failures for o in outcomes)
    layer["transport.max_h_drift"] = max(o.max_h_drift for o in outcomes)
    layer["transport.max_radial_drift"] = max(o.max_radial_drift for o in outcomes)
    layer["trace.untraced_wall_s"] = untraced_s
    layer["trace.traced_wall_s"] = traced_s

    probes: dict[str, list[float]] = {}
    passes = 0
    while passes < MIN_PROBES or time.perf_counter() - started < seconds:
        for n in PROBE_NS:
            cfg = ModelConfig(n=n)
            for ident in models.IdentityId:
                t0 = time.perf_counter()
                models.verify_identity(ident, cfg)
                probes.setdefault(f"models.verify.{ident.value}.n{n}_s", []).append(
                    time.perf_counter() - t0)
        passes += 1
    layer.update({k: statistics.median(v) for k, v in probes.items()})

    def describe(name: str, value: float) -> dict:
        unit = "s" if name.endswith("_s") else "1" if "_drift" in name else "count"
        samples = (IMPORT_SAMPLES if name.startswith("import.")
                   else passes if name in probes else len(job_list))
        return {"value": value, "unit": unit, "samples": samples}

    metrics = {k: describe(k, v) for k, v in sorted(layer.items())}
    failed = sum(not o.ok for o in outcomes)
    return {
        "correct": all(not o.problems for o in outcomes),
        "attempted": len(job_list),
        "failed": failed,
        "metrics": metrics,
        "info": {
            "tracing_overhead": f"traced replay {traced_s:.4f} s vs untraced {untraced_s:.4f} s "
                                f"({(traced_s / untraced_s - 1) * 100:+.1f}%)",
            "failed_ratio": {"value": failed / len(job_list), "unit": "ratio",
                             "samples": len(job_list)},
            "problems": [p for o in outcomes for p in o.problems],
        },
    }
