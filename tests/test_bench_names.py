"""The names of lbfkit that the traced benchmark run pins still resolve.

``perfbench/tracing.py`` wraps module attributes by name (its ``HOOKS``
table), iterates ``models.IdentityId`` in the order of ``jobs.IDENTITIES``
and probes ``models.verify_identity(ident, ModelConfig(n=...))``.  A rename
in ``src/`` that drops one of these would break the traced run, not the
CLI; this test imports the file read-only and checks each name.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

from lbfkit import blowup, contact, mcg, models, topo, transport
from lbfkit.config import ModelConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_benchmark_names_resolve(monkeypatch):
    # at module level tracing.py loads only the standard library and jobs;
    # the import writes no bytecode next to them
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    jobs = importlib.import_module("jobs")

    modules = {"models": models, "transport": transport, "contact": contact,
               "blowup": blowup, "mcg": mcg, "topo": topo}
    for mod_name, attr, _ in tracing.HOOKS:
        assert callable(getattr(modules[mod_name], attr)), f"{mod_name}.{attr}"
    assert [ident.value for ident in models.IdentityId] == list(jobs.IDENTITIES)

    # the probe loop, run through the hooks: every identity gets its span, and
    # the exterior spans that SPAN_METRICS sums are all recorded
    tracer = tracing.Tracer(modules)
    cfg = ModelConfig(n=2)
    originals = [getattr(modules[mod_name], attr) for mod_name, attr, _ in tracing.HOOKS]
    with tracer.hooked():
        for ident in models.IdentityId:
            assert models.verify_identity(ident, cfg)["verdict"] == "exact-equal"
    assert [getattr(modules[m], a) for m, a, _ in tracing.HOOKS] == originals
    spans = {span[0] for span in tracer.spans}
    assert {f"models.verify.{ident}" for ident in jobs.IDENTITIES} <= spans
    assert {name for name in tracing.SPAN_METRICS.values()
            if name.startswith("exterior.")} <= spans
