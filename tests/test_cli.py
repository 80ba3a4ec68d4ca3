"""End-to-end CLI runs: exit codes, formats, determinism, file emission."""

from __future__ import annotations

import contextlib
import copy
import importlib
import io
import json
import math
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lbfkit
from lbfkit import blowup, cli, contact, mcg, models, topo, transport
from lbfkit.cli import FORMATS
from lbfkit.config import DEFAULT_CONFIG, SINGULAR_FLOOR, ModelConfig

GOLDEN = Path(__file__).parent / "golden"
# Each file under tests/golden is the expected stdout of one run, byte for byte.
# A deliberate report change (a schema bump) rewrites the files it changes.
GOLDEN_RUNS = {
    **{f"{suite}{suffix}": [suite, "--format", fmt]
       for suite in ("verify-forms", "transport", "fillings", "resolve", "contact-check")
       for fmt, suffix in (("json", ".json"), ("csv", ".csv"), ("table", ".txt"))},
    "transport_t-0.1_grid6.json": ["transport", "--t", "-0.1", "--grid=-0.2:0.2:6"],
    "resolve_k6_dim0.json": ["resolve", "--k", "6", "--dim", "0"],
    "fillings_n3_k8_include-zero.json": ["fillings", "--n", "3", "--k", "8", "--include-zero"],
    "contact-check_n7.json": ["contact-check", "--n", "7"],
}


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_forms_json(capsys):
    code, out, err = run(capsys, "verify-forms", "--n", "3")
    assert code == 0
    assert err == ""
    data = json.loads(out)
    assert data["schema"] == "lbf-kit/1"
    assert data["command"] == "verify-forms"
    assert data["config"]["n"] == 3
    assert len(data["identities"]) == 9
    assert all(r["verdict"] == "exact-equal" for r in data["identities"])
    assert data["top_power_grid"]["positive"] is True
    assert data["passed"] is True


def test_fillings_table_matches_the_published_chis(capsys):
    code, out, _ = run(capsys, "fillings", "--n", "2", "--k", "5",
                       "--format", "table")
    assert code == 0
    lines = out.splitlines()
    cells = [line.split() for line in lines[1:4]]
    assert [c[0] for c in cells] == ["1", "2", "3"]          # ell column
    assert [c[-3] for c in cells] == ["0", "4", "8"]         # chi_betti
    assert "3 fillings, pairwise distinct" in out


def test_resolve_trace(capsys):
    code, out, _ = run(capsys, "resolve", "--k", "3", "--dim", "1")
    assert code == 0
    data = json.loads(out)
    trace = data["trace"]
    assert trace["step_count"] == 2
    assert trace["resolved"] is True
    assert trace["steps"][-1]["verdict"] == "Smooth"
    assert [s["direction"] for s in data["word_chain"]] == ["contract", "contract"]


def test_resolve_csv(capsys):
    code, out, _ = run(capsys, "resolve", "--k", "8", "--dim", "0",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("step,chart,polynomial,multiplicity,verdict")
    assert lines[1] == '1,1,"y0^2 + y1^7",2,AType(6)'
    assert lines[-1].endswith("Smooth")


def test_transport_and_contact_pass(capsys):
    code, out, _ = run(capsys, "transport")
    assert code == 0
    data = json.loads(out)
    limits = data["limits_at_zero"]
    assert abs(limits["plus"] - 0.5) < limits["tolerance"]
    assert abs(limits["minus"] + 0.5) < limits["tolerance"]
    assert data["passed"] is True
    code, out, _ = run(capsys, "contact-check", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["profile"]["passed"] is True
    assert data["passed"] is True


def test_stdout_is_deterministic(capsys):
    _, first, _ = run(capsys, "fillings", "--k", "7")
    _, second, _ = run(capsys, "fillings", "--k", "7")
    assert first == second


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "fillings", "--k", "0")[0] == 2
    assert run(capsys, "resolve", "--k", "-3")[0] == 2
    assert run(capsys, "transport", "--grid", "0:1:5")[0] == 2      # grid hits t=0
    assert run(capsys, "transport", "--grid", "1:2")[0] == 2
    assert run(capsys, "transport", "--t", "1e-14")[0] == 2      # start under the floor
    assert run(capsys, "transport", "--t=-1e-14")[0] == 2
    assert run(capsys, "verify-forms", "--n", "1")[0] == 2
    assert run(capsys, "transport", "--t", "200")[0] == 2         # outside [-0.25, 100]
    assert run(capsys, "transport", "--s0", "1")[0] == 2          # beyond the s0 range
    assert run(capsys, "transport", "--grid=5e-8:6e-8:2")[0] == 2  # stencil step under 1e-8
    # options take their full names: a unique prefix is no abbreviation
    for argv in (["transport", "--gri=-0.2:0.2:4"], ["verify-forms", "--form", "csv"],
                 ["fillings", "--include"], ["transport", "--gri", "-0.2:0.2:4"],
                 ["transport", "--s", "-1e-3"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "unrecognized arguments: " + " ".join(argv[1:]) in err, argv
    # non-finite grid bounds are refused before linspace sees them
    for spec in ("--grid=-inf:inf:2", "--grid=nan:nan:1"):
        code, out, err = run(capsys, "transport", spec)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and "finite" in err, err
    # so are bounds outside the documented level range [-0.25, 100]
    code, out, err = run(capsys, "transport", "--grid=-5:-1:3")
    assert (code, out) == (2, "")
    assert err == ("lbfkit: usage error: grid '-5:-1:3' leaves the "
                   "fiber-coordinate range [-0.25, 100.0]\n")
    # --k stops at MAX_K, which --help states: both reports grow as k^2
    for command in ("fillings", "resolve"):
        code, out, err = run(capsys, command, "--k", str(cli.MAX_K + 1))
        assert (code, out) == (2, "")
        assert err == f"lbfkit: usage error: --k must be at most {cli.MAX_K}, got {cli.MAX_K + 1}\n"
        assert run(capsys, command, "--help")[1].count(str(cli.MAX_K)) == 1
    # so do verify-forms --n and resolve --dim, refused before any work
    for command, option, bound in (("verify-forms", "--n", cli.MAX_N),
                                   ("resolve", "--dim", cli.MAX_DIM)):
        for value in (bound + 1, 10 ** 9):
            code, out, err = run(capsys, command, option, str(value))
            assert (code, out) == (2, "")
            assert err == f"lbfkit: usage error: {option} must be at most {bound}, got {value}\n"
        assert f"runs from {2 if option == '--n' else 0} to {bound}" in run(capsys, command, "--help")[1]


@pytest.mark.parametrize("arg", ["--grid=-5:-1:3", "--grid=99:101:3", "--t=200",
                                 "--t=1e-14", "--s0=0.5", "--s0=0"])
def test_transport_input_is_refused_before_integrating(capsys, monkeypatch, arg):
    def integrator(*args, **kwargs):
        raise AssertionError("integrated before the input was checked")

    monkeypatch.setattr(transport, "_dopri5", integrator)
    code, out, err = run(capsys, "transport", arg)
    assert (code, out) == (2, "")
    assert err.startswith("lbfkit: usage error: ") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("spec, reason", [
    pytest.param("-0.25:-0.2:3", "t = -0.25 too close to the fiber-coordinate boundary",
                 id="range-end"),
    pytest.param("1e-8:0.1:3", "t = 1e-08 too close to the critical value t = 0",
                 id="near-zero"),
])
def test_grid_without_stencil_room_is_refused_before_integrating(capsys, monkeypatch,
                                                                 spec, reason):
    def integrate(*args, **kwargs):
        raise AssertionError("integrated before the grid was checked")

    monkeypatch.setattr(transport, "integrate", integrate)
    code, out, err = run(capsys, "transport", f"--grid={spec}")
    assert (code, out) == (2, "")
    assert err == f"lbfkit: usage error: {reason} for a central stencil\n"


def test_other_exceptions_are_internal_failures(capsys, monkeypatch, tmp_path):
    # an exception without text is named by its type
    for exc, reason in ((ValueError("not a domain error"), "not a domain error"),
                        (MemoryError(), "MemoryError")):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(models, "verify_identity", broken)
        code, out, err = run(capsys, "verify-forms")
        assert (code, out) == (3, "")
        assert err == f"lbfkit: internal failure: {reason}\n"
        code, _, err = run(capsys, "all", "--out", str(tmp_path))
        assert code == 3
        assert err == f"lbfkit all/verify-forms: internal failure: {reason}\n"
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("branch", ["classification", "runaway"])
def test_halted_trace_is_an_internal_failure_after_its_report(capsys, monkeypatch, branch):
    if branch == "classification":
        verdict = "Unclassified(patched)"
        message = "classification failed after 1 steps: Unclassified(patched)"
    else:
        # the transform never changes, so no step is ever smooth
        verdict = "AType(1)"
        monkeypatch.setattr(blowup, "proper_transform", lambda p, j: (p, 2))
        message = "no smooth transform after 6 steps"
    monkeypatch.setattr(blowup, "classify", lambda p: verdict)
    code, out, err = run(capsys, "resolve", "--k", "5", "--dim", "1")
    assert code == 3
    assert err == f"lbfkit: internal failure: {message}\n"
    data = json.loads(out)
    assert data["trace"]["diagnostic"] == message
    assert data["trace"]["resolved"] is False and data["passed"] is False
    code, out, err = run(capsys, "resolve", "--k", "5", "--dim", "1", "--format", "table")
    assert (code, err) == (3, f"lbfkit: internal failure: {message}\n")
    assert out.splitlines()[-1].split() == ["result", "FAIL"]


def test_fillings_n_has_no_upper_bound(capsys):
    # the betti slope is n + 2 for even n and n - 1 for odd n, nonzero for n >= 2
    code, out, err = run(capsys, "fillings", "--n", str(10 ** 400), "--k", "3")
    assert (code, err) == (0, "")
    chis = [row["chi_betti"] for row in json.loads(out)["fillings"]]
    assert len(chis) > 1 and len(set(chis)) == len(chis)
    for command, text in (("fillings", "N is any integer >= 2"),
                          ("contact-check", "N runs from 1 to 1024")):
        assert text in run(capsys, command, "--help")[1]


@pytest.mark.parametrize("option, value, code", [
    ("--t", "-1e-5", 0),
    ("--t", "-0.00001", 0),
    ("--grid", "-0.2:0.2:4", 0),
    ("--s0", "-1e-3", 2),
    ("--t", "-1e-13", 2),
])
def test_negative_value_may_be_its_own_token(capsys, option, value, code):
    # an option's value is the next token, even one such as -1e-5 or -0.2:0.2:4
    spaced = run(capsys, "transport", option, value)
    assert spaced == run(capsys, "transport", f"{option}={value}")
    assert spaced[0] == code
    if value == "-1e-13":
        assert spaced[2] == ("lbfkit: usage error: |t| = 1e-13 is at most 5e-13: the "
                             "transport denominator starts at 2|t|, not above the "
                             "singular floor 1e-12\n")


T_LO, T_HI = DEFAULT_CONFIG.level_range
T_FLOOR = SINGULAR_FLOOR / 2     # --t must exceed it in magnitude


def _assert_contract(argv: list[str], inside: bool) -> None:
    """Run argv in-process: inside the documented domain exit 0 with empty
    stderr (and ``passed`` true in json), outside it one usage error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if inside:
        assert (code, err.getvalue()) == (0, ""), argv
        if argv[-2:] == ["--format", "json"]:
            assert json.loads(out.getvalue())["passed"] is True, argv
    else:
        assert (code, out.getvalue()) == (2, ""), argv
        assert err.getvalue().startswith("lbfkit: usage error: "), argv
        assert len(err.getvalue().splitlines()) == 1, argv


@settings(max_examples=30, deadline=None)
@given(t=st.floats(min_value=T_LO, max_value=T_HI).filter(lambda t: abs(t) > T_FLOOR))
@example(t=math.nextafter(T_LO, -math.inf))
@example(t=math.nextafter(T_HI, math.inf))
@example(t=T_FLOOR)
@example(t=-T_FLOOR)
def test_transport_t_contract(t):
    # inside [-0.25, 100] with |t| > 5e-13 the suite passes, and just outside
    # each bound it is one usage error line; t is spelled by repr and in
    # exponent notation, each as its own token and with '='
    inside = T_LO <= t <= T_HI and abs(t) > T_FLOOR
    for text in (repr(t), f"{t:.17e}"):
        for argv in (["transport", "--t", text], ["transport", f"--t={text}"]):
            _assert_contract(argv + ["--format", "json"], inside)


# --k runs over 1..MAX_K for fillings and resolve, drawn mostly small
K_DOMAIN = st.one_of(st.integers(1, 12), st.integers(1, cli.MAX_K))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2), k=K_DOMAIN, include_zero=st.booleans())
@example(n=10 ** 6, k=cli.MAX_K, include_zero=True)
@example(n=1, k=5, include_zero=False)
@example(n=2, k=0, include_zero=False)
@example(n=2, k=cli.MAX_K + 1, include_zero=True)
def test_fillings_contract(n, k, include_zero):
    # any n >= 2 and k in 1..1000 pass in every format; n = 1, k = 0 and
    # k = 1001 are one usage error line
    inside = n >= 2 and 1 <= k <= cli.MAX_K
    argv = ["fillings", "--n", str(n), "--k", str(k)] + ["--include-zero"] * include_zero
    for fmt in FORMATS:
        _assert_contract(argv + ["--format", fmt], inside)


@settings(max_examples=15, deadline=None)
@given(k=K_DOMAIN, dim=st.one_of(st.integers(0, 4), st.integers(0, cli.MAX_DIM)))
@example(k=cli.MAX_K, dim=cli.MAX_DIM)
@example(k=0, dim=1)
@example(k=cli.MAX_K + 1, dim=1)
@example(k=3, dim=-1)
@example(k=3, dim=cli.MAX_DIM + 1)
def test_resolve_contract(k, dim):
    # k in 1..1000 and dim in 0..100 resolve in every format; one step past
    # each bound is one usage error line
    inside = 1 <= k <= cli.MAX_K and 0 <= dim <= cli.MAX_DIM
    for fmt in FORMATS:
        _assert_contract(["resolve", "--k", str(k), "--dim", str(dim), "--format", fmt], inside)


@settings(max_examples=6, deadline=None)
@given(n=st.one_of(st.integers(2, 6), st.integers(2, cli.MAX_N)))
@example(n=cli.MAX_N)
@example(n=1)
@example(n=cli.MAX_N + 1)
def test_verify_forms_contract(n):
    # n in 2..24 passes in every format (n = 24 takes about 0.4 s, so the
    # draws are mostly small); n = 1 and n = 25 are one usage error line
    inside = 2 <= n <= cli.MAX_N
    for fmt in FORMATS:
        _assert_contract(["verify-forms", "--n", str(n), "--format", fmt], inside)


@settings(max_examples=6, deadline=None)
@given(n=st.one_of(st.integers(1, 8), st.integers(1, 1024)))
@example(n=1024)
@example(n=0)
@example(n=1025)
def test_contact_check_contract(n):
    # n in 1..1024 passes in every format; n = 0 and n = 1025 are one usage error line
    for fmt in FORMATS:
        _assert_contract(["contact-check", "--n", str(n), "--format", fmt], 1 <= n <= 1024)


@st.composite
def grid_specs(draw) -> tuple[str, bool]:
    """A LO:HI:COUNT spec and whether it lies in the documented domain.

    The drawn grid has stencil room: its levels lie on one side of t = 0, at
    least 1e-6 from it and 1e-4 inside the range's ends, or spread evenly
    across 0 with an even COUNT.  Then at most one flaw is put in: COUNT 0
    or 10,001, LO above HI, or a bound outside [-0.25, 100].
    """
    if draw(st.booleans()):
        a = draw(st.floats(1e-3, -T_LO - 1e-4))
        lo, hi, count = -a, a, 2 * draw(st.integers(1, 6))
    else:
        side = draw(st.sampled_from([(1e-6, T_HI - 1e-4), (T_LO + 1e-4, -1e-6)]))
        lo, hi = sorted(draw(st.tuples(st.floats(*side), st.floats(*side))))
        count = draw(st.integers(1, 12))
    flaw = draw(st.sampled_from([None, None, "count", "order", "range"]))
    if flaw == "count":
        count = draw(st.sampled_from([0, cli.MAX_GRID_COUNT + 1]))
    elif flaw == "order":
        lo, hi = math.nextafter(hi, math.inf), lo
    elif flaw == "range" and draw(st.booleans()):
        lo = draw(st.floats(-1e300, math.nextafter(T_LO, -math.inf)))
    elif flaw == "range":
        hi = draw(st.floats(math.nextafter(T_HI, math.inf), 1e300))
    return f"{lo!r}:{hi!r}:{count}", flaw is None


@settings(max_examples=12, deadline=None)
@given(spec=grid_specs())
@example(spec=("-0.2:0.2:4", True))
@example(spec=("0.1:0.2:0", False))
@example(spec=(f"0.1:0.2:{cli.MAX_GRID_COUNT + 1}", False))
@example(spec=("0.2:0.1:3", False))
@example(spec=("-0.3:-0.2:3", False))
@example(spec=("0.5:101:3", False))
def test_transport_grid_contract(spec):
    # a grid with stencil room passes in every format, spaced and with '=';
    # each flaw is one usage error line
    spec, inside = spec
    for fmt in FORMATS:
        for argv in (["transport", "--grid", spec], ["transport", f"--grid={spec}"]):
            _assert_contract(argv + ["--format", fmt], inside)


def test_transport_help_states_the_level_range(capsys):
    text = " ".join(run(capsys, "transport", "--help")[1].split())
    assert "T lies in [-0.25, 100.0] with |T| > 5e-13" in text
    assert "levels in [LO, HI], inside [-0.25, 100.0]" in text


def test_model_config_refuses_assignment():
    cfg = ModelConfig(n=3)
    with pytest.raises(AttributeError, match="read-only"):
        cfg.n = 4
    with pytest.raises(AttributeError):
        DEFAULT_CONFIG.ramp_hi = 0.9
    assert (cfg.n, DEFAULT_CONFIG.ramp_hi) == (3, 0.2)
    # copy and pickle still work: they go through the constructor
    assert repr(copy.copy(cfg)) == repr(pickle.loads(pickle.dumps(cfg))) == repr(cfg)
    assert cli._config_dict(cfg, k=1) == {
        "n": 3, "collar_width": 0.05, "ramp_lo": 0.1, "ramp_hi": 0.2,
        "disk1_radius": 0.5, "disk2_radius": 10.0, "k": 1}


def test_json_text_refuses_non_json_data():
    # a report is plain JSON data: a record object left in it is an error
    with pytest.raises(TypeError):
        cli._json_text({"config": DEFAULT_CONFIG})
    assert cli._json_text({"b": (1, 2.5), "a": None}) == (
        '{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n')


def test_transport_grid_count_is_bounded(capsys):
    # refused before linspace would try to build 1e11 levels
    code, out, err = run(capsys, "transport", "--grid=0.1:0.2:100000000000")
    assert code == 2
    assert out == ""
    assert "usage error" in err and str(cli.MAX_GRID_COUNT) in err
    assert run(capsys, "transport", f"--grid=0.1:0.2:{cli.MAX_GRID_COUNT + 1}")[0] == 2
    assert run(capsys, "transport", "--grid=0.1:0.2:0")[0] == 2
    assert len(cli._parse_grid(f"0.1:0.2:{cli.MAX_GRID_COUNT}")) == cli.MAX_GRID_COUNT
    assert run(capsys, "transport", "--help")[1].count(str(cli.MAX_GRID_COUNT)) == 1


def test_contact_check_n_stops_where_the_power_overflows(capsys):
    # f = c0 = 2 near r = 0, and 2.0 ** 1024 is the first power past a double
    assert run(capsys, "contact-check", "--n", "1024")[0] == 0
    code, out, err = run(capsys, "contact-check", "--n", "1025")
    assert code == 2
    assert out == ""
    assert "usage error" in err and "n = 1025" in err


def test_verification_failure_exits_1(capsys, monkeypatch):
    # constant chi collapses the distinctness gate
    monkeypatch.setattr(topo, "chi_filling", lambda *a, **k: 7)
    code, _, err = run(capsys, "fillings", "--k", "5")
    assert code == 1
    assert "FAIL" in err
    assert "not pairwise distinct" in err


def _through(owner, name, change):
    """A patch of owner.name that passes each of its results through change."""
    original = getattr(owner, name)
    return owner, name, lambda *a, **k: change(original(*a, **k))


def _drift_samples(trajectories):
    for traj in trajectories.values():
        traj.h_drift[1], traj.radial_residual[2] = 1.0, 2.0
    return trajectories


def _fail(report):
    return {**report, "passed": False}


# Each case fails gates of one suite: its argv, its patches (owner, name,
# value), the FAIL lines in the suite's gate order, and the table's last row.
GATE_FAILURES = {
    "identity": (["verify-forms"], [_through(models, "verify_identity", lambda r: (
        {**r, "verdict": "residual"} if r["identity"] == "HESSIAN" else r))],
        ["HESSIAN: residual"], "result FAIL"),
    "grid": (["verify-forms"], [_through(models, "positivity_grid",
                                         lambda g: {**g, "min_value": -1.0})],
             ["TOP_POWER grid minimum -1.0 is not positive"], "result FAIL"),
    "drifts": (["transport"], [_through(transport, "integrate", _drift_samples)],
               ["weighted h drift 1.0 above 1e-08", "weighted radial drift 2.0 above 1e-08",
                "unweighted h drift 1.0 above 1e-08"], "result FAIL"),
    "limits": (["transport"], [(transport, "limits_at_zero", lambda cfg, s0: (0.4, -0.7))],
               ["limit at 0+ = 0.4, expected 0.5 within 1e-3",
                "limit at 0- = -0.7, expected -0.5 within 1e-3"], "result FAIL"),
    "weight": (["fillings"], [(mcg.TwistWord, "weight", property(lambda self: 99))],
               ["weight != k+1 at ell in [1, 2, 3]"], "3 fillings, pairwise distinct"),
    # the trace of k + 2 takes one step more than k = 3 and its word chain
    "step-count": (["resolve"], [(blowup, "resolve_A", lambda k, dim, resolve=blowup.resolve_A:
                                  resolve(k + 2, dim))],
                   ["step count 3, expected ceil(k/2) = 2", "word chain length 2 != step count 3"],
                   "result FAIL"),
    "chain": (["resolve"], [(blowup, "resolution_word_chain", lambda k: [])],
              ["word chain length 0 != step count 2"], "result FAIL"),
    "contact": (["contact-check"], [
        _through(contact, "verify_profile", _fail),
        _through(contact, "make_corner_curve", lambda pair: (pair[0], _fail(pair[1]))),
        _through(contact, "verify_base_profile", _fail)],
        ["profile minimum 0.00088 at r=0.00011 is not positive",
         "corner curve bullet verification failed", "base profile verification failed"],
        "result FAIL"),
}


@pytest.mark.parametrize("name", GATE_FAILURES)
def test_each_failed_gate_gets_its_fail_line(capsys, monkeypatch, name):
    argv, patches, lines, last_row = GATE_FAILURES[name]
    for patch in patches:
        monkeypatch.setattr(*patch)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err == "".join(f"lbfkit: FAIL: {line}\n" for line in lines)
    assert json.loads(out)["passed"] is False
    code, out, err = run(capsys, *argv, "--format", "table")
    assert (code, err) == (1, "".join(f"lbfkit: FAIL: {line}\n" for line in lines))
    assert " ".join(out.splitlines()[-1].split()) == last_row


def test_out_file_and_timing_sidecar(capsys, tmp_path):
    target = tmp_path / "forms.json"
    code, out, _ = run(capsys, "verify-forms", "--out", str(target))
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["schema"] == "lbf-kit/1"
    sidecar = tmp_path / "forms.json.timing.json"
    timing = json.loads(sidecar.read_text())
    assert timing["schema"] == "lbf-kit/1-timing"
    assert timing["command"] == "verify-forms"
    assert timing["elapsed_ms"] > 0.0
    assert sorted(timing["identities_ms"]) == sorted(i.value for i in models.IdentityId)
    assert all(ms > 0.0 for ms in timing["identities_ms"].values())
    assert timing["top_power_grid_ms"] > 0.0
    assert '"ms"' not in target.read_text()        # wall clocks stay out of reports
    # contact-check and transport time each stage; their reports stay the golden bytes
    for command, stages in (("contact-check", ("profile", "corner", "base", "samples")),
                            ("transport", ("integrate", "profile", "limits"))):
        target = tmp_path / f"{command}.json"
        assert run(capsys, command, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == (GOLDEN / f"{command}.json").read_bytes()
        timing = json.loads((tmp_path / f"{command}.json.timing.json").read_text())
        assert sorted(timing) == sorted(["schema", "command", "elapsed_ms",
                                         *(f"{stage}_ms" for stage in stages)])
        assert all(timing[f"{stage}_ms"] > 0.0 for stage in stages)


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    # an existing directory, a path under a regular file, `all` into a
    # regular file, and a timing sidecar whose path is a directory
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept")
    (tmp_path / "r.json.timing.json").mkdir()
    cases = (
        (["fillings", "--out", str(tmp_path / "dir")], "lbfkit", tmp_path / "dir"),
        (["resolve", "--out", str(tmp_path / "file" / "x.json")], "lbfkit",
         tmp_path / "file" / "x.json"),
        (["all", "--out", str(tmp_path / "file")], "lbfkit all/verify-forms",
         tmp_path / "file" / "verify-forms.json"),
        (["resolve", "--out", str(tmp_path / "r.json")], "lbfkit",
         tmp_path / "r.json.timing.json"),
    )
    for argv, prefix, path in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"{prefix}: usage error: cannot write {path}: "), err
        assert len(err.splitlines()) == 1, err
    # no temporary file is left; the report written before its sidecar stays
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "dir", "file", "r.json", "r.json.timing.json"]
    assert (tmp_path / "file").read_text() == "kept"


def test_csv_out(capsys, tmp_path):
    target = tmp_path / "forms.csv"
    code, _, _ = run(capsys, "verify-forms", "--format", "csv",
                     "--out", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "identity,verdict"
    assert len(lines) == 10


def test_all_runs_every_suite(capsys, tmp_path):
    out_dir = tmp_path / "reports"
    out_dir.mkdir()
    code, _, err = run(capsys, "all", "--out", str(out_dir))
    assert code == 0
    assert err == ""
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "contact-check.json",
        "fillings.json",
        "resolve.json",
        "timing.json",
        "transport.json",
        "verify-forms.json",
    ]
    for name in names:
        json.loads((out_dir / name).read_text())     # every file is valid JSON


@pytest.mark.parametrize("fmt, suffix", [("json", ".json"), ("csv", ".csv"), ("table", ".txt")])
def test_all_writes_each_suite_at_its_defaults(capsys, tmp_path, fmt, suffix):
    # each file equals the suite run alone with its defaults, as pinned in tests/golden
    assert run(capsys, "all", "--out", str(tmp_path), "--format", fmt) == (0, "", "")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"{suite}{suffix}" for suite in cli.ALL_SUITES] + ["timing.json"])
    for suite in cli.ALL_SUITES:
        assert GOLDEN_RUNS[f"{suite}{suffix}"] == [suite, "--format", fmt]
        got = (tmp_path / f"{suite}{suffix}").read_bytes()
        assert got == (GOLDEN / f"{suite}{suffix}").read_bytes(), suite


def test_all_is_byte_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert run(capsys, "all", "--out", str(a))[0] == 0
    assert run(capsys, "all", "--out", str(b))[0] == 0
    for path in sorted(a.iterdir()):
        if path.name == "timing.json":
            continue                       # the one file allowed to differ
        assert path.read_bytes() == (b / path.name).read_bytes(), path.name


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_reports_match_the_golden_files(capsys, name):
    code, out, err = run(capsys, *GOLDEN_RUNS[name])
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_golden_files_are_all_checked():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(GOLDEN_RUNS)


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(lbfkit.__path__):
        module = importlib.import_module(f"lbfkit.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"lbfkit.{info.name}.{name}"


def test_every_module_is_named_in_the_package_docstring_and_readme():
    modules = sorted(info.name for info in pkgutil.iter_modules(lbfkit.__path__))
    layout = (Path(__file__).parents[1] / "README.md").read_text().split("## Layout")[1]
    layout = layout.split("```")[1]
    for name in modules:
        assert f"``{name}``" in lbfkit.__doc__, name
        assert f"\n  {name}.py " in layout, name


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "transport", "--help")[0] == 0


# The domain each subcommand's --help states for its options.
HELP_DOMAINS = {
    "verify-forms": ["--n N", "N runs from 2 to 24"],
    "transport": ["--t T", "T lies in [-0.25, 100.0] with |T| > 5e-13",
                  "--s0 S0", "S0 lies in (6.4e-07, 0.0021730357237588326]",
                  "--grid LO:HI:COUNT", "levels in [LO, HI], inside [-0.25, 100.0]",
                  "COUNT runs from 1 to 10000"],
    "fillings": ["--n N", "N is any integer >= 2", "--k K", "K runs from 1 to 1000",
                 "--include-zero"],
    "resolve": ["--k K", "K runs from 1 to 1000", "--dim DIM", "DIM runs from 0 to 100"],
    "contact-check": ["--n N", "N runs from 1 to 1024"],
    "all": ["--out DIR", "(required)"],
}


def test_help_lists_every_command_and_option(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert list(cli.COMMANDS) == list(HELP_DOMAINS)
    for name, (summary, _, _) in cli.COMMANDS.items():
        assert f"  {name} " in out and summary in out, name
    for command, domains in HELP_DOMAINS.items():
        code, out, err = run(capsys, command, "--help")
        assert (code, err) == (0, ""), command
        text = " ".join(out.split())
        for name, _, _, metavar, help_text, _ in cli.COMMANDS[command][2]:
            assert f"{name} {metavar or ''}".strip() in text, (command, name)
            assert " ".join(help_text.split()) in text, (command, name)
        for domain in domains + ["--format json|csv|table", "--out"]:
            assert domain in text, (command, domain)
        assert max(map(len, out.splitlines())) <= 79, command


# Each argv the option table refuses, with the text its one stderr line holds.
PARSER_REFUSALS = {
    "no-command": ([], "expected a command"),
    "unknown-command": (["verify"], "expected a command"),
    "unknown-option": (["fillings", "--kk", "3"], "unrecognized arguments: --kk 3"),
    "abbreviated-option": (["transport", "--gri=-0.2:0.2:4"],
                           "unrecognized arguments: --gri=-0.2:0.2:4"),
    "missing-value": (["resolve", "--k"], "--k needs a value"),
    "bad-int": (["fillings", "--k", "x"], "--k: invalid int value 'x'"),
    "bad-float": (["transport", "--t", "1/2"], "--t: invalid float value '1/2'"),
    "bad-format": (["contact-check", "--format", "xml"], "--format: invalid choice 'xml'"),
    "flag-with-value": (["fillings", "--include-zero=x"], "--include-zero takes no value"),
    "stray-token": (["resolve", "--k", "3", "4"], "unrecognized arguments: 4"),
    "all-without-out": (["all", "--format", "csv"], "all needs --out DIR"),
}


@pytest.fixture(scope="module")
def parser_refusals_fresh() -> dict[str, tuple[int, str, str]]:
    names = sorted(PARSER_REFUSALS)
    runs, _ = run_fresh([PARSER_REFUSALS[name][0] for name in names])
    return dict(zip(names, runs))


@pytest.mark.parametrize("name", sorted(PARSER_REFUSALS))
def test_parser_refusal_is_one_usage_error_line(capsys, parser_refusals_fresh, name):
    # in-process and in a fresh interpreter alike: exit 2, no stdout, and one
    # stderr line, with no usage block
    argv, reason = PARSER_REFUSALS[name]
    for code, out, err in (run(capsys, *argv), parser_refusals_fresh[name]):
        assert (code, out) == (2, ""), argv
        assert err.startswith("lbfkit: usage error: ") and reason in err, err
        assert len(err.splitlines()) == 1, err


# Runs argv lists, given as a Python literal, through cli.main in one fresh
# interpreter and prints, as json, each run's [exit code, stdout, stderr] and
# then the modules loaded before the probe imports json to print them.  With
# "block-numpy" first, every import of numpy raises ImportError.
FRESH_PROBE = """
import ast, contextlib, io, sys
if sys.argv[1] == "block-numpy":
    sys.modules["numpy"] = None
from lbfkit import cli
runs = []
for argv in ast.literal_eval(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        runs.append([cli.main(argv), out.getvalue(), err.getvalue()])
modules = sorted(sys.modules)
import json
print(json.dumps([runs, modules]))
"""


def run_fresh(argvs: list[list[str]], block_numpy: bool = False, no_site: bool = False,
              **env: str) -> tuple[list[tuple[int, str, str]], list[str]]:
    """Each argv's (exit code, stdout, stderr) from one fresh interpreter, and its modules.

    With ``no_site`` the interpreter runs under -S, so no ``site`` preload
    (a .pth file's imports) hides a module that lbfkit itself loads.
    """
    env = {**os.environ, **env,
           "PYTHONPATH": str(Path(lbfkit.__file__).resolve().parents[1])}
    mode = "block-numpy" if block_numpy else "numpy"
    flags = ["-S"] if no_site else []
    out = subprocess.run([sys.executable, *flags, "-c", FRESH_PROBE, mode, repr(argvs)],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=300).stdout
    runs, modules = json.loads(out)
    return [tuple(r) for r in runs], modules


def test_contact_check_runs_without_numpy(capsys):
    argvs = [["contact-check", "--n", n, "--format", fmt]
             for n in ("1", "7", "1024") for fmt in FORMATS]
    runs, modules = run_fresh(argvs + [["contact-check", "--n", "1025"]], block_numpy=True)
    assert not [m for m in modules if m.startswith("numpy.")]
    for argv, got in zip(argvs, runs):
        assert got == run(capsys, *argv), argv
        assert got[0] == 0, argv
    code, out, err = runs[-1]
    assert (code, out) == (2, "")
    assert err == "lbfkit: usage error: n = 1025 overflows f^(n-1) (f g' - f' g) in floating point\n"


@pytest.fixture(scope="module")
def golden_runs_without_numpy() -> dict[str, tuple[int, str, str]]:
    names = sorted(GOLDEN_RUNS)
    runs, _ = run_fresh([GOLDEN_RUNS[name] for name in names], block_numpy=True)
    return dict(zip(names, runs))


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_files_match_without_avx512(golden_runs_without_numpy, name):
    # numpy's AVX-512 power loop rounds differently from its other loops, so
    # no report may pass through numpy: rerun in a process where importing
    # numpy fails, every report still matches its file
    code, out, err = golden_runs_without_numpy[name]
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / name).read_bytes()


# Per run: its argv, the layers it may load besides cli and config, and
# whether it renders json (and so loads json); OUT stands for a fresh directory.
IMPORT_RUNS = {
    "help": (["--help"], set(), False),
    "transport-help": (["transport", "--help"], set(), False),
    "all": (["all", "--out", "OUT"],
            {"models", "exterior", "poly", "transport", "mcg", "topo", "blowup", "contact"},
            True),
    "fillings": (["fillings"], {"mcg", "topo"}, True),
    "fillings-csv": (["fillings", "--format", "csv"], {"mcg", "topo"}, False),
    "resolve": (["resolve"], {"blowup", "mcg", "poly"}, True),
    "transport": (["transport"], {"transport"}, True),
    "verify-forms": (["verify-forms"], {"models", "exterior", "poly"}, True),
    "contact-check": (["contact-check"], {"contact"}, True),
    "contact-check-table": (["contact-check", "--format", "table"], {"contact"}, False),
}


@pytest.mark.parametrize("name", sorted(IMPORT_RUNS))
def test_subcommand_loads_only_its_layers(name, tmp_path):
    argv, layers, renders_json = IMPORT_RUNS[name]
    ((code, _, _),), modules = run_fresh([[str(tmp_path) if a == "OUT" else a for a in argv]])
    assert code == 0
    assert {m for m in modules if m.startswith("lbfkit.")} == {
        f"lbfkit.{m}" for m in ("cli", "config", *layers)}
    assert not [m for m in modules if m.split(".")[0] in (
        "numpy", "scipy", "dataclasses", "argparse", "gettext")]
    assert ("json" in modules) == renders_json


@pytest.mark.parametrize("name", sorted(IMPORT_RUNS))
def test_no_run_loads_typing_on_a_clean_interpreter(name, tmp_path):
    argv = [str(tmp_path) if a == "OUT" else a for a in IMPORT_RUNS[name][0]]
    ((code, _, _),), modules = run_fresh([argv], no_site=True)
    assert code == 0
    assert "typing" not in modules
