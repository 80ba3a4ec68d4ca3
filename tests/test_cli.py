"""End-to-end CLI runs: exit codes, formats, determinism, file emission."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lbfkit
from lbfkit import cli, models, topo

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
    assert run(capsys, "transport", "--s0", "1")[0] == 2          # beyond collar_width/4
    assert run(capsys, "transport", "--grid=5e-8:6e-8:2")[0] == 2  # stencil step under 1e-8
    # non-finite grid bounds are refused before np.linspace sees them
    for spec in ("--grid=-inf:inf:2", "--grid=nan:nan:1"):
        code, out, err = run(capsys, "transport", spec)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and "finite" in err, err


def test_other_exceptions_are_internal_failures(capsys, monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise ValueError("not a domain error")

    monkeypatch.setattr(models, "verify_all", broken)
    code, out, err = run(capsys, "verify-forms")
    assert (code, out) == (3, "")
    assert err == "lbfkit: internal failure: not a domain error\n"
    code, _, err = run(capsys, "all", "--out", str(tmp_path))
    assert code == 3
    assert err == "lbfkit all/verify-forms: internal failure: not a domain error\n"
    assert list(tmp_path.iterdir()) == []


def test_transport_grid_count_is_bounded(capsys):
    # refused before np.linspace would try to allocate 800 GB
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


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "transport", "--help")[0] == 0


def test_cli_import_loads_no_scipy():
    src = str(Path(lbfkit.__file__).resolve().parents[1])
    probe = "import sys, lbfkit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"
