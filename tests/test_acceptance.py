"""Acceptance suite: one test and one [PASS]/[FAIL] line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Every tolerance here is the contractual one; nothing is
loosened for convenience.
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import make_algebras, random_form, random_homogeneous, random_tangent
from lbfkit import cli, mcg, models, topo
from lbfkit.blowup import (
    MultiPoly,
    milnor_word,
    resolution_word_chain,
    resolve_A,
)
from lbfkit.config import DEFAULT_CONFIG, ModelConfig
from lbfkit.contact import make_profile, verify_profile
from lbfkit.exterior import ScalarExpr, ext_d, interior, wedge
from lbfkit.transport import (
    integrate,
    limits_at_zero,
    monodromy_profile,
)
from reference import aa_count, closed_form, monomial, substitution_chain


def _finish(label: str, failures: list[str]) -> None:
    print(f"[{'FAIL' if failures else 'PASS'}] {label}")
    assert not failures, f"{label}: " + "; ".join(failures[:5])


def test_criterion_1_symbolic_identities():
    started = time.perf_counter()
    failures: list[str] = []
    for n in (2, 3, 4, 5):
        for identity in models.IdentityId:
            rep = models.verify_identity(identity, ModelConfig(n=n))
            if rep["verdict"] != "exact-equal":
                failures.append(f"n={n} {rep['identity']}: {rep['verdict']}")
    # the top-power coefficient, rebuilt from scratch in the atoms
    r1, r2 = ScalarExpr.atom("r1"), ScalarExpr.atom("r2")
    f, up = ScalarExpr.atom("f"), ScalarExpr.atom("up")
    one = ScalarExpr.const(1)
    for n in (2, 3, 4, 5):
        base = one - r1 ** 2 + r2 ** 2 * (one - f * r1 ** 2)
        tail = r1 ** 2 * r2 ** 2 * up + f * r2 ** 2 + one
        if models.top_power_coefficient(n) != base ** (n - 1) * tail * (n * (n + 1)):
            failures.append(f"top-power coefficient mismatch at n={n}")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _finish(
        "criterion 1: nine identities exact-equal for n in 2..5, "
        f"top-power and contact-volume coefficients verified ({elapsed:.2f}s < 30s)",
        failures,
    )


def test_criterion_2_positivity():
    failures: list[str] = []
    grid = models.positivity_grid(DEFAULT_CONFIG)
    if grid["resolution"] != 200:
        failures.append(f"grid resolution {grid['resolution']} != 200")
    if not grid["min_value"] > 0.0:
        failures.append(f"top-power grid minimum {grid['min_value']} not positive")
    profile = make_profile()
    for n in range(1, 7):
        rep = verify_profile(profile, n=n)
        if not rep["min_value"] > 0.0:
            failures.append(f"contact determinant minimum {rep['min_value']} at n={n}")
    _finish(
        "criterion 2: top-power 200x200 grid and contact determinant "
        "positive for n in 1..6",
        failures,
    )


def test_criterion_3_transport():
    started = time.perf_counter()
    failures: list[str] = []
    s0 = 1e-3
    cfg = DEFAULT_CONFIG

    plus, minus = limits_at_zero(cfg, s0)
    if abs(plus - 0.5) > 1e-3:
        failures.append(f"limit at 0+ is {plus}, not 1/2 within 1e-3")
    if abs(minus + 0.5) > 1e-3:
        failures.append(f"limit at 0- is {minus}, not -1/2 within 1e-3")

    drift_ts = [float(t) for t in np.linspace(-0.16, 0.16, 9) if t != 0.0]
    drift_ts += [1.0, 5.0, 25.0, 60.0, 99.0, -0.24, -0.235, -0.23]
    for t in drift_ts:
        audit = integrate(cfg, t, s0)["weighted"]
        if audit["max_h_drift"] >= 1e-8:
            failures.append(f"h drift {audit['max_h_drift']} at t={t}")
        if audit["max_radial_drift"] >= 1e-8:
            failures.append(f"radial drift {audit['max_radial_drift']} at t={t}")

    # 50 (s, t) pairs against the corrected closed form; the wide-collar
    # configuration keeps the whole arc inside the small-t regime
    wide = ModelConfig(collar_width=0.32, ramp_lo=0.5, ramp_hi=0.7, disk1_radius=0.9)
    pairs = 0
    for s in np.linspace(5e-4, 0.05, 10):
        for t in (-0.02, -0.008, 0.002, 0.008, 0.02):
            ref = closed_form("small_t", float(s), float(t), wide)
            got = integrate(wide, float(t), float(s))["weighted"]["endpoint"]
            rel = math.hypot(ref[0] - got[0], ref[1] - got[1]) / math.hypot(*ref)
            if rel >= 1e-6:
                failures.append(f"closed form off by {rel} at (s={s}, t={t})")
            pairs += 1
    if pairs != 50:
        failures.append(f"expected 50 pairs, ran {pairs}")

    for t in (-0.24, -0.235, -0.23):
        r2 = integrate(cfg, t, s0)["weighted"]["endpoint"][1]
        if abs(r2 - s0) > 1e-6:
            failures.append(f"mu=1 region: r2(s0, {t}) = {r2}, not s0")

    # outer regime, sampled from t = 1 up to 99
    dense = monodromy_profile(cfg, s0, np.linspace(1.0, 99.0, 50))
    if not all(d > 0.0 for d in dense["dR"]):
        failures.append("outer profile derivative not positive everywhere")
    coarse = monodromy_profile(cfg, s0, np.geomspace(1.0, 99.0, 25))
    if not np.all(np.diff(coarse["dR"]) < 0.0):
        failures.append("outer profile derivative not decaying")

    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _finish(
        "criterion 3: limits +-1/2, drifts < 1e-8, closed form on 50 pairs, "
        f"mu=1 region, outer decay ({elapsed:.2f}s < 60s)",
        failures,
    )


def test_criterion_4_fillings_table():
    failures: list[str] = []
    for n in range(2, 7):
        for k in range(1, 13):
            words = mcg.enumerate_fillings(k, include_zero=False)
            if len(words) != -(-k // 2):
                failures.append(f"n={n} k={k}: {len(words)} words")
            if any(mcg.weight(w) != k + 1 for w in words):
                failures.append(f"n={n} k={k}: weight != k+1")
            rep = topo.distinctness_report(n, k)
            chis = [row[1] for row in rep["rows"]]
            if len(set(chis)) != len(chis):
                failures.append(f"n={n} k={k}: oracle column not distinct")
            slope = topo.filling_slope(n, "betti")
            if any(c != chis[0] + slope * i for i, c in enumerate(chis)):
                failures.append(f"n={n} k={k}: oracle column not affine")
            if chis[0] != topo.milnor_fiber_chi(n, k):
                failures.append(f"n={n} k={k}: l=0 chi != Milnor oracle")
            for ell, betti, alt, differs in rep["rows"]:
                if differs != (betti != alt):
                    failures.append(f"n={n} k={k} l={ell}: bad discrepancy flag")
    _finish(
        "criterion 4: ceil(k/2) words of weight k+1, distinct affine chi "
        "column with exact Milnor value, flags on the alternate column",
        failures,
    )


def test_criterion_5_resolution():
    failures: list[str] = []
    for k in range(1, 16):
        for n in range(0, 5):
            steps = resolve_A(k, n)
            if len(steps) != -(-k // 2):
                failures.append(f"k={k} n={n}: {len(steps)} steps")
                continue
            nv, last = n + 2, n + 1
            # y_last^(k-1) is the constant 1 when k = 1
            expect = {monomial({i: 2}): 1 for i in range(last)}
            expect[monomial({last: k - 1})] = 1
            if steps[0].polynomial != MultiPoly(nv, expect):
                failures.append(f"k={k} n={n}: step-1 transform off normal form")
            for j, step in enumerate(steps, start=1):
                m = k - 2 * j
                want = f"AType({m})" if m >= 1 else "Smooth"
                if str(step.verdict) != want:
                    failures.append(f"k={k} n={n} step {j}: {step.verdict}")
    for k in range(1, 16):
        mirrored = resolution_word_chain(k)
        filling = mcg.enumerate_fillings(k, include_zero=False)[-1]
        direct = substitution_chain(milnor_word(k), filling)
        if mirrored != direct:
            failures.append(f"k={k}: word chain differs from the mcg chain")
    _finish(
        "criterion 5: ceil(k/2)-step resolutions with literal first "
        "transform, A-type ladder, and matching word chains",
        failures,
    )


def test_criterion_6_relation_constants(rng):
    failures: list[str] = []
    for n in range(0, 11):
        if aa_count(2, n) != 2:
            failures.append(f"aa_count(2, {n}) != 2")
    if aa_count(3, 2) != 12:
        failures.append("aa_count(3, 2) != 12")

    word = mcg.SPHERE * 20
    applied = 0
    for _ in range(10_000):
        moves = [
            (i, "contract")
            for i in range(len(word) - 1)
            if word[i] == mcg.SPHERE and word[i + 1] == mcg.SPHERE
        ]
        moves += [
            (i, "expand") for i in range(len(word))
            if word[i] == mcg.BOUNDARY
        ]
        pos, direction = rng.choice(moves)
        word = mcg.substitute(word, pos, direction)
        applied += 1
        if mcg.weight(word) != 20:
            failures.append(f"weight drifted to {mcg.weight(word)} after {applied} moves")
            break
    if applied != 10_000:
        failures.append(f"only {applied} substitutions applied")
    _finish(
        "criterion 6: aa_count constants and weight invariance over "
        "10^4 randomized substitutions",
        failures,
    )


def test_criterion_7_engine_laws(rng):
    failures: list[str] = []
    all_algebras = make_algebras(2) | {k + "3": a for k, a in make_algebras(3).items()}
    named = list(make_algebras(2).items())

    for i in range(1000):
        alg = rng.choice(list(all_algebras.values()))
        if not ext_d(ext_d(random_form(alg, rng))).is_zero():
            failures.append(f"d^2 != 0 at iteration {i}")
            break

    for i in range(1000):
        _, alg = rng.choice(named)
        a, b = random_homogeneous(alg, rng), random_homogeneous(alg, rng)
        da = next(iter(a.degrees()), 0)
        db = next(iter(b.degrees()), 0)
        if wedge(a, b) != wedge(b, a).scale((-1) ** (da * db)):
            failures.append(f"graded commutativity broke at iteration {i}")
            break

    for i in range(1000):
        alg = rng.choice(list(all_algebras.values()))
        a, b, c = (random_form(alg, rng, 2) for _ in range(3))
        if wedge(wedge(a, b), c) != wedge(a, wedge(b, c)):
            failures.append(f"associativity broke at iteration {i}")
            break

    for i in range(1000):
        kind, alg = rng.choice(named)
        v = random_tangent(alg, kind, rng)
        a = random_homogeneous(alg, rng)
        b = random_form(alg, rng, 2)
        sign = (-1) ** next(iter(a.degrees()), 0)
        lhs = interior(v, wedge(a, b))
        rhs = wedge(interior(v, a), b) + wedge(a, interior(v, b)).scale(sign)
        if lhs != rhs:
            failures.append(f"interior derivation law broke at iteration {i}")
            break

    _finish(
        "criterion 7: d^2, graded commutativity, associativity, interior "
        "derivation on 1000 randomized inputs each",
        failures,
    )


def test_criterion_8_determinism(tmp_path, capsys):
    failures: list[str] = []
    dirs = (tmp_path / "first", tmp_path / "second")
    for d in dirs:
        d.mkdir()
        code = cli.main(["all", "--out", str(d)])
        capsys.readouterr()
        if code != 0:
            failures.append(f"all run into {d.name} exited {code}")
    if not failures:
        names = sorted(p.name for p in dirs[0].iterdir())
        for name in names:
            if name == "timing.json" or name.endswith(".timing.json"):
                continue
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                failures.append(f"{name} differs between runs")
    _finish(
        "criterion 8: two consecutive `all` runs byte-identical "
        "(timing sidecars excluded)",
        failures,
    )
