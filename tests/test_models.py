"""The nine form identities and their grid positivity companions."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lbfkit import contact, models
from lbfkit.cli import MAX_N
from lbfkit.config import DEFAULT_CONFIG, ModelConfig, linspace
from lbfkit.exterior import Form, ScalarExpr, wedge
from lbfkit.models import IdentityId
from reference import substitute


@pytest.mark.parametrize("n", [2, 3])
def test_all_nine_identities_exact(n):
    reports = [models.verify_identity(identity, ModelConfig(n=n)) for identity in IdentityId]
    assert len(reports) == 9
    for report in reports:
        assert report["verdict"] == "exact-equal", f"{report['identity']}: {report['residual_text']}"


def test_identity_count_matches_enum():
    assert len(IdentityId) == 9


# What verify-forms reports once two model forms are broken: omega1_tilde
# gains r2 dr1^dtheta1 and beta's lam coefficient fc becomes fc + r.  The
# identities that read neither form stay exact; the texts are the
# engine's normal form, pinned literally.
MUTANT_RESIDUALS = {
    (IdentityId.TOP_POWER, 2): (
        "(-12*f*r1^2*r2^4 + -12*r1^2*r2^2 + 12*r2^2 + 12*r2^4) * "
        "dr1^dtheta1^dr2^dtheta2^dalpha + (-12*f*r1^2*r2^2 + -24*f*r1^2*r2^4 + 12*f*r1^4*r2^2"
        " + 12*f*r1^4*r2^6*up + 12*f^2*r1^4*r2^4 + -12*r1^2*r2^2 + -12*r1^2*r2^4*up + "
        "-12*r1^2*r2^6*up + 12*r1^4*r2^4*up + 12*r2^2 + 12*r2^4) * "
        "dr1^dtheta1^dr2^alpha^dalpha"
    ),
    (IdentityId.OMEGA1_KERNEL, 2): "(-1*r2) * dr1",
    (IdentityId.MOSER_DIFF, 2): "(-1*r2) * dr1^dtheta1",
    (IdentityId.VERTICAL_SPLIT, 2): (
        "(2*mu*mup*r2^3) * dr1 + (2*f*r1^2*r2^2 + 2*r1^2*r2^4*up + -2*r2^2) * dtheta2"
    ),
    (IdentityId.CONTACT_VOLUME, 2): (
        "(-2*fc*gc + 4*fc*gcp*r + -2*fcp*gc*r + -2*gc*r + 2*gcp*r^2) * dr^dphi^lam^dlam"
    ),
    (IdentityId.TOP_POWER, 3): (
        "(-48*f*r1^2*r2^4 + -48*f*r1^2*r2^6 + 48*f*r1^4*r2^4 + 24*f^2*r1^4*r2^6 + "
        "-48*r1^2*r2^2 + -48*r1^2*r2^4 + 24*r1^4*r2^2 + 24*r2^2 + 48*r2^4 + 24*r2^6) * "
        "dr1^dtheta1^dr2^dtheta2^dalpha^dalpha + (-24*f*r1^2*r2^2 + -96*f*r1^2*r2^4 + "
        "-72*f*r1^2*r2^6 + 48*f*r1^4*r2^2 + 96*f*r1^4*r2^4 + 48*f*r1^4*r2^6*up + "
        "48*f*r1^4*r2^8*up + -24*f*r1^6*r2^2 + -48*f*r1^6*r2^6*up + 48*f^2*r1^4*r2^4 + "
        "72*f^2*r1^4*r2^6 + -48*f^2*r1^6*r2^4 + -24*f^2*r1^6*r2^8*up + -24*f^3*r1^6*r2^6 + "
        "-48*r1^2*r2^2 + -48*r1^2*r2^4 + -24*r1^2*r2^4*up + -48*r1^2*r2^6*up + "
        "-24*r1^2*r2^8*up + 24*r1^4*r2^2 + 48*r1^4*r2^4*up + 48*r1^4*r2^6*up + "
        "-24*r1^6*r2^4*up + 24*r2^2 + 48*r2^4 + 24*r2^6) * "
        "dr1^dtheta1^dr2^alpha^dalpha^dalpha"
    ),
    (IdentityId.OMEGA1_KERNEL, 3): "(-1*r2) * dr1",
    (IdentityId.MOSER_DIFF, 3): "(-1*r2) * dr1^dtheta1",
    (IdentityId.VERTICAL_SPLIT, 3): (
        "(2*mu*mup*r2^3) * dr1 + (2*f*r1^2*r2^2 + 2*r1^2*r2^4*up + -2*r2^2) * dtheta2"
    ),
    (IdentityId.CONTACT_VOLUME, 3): (
        "(-6*fc*fcp*gc*r + -6*fc*gc*r + 9*fc*gcp*r^2 + -3*fc^2*gc + 9*fc^2*gcp*r + "
        "-3*fcp*gc*r^2 + -3*gc*r^2 + 3*gcp*r^3) * dr^dphi^lam^dlam^dlam"
    ),
}


def _mutant_build_form(build_form):
    def build(name, cfg):
        form = build_form(name, cfg)
        A = form.algebra
        if name == "omega1_tilde":
            return form + wedge(Form.gen(A, "dr1", ScalarExpr.atom("r2")), Form.gen(A, "dtheta1"))
        if name == "beta":
            return form + Form.gen(A, "lam", ScalarExpr.atom("r"))
        return form
    return build


@pytest.mark.parametrize("n", [2, 3])
def test_broken_forms_report_their_exact_residuals(n, monkeypatch):
    monkeypatch.setattr(models, "build_form", _mutant_build_form(models.build_form))
    for identity in IdentityId:
        report = models.verify_identity(identity, ModelConfig(n=n))
        identity = IdentityId(report["identity"])
        expected = MUTANT_RESIDUALS.get((identity, n), "0")
        assert report["verdict"] == ("exact-equal" if expected == "0" else "residual"), identity
        assert report["residual_text"] == expected, identity


def test_top_power_coefficient_matches_displayed_formula():
    # n (n+1) (1 - r1^2 + r2^2 (1 - f r1^2))^(n-1) (r1^2 r2^2 u' + f r2^2 + 1)
    r1, r2 = ScalarExpr.atom("r1"), ScalarExpr.atom("r2")
    f, up = ScalarExpr.atom("f"), ScalarExpr.atom("up")
    one = ScalarExpr.const(1)
    for n in (2, 3, 4):
        base = one - r1 ** 2 + r2 ** 2 * (one - f * r1 ** 2)
        tail = r1 ** 2 * r2 ** 2 * up + f * r2 ** 2 + one
        expected = base ** (n - 1) * tail * (n * (n + 1))
        assert models.top_power_coefficient(n) == expected


def test_build_form_rejects_unknown_name():
    for name in ("omega9", "h", "lambda_nu"):
        with pytest.raises(ValueError, match="unknown model form"):
            models.build_form(name, DEFAULT_CONFIG)


def test_h_is_the_fiber_level_function():
    # the h that VERTICAL_SPLIT checks
    coeff = models._fiber_value()
    half, tenth = Fraction(1, 2), Fraction(1, 10)
    for r1, r2, f in [(0, half, 0), (tenth, 3 * tenth, Fraction(1, 3)), (3 * tenth, 0, 1),
                      (half, 7, Fraction(2, 3))]:
        value = substitute(coeff, {"r1": r1, "r2": r2, "f": f})
        assert value == ScalarExpr.const(-r1 ** 2 + r2 ** 2 - f * r1 ** 2 * r2 ** 2)


def test_top_power_grid_positive_at_default_resolution():
    result = models.positivity_grid(DEFAULT_CONFIG)
    assert result["resolution"] == 200
    assert result["min_value"] > 0.0
    r1_min, r2_min = result["argmin"]
    assert 0.0 <= r1_min <= 0.45 + 1e-12
    assert 0.0 <= r2_min <= 10.0 + 1e-12


def test_top_power_grid_minimum_is_the_exact_bound():
    # On the window base >= 1 - r1^2 and last >= 1, both with equality at
    # (r1max, 0), so the minimum is n(n+1)(1 - r1max^2)^(n-1) exactly.
    r1max = 0.9 * DEFAULT_CONFIG.disk1_radius
    for n in range(2, MAX_N + 1):
        result = models.positivity_grid(ModelConfig(n=n))
        exact = n * (n + 1) * (1 - Fraction(r1max) ** 2) ** (n - 1)
        assert abs(Fraction(result["min_value"]) - exact) <= 4 * math.ulp(exact), n
        assert result["argmin"] == (0.45, 0.0)


def _numpy_grid(cfg: ModelConfig) -> dict:
    """The positivity grid evaluated on broadcast numpy arrays, as a reference.

    The r1 axis runs down the rows and the r2 axis across the columns; the
    ramp is the clamped quintic of ``config.smoothstep_and_slope``, written
    out on arrays, and the coefficient is ``models._top_power`` on arrays.
    """
    r1 = np.linspace(0.0, 0.9 * cfg.disk1_radius, models.GRID_RESOLUTION)
    r2 = np.linspace(0.0, cfg.disk2_radius, models.GRID_RESOLUTION)
    col, row = r1[:, None], r2[None, :]
    width = cfg.ramp_hi - cfg.ramp_lo
    x = ((col * col + row * row - cfg.ramp_lo) / width).clip(0.0, 1.0)
    f = (x * x * x * (x * (6.0 * x - 15.0) + 10.0)).clip(None, 1.0)
    up = 30.0 * x * x * (x - 1.0) * (x - 1.0) / width
    values = models._top_power(cfg.n, col, row, f, up, 1.0)
    i, j = np.unravel_index(int(np.argmin(values)), values.shape)
    return {"min_value": float(values[i, j]), "argmin": (float(r1[i]), float(r2[j])),
            "resolution": models.GRID_RESOLUTION}


@pytest.mark.parametrize("n", range(2, MAX_N + 1))
def test_top_power_grid_equals_a_numpy_reference(n):
    cfg = ModelConfig(n=n)
    got, ref = models.positivity_grid(cfg), _numpy_grid(cfg)
    assert got["min_value"].hex() == ref["min_value"].hex()
    assert got == ref


@st.composite
def grid_configs(draw) -> ModelConfig:
    """Configurations the constructor accepts, at any n the command line
    takes, with disk2_radius log-uniform from 1e-3 to 1e154."""
    unit = st.floats(min_value=1e-3, max_value=0.999)
    collar, lo, hi = sorted(draw(st.lists(unit, min_size=3, max_size=3, unique=True)))
    disk1 = draw(st.floats(min_value=min(1.5 * collar, 0.999), max_value=1.0,
                           exclude_max=True))
    disk2 = 10.0 ** draw(st.floats(min_value=-3.0, max_value=154.0))
    try:
        return ModelConfig(n=draw(st.integers(min_value=2, max_value=MAX_N)),
                           collar_width=collar, ramp_lo=lo, ramp_hi=hi,
                           disk1_radius=disk1, disk2_radius=disk2)
    except ValueError:
        assume(False)


# One grid point, (0.0995..., 0.49), lies so close under ramp_hi that f
# rounds to 1.0 while u' > 0: the row goes on past it.
RAMP_EDGE = ModelConfig(ramp_hi=0.25 + 1e-8, disk2_radius=1.99)


class _Point(NamedTuple):
    r1: float
    r2: float
    x: float                      # the ramp's clamp argument (sq - ramp_lo) / w
    ramp: tuple[float, float]     # (f, u') from ramp_and_slope
    value: float

    @property
    def clamped(self) -> bool:
        return self.ramp == (1.0, 0.0)


def _full_rows(cfg: ModelConfig) -> list[list[_Point]]:
    """Every grid row, over the whole r2 axis."""
    width = cfg.ramp_hi - cfg.ramp_lo
    r2_axis = linspace(0.0, cfg.disk2_radius, models.GRID_RESOLUTION)
    rows = []
    for r1 in linspace(0.0, 0.9 * cfg.disk1_radius, models.GRID_RESOLUTION):
        row = []
        for r2 in r2_axis:
            sq = r1 * r1 + r2 * r2
            f, up = cfg.ramp_and_slope(sq)
            value = models._top_power(cfg.n, r1, r2, f, up, 1.0)
            row.append(_Point(r1, r2, (sq - cfg.ramp_lo) / width, (f, up), value))
        rows.append(row)
    return rows


def _assert_clamp_lemma(cfg: ModelConfig) -> None:
    """What ``positivity_grid`` stops a row on: (f, u') is exactly (1.0, 0.0)
    where the clamp argument is >= 1 and nowhere else, and the values from
    the first such point to the end of the row never decrease."""
    for row in _full_rows(cfg):
        clamped = [point.clamped for point in row]
        assert clamped == [point.x >= 1.0 for point in row]
        if any(clamped):
            tail = [point.value for point in row[clamped.index(True):]]
            assert all(a <= b for a, b in zip(tail, tail[1:])), row[0].r1


@pytest.mark.parametrize("n", range(2, MAX_N + 1))
def test_clamped_row_tail_is_nondecreasing(n):
    _assert_clamp_lemma(ModelConfig(n=n))


@settings(max_examples=25, deadline=None)
@given(cfg=grid_configs())
@example(cfg=RAMP_EDGE)
@example(cfg=ModelConfig(n=MAX_N, disk2_radius=1e154))
def test_clamped_row_tail_is_nondecreasing_on_drawn_configs(cfg):
    _assert_clamp_lemma(cfg)


def _assert_visits_row_prefixes(cfg: ModelConfig, monkeypatch) -> int:
    """Each row is evaluated up to and including its first clamped point,
    and the result is the first minimum over those points; returns the
    number of points evaluated."""
    expected = []
    for row in _full_rows(cfg):
        stop = next((j for j, point in enumerate(row) if point.clamped), len(row) - 1)
        expected += [(point.r1, point.r2, point.value) for point in row[:stop + 1]]

    visited = []
    top_power = models._top_power

    def record(n, r1, r2, f, up, one):
        value = top_power(n, r1, r2, f, up, one)
        visited.append((r1, r2, value))
        return value

    monkeypatch.setattr(models, "_top_power", record)
    result = models.positivity_grid(cfg)
    assert visited == expected
    best = visited[0]
    for point in visited:
        if point[2] < best[2]:
            best = point
    assert result == {"min_value": best[2], "argmin": best[:2],
                      "resolution": models.GRID_RESOLUTION}
    return len(visited)


@pytest.mark.parametrize("n", range(2, MAX_N + 1))
def test_positivity_grid_visits_each_row_up_to_its_first_clamped_point(n, monkeypatch):
    assert _assert_visits_row_prefixes(ModelConfig(n=n), monkeypatch) == 1673


def test_positivity_grid_does_not_stop_where_f_only_rounds_to_one(monkeypatch):
    assert any(point.ramp[0] == 1.0 and point.ramp[1] > 0.0
               for row in _full_rows(RAMP_EDGE) for point in row)
    _assert_visits_row_prefixes(RAMP_EDGE, monkeypatch)


@settings(max_examples=40, deadline=None)
@given(cfg=grid_configs())
@example(cfg=ModelConfig(disk1_radius=0.4, disk2_radius=0.1))          # no row clamps
@example(cfg=ModelConfig(ramp_lo=0.06, ramp_hi=0.5, disk1_radius=0.9))  # rows start in the ramp
@example(cfg=ModelConfig(n=5, disk2_radius=1e100))                      # power is inf in the tail
@example(cfg=RAMP_EDGE)
def test_positivity_grid_equals_the_numpy_full_scan(cfg):
    got = models.positivity_grid(cfg)
    with np.errstate(over="ignore"):
        ref = _numpy_grid(cfg)
    assert got["min_value"].hex() == ref["min_value"].hex()
    assert got == ref


def test_contact_volume_grid_positive():
    result = contact.verify_profile(contact.make_profile(), n=2)
    assert result["min_value"] > 0.0


@pytest.mark.parametrize("n", [8, 12, 16])
def test_top_power_and_contact_volume_exact_at_large_n(n):
    cfg = ModelConfig(n=n)
    for identity in (IdentityId.TOP_POWER, IdentityId.CONTACT_VOLUME):
        report = models.verify_identity(identity, cfg)
        assert report["verdict"] == "exact-equal", (n, identity, report["residual_text"][:200])
