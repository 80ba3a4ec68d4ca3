"""The nine form identities and their grid positivity companions."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from lbfkit import contact, models
from lbfkit.cli import MAX_N
from lbfkit.config import DEFAULT_CONFIG, ModelConfig
from lbfkit.exterior import ScalarExpr
from lbfkit.models import IdentityId


@pytest.mark.parametrize("n", [2, 3])
def test_all_nine_identities_exact(n):
    reports = models.verify_all(ModelConfig(n=n))
    assert len(reports) == 9
    for report in reports:
        assert report.passed, f"{report.identity}: {report.residual_text}"
        assert report.verdict == "exact-equal"


def test_identity_count_matches_enum():
    assert len(IdentityId) == 9


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
    with pytest.raises(ValueError, match="unknown model form"):
        models.build_form("omega9")


def test_h_is_the_fiber_level_function():
    h = models.build_form("h")
    (coeff,) = h.terms.values()
    half, tenth = Fraction(1, 2), Fraction(1, 10)
    for r1, r2, f in [(0, half, 0), (tenth, 3 * tenth, Fraction(1, 3)), (3 * tenth, 0, 1),
                      (half, 7, Fraction(2, 3))]:
        value = coeff.substitute({"r1": r1, "r2": r2, "f": f})
        assert value == ScalarExpr.const(-r1 ** 2 + r2 ** 2 - f * r1 ** 2 * r2 ** 2)


def test_top_power_grid_positive_at_default_resolution():
    result = models.positivity_grid(DEFAULT_CONFIG)
    assert result.resolution == 200
    assert result.min_value > 0.0
    r1_min, r2_min = result.argmin
    assert 0.0 <= r1_min <= 0.45 + 1e-12
    assert 0.0 <= r2_min <= 10.0 + 1e-12


def test_top_power_grid_minimum_is_the_exact_bound():
    # On the window base >= 1 - r1^2 and last >= 1, both with equality at
    # (r1max, 0), so the minimum is n(n+1)(1 - r1max^2)^(n-1) exactly.
    r1max = 0.9 * DEFAULT_CONFIG.disk1_radius
    for n in range(2, MAX_N + 1):
        result = models.positivity_grid(ModelConfig(n=n))
        exact = n * (n + 1) * (1 - Fraction(r1max) ** 2) ** (n - 1)
        assert abs(Fraction(result.min_value) - exact) <= 4 * math.ulp(exact), n
        assert result.argmin == (0.45, 0.0)


def _numpy_grid(cfg: ModelConfig) -> models.GridResult:
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
    return models.GridResult(float(values[i, j]), (float(r1[i]), float(r2[j])),
                             models.GRID_RESOLUTION)


@pytest.mark.parametrize("n", range(2, MAX_N + 1))
def test_top_power_grid_equals_a_numpy_reference(n):
    cfg = ModelConfig(n=n)
    got, ref = models.positivity_grid(cfg), _numpy_grid(cfg)
    assert got.min_value.hex() == ref.min_value.hex()
    assert got == ref


def test_contact_volume_grid_positive():
    result = contact.verify_profile(contact.make_profile(), n=2, grid=2000)
    assert result.min_value > 0.0


@pytest.mark.parametrize("n", [8, 12, 16])
def test_top_power_and_contact_volume_exact_at_large_n(n):
    cfg = ModelConfig(n=n)
    for identity in (IdentityId.TOP_POWER, IdentityId.CONTACT_VOLUME):
        report = models.verify_identity(identity, cfg)
        assert report.verdict == "exact-equal", (n, identity, report.residual_text[:200])
