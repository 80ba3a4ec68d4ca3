"""The nine form identities and their grid positivity companions."""

from __future__ import annotations

import numpy as np
import pytest

from lbfkit import models
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


def test_report_timing_toggle():
    report = models.verify_identity(IdentityId.OMEGA_ALPHA_KERNEL)
    assert report.ms >= 0.0
    assert "ms" in report.as_dict()
    assert "ms" not in report.as_dict(include_timing=False)


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
    cfg = DEFAULT_CONFIG
    for r1, r2 in [(0.0, 0.5), (0.1, 0.3), (0.3, 0.0)]:
        f = cfg.ramp(r1 * r1 + r2 * r2)
        value = coeff.evaluate({"r1": r1, "r2": r2, "f": f})
        assert value == pytest.approx(-r1 ** 2 + r2 ** 2 - f * r1 ** 2 * r2 ** 2)


def test_top_power_grid_positive_at_default_resolution():
    result = models.positivity_grid(IdentityId.TOP_POWER, DEFAULT_CONFIG)
    assert result.resolution == 200
    assert result.min_value > 0.0
    r1_min, r2_min = result.argmin
    assert 0.0 <= r1_min <= 0.45 + 1e-12
    assert 0.0 <= r2_min <= 10.0 + 1e-12


def test_contact_volume_grid_positive():
    result = models.positivity_grid(IdentityId.CONTACT_VOLUME, ModelConfig(n=2),
                                    resolution=2000)
    assert result.min_value > 0.0


def test_positivity_grid_rejects_other_identities():
    with pytest.raises(ValueError):
        models.positivity_grid(IdentityId.HESSIAN, DEFAULT_CONFIG)


def test_evaluate_on_grid_matches_pointwise():
    # ScalarExpr.evaluate broadcasts over arrays
    expr = (ScalarExpr.atom("r1") ** 2 * ScalarExpr.atom("f")
            + ScalarExpr.atom("r2") + ScalarExpr.const(3))
    r1 = np.linspace(0.0, 0.4, 7)
    r2 = np.linspace(0.0, 2.0, 7)
    f = np.linspace(0.0, 1.0, 7)
    grid = expr.evaluate({"r1": r1, "r2": r2, "f": f})
    assert grid.shape == (7,)
    for i in range(7):
        point = expr.evaluate({"r1": float(r1[i]), "r2": float(r2[i]), "f": float(f[i])})
        assert grid[i] == pytest.approx(point, rel=1e-14)


def test_evaluate_on_grid_names_missing_binding():
    with pytest.raises(KeyError, match="up"):
        ScalarExpr.atom("up").evaluate({"r1": np.ones(3)})


def test_verify_identity_runtime_is_recorded():
    report = models.verify_identity(IdentityId.TOP_POWER, ModelConfig(n=2))
    assert report.passed
    assert report.ms > 0.0


@pytest.mark.parametrize("n", [8, 12, 16])
def test_top_power_and_contact_volume_exact_at_large_n(n):
    cfg = ModelConfig(n=n)
    for identity in (IdentityId.TOP_POWER, IdentityId.CONTACT_VOLUME):
        report = models.verify_identity(identity, cfg)
        assert report.verdict == "exact-equal", (n, identity, report.residual_text[:200])
