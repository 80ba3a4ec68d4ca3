"""Named model forms on the disk-bundle models and their identity checks.

The forms live in three small exterior algebras: a single disk factor over a
contact base (the dual-bundle identities), two disk factors over a contact
base (the fibration identities), and a collar times a circle (the contact
volume identity).  Every check is exact: residuals are normal forms in the
engine, and a verdict of ``exact-equal`` means the residual is literally the
zero form, identically in the function atoms f, u', mu, mu', fc, gc.

Grid evaluation is separate and numeric: the one formula that builds the
TOP_POWER coefficient for the symbolic check is evaluated again on Python
floats, point by point over a grid with the concrete profiles from
:mod:`lbfkit.config`, to certify positivity on the stated window.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from enum import Enum
from fractions import Fraction
from functools import reduce

from .config import ModelConfig, linspace
from .exterior import (
    Form,
    ScalarExpr,
    collar_algebra,
    disk_bundle_algebra,
    double_disk_algebra,
    ext_d,
    interior,
    wedge,
    wedge_power,
)
from .report import SuiteResult, cell, config_dict, holds, result_row, timed

__all__ = [
    "IdentityId",
    "build_form",
    "verify_identity",
    "positivity_grid",
    "top_power_coefficient",
    "suite",
]


class IdentityId(str, Enum):
    LIOUVILLE_DUAL = "LIOUVILLE_DUAL"
    OMEGA_ALPHA_KERNEL = "OMEGA_ALPHA_KERNEL"
    OMEGA_ALPHABAR_KERNEL = "OMEGA_ALPHABAR_KERNEL"
    TOP_POWER = "TOP_POWER"
    OMEGA1_KERNEL = "OMEGA1_KERNEL"
    MOSER_DIFF = "MOSER_DIFF"
    VERTICAL_SPLIT = "VERTICAL_SPLIT"
    HESSIAN = "HESSIAN"
    CONTACT_VOLUME = "CONTACT_VOLUME"


# ---------------------------------------------------------------------------
# scalar shorthands

_R1 = ScalarExpr.atom("r1")
_R2 = ScalarExpr.atom("r2")
_R = ScalarExpr.atom("r")
_F = ScalarExpr.atom("f")
_UP = ScalarExpr.atom("up")
_MU = ScalarExpr.atom("mu")
_MUP = ScalarExpr.atom("mup")
_FC = ScalarExpr.atom("fc")
_FCP = ScalarExpr.atom("fcp")
_GC = ScalarExpr.atom("gc")
_GCP = ScalarExpr.atom("gcp")
_ONE = ScalarExpr.const(1)


def _fiber_value() -> ScalarExpr:
    """h = -r1^2 + r2^2 - f r1^2 r2^2, the level function cutting the fibers."""
    return -(_R1 ** 2) + _R2 ** 2 - _F * _R1 ** 2 * _R2 ** 2


# ---------------------------------------------------------------------------
# model forms


def build_form(name: str, cfg: ModelConfig) -> Form:
    """Return a named model form, expanded to normal form.

    Known names:
        omega0        closed 2-form of the undeformed disk bundle
        omega1_tilde  deformed 2-form making the fibration symplectic
        lambda_bar    primitive (1-r^2)(alpha - dtheta) of the dual bundle
        omega_bar     its exterior derivative
        beta          collar 1-form fc(r)*lam + gc(r)*dphi
    """
    n = cfg.n
    if name in ("lambda_bar", "omega_bar"):
        A = disk_bundle_algebra(n)
        lam = Form.gen(A, "alpha", _ONE - _R ** 2) - Form.gen(A, "dtheta", _ONE - _R ** 2)
        return lam if name == "lambda_bar" else ext_d(lam)
    if name in ("omega0", "omega1_tilde"):
        A = double_disk_algebra(n)
        if name == "omega0":
            # d((1 + r2^2)(alpha_conn + dtheta2)), connection (1-r1^2)alpha + r1^2 dtheta1
            conn = Form.gen(A, "alpha", _ONE - _R1 ** 2) + Form.gen(A, "dtheta1", _R1 ** 2)
            prim = (conn + Form.gen(A, "dtheta2")).scale(_ONE + _R2 ** 2)
            return ext_d(prim)
        outer = (Form.gen(A, "dtheta2") + Form.gen(A, "alpha")).scale(_ONE + _R2 ** 2)
        inner = (Form.gen(A, "dtheta1") - Form.gen(A, "alpha")).scale(
            (_ONE + _F * _R2 ** 2) * _R1 ** 2
        )
        return ext_d(outer + inner)
    if name == "beta":
        A = collar_algebra(n)
        return Form.gen(A, "lam", _FC) + Form.gen(A, "dphi", _GC)
    raise ValueError(f"unknown model form '{name}'")


def top_power_coefficient(n: int) -> ScalarExpr:
    """Coefficient of the (n+1)-st power of the deformed 2-form.

    n(n+1) (1 - r1^2 + r2^2 (1 - f r1^2))^(n-1) (r1^2 r2^2 u' + f r2^2 + 1),
    against the frame d(r1^2) ^ (dtheta1 - alpha) ^ d(r2^2) ^ (dtheta2 + alpha)
    ^ (dalpha)^(n-1).  Positive on the model: the first factor exceeds
    (1 - r1^2)^(n-1) and the second is 1 plus nonnegative terms.
    """
    return _top_power(n, _R1, _R2, _F, _UP, _ONE)


def _top_power(n, r1, r2, f, up, one):
    """The TOP_POWER coefficient from +, -, * and the given one alone.

    Atoms and ``_ONE`` give the exact ``ScalarExpr``; floats and ``1.0``
    give one grid value.
    """
    r1sq, r2sq = r1 * r1, r2 * r2
    base = one - r1sq + r2sq * (one - f * r1sq)
    last = r1sq * r2sq * up + f * r2sq + one
    power = one
    for _ in range(n - 1):
        power = power * base
    return power * last * (n * (n + 1))


# ---------------------------------------------------------------------------
# the individual checks; each returns a residual Form (zero = identity holds)


def _check_liouville_dual(cfg: ModelConfig) -> Form:
    lam = build_form("lambda_bar", cfg)
    omega = ext_d(lam)
    # radial Liouville field -((1 - r^2)/(2r)) d_r, written with exact 1/r
    liouville = {"d_r": _R * Fraction(1, 2) - (_R ** -1) * Fraction(1, 2)}
    return interior(liouville, omega) - lam


def _check_omega_alpha_kernel(cfg: ModelConfig) -> Form:
    A = disk_bundle_algebra(cfg.n)
    prim = (Form.gen(A, "alpha") + Form.gen(A, "dtheta")).scale(_ONE + _R ** 2)
    omega = ext_d(prim)
    kernel = {"reeb": 1, "d_theta": -1}
    return interior(kernel, omega)


def _check_omega_alphabar_kernel(cfg: ModelConfig) -> Form:
    omega = build_form("omega_bar", cfg)
    kernel = {"reeb": 1, "d_theta": 1}
    return interior(kernel, omega)


def _check_top_power(cfg: ModelConfig) -> Form:
    n = cfg.n
    A = double_disk_algebra(n)
    lhs = wedge_power(build_form("omega1_tilde", cfg), n + 1)
    frame = reduce(wedge, (
        Form.gen(A, "dr1", ScalarExpr.const(2) * _R1),
        Form.gen(A, "dtheta1") - Form.gen(A, "alpha"),
        Form.gen(A, "dr2", ScalarExpr.const(2) * _R2),
        Form.gen(A, "dtheta2") + Form.gen(A, "alpha"),
        wedge_power(Form.gen(A, "dalpha"), n - 1),
    ))
    return lhs - frame.scale(top_power_coefficient(n))


def _check_omega1_kernel(cfg: ModelConfig) -> Form:
    omega = build_form("omega1_tilde", cfg)
    kernel = {"d_theta1": 1, "d_theta2": -1, "reeb": 1}
    return interior(kernel, omega)


def _check_moser_diff(cfg: ModelConfig) -> Form:
    A = double_disk_algebra(cfg.n)
    diff = build_form("omega0", cfg) - build_form("omega1_tilde", cfg)
    prim = (Form.gen(A, "dtheta1") - Form.gen(A, "alpha")).scale(
        (_ONE - _F) * _R1 ** 2 * _R2 ** 2
    )
    return diff - ext_d(prim)


def _check_vertical_split(cfg: ModelConfig) -> Form:
    """Kernel and symplectic-complement generators of the fibration projection.

    Six scalar conditions: the deformed 2-form pairs each of the two kernel
    generators to zero against each of the two complement generators, and the
    level function h is constant along both complement generators.  Each
    condition's residual is tagged with a distinct wedge word so the combined
    residual vanishes iff every condition holds.
    """
    n = cfg.n
    A = double_disk_algebra(n)
    omega = build_form("omega1_tilde", cfg)
    h = _fiber_value()

    radial_sq = _R1 ** 2 + _F * _R1 ** 2 * _R2 ** 2          # r1^2 + f r1^2 r2^2
    angular_sq = _R2 ** 2 - _F * _R1 ** 2 * _R2 ** 2         # r2^2 - f r1^2 r2^2
    mixed = _F * _R1 ** 2 * _R2 ** 2

    kernels = [{"d_r1": _MU, "d_r2": -(_MUP * _R2)}, {"d_theta1": 1, "d_theta2": -1}]
    complements = [
        {"d_theta1": ScalarExpr.const(2) * _MUP * _R2 ** 2,
         "d_theta2": _MU * radial_sq.diff("r1") - _MUP * _R2 * mixed.diff("r2")},
        {"d_r1": angular_sq.diff("r2"), "d_r2": radial_sq.diff("r1")},
    ]

    dh = ext_d(Form.scalar(A, h))
    conditions = [interior(comp, interior(ker, omega)) for ker in kernels for comp in complements]
    conditions += [interior(comp, dh) for comp in complements]
    tags = [Form.gen(A, g) for g in ("dr1", "dtheta1", "dr2", "dtheta2", "alpha")]
    tags.append(wedge(Form.gen(A, "dr1"), Form.gen(A, "dtheta1")))
    residual = Form(A)
    for condition, tag in zip(conditions, tags, strict=True):
        residual = residual + wedge(condition, tag)
    return residual


def _check_hessian(cfg: ModelConfig) -> Form:
    """Normal Hessian of the fibration germ w = z1 z2 at the critical locus.

    Computed two ways: exact second partials of the product polynomial, and
    the expected antidiagonal matrix with determinant -1.  z1 and z2 are
    engine variables, so the derivative table differentiates the germ.  The
    residual is a 0-form in a throwaway algebra holding the entrywise mismatch.
    """
    germ = ScalarExpr.atom("z1") * ScalarExpr.atom("z2")
    variables = ("z1", "z2")
    hessian = [[germ.diff(a).diff(b) for b in variables] for a in variables]
    expected = [
        [ScalarExpr.const(0), ScalarExpr.const(1)],
        [ScalarExpr.const(1), ScalarExpr.const(0)],
    ]
    det = hessian[0][0] * hessian[1][1] - hessian[0][1] * hessian[1][0]
    mismatch = ScalarExpr.const(0)
    for i in range(2):
        for j in range(2):
            delta = hessian[i][j] - expected[i][j]
            mismatch = mismatch + delta * delta
    mismatch = mismatch + (det - ScalarExpr.const(-1)) ** 2
    A = disk_bundle_algebra(cfg.n)
    return Form.scalar(A, mismatch)


def _check_contact_volume(cfg: ModelConfig) -> Form:
    n = cfg.n
    A = collar_algebra(n)
    beta = build_form("beta", cfg)
    lhs = wedge(beta, wedge_power(ext_d(beta), n))
    det = ScalarExpr.const(n) * _FC ** (n - 1) * (_FC * _GCP - _FCP * _GC)
    volume = reduce(wedge, (
        Form.gen(A, "lam"),
        wedge_power(Form.gen(A, "dlam"), n - 1),
        Form.gen(A, "dr"),
        Form.gen(A, "dphi"),
    ))
    return lhs - volume.scale(det)


_CHECKERS: dict[IdentityId, Callable[[ModelConfig], Form]] = {
    IdentityId.LIOUVILLE_DUAL: _check_liouville_dual,
    IdentityId.OMEGA_ALPHA_KERNEL: _check_omega_alpha_kernel,
    IdentityId.OMEGA_ALPHABAR_KERNEL: _check_omega_alphabar_kernel,
    IdentityId.TOP_POWER: _check_top_power,
    IdentityId.OMEGA1_KERNEL: _check_omega1_kernel,
    IdentityId.MOSER_DIFF: _check_moser_diff,
    IdentityId.VERTICAL_SPLIT: _check_vertical_split,
    IdentityId.HESSIAN: _check_hessian,
    IdentityId.CONTACT_VOLUME: _check_contact_volume,
}


def verify_identity(identity: IdentityId, cfg: ModelConfig) -> dict:
    """Run one symbolic check; its report entry, with verdict "exact-equal" or "residual"."""
    identity = IdentityId(identity)
    residual = _CHECKERS[identity](cfg)
    ok = residual.is_zero()
    return {
        "identity": identity.value,
        "n": cfg.n,
        "verdict": "exact-equal" if ok else "residual",
        "residual_text": residual.to_text(),
    }


# ---------------------------------------------------------------------------
# numeric positivity grid

# Samples per axis of the TOP_POWER positivity grid.
GRID_RESOLUTION = 200


def positivity_grid(cfg: ModelConfig) -> dict:
    """Minimum of the TOP_POWER coefficient on the stated parameter window.

    Returns its ``min_value``, its ``argmin`` (r1, r2) and the grid's
    ``resolution``.

    The window [0, 0.9 * disk1_radius] x [0, disk2_radius] is sampled on a
    GRID_RESOLUTION x GRID_RESOLUTION grid, with the concrete interpolation
    profile bound for f and u'.  The r1 axis is the outer loop; the first
    minimum in that order is reported.  Each row is evaluated up to and
    including its first clamped point, where ``ramp_and_slope`` returns
    exactly (1.0, 0.0), and its remaining points are skipped.  The result
    equals the full scan's, on the computed floats:

    1. The r2 axis is nondecreasing and the same in every row: ``linspace``
       gives i * step (or (i / 199) * R where step rounds to 0), rounded
       monotonically, and its last point R is at least 198 * step.
    2. Once clamped, a row stays clamped.  sq = r1*r1 + r2*r2 and
       x = (sq - ramp_lo) / w, with w > 0, are nondecreasing along a row
       and finite (the constructor keeps disk2_radius^2 finite), so x >= 1
       holds from the first clamped point on.  (1.0, 0.0) comes only from
       that clamp: inside the ramp f == 1.0 needs x close to 1, where
       u' = 30 x^2 d^2 / w > 0 with d = x - 1 exact and |d| >= 2^-53.
    3. Each operation of ``_top_power`` is then monotone in r2.  last is
       ((r1sq*r2sq)*0.0 + r2sq) + 1.0 and base is
       (1 - r1sq) + r2sq*(1 - r1sq), where 1 - r1sq > 0.18 because
       r1 <= 0.9 * disk1_radius < 0.9; both are positive and nondecreasing.
       Products of positive nondecreasing floats stay nondecreasing, also
       when they overflow to inf, and so does the factor n(n+1).  No
       inf * 0 or inf - inf occurs, so no NaN arises.
    4. So no skipped point lies below the clamped point's value, which was
       compared; ``best`` is replaced only on a strict ``<``, so a later
       equal value never displaces an earlier one.
    """
    r2_axis = linspace(0.0, cfg.disk2_radius, GRID_RESOLUTION)
    best = (math.inf, (math.nan, math.nan))
    for r1 in linspace(0.0, 0.9 * cfg.disk1_radius, GRID_RESOLUTION):
        for r2 in r2_axis:
            f, up = cfg.ramp_and_slope(r1 * r1 + r2 * r2)
            value = _top_power(cfg.n, r1, r2, f, up, 1.0)
            if value < best[0]:
                best = (value, (r1, r2))
            if f == 1.0 and up == 0.0:
                break  # the rest of the row is clamped and no smaller (1-4 above)
    return {"min_value": best[0], "argmin": best[1], "resolution": GRID_RESOLUTION}


# ---------------------------------------------------------------------------
# the verify-forms suite


def suite(n: int) -> SuiteResult:
    """verify-forms: the nine identities at ``n`` and the TOP_POWER positivity grid."""
    cfg = ModelConfig(n=n)
    identities_ms: dict[str, float] = {}
    timing = {"identities_ms": identities_ms}
    reports = [timed(identities_ms, identity.value, verify_identity, identity, cfg)
               for identity in IdentityId]
    grid = timed(timing, "top_power_grid_ms", positivity_grid, cfg)
    grid_gate = (grid["min_value"], 0.0, ">",
                 f"TOP_POWER grid minimum {grid['min_value']} is not positive")
    gates = [(r["verdict"], "exact-equal", "==", f"{r['identity']}: {r['verdict']}")
             for r in reports] + [grid_gate]

    report = {
        "config": config_dict(cfg),
        "identities": reports,
        "top_power_grid": {**grid, "positive": holds(*grid_gate[:3])},
    }

    rows = [["identity", "verdict"]] + [[r["identity"], r["verdict"]] for r in reports]
    table_rows = rows + [
        ["TOP_POWER grid min", cell(grid["min_value"])],
        result_row(gates, 2),
    ]
    return SuiteResult(report, gates, rows, table_rows, timing)
