"""Named model forms on the disk-bundle models and their identity checks.

The forms live in three small exterior algebras: a single disk factor over a
contact base (the dual-bundle identities), two disk factors over a contact
base (the fibration identities), and a collar times a circle (the contact
volume identity).  Every check is exact: residuals are normal forms in the
engine, and a verdict of ``exact-equal`` means the residual is literally the
zero form, identically in the function atoms f, u', mu, mu', fc, gc.

Grid evaluation is separate and numeric: the same coefficient that passed
the symbolic check is evaluated on a float grid with the concrete profiles
from :mod:`lbfkit.config` to certify positivity on the stated window.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

import numpy as np

from .config import DEFAULT_CONFIG, ModelConfig
from .exterior import (
    DerivativeRules,
    Form,
    ScalarExpr,
    TangentSymbol,
    collar_algebra,
    disk_bundle_algebra,
    double_disk_algebra,
    ext_d,
    interior,
    wedge,
    wedge_all,
    wedge_power,
)

__all__ = [
    "IdentityId",
    "IdentityReport",
    "GridResult",
    "build_form",
    "verify_identity",
    "verify_all",
    "positivity_grid",
    "top_power_coefficient",
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


@dataclass
class IdentityReport:
    """Outcome of one identity check, JSON-serializable."""

    identity: str
    n: int
    verdict: str                      # "exact-equal" or "residual"
    residual_text: str
    ms: float = 0.0                   # wall time; goes to the timing sidecar only

    @property
    def passed(self) -> bool:
        return self.verdict == "exact-equal"


@dataclass
class GridResult:
    min_value: float
    argmin: tuple[float, float]
    resolution: int


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


def build_form(name: str, cfg: ModelConfig = DEFAULT_CONFIG) -> Form:
    """Return a named model form, expanded to normal form.

    Known names:
        omega0        closed 2-form of the undeformed disk bundle
        omega1_tilde  deformed 2-form making the fibration symplectic
        lambda_bar    primitive (1-r^2)(alpha - dtheta) of the dual bundle
        omega_bar     its exterior derivative
        lambda_nu     primitive of omega1_tilde away from the critical locus
        h             the fiber-cutting level function (a 0-form)
        beta          collar 1-form fc(r)*lam + gc(r)*dphi
    """
    n = cfg.n
    if name in ("lambda_bar", "omega_bar"):
        A = disk_bundle_algebra(n)
        lam = Form.gen(A, "alpha", _ONE - _R ** 2) - Form.gen(A, "dtheta", _ONE - _R ** 2)
        return lam if name == "lambda_bar" else ext_d(lam)
    if name in ("omega0", "omega1_tilde", "lambda_nu", "h"):
        A = double_disk_algebra(n)
        if name == "h":
            return Form.scalar(A, _fiber_value())
        if name == "omega0":
            # d((1 + r2^2)(alpha_conn + dtheta2)), connection (1-r1^2)alpha + r1^2 dtheta1
            conn = Form.gen(A, "alpha", _ONE - _R1 ** 2) + Form.gen(A, "dtheta1", _R1 ** 2)
            prim = (conn + Form.gen(A, "dtheta2")).scale(_ONE + _R2 ** 2)
            return ext_d(prim)
        outer = (Form.gen(A, "dtheta2") + Form.gen(A, "alpha")).scale(_ONE + _R2 ** 2)
        inner = (Form.gen(A, "dtheta1") - Form.gen(A, "alpha")).scale(
            (_ONE + _F * _R2 ** 2) * _R1 ** 2
        )
        prim = outer + inner
        return prim if name == "lambda_nu" else ext_d(prim)
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
    base = _ONE - _R1 ** 2 + _R2 ** 2 * (_ONE - _F * _R1 ** 2)
    last = _R1 ** 2 * _R2 ** 2 * _UP + _F * _R2 ** 2 + _ONE
    return ScalarExpr.const(n * (n + 1)) * base ** (n - 1) * last


# ---------------------------------------------------------------------------
# the individual checks; each returns a residual Form (zero = identity holds)


def _check_liouville_dual(cfg: ModelConfig) -> Form:
    A = disk_bundle_algebra(cfg.n)
    lam = build_form("lambda_bar", cfg)
    omega = ext_d(lam)
    # radial Liouville field -((1 - r^2)/(2r)) d_r, written with exact 1/r
    liouville = TangentSymbol(
        A, {"d_r": _R * Fraction(1, 2) - (_R ** -1) * Fraction(1, 2)}
    )
    return interior(liouville, omega) - lam


def _check_omega_alpha_kernel(cfg: ModelConfig) -> Form:
    A = disk_bundle_algebra(cfg.n)
    prim = (Form.gen(A, "alpha") + Form.gen(A, "dtheta")).scale(_ONE + _R ** 2)
    omega = ext_d(prim)
    kernel = TangentSymbol(A, {"reeb": 1, "d_theta": -1})
    return interior(kernel, omega)


def _check_omega_alphabar_kernel(cfg: ModelConfig) -> Form:
    A = disk_bundle_algebra(cfg.n)
    omega = build_form("omega_bar", cfg)
    kernel = TangentSymbol(A, {"reeb": 1, "d_theta": 1})
    return interior(kernel, omega)


def _check_top_power(cfg: ModelConfig) -> Form:
    n = cfg.n
    A = double_disk_algebra(n)
    lhs = wedge_power(build_form("omega1_tilde", cfg), n + 1)
    frame = wedge_all(
        Form.gen(A, "dr1", ScalarExpr.const(2) * _R1),
        Form.gen(A, "dtheta1") - Form.gen(A, "alpha"),
        Form.gen(A, "dr2", ScalarExpr.const(2) * _R2),
        Form.gen(A, "dtheta2") + Form.gen(A, "alpha"),
        wedge_power(Form.gen(A, "dalpha"), n - 1),
    )
    return lhs - frame.scale(top_power_coefficient(n))


def _check_omega1_kernel(cfg: ModelConfig) -> Form:
    A = double_disk_algebra(cfg.n)
    omega = build_form("omega1_tilde", cfg)
    kernel = TangentSymbol(A, {"d_theta1": 1, "d_theta2": -1, "reeb": 1})
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
    rules = A.rules
    h = _fiber_value()

    radial_sq = _R1 ** 2 + _F * _R1 ** 2 * _R2 ** 2          # r1^2 + f r1^2 r2^2
    angular_sq = _R2 ** 2 - _F * _R1 ** 2 * _R2 ** 2         # r2^2 - f r1^2 r2^2
    mixed = _F * _R1 ** 2 * _R2 ** 2

    kernels = [
        TangentSymbol(A, {"d_r1": _MU, "d_r2": -(_MUP * _R2)}),
        TangentSymbol(A, {"d_theta1": 1, "d_theta2": -1}),
    ]
    complements = [
        TangentSymbol(
            A,
            {
                "d_theta1": ScalarExpr.const(2) * _MUP * _R2 ** 2,
                "d_theta2": _MU * radial_sq.diff("r1", rules)
                - _MUP * _R2 * mixed.diff("r2", rules),
            },
        ),
        TangentSymbol(
            A,
            {
                "d_r1": angular_sq.diff("r2", rules),
                "d_r2": radial_sq.diff("r1", rules),
            },
        ),
    ]

    tags = ["dr1", "dtheta1", "dr2", "dtheta2", "alpha"]
    residual = Form.zero(A)
    slot = 0
    for ker in kernels:
        for comp in complements:
            pairing = interior(comp, interior(ker, omega))
            residual = residual + wedge(pairing, Form.gen(A, tags[slot]))
            slot += 1
    dh = ext_d(Form.scalar(A, h))
    for comp in complements:
        drift = interior(comp, dh)
        if slot < len(tags):
            residual = residual + wedge(drift, Form.gen(A, tags[slot]))
        else:
            residual = residual + wedge(
                drift, wedge(Form.gen(A, "dr1"), Form.gen(A, "dtheta1"))
            )
        slot += 1
    return residual


def _check_hessian(cfg: ModelConfig) -> Form:
    """Normal Hessian of the fibration germ w = z1 z2 at the critical locus.

    Computed two ways: exact second partials of the product polynomial, and
    the expected antidiagonal matrix with determinant -1.  The residual is a
    0-form in a throwaway algebra holding the entrywise mismatch.
    """
    rules = DerivativeRules()
    rules.register_variable("z1")
    rules.register_variable("z2")
    germ = ScalarExpr.atom("z1") * ScalarExpr.atom("z2")
    variables = ("z1", "z2")
    hessian = [
        [germ.diff(a, rules).diff(b, rules) for b in variables] for a in variables
    ]
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
    A = disk_bundle_algebra(max(cfg.n, 2))
    return Form.scalar(A, mismatch)


def _check_contact_volume(cfg: ModelConfig) -> Form:
    n = cfg.n
    A = collar_algebra(n)
    beta = build_form("beta", cfg)
    lhs = wedge(beta, wedge_power(ext_d(beta), n))
    det = ScalarExpr.const(n) * _FC ** (n - 1) * (_FC * _GCP - _FCP * _GC)
    volume = wedge_all(
        Form.gen(A, "lam"),
        wedge_power(Form.gen(A, "dlam"), n - 1),
        Form.gen(A, "dr"),
        Form.gen(A, "dphi"),
    )
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


def verify_identity(identity: IdentityId, cfg: ModelConfig = DEFAULT_CONFIG) -> IdentityReport:
    """Run one symbolic check and package the residual into a report."""
    identity = IdentityId(identity)
    start = time.perf_counter()
    residual = _CHECKERS[identity](cfg)
    elapsed = (time.perf_counter() - start) * 1000.0
    ok = residual.is_zero()
    return IdentityReport(
        identity=identity.value,
        n=cfg.n,
        verdict="exact-equal" if ok else "residual",
        residual_text=residual.to_text(),
        ms=elapsed,
    )


def verify_all(cfg: ModelConfig = DEFAULT_CONFIG) -> list[IdentityReport]:
    return [verify_identity(identity, cfg) for identity in IdentityId]


# ---------------------------------------------------------------------------
# numeric positivity grid

# Samples per axis of the TOP_POWER positivity grid.
GRID_RESOLUTION = 200


def positivity_grid(cfg: ModelConfig = DEFAULT_CONFIG) -> GridResult:
    """Minimum of the TOP_POWER coefficient on the stated parameter window.

    Scans (r1, r2) in [0, 0.9 * disk1_radius] x [0, disk2_radius] on a
    GRID_RESOLUTION x GRID_RESOLUTION grid, with the concrete interpolation
    profile bound for f and u'.
    """
    r1 = np.linspace(0.0, 0.9 * cfg.disk1_radius, GRID_RESOLUTION)
    r2 = np.linspace(0.0, cfg.disk2_radius, GRID_RESOLUTION)
    g1, g2 = np.meshgrid(r1, r2, indexing="ij")
    f, up = cfg.ramp_and_slope(g1 ** 2 + g2 ** 2)
    values = top_power_coefficient(cfg.n).evaluate({"r1": g1, "r2": g2, "f": f, "up": up})
    i, j = np.unravel_index(int(np.argmin(values)), values.shape)
    return GridResult(float(values[i, j]), (float(g1[i, j]), float(g2[i, j])), GRID_RESOLUTION)
