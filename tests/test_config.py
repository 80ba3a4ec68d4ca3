"""The smooth profiles, mu's contract, and ``linspace`` against numpy's."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lbfkit
from lbfkit.config import (DEFAULT_CONFIG, MAX_GRID_COUNT, ModelConfig, linspace,
                           smoothstep_and_slope)
from lbfkit.models import GRID_RESOLUTION
from lbfkit.transport import TRAJECTORY_SAMPLES


@st.composite
def configs(draw) -> ModelConfig:
    """Configurations the constructor accepts."""
    unit = st.floats(min_value=1e-3, max_value=0.999)
    collar, lo, hi = sorted(draw(st.lists(unit, min_size=3, max_size=3, unique=True)))
    disk1 = draw(st.floats(min_value=min(1.5 * collar, 0.999), max_value=1.0,
                           exclude_max=True))
    disk2 = draw(st.floats(min_value=0.1, max_value=100.0))
    try:
        return ModelConfig(n=2, collar_width=collar, ramp_lo=lo, ramp_hi=hi,
                           disk1_radius=disk1, disk2_radius=disk2)
    except ValueError:
        assume(False)


any_config = st.one_of(st.just(DEFAULT_CONFIG), configs())


def _sample(lo: float, hi: float, edges: tuple[float, ...], fractions: list[float]) -> list[float]:
    points = [lo, hi] + [lo + (hi - lo) * u for u in fractions]
    for edge in edges:
        points += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
    return [x for x in points if lo <= x <= hi]


@settings(max_examples=60, deadline=None)
@given(cfg=any_config,
       fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40))
def test_mu_contract(cfg, fractions):
    edges = (cfg.collar_width, cfg.mu_flat_radius)
    # S's polynomial rounds a few ulps above 1 at some x just below 1, so
    # the last hundredth of mu's ramp is probed densely as well
    ramp_end = linspace(cfg.mu_flat_radius - 0.01 * (cfg.mu_flat_radius - cfg.collar_width),
                        cfg.mu_flat_radius, 2001)
    for r in _sample(0.0, cfg.disk1_radius, edges, fractions) + ramp_end:
        mu, mu_d = cfg.mu_and_slope(r)
        assert type(mu) is float and type(mu_d) is float
        if r <= cfg.collar_width:
            assert mu == r                      # identity on the collar
        if r >= cfg.mu_flat_radius:
            assert mu == 1.0                    # flat from mu_flat_radius
        assert mu <= 1.0
        assert mu_d >= 0.0                      # nondecreasing


def _clamped_quintic(x: float) -> tuple[float, float]:
    """S and S' with x clamped into [0, 1] first, then the polynomial."""
    x = 0.0 if x <= 0.0 else 1.0 if x >= 1.0 else x
    s = x * x * x * (x * (6.0 * x - 15.0) + 10.0)
    d = x - 1.0
    return min(s, 1.0), 30.0 * x * x * d * d


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(st.floats(allow_nan=False), st.floats(min_value=-0.5, max_value=1.5)))
@example(x=-math.inf)
@example(x=-1.0)
@example(x=-0.0)
@example(x=0.0)
@example(x=5e-324)
@example(x=math.nextafter(1.0, 0.0))
@example(x=1.0)
@example(x=math.nextafter(1.0, 2.0))
@example(x=2.0)
@example(x=math.inf)
def test_smoothstep_ends_equal_the_clamped_polynomial_bit_for_bit(x):
    # .hex() tells +0.0 from -0.0: both clamped slopes are +0.0
    got = smoothstep_and_slope(x)
    assert all(type(v) is float for v in got)
    assert [v.hex() for v in got] == [v.hex() for v in _clamped_quintic(x)]


def test_smoothstep_passes_nan_through():
    assert all(math.isnan(v) for v in smoothstep_and_slope(math.nan))


def _bits(xs) -> list[int]:
    return np.asarray(xs, dtype=float).view(np.int64).tolist()


# Grid bounds: plain draws, and tiny ones whose step rounds to 0, as
# np.linspace's subnormal branch handles.
BOUNDS = st.one_of(st.floats(min_value=-1e3, max_value=1e3),
                   st.floats(min_value=-1e-300, max_value=1e-300))


@settings(max_examples=300, deadline=None)
@given(lo=BOUNDS, width=st.one_of(st.just(0.0), BOUNDS.map(abs)),
       num=st.one_of(st.integers(min_value=1, max_value=300),
                     st.integers(min_value=1, max_value=MAX_GRID_COUNT)))
@example(lo=0.0, width=0.5, num=TRAJECTORY_SAMPLES)           # the trajectory samples
@example(lo=0.0, width=0.45, num=GRID_RESOLUTION)             # the positivity grid axes
@example(lo=0.0, width=10.0, num=GRID_RESOLUTION)
@example(lo=-0.16, width=0.32, num=8)                          # the default --grid
@example(lo=0.1, width=0.1, num=MAX_GRID_COUNT)
@example(lo=-0.25, width=100.25, num=MAX_GRID_COUNT)
@example(lo=-3.0, width=0.0, num=1)
@example(lo=-3.0, width=0.0, num=4)
@example(lo=5e-324, width=5e-324, num=7)
def test_linspace_is_numpy_linspace_bit_for_bit(lo, width, num):
    hi = lo + width
    got = linspace(lo, hi, num)
    assert all(type(x) is float for x in got)
    assert _bits(got) == _bits(np.linspace(lo, hi, num))


def test_collar_must_end_before_mu_flattens():
    # mu_flat_radius = disk1_radius - collar_width / 2 must exceed collar_width
    with pytest.raises(ValueError, match="disk1_radius"):
        ModelConfig(collar_width=0.375, ramp_lo=0.5, ramp_hi=0.75, disk1_radius=0.5)
    ModelConfig(collar_width=0.32, ramp_lo=0.5, ramp_hi=0.7, disk1_radius=0.9)


def test_disk2_radius_must_be_finite_and_positive():
    # 1e300 and 1.35e154 are finite, but their squares overflow
    for radius in (math.nan, math.inf, 0.0, -1.0, 1e300, 1.35e154):
        with pytest.raises(ValueError, match="disk2_radius must be finite and positive"):
            ModelConfig(disk2_radius=radius)
    assert ModelConfig(disk2_radius=1e3).level_range == (-0.25, 1e6)
    lo, hi = ModelConfig(disk2_radius=1e150).level_range
    assert lo == -0.25 and math.isfinite(hi)


def test_config_and_float_profiles_load_no_numpy():
    probe = ("import sys; from lbfkit.config import ModelConfig, linspace; "
             "cfg = ModelConfig(n=3); cfg.mu_and_slope(0.3), cfg.ramp_and_slope(0.15); "
             "linspace(0.0, 1.0, 5); "
             "print('numpy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(lbfkit.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "False"
