"""The smooth profiles: one definition for floats and arrays, and mu's contract."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lbfkit
from lbfkit.config import DEFAULT_CONFIG, ModelConfig, smoothstep_and_slope


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


def _domains(cfg: ModelConfig) -> dict[str, tuple[Callable, float, float, tuple[float, ...]]]:
    """Per profile: the profile, its documented domain and its plateau edges."""
    sq_max = cfg.disk1_radius ** 2 + cfg.disk2_radius ** 2
    ramp = (0.0, sq_max, (cfg.ramp_lo, cfg.ramp_hi))
    radial = (0.0, cfg.disk1_radius, (cfg.collar_width, cfg.mu_flat_radius))
    return {
        "smoothstep": (lambda x: smoothstep_and_slope(x)[0], -0.5, 1.5, (0.0, 1.0)),
        "smoothstep_d": (lambda x: smoothstep_and_slope(x)[1], -0.5, 1.5, (0.0, 1.0)),
        "ramp": (cfg.ramp, *ramp),
        "ramp_d": (lambda sq: cfg.ramp_and_slope(sq)[1], *ramp),
        "mu": (cfg.mu, *radial),
        "mu_d": (lambda r: cfg.mu_and_slope(r)[1], *radial),
        "cutoff": (cfg.cutoff, -cfg.disk1_radius ** 2, cfg.disk2_radius ** 2,
                   (cfg.cutoff_lo, cfg.cutoff_hi)),
    }


def _sample(lo: float, hi: float, edges: tuple[float, ...], fractions: list[float]) -> list[float]:
    points = [lo, hi] + [lo + (hi - lo) * u for u in fractions]
    for edge in edges:
        points += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
    return [x for x in points if lo <= x <= hi]


@settings(max_examples=60, deadline=None)
@given(cfg=any_config,
       fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40))
def test_array_evaluation_is_float_evaluation_bit_for_bit(cfg, fractions):
    # floats, np.float64 scalars (a float subclass), 0-d arrays and 1-d arrays
    for name, (fn, lo, hi, edges) in _domains(cfg).items():
        xs = _sample(lo, hi, edges, fractions)
        one_by_one = np.array([fn(x) for x in xs], dtype=float)
        assert all(type(fn(x)) is float for x in xs), name
        for kind in (np.float64, np.array):
            values = np.array([fn(kind(x)) for x in xs], dtype=float)
            assert np.array_equal(values.view(np.int64), one_by_one.view(np.int64)), name
        whole = fn(np.array(xs))
        assert np.array_equal(whole.view(np.int64), one_by_one.view(np.int64)), name


@settings(max_examples=60, deadline=None)
@given(cfg=any_config,
       fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40))
def test_mu_contract(cfg, fractions):
    _, lo, hi, edges = _domains(cfg)["mu"]
    # S's polynomial rounds a few ulps above 1 at some x just below 1, so
    # the last hundredth of mu's ramp is probed densely as well
    ramp_end = np.linspace(cfg.mu_flat_radius - 0.01 * (cfg.mu_flat_radius - cfg.collar_width),
                           cfg.mu_flat_radius, 2001)
    r = np.concatenate([_sample(lo, hi, edges, fractions), ramp_end])
    inner = r[r <= cfg.collar_width]
    mu, mu_d = cfg.mu_and_slope(r)
    assert np.array_equal(cfg.mu(inner), inner)              # identity on the collar
    assert np.all(cfg.mu(r[r >= cfg.mu_flat_radius]) == 1.0)  # flat from mu_flat_radius
    assert np.all(mu <= 1.0)
    assert np.all(mu_d >= 0.0)                                # nondecreasing


def test_collar_must_end_before_mu_flattens():
    # mu_flat_radius = disk1_radius - collar_width / 2 must exceed collar_width
    with pytest.raises(ValueError, match="disk1_radius"):
        ModelConfig(collar_width=0.375, ramp_lo=0.5, ramp_hi=0.75, disk1_radius=0.5)
    ModelConfig(collar_width=0.32, ramp_lo=0.5, ramp_hi=0.7, disk1_radius=0.9)


def test_config_and_float_profiles_load_no_numpy():
    probe = ("import sys; from lbfkit.config import ModelConfig; cfg = ModelConfig(n=3); "
             "cfg.mu_and_slope(0.3), cfg.ramp_and_slope(0.15); "
             "print('numpy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(lbfkit.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "False"
