"""Uplink rate model: the spectral base rate R = bandwidth * log2(1 + p*g/n0)."""

import mpmath
import numpy as np
import pytest

from mecfl.costs import base_rate
from mecfl.types import Population, SystemConfig

from helpers import make_user


def cfg_with(noise=1e-9):
    return SystemConfig(noise_power=noise)


def test_base_rate_unit_snr():
    # p*g/n0 = 1 -> log2(2) = 1 -> rate equals the bandwidth
    user = make_user(power=0.2, gain=5e-9)
    assert base_rate(user, cfg_with()) == pytest.approx(20e6)


def test_base_rate_snr_three():
    user = make_user(power=0.2, gain=15e-9)
    assert base_rate(user, cfg_with()) == pytest.approx(40e6)


def test_base_rate_against_high_precision_reference():
    # amplitude computed independently with mpmath at 50 digits
    user = make_user(power=0.2, gain=1e-7)
    expected = float(20e6 * mpmath.log(mpmath.mpf(21), 2))
    assert base_rate(user, cfg_with()) == pytest.approx(expected, rel=1e-14)


def test_base_rate_monotone_in_gain():
    rng = np.random.default_rng(3)
    cfg = cfg_with()
    for _ in range(100):
        g_lo, g_hi = sorted(rng.uniform(1e-9, 1e-5, 2))
        if g_lo == g_hi:
            continue
        lo, hi = base_rate(Population.from_users([make_user(uid=0, gain=g_lo),
                                                  make_user(uid=1, gain=g_hi)]), cfg)
        assert hi > lo
        assert base_rate(make_user(gain=g_hi), cfg) == hi
