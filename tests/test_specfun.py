import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from greenks.specfun import UnsupportedOrderError, bessel_k
from oracles import bessel_k_quadrature

SUPPORTED = (0.0, 0.5, -0.5, 1.5)


def test_half_integer_closed_form():
    # K_{1/2}(r) = sqrt(pi/(2r)) e^{-r}
    expected = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
    assert bessel_k(0.5, 1.0) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.46106850, rel=1e-7)


def test_evenness_is_exact():
    for r in (0.01, 0.3, 2.0, 15.0):
        assert bessel_k(-0.5, r) == bessel_k(0.5, r)
        assert bessel_k(-1.5, r) == bessel_k(1.5, r)


def test_integer_order_zero_reference_value():
    # frozen from the quadrature oracle: int_0^inf e^{-cosh s} ds
    assert bessel_k(0, 1.0) == pytest.approx(0.42102444, abs=5e-9)


def test_oracle_agreement_spot():
    for nu in SUPPORTED:
        for r in (0.01, 0.1, 1.0, 5.0, 19.0):
            ref = bessel_k_quadrature(nu, r)
            assert bessel_k(nu, r) == pytest.approx(ref, rel=1e-10)


def test_monotone_decreasing_in_r():
    r = np.logspace(-2, math.log10(20.0), 200)
    for nu in SUPPORTED:
        vals = bessel_k(nu, r)
        assert np.all(np.diff(vals) < 0)


@given(st.floats(min_value=0.02, max_value=19.0),
       st.floats(min_value=1e-3, max_value=0.9))
@settings(max_examples=50, deadline=None)
def test_monotone_random_pairs(r, frac):
    r_small = r * frac
    for nu in SUPPORTED:
        assert bessel_k(nu, r_small) > bessel_k(nu, r)


def test_asymptotic_ratio_at_30():
    for nu in (0.0, 0.5, 1.5):
        # the leading large-argument behaviour sqrt(pi/(2r)) e^{-r} of every order
        ratio = bessel_k(nu, 30.0) / (math.sqrt(math.pi / 60.0) * math.exp(-30.0))
        assert 0.95 <= ratio <= 1.05


def test_rejects_nonpositive_argument():
    with pytest.raises(ValueError):
        bessel_k(0.5, 0.0)
    with pytest.raises(ValueError):
        bessel_k(0, -1.0)


def test_rejects_unsupported_order():
    for nu in (0.3, 1.0, -2.0):
        with pytest.raises(UnsupportedOrderError):
            bessel_k(nu, 1.0)


@pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf, 0.5000001])
def test_rejects_non_finite_or_nearly_half_integer_order(nu):
    with pytest.raises(UnsupportedOrderError):
        bessel_k(nu, 1.0)


# the three pieces of K_0 meet at x = 2 and x = 8
K0_BOUNDARIES = (2.0, 8.0)


def test_k0_matches_scipy():
    x = np.concatenate([np.geomspace(1e-12, 700.0, 200_001)]
                       + [b + np.linspace(-1e-6, 1e-6, 2001) for b in K0_BOUNDARIES])
    ref = special.k0(x)
    assert np.all(np.abs(bessel_k(0, x) - ref) <= 2e-14 * ref)


def test_k0_is_finite_and_non_negative_up_to_745():
    x = np.linspace(1e-3, 745.0, 50_001)
    vals = bessel_k(0, x)
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)


def test_array_argument_matches_scalars():
    # the three pieces of K_0 and their boundaries in one array, in mixed order
    r = np.array([3.0, 0.5, 2.0, 1e-9, np.nextafter(2.0, 3.0), 40.0, 1.0,
                  8.0, np.nextafter(8.0, 9.0), 5.0])
    for nu in (0.0, 0.5):
        vals = bessel_k(nu, r)
        for ri, vi in zip(r, vals):
            assert vi == bessel_k(nu, float(ri))

