"""Modified Bessel functions of the second kind for the Green-function profiles.

Only the orders of the screened-Poisson Green functions in one, two and three
dimensions are needed: the half-integers, in closed form by upward recurrence
from K_{1/2}, and 0 for the 2D kernel.  Everything is numpy.  K_0 follows the
Cephes scheme (Moshier, *Methods and Programs for Mathematical Functions*,
1989) in three pieces:

* x <= 2: K_0(x) = B(q) - log(x) I_0(x) with q = x^2/4, from the ascending
  series I_0 = sum q^k/(k!)^2 and B = sum (log 2 - gamma + H_k) q^k/(k!)^2
  (H_k the harmonic numbers), cut at degree 12 and summed by Horner's rule.
  The first dropped term is below 1e-18 of K_0 on the whole piece.
* 2 < x <= 8: sqrt(x) e^x K_0(x) as a polynomial of degree 22 in
  t = 4/x - 1, summed by Horner's rule.  It is the Chebyshev interpolant
  (Trefethen, *Approximation Theory and Approximation Practice*, SIAM 2013)
  on x > 2 of 80 Chebyshev-Gauss nodes at 40 digits, truncated where the
  dropped tail is below 3e-17 relative and converted to monomials at 40
  digits.  The monomial coefficients sum in modulus to the function's value
  at t = -1, so Horner's rule is as accurate as Clenshaw's recurrence there,
  with two array operations per degree instead of three.
* x > 8: the same function as a polynomial of degree 12 in s = 16/x - 1,
  built the same way on x > 8 (dropped Chebyshev tail 2.7e-17).  Its
  monomial coefficients alternate in sign and sum in modulus to its value
  sqrt(pi/2) at s = -1.  Most translates of a lattice sum are this far out.

The relative error is below 2e-14 on [1e-12, 700]; ``tests/test_specfun.py``
checks it against ``scipy.special.k0``.
"""

from __future__ import annotations

import math

import numpy as np

_SERIES_DEGREE = 12
# coefficients of q^0 .. q^12 in the ascending series of I_0 and of B
_I0_SERIES = tuple(1.0 / math.factorial(k) ** 2 for k in range(_SERIES_DEGREE + 1))
_B_SERIES = tuple((math.log(2.0) - np.euler_gamma + sum(1.0 / j for j in range(1, k + 1)))
                  / math.factorial(k) ** 2 for k in range(_SERIES_DEGREE + 1))
# coefficients a_0 .. a_22 of sqrt(x) e^x K_0(x) = sum a_k t^k, t = 4/x - 1
_K0E_POLYNOMIAL = (
    1.2185953385133905, -0.031071461824889898, 0.0030328918102753206,
    -0.0004797690567328844, 9.95605474202942e-05, -2.473520542848972e-05,
    7.002245645755651e-06, -2.1911673837417864e-06, 7.427801232190096e-07,
    -2.689759865539584e-07, 1.02954317593912e-07, -4.1056738724915364e-08,
    1.7047535884249698e-08, -8.025205604904476e-09, 3.808399859919043e-09,
    -6.643878631843235e-10, 4.757544705776374e-11, -1.2366923277096287e-09,
    8.133913205464114e-10, 4.3927260002107633e-10, -3.119936129682105e-10,
    -1.7597528809195706e-10, 1.0926983537268735e-10,
)
# coefficients b_0 .. b_12 of sqrt(x) e^x K_0(x) = sum b_k s^k, s = 16/x - 1, x > 8
_K0E_FAR_POLYNOMIAL = (
    1.2438463520997634, -0.009162850479795766, 0.000287664144062425,
    -1.5900798837136614e-05, 1.2325138452779964e-06, -1.2087137922715877e-07,
    1.415324935146659e-08, -1.9074460250498596e-09, 2.8845762312495585e-10,
    -4.767488918415521e-11, 8.593016407481236e-12, -1.973816121179091e-12,
    4.2233815637971316e-13,
)


class UnsupportedOrderError(ValueError):
    """Order is neither 0 nor a half-integer."""


def _twice_order(nu) -> int:
    """2|nu| for nu = 0 or a half-integer; K_{-nu} = K_nu, since the defining
    integrand cosh(nu s) is even in nu."""
    twice = 2.0 * abs(float(nu))   # exact: doubling only moves the exponent
    # written so that NaN and inf fail too
    if not (twice == 0.0 or (twice < math.inf and twice % 2.0 == 1.0)):
        raise UnsupportedOrderError(f"order {nu!r} is neither 0 nor a half-integer")
    return int(twice)


def bessel_k(nu, r):
    """K_nu(r) for nu = 0 or a half-integer, r > 0.

    Accepts a scalar or array argument and returns a new value of the same
    shape.  Raises ValueError for r <= 0 (K_nu diverges at the origin for
    nu >= 0) and UnsupportedOrderError for other orders.
    """
    p = _twice_order(nu)
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    r_arr = np.atleast_1d(r_arr)
    if r_arr.size and not (r_arr.min() > 0.0 and r_arr.max() < math.inf):
        raise ValueError("bessel_k requires finite r > 0")
    out = _k0(r_arr) if p == 0 else _half_integer(p, r_arr)
    return float(out[0]) if scalar else out


def _half_integer(p: int, r: np.ndarray) -> np.ndarray:
    """K_{p/2} for odd p >= 1 by upward recurrence from K_{1/2} = K_{-1/2}."""
    base = np.sqrt(math.pi / (2.0 * r)) * np.exp(-r)
    k_minus = base  # K_{-1/2}
    k = base        # K_{1/2}
    order = 0.5
    while order < p / 2.0:
        k_minus, k = k, k_minus + (2.0 * order / r) * k
        order += 1.0
    return k


def _k0(x: np.ndarray) -> np.ndarray:
    """K_0(x) for x > 0, each element by the piece its argument falls in."""
    small, far = x <= 2.0, x > 8.0
    parts = [(mask, piece) for mask, piece in ((small, _k0_series),
                                               (~(small | far), _k0_polynomial),
                                               (far, _k0_far)) if mask.any()]
    if len(parts) == 1:
        return parts[0][1](x)
    out = np.empty_like(x)
    for mask, piece in parts:
        out[mask] = piece(x[mask])
    return out


def _horner(coefs: tuple, t: np.ndarray) -> np.ndarray:
    """sum_k coefs[k] t^k by Horner's rule, in place in one new array."""
    y = np.multiply(t, coefs[-1])
    np.add(y, coefs[-2], out=y)
    for c in coefs[-3::-1]:
        np.multiply(y, t, out=y)
        np.add(y, c, out=y)
    return y


def _k0_series(x: np.ndarray) -> np.ndarray:
    """K_0 = B(q) - log(x) I_0(x) with q = x^2/4, for x <= 2."""
    q = np.multiply(x, x)
    np.multiply(q, 0.25, out=q)
    i0 = _horner(_I0_SERIES, q)
    b = _horner(_B_SERIES, q)
    np.log(x, out=q)
    np.multiply(q, i0, out=q)
    return np.subtract(b, q, out=b)


def _k0_polynomial(x: np.ndarray) -> np.ndarray:
    """K_0 = sqrt(u) e^{-x} P(4u - 1) with u = 1/x, for 2 < x <= 8."""
    return _k0_scaled(x, 4.0, _K0E_POLYNOMIAL)


def _k0_far(x: np.ndarray) -> np.ndarray:
    """K_0 = sqrt(u) e^{-x} Q(16u - 1) with u = 1/x, for x > 8."""
    return _k0_scaled(x, 16.0, _K0E_FAR_POLYNOMIAL)


def _k0_scaled(x: np.ndarray, scale: float, coefs: tuple) -> np.ndarray:
    """sqrt(u) e^{-x} sum_k coefs[k] (scale u - 1)^k with u = 1/x."""
    u = np.divide(1.0, x)
    t = np.multiply(u, scale)
    np.subtract(t, 1.0, out=t)
    y = _horner(coefs, t)
    np.sqrt(u, out=u)
    np.multiply(y, u, out=y)
    np.exp(np.negative(x, out=t), out=t)
    return np.multiply(y, t, out=y)
