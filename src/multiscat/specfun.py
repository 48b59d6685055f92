"""Cylinder functions for the 2D Helmholtz kernel.

Every Bessel value comes from ``scipy.special``.  This module adds the
argument checks the assembly relies on and one piece scipy has no routine
for: the smooth remainder of H0^(1) once its logarithm is split off,

    H0^(1)(k r) = (2i/pi) ln(r) J0(k r) + W(r),

which the self-panel rule needs at r = 0, where the difference cannot be
formed.  W is summed from the power series of J0 and Y0
(Abramowitz & Stegun 9.1.12-9.1.13), which converges to roundoff for
k r <= 8.

``scipy.special`` is reached through ``import scipy``, which loads the
submodule on first use and keeps it out of ``import multiscat``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy

EULER_GAMMA = 0.5772156649015328606

_SERIES_TERMS = 30
_SPLIT = 8.0


def _series_coefficients() -> tuple[np.ndarray, np.ndarray]:
    """Power-series coefficients in q = (x/2)^2, highest order first:

        J0 = sum a_m q^m,   Y0 = (2/pi)[(ln(x/2) + gamma) J0 + sum b_m q^m].
    """
    a = np.empty(_SERIES_TERMS)
    b = np.empty(_SERIES_TERMS)
    a_m = 1.0
    harmonic = 0.0
    for m in range(_SERIES_TERMS):
        a[m] = a_m
        b[m] = -a_m * harmonic
        harmonic += 1.0 / (m + 1.0)
        a_m = -a_m / ((m + 1.0) ** 2)
    return a[::-1].copy(), b[::-1].copy()


_J0_SERIES, _Y0_TAIL = _series_coefficients()


def _horner(coeffs: np.ndarray, q: np.ndarray) -> np.ndarray:
    acc = np.full_like(q, coeffs[0])
    for c in coeffs[1:]:
        acc = acc * q + c
    return acc


def bessel_j0j1y0y1(x, orders=(0, 1)):
    """Evaluate J0, J1, Y0 and Y1 at x (scalar or array), elementwise.

    Parameters
    ----------
    x : float or array_like
        Argument(s); must be nonnegative.  At x = 0 the J values are exact
        (1 and 0) and the Y values are -inf, their limiting value.
    orders : collection of 0 and 1
        J0 and Y0 are computed only if 0 is in it, J1 and Y1 only if 1 is.

    Returns
    -------
    (J0, J1, Y0, Y1) : floats or ndarrays matching x, None where not asked for

    Raises
    ------
    ValueError
        If any argument is negative (the Y family has no real value there).
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("bessel_j0j1y0y1 requires x >= 0")
    sp = scipy.special
    functions = ((sp.j0, 0), (sp.j1, 1), (sp.y0, 0), (sp.y1, 1))
    values = tuple(fn(x_arr) if n in orders else None for fn, n in functions)
    if x_arr.ndim == 0:
        return tuple(None if v is None else float(v) for v in values)
    return values


def bessel_arrays(nmax: int, x: float):
    """J_0..J_nmax and Y_0..Y_nmax at a positive scalar argument.

    Raises OverflowError naming the first order at which Y_n leaves the
    representable range, and ValueError for nmax < 1 or x <= 0.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    x = float(x)
    if x <= 0.0:
        raise ValueError("bessel_arrays requires x > 0")

    orders = np.arange(nmax + 1)
    y = scipy.special.yv(orders, x)
    overflow = ~(np.abs(y) <= 1e305)
    if np.any(overflow):
        n = int(np.argmax(overflow))
        raise OverflowError(
            f"Y_n overflows at order {n} for x = {x}; "
            f"orders up to {n - 1} are representable"
        )
    return scipy.special.jv(orders, x), y


def h0_smooth_remainder(k: float, r):
    """Smooth part W of the splitting H0^(1)(k r) = (2i/pi) ln(r) J0(k r) + W(r).

    W is an even analytic function of r, finite at r = 0, which makes it the
    piece a Gauss rule can integrate accurately once the logarithm has been
    removed.  From the Y0 series,

        W(r) = J0(k r) [1 + (2i/pi)(ln(k/2) + gamma)] + (2i/pi) S0(k r),

    with S0 the polynomial tail of Y0 in q = (k r)^2 / 4.  Requires k r within
    the power-series range; panels are always a fraction of a wavelength long,
    so this never triggers in practice.
    """
    if k <= 0.0:
        raise ValueError("h0_smooth_remainder requires k > 0")
    r_arr = np.asarray(r, dtype=float)
    x = k * r_arr
    if np.any(x < 0.0):
        raise ValueError("h0_smooth_remainder requires r >= 0")
    if np.any(x > _SPLIT):
        raise ValueError(
            f"h0_smooth_remainder requires k r <= {_SPLIT}; got max {np.max(x):.3g}"
        )
    q = 0.25 * x * x
    j0 = _horner(_J0_SERIES, q)
    s0 = _horner(_Y0_TAIL, q)
    two_i_over_pi = 2j / math.pi
    out = j0 * (1.0 + two_i_over_pi * (math.log(0.5 * k) + EULER_GAMMA)) + two_i_over_pi * s0
    if np.ndim(r) == 0:
        return complex(out if np.ndim(out) == 0 else out[()])
    return out
