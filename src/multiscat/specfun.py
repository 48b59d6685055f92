"""Cylinder functions for the 2D Helmholtz kernel.

Every Bessel value comes from ``scipy.special``, or from scipy's values at
two orders by the three-term recurrence in its stable direction; this
module adds the argument checks that assembly and field evaluation rely on,
and a choice of orders so that a layer pays only for the functions it needs.
"""

from __future__ import annotations

import numpy as np
import scipy


def bessel_j0j1y0y1(x, orders=(0, 1)):
    """Evaluate J0, J1, Y0 and Y1 at the array x, elementwise.

    Parameters
    ----------
    x : array_like
        Argument(s); must be nonnegative.  At x = 0 the J values are exact
        (1 and 0) and the Y values are -inf, their limiting value.
    orders : collection of 0 and 1
        J0 and Y0 are computed only if 0 is in it, J1 and Y1 only if 1 is.

    Returns
    -------
    (J0, J1, Y0, Y1) : ndarrays matching x, None where not asked for

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
    return tuple(fn(x_arr) if n in orders else None for fn, n in functions)


def bessel_j_orders(top: int, x) -> np.ndarray:
    """J_0(x) .. J_top(x), shape (top + 1, x.size), for x in [0, top): scipy's
    J_top and J_(top-1), then J_(n-1) = (2n / x) J_n - J_(n+1) downwards,
    stable for J.  Where J_top is not a normal float (x tiny or zero), the
    recurrence would lose the start's digits, and scipy gives every order."""
    jv = scipy.special.jv
    j = np.empty((top + 1, x.size))
    j[top], j[top - 1] = jv(top, x), jv(top - 1, x)
    tiny = j[top] < np.finfo(float).tiny
    inverse = 2.0 / np.where(tiny, 1.0, x)
    for n in range(top - 1, 0, -1):
        np.subtract(n * inverse * j[n], j[n + 1], out=j[n - 1])
    if tiny.any():
        j[:, tiny] = jv(np.arange(top + 1)[:, None], x[tiny])
    return j


def hankel_orders(top: int, x) -> np.ndarray:
    """H_0^(1)(x) .. H_top^(1)(x), shape (top + 1, x.size), for x > 0 and top
    >= 1: H_0 and H_1 from one ``bessel_j0j1y0y1`` call, then H_(n+1) =
    (2n / x) H_n - H_(n-1) upwards, stable for H (Y dominates it)."""
    j0, j1, y0, y1 = bessel_j0j1y0y1(x, (0, 1))
    h = np.empty((top + 1, x.size), dtype=complex)
    h[0].real, h[0].imag, h[1].real, h[1].imag = j0, y0, j1, y1
    for n in range(1, top):
        np.multiply((2.0 * n) / x, h[n], out=h[n + 1])
        h[n + 1] -= h[n - 1]
    return h
