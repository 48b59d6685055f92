"""Cylinder functions for the 2D Helmholtz kernel.

Every Bessel value comes from ``scipy.special``; this module adds the
argument checks that assembly and field evaluation rely on, and a choice of
orders so that a layer pays only for the functions it needs.
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
