"""Special-function layer: the Bessel wrappers around scipy.special.

The wrappers are checked for their contract (domain errors, values at the
origin, the choice of orders) and against a handful of high-precision spot
values frozen from a 30-digit computation.
"""

import numpy as np
import pytest
import scipy.special as sp
from numpy.testing import assert_allclose

from multiscat import specfun

# 30-digit reference values, truncated to double precision.
J0_1 = 0.765197686557966552
Y0_1 = 0.088256964215676956
J1_1 = 0.440050585744933516
Y1_1 = -0.781212821300288717


def test_values_at_one():
    j0, j1, y0, y1 = specfun.bessel_j0j1y0y1(np.array([1.0]))
    assert_allclose(np.concatenate([j0, j1, y0, y1]), [J0_1, J1_1, Y0_1, Y1_1], atol=1e-8)


def test_values_at_origin():
    j0, j1, y0, y1 = specfun.bessel_j0j1y0y1(np.array([0.0, 1.0]))
    assert j0[0] == 1.0
    assert j1[0] == 0.0
    assert y0[0] == -np.inf and y1[0] == -np.inf


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        specfun.bessel_j0j1y0y1(np.array([1.0, -0.5]))


@pytest.mark.parametrize("orders", [(0,), (1,), ()])
def test_only_the_requested_orders_are_evaluated(orders):
    x = np.linspace(0.1, 20.0, 50)
    full = specfun.bessel_j0j1y0y1(x)
    part = specfun.bessel_j0j1y0y1(x, orders)
    for slot, n in enumerate((0, 1, 0, 1)):
        if n in orders:
            assert np.array_equal(part[slot], full[slot])
        else:
            assert part[slot] is None


def test_one_order_at_one():
    j0, j1, y0, y1 = specfun.bessel_j0j1y0y1(np.array([1.0]), (1,))
    assert j0 is None and y0 is None
    assert_allclose(np.concatenate([j1, y1]), [J1_1, Y1_1], atol=1e-8)


def test_grid_against_scipy():
    # the acceptance budget: 1e-8 absolute on 1e4 points in (0, 50]
    x = np.linspace(50.0 / 10_000, 50.0, 10_000)
    j0, j1, y0, y1 = specfun.bessel_j0j1y0y1(x)
    assert_allclose(j0, sp.j0(x), atol=1e-8)
    assert_allclose(j1, sp.j1(x), atol=1e-8)
    assert_allclose(y0, sp.y0(x), atol=1e-8)
    assert_allclose(y1, sp.y1(x), atol=1e-8)


def test_wide_logarithmic_grid():
    x = np.logspace(-3, 3, 4000)
    j0, j1, y0, y1 = specfun.bessel_j0j1y0y1(x)
    assert_allclose(j0, sp.j0(x), atol=1e-8)
    assert_allclose(y1, sp.y1(x), atol=1e-8)
