"""Special-function layer: the Bessel wrappers around scipy.special and the
recurrences from them.

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


def test_j_orders_by_downward_recurrence_match_scipy():
    """J_0 .. J_N from the downward recurrence within 1e-12 relative (or
    1e-15, near a zero) of scipy's jv, also where J_N underflows (scipy at
    every order) and at x = 0."""
    x = np.array([0.0, 1e-300, 1e-8, 1e-3, 0.7, 2.4048255576957727, 9.0, 40.0])
    got = specfun.bessel_j_orders(60, x)
    want = sp.jv(np.arange(61)[:, None], x)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-15)


def test_hankel_orders_by_upward_recurrence_match_scipy():
    """H_0 .. H_N from the upward recurrence within 1e-12 of scipy's
    hankel1, relative to each value (3e-13 at most, at orders near 200 and
    x = 400 .. 1000), at the orders and arguments of the disk's
    circular-wave expansions at k R = 1e-3 .. 5, 40 and 200 (N = 47, 78,
    257, with x from 2 k R): H_47(2e-3) is near 1e198, and J's share of H
    is lost to Y's past n = x, within that bound."""
    for top, x in ((47, [2e-3, 0.5, 2.0, 10.0]), (78, [80.0, 200.0]), (257, [400.0, 1000.0])):
        got = specfun.hankel_orders(top, np.array(x))
        want = sp.hankel1(np.arange(top + 1)[:, None], np.array(x))
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
