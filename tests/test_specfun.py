"""Special-function layer: the Bessel wrappers around scipy.special.

The wrappers are checked for their contract (domain errors, values at the
origin, overflow reporting) and against a handful of high-precision spot
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
J10_5 = 0.001467802647310474


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


def test_arrays_consistent_with_pointwise_values():
    j, y = specfun.bessel_arrays(1, 2.7)
    j0, j1, y0, y1 = specfun.bessel_j0j1y0y1(np.array([2.7]))
    assert_allclose(j, np.concatenate([j0, j1]), rtol=1e-12)
    assert_allclose(y, np.concatenate([y0, y1]), rtol=1e-12)


@pytest.mark.parametrize("x", [1.0, 5.0, 20.0])
def test_arrays_wronskian(x):
    j, y = specfun.bessel_arrays(60, x)
    wron = j[:-1] * y[1:] - j[1:] * y[:-1]
    assert_allclose(wron, -2.0 / (np.pi * x), atol=1e-9)


@pytest.mark.parametrize("nmax,x", [(60, 1.0), (60, 20.0), (29, 50.0), (200, 30.0), (10, 100.0)])
def test_arrays_against_scipy(nmax, x):
    j, y = specfun.bessel_arrays(nmax, x)
    orders = np.arange(nmax + 1)
    ref_j = sp.jv(orders, x)
    ref_y = sp.yv(orders, x)
    mask = np.abs(ref_j) > 1e-250
    assert np.max(np.abs(j[mask] - ref_j[mask]) / np.abs(ref_j[mask])) < 1e-9
    assert np.max(np.abs(y - ref_y) / np.abs(ref_y)) < 1e-9


def test_arrays_spot_value():
    j, _ = specfun.bessel_arrays(10, 5.0)
    assert_allclose(j[10], J10_5, rtol=1e-9)


def test_arrays_overflow_reported():
    with pytest.raises(OverflowError, match="order"):
        specfun.bessel_arrays(200, 0.05)


def test_arrays_domain():
    with pytest.raises(ValueError):
        specfun.bessel_arrays(0, 1.0)
    with pytest.raises(ValueError):
        specfun.bessel_arrays(5, -1.0)
    # orders above 200 are served: the disk series at k a = 160 needs 214
    x = 160.0
    j, y = specfun.bessel_arrays(214, x)
    wron = j[:-1] * y[1:] - j[1:] * y[:-1]
    assert_allclose(wron, -2.0 / (np.pi * x), rtol=1e-12)
