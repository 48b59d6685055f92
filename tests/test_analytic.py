"""Disk scattering series against its defining properties."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import hankel1 as scipy_hankel1
from scipy.special import jv

from multiscat import analytic

BETA = (0.6, 0.8)


def config(k=5.0, radius=1.0, **kw):
    return analytic.MieConfig(k=k, radius=radius, beta=BETA, **kw)


def incident(k, beta, pts):
    return np.exp(1j * k * (pts @ np.asarray(beta)))


def ring(radius, m=64):
    t = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    return radius * np.stack([np.cos(t), np.sin(t)], axis=1)


def test_boundary_condition_cancels_incident_wave():
    cfg = config()
    pts = ring(1.0, m=128)
    total = analytic.mie_scattered(cfg, pts) + incident(cfg.k, cfg.beta, pts)
    assert np.max(np.abs(total)) <= 1e-10


@pytest.mark.parametrize("ka", [1.0, 20.0, 30.0, 50.0, 100.0])
def test_boundary_condition_holds_across_k_a(ka):
    """The series' own J_n(k a) and Y_n(k a), from 19 orders at k a = 1 to 148
    at k a = 100, cancel the incident wave on the boundary."""
    cfg = config(k=ka)
    pts = ring(1.0, m=128)
    total = analytic.mie_scattered(cfg, pts) + incident(cfg.k, cfg.beta, pts)
    assert np.max(np.abs(total)) <= 1e-10


def test_boundary_condition_holds_past_order_200():
    cfg = config(k=160.0)
    assert analytic.truncation_order(cfg.k, cfg.radius) > 200
    pts = ring(1.0, m=256)
    total = analytic.mie_scattered(cfg, pts) + incident(cfg.k, cfg.beta, pts)
    assert np.max(np.abs(total)) <= 1e-10


def test_reflection_symmetry_across_beta():
    cfg = config()
    rng = np.random.default_rng(2)
    radii = rng.uniform(1.1, 6.0, 40)
    angles = rng.uniform(-np.pi, np.pi, 40)
    beta = np.asarray(BETA)
    perp = np.array([-beta[1], beta[0]])
    pts = radii[:, None] * (
        np.cos(angles)[:, None] * beta[None, :] + np.sin(angles)[:, None] * perp[None, :]
    )
    mirror = radii[:, None] * (
        np.cos(angles)[:, None] * beta[None, :] - np.sin(angles)[:, None] * perp[None, :]
    )
    assert_allclose(
        analytic.mie_scattered(cfg, mirror), analytic.mie_scattered(cfg, pts), rtol=1e-12
    )


def test_truncation_stability(monkeypatch):
    rng = np.random.default_rng(4)
    pts = rng.uniform(-10.0, 10.0, (60, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) >= 1.0]
    v1 = analytic.mie_scattered(config(), pts)
    default = analytic.truncation_order
    monkeypatch.setattr(analytic, "truncation_order", lambda k, radius: default(k, radius) + 10)
    v2 = analytic.mie_scattered(config(), pts)
    assert np.max(np.abs(v1 - v2)) <= 1e-10


def test_inside_disk_rejected():
    with pytest.raises(ValueError):
        analytic.mie_scattered(config(), np.array([[0.5, 0.0]]))


def test_overflow_names_the_first_unrepresentable_order():
    """At k a = 1e-30 the series' 11 orders do not all fit a double: Y_10
    overflows, and the refusal names it and the last order that fits."""
    with pytest.raises(OverflowError, match=r"^Y_n overflows at order 10 for x = 1e-30; "
                                            r"orders up to 9 are representable$"):
        analytic.mie_scattered(config(k=1e-30), ring(2.0, m=4))


@pytest.mark.parametrize("k,order", [(1e-50, 7), (1e-100, 4)])
def test_overflow_order_falls_as_k_a_shrinks(k, order):
    with pytest.raises(OverflowError, match=rf"^Y_n overflows at order {order} for x = {k}; "
                                            rf"orders up to {order - 1} are representable$"):
        analytic.mie_scattered(config(k=k), ring(2.0, m=4))


def test_config_validation():
    with pytest.raises(ValueError):
        analytic.MieConfig(k=-1.0, radius=1.0).validate()
    with pytest.raises(ValueError):
        analytic.MieConfig(k=1.0, radius=0.0).validate()
    with pytest.raises(ValueError):
        analytic.MieConfig(k=1.0, radius=1.0, beta=(1.0, 1.0)).validate()
    for k, radius, message in ((np.nan, 1.0, "wavenumber must be finite"),
                               (np.inf, 1.0, "wavenumber must be finite"),
                               (0.0, 1.0, "wavenumber must be positive"),
                               (1.0, np.nan, "radius must be finite"),
                               (1.0, -np.inf, "radius must be finite"),
                               (1.0, -1.0, "radius must be positive")):
        with pytest.raises(ValueError, match=message):
            analytic.MieConfig(k=k, radius=radius).validate()
        with pytest.raises(ValueError, match=message):
            analytic.mie_scattered(analytic.MieConfig(k=k, radius=radius), [[3.0, 0.0]])


def test_config_takes_the_scene_unit_direction_rule():
    # unit length to a relative 1e-9, as every scene's beta
    analytic.MieConfig(k=1.0, radius=1.0, beta=(0.6, 0.8000000001)).validate()
    with pytest.raises(ValueError, match="unit vector"):
        analytic.MieConfig(k=1.0, radius=1.0, beta=(1.0, 1.0)).validate()


def test_discrete_helmholtz_residual():
    cfg = config()
    h = 1e-3
    rng = np.random.default_rng(6)
    radii = rng.uniform(1.2, 10.0 / cfg.k, 10) * cfg.radius
    radii = np.clip(radii, 1.2 * cfg.radius, None)
    angles = rng.uniform(0.0, 2.0 * np.pi, 10)
    centers = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    offsets = np.array([[0.0, 0.0], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    for c in centers:
        vals = analytic.mie_scattered(cfg, c[None, :] + offsets)
        laplacian = (vals[1:].sum() - 4.0 * vals[0]) / h**2
        assert abs(laplacian + cfg.k**2 * vals[0]) <= 1e-4


def test_far_field_cylindrical_decay():
    cfg = config()
    pts = np.array([[200.0, 40.0], [800.0, 160.0]])
    vals = np.abs(analytic.mie_scattered(cfg, pts))
    scaled = vals * np.sqrt(np.hypot(pts[:, 0], pts[:, 1]))
    assert abs(scaled[0] / scaled[1] - 1.0) <= 0.02


def test_matches_independent_scipy_series():
    cfg = config()
    pts = ring(2.5, m=32) + np.array([0.01, -0.02])
    mine = analytic.mie_scattered(cfg, pts)
    d = pts
    r = np.hypot(d[:, 0], d[:, 1])
    theta = np.arctan2(
        BETA[0] * d[:, 1] - BETA[1] * d[:, 0], d[:, 0] * BETA[0] + d[:, 1] * BETA[1]
    )
    ka = cfg.k * cfg.radius
    ref = np.zeros(pts.shape[0], dtype=complex)
    for n in range(-40, 41):
        cn = (1j**n) * jv(n, ka) / scipy_hankel1(n, ka)
        ref -= cn * scipy_hankel1(n, cfg.k * r) * np.exp(1j * n * theta)
    assert_allclose(mine, ref, rtol=1e-9)


@pytest.mark.parametrize("angle", [0.3, 2.0, -2.9])
def test_rotation_covariance(angle):
    """Rotating the receivers and the incident direction together leaves the
    field unchanged: the series sees only r and the angle from beta."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    rng = np.random.default_rng(8)
    pts = ring(1.0, m=16) * rng.uniform(1.0, 6.0, (16, 1))
    base = analytic.mie_scattered(config(), pts)
    turned = analytic.mie_scattered(
        analytic.MieConfig(k=5.0, radius=1.0, beta=tuple(rot @ np.asarray(BETA))), pts @ rot.T
    )
    assert_allclose(turned, base, rtol=1e-12)


@pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
def test_scale_covariance(scale):
    """The field depends on k, a and the receivers only through k a and k x."""
    pts = ring(1.0, m=16) * np.linspace(1.0, 6.0, 16)[:, None]
    base = analytic.mie_scattered(config(), pts)
    scaled = analytic.mie_scattered(config(k=5.0 / scale, radius=scale), pts * scale)
    assert_allclose(scaled, base, rtol=1e-12)
