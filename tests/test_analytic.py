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


def ring(radius, m=64, center=(0.0, 0.0)):
    t = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    return np.asarray(center) + radius * np.stack([np.cos(t), np.sin(t)], axis=1)


def test_boundary_condition_cancels_incident_wave():
    cfg = config()
    pts = ring(1.0, m=128)
    total = analytic.mie_scattered(cfg, pts) + incident(cfg.k, cfg.beta, pts)
    assert np.max(np.abs(total)) <= 1e-10


def test_boundary_condition_holds_past_order_200():
    cfg = config(k=160.0)
    assert cfg.order() > 200
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


def test_truncation_stability():
    base = analytic.truncation_order(5.0, 1.0)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-10.0, 10.0, (60, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) >= 1.0]
    v1 = analytic.mie_scattered(config(nmax=base), pts)
    v2 = analytic.mie_scattered(config(nmax=base + 10), pts)
    assert np.max(np.abs(v1 - v2)) <= 1e-10


def test_inside_disk_rejected():
    with pytest.raises(ValueError):
        analytic.mie_scattered(config(), np.array([[0.5, 0.0]]))


def test_config_validation():
    with pytest.raises(ValueError):
        analytic.MieConfig(k=-1.0, radius=1.0).validate()
    with pytest.raises(ValueError):
        analytic.MieConfig(k=1.0, radius=0.0).validate()
    with pytest.raises(ValueError):
        analytic.MieConfig(k=1.0, radius=1.0, beta=(1.0, 1.0)).validate()
    with pytest.raises(ValueError):
        analytic.MieConfig(k=5.0, radius=2.0, nmax=3).validate()
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


def test_translation_covariance():
    shift = np.array([3.0, -7.0])
    pts = ring(2.0, m=16)
    base = analytic.mie_scattered(config(), pts)
    moved = analytic.mie_scattered(config(center=tuple(shift)), pts + shift)
    assert_allclose(moved, base, rtol=1e-13)
