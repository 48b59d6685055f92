"""Separation-of-variables reference for a sound-soft disk.

For a plane wave exp(i k beta . x) hitting a disk of radius a, writing
(r, theta) for polar coordinates about the center with theta measured from
the propagation direction, the scattered field is

    u(r, theta) = - sum_n  i^n  [J_n(k a) / H_n^(1)(k a)]  H_n^(1)(k r)  e^(i n theta)

over all integer n.  On r = a the sum collapses to minus the Jacobi-Anger
expansion of the incident wave, which is exactly the sound-soft boundary
condition; that cancellation doubles as the primary correctness test.  The
n and -n terms are equal, so the sum runs over n >= 0 with the n > 0 terms
doubled, and one vectorised Hankel call serves every order and point.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy

from . import geometry, specfun


def truncation_order(k: float, radius: float) -> int:
    """Default series length: the cylinder-function tail is super-exponential
    past n = k a, and this margin pushes it below 1e-10."""
    ka = k * radius
    return int(math.ceil(ka + 8.0 * ka ** (1.0 / 3.0) + 10.0))


@dataclasses.dataclass(frozen=True)
class MieConfig:
    """Disk scattering setup: wavenumber, disk, and incident direction."""

    k: float
    radius: float
    center: tuple[float, float] = (0.0, 0.0)
    beta: tuple[float, float] = (0.0, 1.0)
    nmax: int | None = None

    def validate(self) -> "MieConfig":
        geometry.check_positive(self.k, "wavenumber")
        geometry.check_positive(self.radius, "radius")
        geometry.check_unit_direction(self.beta)
        if self.nmax is not None and self.nmax < self.k * self.radius:
            raise ValueError("MieConfig requires nmax >= k * radius")
        return self

    def order(self) -> int:
        return self.nmax if self.nmax is not None else truncation_order(self.k, self.radius)


def mie_scattered(cfg: MieConfig, points) -> np.ndarray:
    """Scattered field of the disk at points on or outside its boundary."""
    cfg.validate()
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (m, 2)")
    d = pts - np.asarray(cfg.center)
    r = np.hypot(d[:, 0], d[:, 1])
    if np.any(r < cfg.radius * (1.0 - 1e-12)):
        raise ValueError("mie_scattered is defined on and outside the disk only")

    nmax = cfg.order()
    orders = np.arange(nmax + 1)
    j_a, y_a = specfun.bessel_arrays(nmax, cfg.k * cfg.radius)
    coeff = (1j ** orders) * j_a / (j_a + 1j * y_a)
    coeff[1:] *= 2.0

    bx, by = cfg.beta
    theta = np.arctan2(bx * d[:, 1] - by * d[:, 0], d[:, 0] * bx + d[:, 1] * by)
    cos_n = np.cos(orders[:, None] * theta[None, :])
    h_r = scipy.special.hankel1(orders[:, None], cfg.k * r[None, :])
    return -np.einsum("n,nm,nm->m", coeff, h_r, cos_n)
