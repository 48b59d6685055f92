"""Separation-of-variables reference for a sound-soft disk.

For a plane wave exp(i k beta . x) hitting a disk of radius a, writing
(r, theta) for polar coordinates about the center with theta measured from
the propagation direction, the scattered field is

    u(r, theta) = - sum_n  i^n  [J_n(k a) / H_n^(1)(k a)]  H_n^(1)(k r)  e^(i n theta)

over all integer n.  On r = a the sum collapses to minus the Jacobi-Anger
expansion of the incident wave, which is exactly the sound-soft boundary
condition; that cancellation doubles as the primary correctness test.  The
n and -n terms are equal, so the sum runs over n >= 0 with the n > 0 terms
doubled, and one vectorised Hankel call serves every order and distinct
radius.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy

from . import geometry


def truncation_order(k: float, radius: float) -> int:
    """Default series length: the cylinder-function tail is super-exponential
    past n = k a, and this margin pushes it below 1e-10."""
    ka = k * radius
    return int(math.ceil(ka + 8.0 * ka ** (1.0 / 3.0) + 10.0))


@dataclasses.dataclass(frozen=True)
class MieConfig:
    """Disk scattering setup: wavenumber, radius of the disk centred at the
    origin, and incident direction."""

    k: float
    radius: float
    beta: tuple[float, float] = (0.0, 1.0)

    def validate(self) -> "MieConfig":
        geometry.check_positive(self.k, "wavenumber")
        geometry.check_positive(self.radius, "radius")
        geometry.check_unit_direction(self.beta)
        return self


def mie_scattered(cfg: MieConfig, points) -> np.ndarray:
    """Scattered field of the disk at points on or outside its boundary; an
    OverflowError names the first order at which Y_n(k a) overflows."""
    cfg.validate()
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (m, 2)")
    x, y = pts.T
    r = np.hypot(x, y)
    if np.any(r < cfg.radius * (1.0 - 1e-12)):
        raise ValueError("mie_scattered is defined on and outside the disk only")

    orders = np.arange(truncation_order(cfg.k, cfg.radius) + 1)
    ka = float(cfg.k * cfg.radius)
    y_a = scipy.special.yv(orders, ka)
    overflow = ~(np.abs(y_a) <= 1e305)
    if np.any(overflow):
        n = int(np.argmax(overflow))
        raise OverflowError(
            f"Y_n overflows at order {n} for x = {ka}; "
            f"orders up to {n - 1} are representable"
        )
    j_a = scipy.special.jv(orders, ka)
    coeff = (1j ** orders) * j_a / (j_a + 1j * y_a)
    coeff[1:] *= 2.0

    bx, by = cfg.beta
    theta = np.arctan2(bx * y - by * x, x * bx + y * by)
    cos_n = np.cos(orders[:, None] * theta[None, :])
    # one Hankel evaluation per distinct radius: a circle of receivers shares one
    radii, at = np.unique(r, return_inverse=True)
    h_r = scipy.special.hankel1(orders[:, None], cfg.k * radii[None, :])[:, at]
    return -np.einsum("n,nm,nm->m", coeff, h_r, cos_n)
