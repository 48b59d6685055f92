"""2D multiple-scattering boundary element solver.

Assembles the four classical boundary integral formulations of sound-soft
Helmholtz scattering (EFIE, MFIE, CFIE, Brakhage-Werner) with Galerkin P1
elements on polygonal obstacle boundaries, applies the single-scattering
block preconditioner, and verifies numerically that the preconditioned
systems coincide (direct formulations) or are similar (Brakhage-Werner).

Every module reaches scipy's submodules through ``import scipy``
(``scipy.linalg``, ``scipy.special``), which loads each on first use and
keeps them out of ``import multiscat``.
"""

__version__ = "0.1.0"

from . import analytic, bem, cli, formulations, geometry, linalg, specfun, verify

__all__ = [
    "analytic",
    "bem",
    "cli",
    "formulations",
    "geometry",
    "linalg",
    "specfun",
    "verify",
    "__version__",
]
