"""Galerkin boundary-element assembly for the 2D Helmholtz layer operators.

Conventions.  With G(x, y) = (i/4) H0^(1)(k ||x - y||) the outgoing kernel,
the two boundary operators assembled here are

    L  : kernel  G(x, y)                      (single layer)
    N  : kernel  +d/dn(x) G(x, y)             (adjoint double layer)

tested and trialed against continuous piecewise-linear hat functions on the
polygonal boundary, so entry (i, j) is the double integral of
phi_i(x) K(x, y) phi_j(y) over pairs of panels.  The mass matrix pairs the
same hats with kernel 1.  Global numbering is node-based and contiguous per
obstacle, which makes each obstacle a contiguous diagonal block.

The double layer M, with kernel -d/dn(y) G(x, y), is never assembled.  Its
kernel is that of N with x and y swapped and the sign flipped, and the
Galerkin pairing runs the same tensor rule on both sides of every panel
pair, so its matrix is exactly -N^T; the Brakhage-Werner system reads it
from there.  The off-surface double-layer potential, which is not a
Galerkin matrix, is still evaluated by ``evaluate_potentials``.

Quadrature.  Separated panel pairs use a tensor Gauss rule of order 8 and
adjacent pairs (sharing a node) one of order 16; both kernels are smooth
there.  On a panel paired with itself the N kernel vanishes identically
because (x - y) is parallel to a flat panel, and the single-layer kernel is
integrated by splitting off the logarithm,

    H0^(1)(k r) = (2i/pi) ln(r) J0(k r) + W(r),

integrating ln|s - t| (s - t)^(2m) against the basis products in closed form
and the smooth W by Gauss.  The log moments over the unit square are exact
rationals, generated once by symbolic integration and frozen below.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os

import numpy as np

from . import geometry, specfun

_FAR_ORDER = 8
_NEAR_ORDER = 16
_CHUNK_PAIR_POINTS = 4_000_000
_OPERATOR_KINDS = ("single_layer", "adjoint_double_layer")

_LOG_J0_TERMS = 8

# Moments of (s - t)^(2m) and (s - t)^(2m) ln|s - t| against P1 basis
# products over the unit square.  Column 0 pairs equal endpoint hats
# (phi0, phi0) = (phi1, phi1); column 1 pairs opposite ones.  For a panel of
# length l the physical moment is l^(2m + 2) (ln(l) B[m] + C[m]).
_LOG_B = np.array([
    [1 / 4, 1 / 4],
    [1 / 36, 1 / 18],
    [1 / 120, 1 / 40],
    [1 / 280, 1 / 70],
    [1 / 540, 1 / 108],
    [1 / 924, 1 / 154],
    [1 / 1456, 1 / 208],
    [1 / 2160, 1 / 270],
])
_LOG_C = np.array([
    [-7 / 16, -5 / 16],
    [-1 / 48, -1 / 36],
    [-59 / 14400, -13 / 1600],
    [-103 / 78400, -17 / 4900],
    [-53 / 97200, -7 / 3888],
    [-227 / 853776, -25 / 23716],
    [-307 / 2119936, -29 / 43264],
    [-133 / 1555200, -11 / 24300],
])


@dataclasses.dataclass(frozen=True)
class QuadratureRule:
    """Gauss points and weights on the reference segment [0, 1].

    A rule of n points integrates polynomials through degree 2n - 1 exactly;
    the weights are positive and sum to one.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim != 1 or pts.shape != wts.shape:
            raise ValueError("points and weights must be matching 1-D arrays")
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise ValueError("quadrature points must lie in [0, 1]")
        if np.any(wts <= 0.0):
            raise ValueError("quadrature weights must be positive")
        if abs(wts.sum() - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)


@functools.lru_cache(maxsize=None)
def gauss_rule(order: int) -> QuadratureRule:
    """Gauss-Legendre rule with ``order`` points mapped to [0, 1]."""
    if order < 1:
        raise ValueError("gauss_rule requires order >= 1")
    x, w = np.polynomial.legendre.leggauss(order)
    return QuadratureRule(points=0.5 * (x + 1.0), weights=0.5 * w)


@dataclasses.dataclass(frozen=True)
class AssembledOperator:
    """A dense Galerkin matrix together with what it discretizes.

    ``kind`` is one of single_layer, adjoint_double_layer or mass; ``k`` is
    None for the mass matrix.  The matrix is read-only.
    """

    kind: str
    matrix: np.ndarray
    mesh: object
    k: float | None = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclasses.dataclass(frozen=True)
class PotentialField:
    """Layer-potential values at evaluation points.

    ``near_boundary`` marks points closer to some panel than that panel is
    long; values there are quadrature-limited and should not be trusted.
    """

    values: np.ndarray
    near_boundary: np.ndarray


@dataclasses.dataclass(frozen=True)
class _PanelData:
    start: np.ndarray
    end: np.ndarray
    normal: np.ndarray
    length: np.ndarray
    node0: np.ndarray
    node1: np.ndarray
    next_panel: np.ndarray
    prev_panel: np.ndarray
    count: int


def _panel_data(mesh) -> _PanelData:
    if isinstance(mesh, geometry.SceneMesh):
        parts = mesh.meshes
        offsets = list(mesh.block_offsets)
    elif isinstance(mesh, geometry.ObstacleMesh):
        parts = [mesh]
        offsets = [0, mesh.n_nodes]
    else:
        raise TypeError("expected a SceneMesh or ObstacleMesh")
    starts, ends, normals, lengths = [], [], [], []
    node0, node1, nxt, prv = [], [], [], []
    for om, off in zip(parts, offsets[:-1]):
        nseg = om.segments.shape[0]
        starts.append(om.nodes[om.segments[:, 0]])
        ends.append(om.nodes[om.segments[:, 1]])
        normals.append(om.normals)
        lengths.append(om.lengths)
        node0.append(off + om.segments[:, 0])
        node1.append(off + om.segments[:, 1])
        idx = np.arange(nseg)
        nxt.append(off + (idx + 1) % nseg)
        prv.append(off + (idx - 1) % nseg)
    return _PanelData(
        start=np.concatenate(starts),
        end=np.concatenate(ends),
        normal=np.concatenate(normals),
        length=np.concatenate(lengths),
        node0=np.concatenate(node0),
        node1=np.concatenate(node1),
        next_panel=np.concatenate(nxt),
        prev_panel=np.concatenate(prv),
        count=offsets[-1],
    )


def _basis_weights(rule: QuadratureRule) -> np.ndarray:
    """Rows are weight * phi_alpha at the rule's points, alpha in {0, 1}."""
    u = rule.points
    return np.stack([1.0 - u, u]) * rule.weights[None, :]


def _quad_points(pd: _PanelData, rule: QuadratureRule, sel=None) -> np.ndarray:
    a = pd.start if sel is None else pd.start[sel]
    b = pd.end if sel is None else pd.end[sel]
    return a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]


def _scatter_swept(matrix, pd: _PanelData, row_sel, blocks):
    """Add (nrows, 2, npanels, 2) local blocks into the global matrix.

    Endpoint node indices are a permutation of the panel indices, so each
    fancy-index assignment below touches distinct entries.
    """
    nodes = (pd.node0, pd.node1)
    for a in (0, 1):
        rows = nodes[a][row_sel]
        for b in (0, 1):
            matrix[np.ix_(rows, nodes[b])] += blocks[:, a, :, b]


def assemble_operators(
    mesh,
    k: float,
    kinds=_OPERATOR_KINDS,
    far_order: int = _FAR_ORDER,
    near_order: int = _NEAR_ORDER,
) -> dict:
    """Assemble any subset of {L, N} in one sweep over panel pairs.

    The distance computation and Bessel evaluations dominate the cost and
    are shared between the requested kernels, so asking for both is barely
    slower than asking for one.  Returns a dict keyed by kind.
    """
    if k <= 0.0:
        raise ValueError("assembly requires k > 0")
    kinds = tuple(dict.fromkeys(kinds))
    for kind in kinds:
        if kind not in _OPERATOR_KINDS:
            raise ValueError(f"unknown operator kind {kind!r}")
    if not kinds:
        return {}
    pd = _panel_data(mesh)
    n = pd.count
    needed = len(kinds) * n * n * np.dtype(complex).itemsize
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > physical:
        raise ValueError(
            f"{len(kinds)} dense {n} x {n} operator matrices need {needed / 2**30:.1f} GiB, "
            f"more than the {physical / 2**30:.1f} GiB of physical memory"
        )
    mats = {kind: np.zeros((n, n), dtype=complex) for kind in kinds}

    _far_sweep(mats, pd, k, gauss_rule(far_order))
    _adjacent_pairs(mats, pd, k, gauss_rule(near_order))
    if "single_layer" in mats:
        _same_panel_single_layer(mats["single_layer"], pd, k, gauss_rule(near_order))

    out = {}
    for kind, mat in mats.items():
        if not np.all(np.isfinite(mat)):
            raise RuntimeError(f"non-finite entries in {kind} assembly")
        mat.flags.writeable = False
        out[kind] = AssembledOperator(kind=kind, matrix=mat, mesh=mesh, k=k)
    return out


def _far_sweep(mats, pd: _PanelData, k: float, rule: QuadratureRule):
    """All panel pairs with the smooth rule; self and adjacent pairs are
    masked out here and handled by the dedicated passes."""
    n = pd.count
    g = rule.points.size
    ys = _quad_points(pd, rule)
    wphi = _basis_weights(rule)
    need_dnx = ("adjoint_double_layer" in mats)
    chunk = max(1, _CHUNK_PAIR_POINTS // max(1, g * g * n))
    for lo in range(0, n, chunk):
        sel = np.arange(lo, min(lo + chunk, n))
        ni = sel.size
        diff = ys[sel][:, :, None, None, :] - ys[None, None, :, :, :]
        r = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)
        excluded = np.zeros((ni, n), dtype=bool)
        local = np.arange(ni)
        for cols in (sel, pd.next_panel[sel], pd.prev_panel[sel]):
            excluded[local, cols] = True
        r = np.where(excluded[:, None, :, None], 1.0, r)
        if not np.all(r > 0.0):
            raise RuntimeError("coincident quadrature points on non-adjacent panels")
        dnx = np.einsum("iqjrd,id->iqjr", diff, pd.normal[sel]) if need_dnx else None
        del diff
        j0, j1, y0, y1 = specfun.bessel_j0j1y0y1(k * r)
        grad_factor = (-0.25j * k) * (j1 + 1j * y1) / r if need_dnx else None
        del j1, y1
        scale = np.multiply.outer(pd.length[sel], pd.length)
        excl_rows = np.repeat(local, 3)
        excl_cols = np.stack([sel, pd.next_panel[sel], pd.prev_panel[sel]], axis=1).ravel()
        for kind in mats:
            if kind == "single_layer":
                kernel = 0.25j * (j0 + 1j * y0)
            else:
                kernel = grad_factor * dnx
            local_blocks = np.einsum("aq,iqjr,br->iajb", wphi, kernel, wphi)
            del kernel
            local_blocks[excl_rows, :, excl_cols, :] = 0.0
            local_blocks *= scale[:, None, :, None]
            _scatter_swept(mats[kind], pd, sel, local_blocks)


def _adjacent_pairs(mats, pd: _PanelData, k: float, rule: QuadratureRule):
    """Panels sharing a node, integrated with the higher-order rule.  The
    shared endpoint is never a Gauss point, so the kernel stays finite."""
    n = pd.count
    ti = np.concatenate([np.arange(n), np.arange(n)])
    si = np.concatenate([pd.next_panel, pd.prev_panel])
    xt = _quad_points(pd, rule, ti)
    ys = _quad_points(pd, rule, si)
    wphi = _basis_weights(rule)
    diff = xt[:, :, None, :] - ys[:, None, :, :]
    r = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)
    if not np.all(r > 0.0):
        raise RuntimeError("coincident quadrature points on adjacent panels")
    j0, j1, y0, y1 = specfun.bessel_j0j1y0y1(k * r)
    pair_scale = (pd.length[ti] * pd.length[si])[:, None, None]
    nodes = (pd.node0, pd.node1)
    for kind in mats:
        if kind == "single_layer":
            kernel = 0.25j * (j0 + 1j * y0)
        else:
            grad_factor = (-0.25j * k) * (j1 + 1j * y1) / r
            kernel = grad_factor * np.einsum("pqrd,pd->pqr", diff, pd.normal[ti])
        blocks = np.einsum("aq,pqr,br->pab", wphi, kernel, wphi) * pair_scale
        for a in (0, 1):
            for b in (0, 1):
                np.add.at(mats[kind], (nodes[a][ti], nodes[b][si]), blocks[:, a, b])


def _same_panel_single_layer(matrix, pd: _PanelData, k: float, rule: QuadratureRule):
    """Each panel against itself: closed-form log moments plus Gauss on the
    smooth remainder of H0."""
    u = rule.points
    wphi = _basis_weights(rule)
    udiff = np.abs(u[:, None] - u[None, :])
    remainder = specfun.h0_smooth_remainder(k, pd.length[:, None, None] * udiff[None, :, :])
    blocks = 0.25j * np.einsum("aq,pqr,br->pab", wphi, remainder, wphi)
    blocks *= (pd.length ** 2)[:, None, None]

    log_diag = np.zeros(pd.count)
    log_off = np.zeros(pd.count)
    ln_ell = np.log(pd.length)
    cm = 1.0
    for m in range(_LOG_J0_TERMS):
        power = pd.length ** (2 * m + 2)
        factor = cm * k ** (2 * m)
        log_diag += factor * power * (ln_ell * _LOG_B[m, 0] + _LOG_C[m, 0])
        log_off += factor * power * (ln_ell * _LOG_B[m, 1] + _LOG_C[m, 1])
        cm = -cm / (4.0 * (m + 1) ** 2)
    log_diag *= -1.0 / (2.0 * math.pi)
    log_off *= -1.0 / (2.0 * math.pi)
    blocks[:, 0, 0] += log_diag
    blocks[:, 1, 1] += log_diag
    blocks[:, 0, 1] += log_off
    blocks[:, 1, 0] += log_off

    nodes = (pd.node0, pd.node1)
    for a in (0, 1):
        for b in (0, 1):
            matrix[nodes[a], nodes[b]] += blocks[:, a, b]


def assemble_mass(mesh) -> AssembledOperator:
    """Mass matrix of the P1 hats, tridiagonal-cyclic per obstacle block.

    The local block on a panel of length l is l [[1/3, 1/6], [1/6, 1/3]],
    accumulated exactly with no quadrature.
    """
    pd = _panel_data(mesh)
    matrix = np.zeros((pd.count, pd.count))
    third = pd.length / 3.0
    sixth = pd.length / 6.0
    matrix[pd.node0, pd.node0] += third
    matrix[pd.node1, pd.node1] += third
    matrix[pd.node0, pd.node1] += sixth
    matrix[pd.node1, pd.node0] += sixth
    matrix.flags.writeable = False
    return AssembledOperator(kind="mass", matrix=matrix, mesh=mesh, k=None)


def evaluate_potentials(
    mesh,
    density,
    k: float,
    points,
    layer: str = "single",
    order: int = _FAR_ORDER,
) -> PotentialField:
    """Evaluate a layer potential of a nodal P1 density off the boundary.

    layer "single" integrates G(x, y) rho(y); layer "double" integrates the
    double-layer kernel -d/dn(y) G(x, y).  Points closer to a panel than its
    own length are flagged near_boundary and their values are unreliable.
    """
    if k <= 0.0:
        raise ValueError("evaluate_potentials requires k > 0")
    if layer not in ("single", "double"):
        raise ValueError("layer must be 'single' or 'double'")
    pd = _panel_data(mesh)
    rho = np.asarray(density)
    if rho.shape != (pd.count,):
        raise ValueError(f"density must have one value per node ({pd.count})")
    pts = np.asarray(points, dtype=float)
    single_point = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (m, 2)")

    rule = gauss_rule(order)
    u = rule.points
    g = u.size
    ys = _quad_points(pd, rule)
    coeff = (rho[pd.node0, None] * (1.0 - u)[None, :] + rho[pd.node1, None] * u[None, :])
    coeff = coeff * (rule.weights[None, :] * pd.length[:, None])

    m = pts.shape[0]
    values = np.empty(m, dtype=complex)
    near = np.empty(m, dtype=bool)
    chunk = max(1, _CHUNK_PAIR_POINTS // max(1, pd.count * g))
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        diff = pts[lo:hi][:, None, None, :] - ys[None, :, :, :]
        r = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)
        near[lo:hi] = np.any(r < pd.length[None, :, None], axis=(1, 2))
        r = np.maximum(r, 1e-12)
        j0, j1, y0, y1 = specfun.bessel_j0j1y0y1(k * r)
        if layer == "single":
            kernel = 0.25j * (j0 + 1j * y0)
        else:
            dny = np.einsum("cprd,pd->cpr", diff, pd.normal)
            kernel = (-0.25j * k) * (j1 + 1j * y1) * dny / r
        values[lo:hi] = np.einsum("cpr,pr->c", kernel, coeff)
    if single_point:
        return PotentialField(values=values[:1], near_boundary=near[:1])
    return PotentialField(values=values, near_boundary=near)
