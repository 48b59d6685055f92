"""Galerkin boundary-element assembly for the 2D Helmholtz layer operators.

Conventions.  With G(x, y) = (i/4) H0^(1)(k ||x - y||) the outgoing kernel,
the two boundary operators assembled here are

    L  : kernel  G(x, y)                      (single layer)
    N  : kernel  +d/dn(x) G(x, y)             (adjoint double layer)

tested and trialed against continuous piecewise-linear hat functions on the
polygonal boundary, so entry (i, j) is the double integral of
phi_i(x) K(x, y) phi_j(y) over pairs of panels.  The mass matrix pairs the
same hats with kernel 1; it has three nonzeros per row and is kept as three
bands (``BandedMass``).  Every mesh is a ``geometry.SceneMesh``: panel i runs
from node i to node ``next_node[i]``, and obstacle p's nodes
``block_range(p)`` index a contiguous diagonal block.

The double layer M, with kernel -d/dn(y) G(x, y), is never assembled.  Its
kernel is that of N with x and y swapped and the sign flipped, and the
Galerkin pairing runs the same tensor rule on both sides of every panel
pair, so its matrix is exactly -N^T; the Brakhage-Werner system reads it
from there.  The off-surface double-layer potential, which is not a
Galerkin matrix, is still evaluated by ``evaluate_potentials``.

Quadrature.  One routine integrates pairs of distinct panels: given a list
of unordered pairs and a tensor Gauss rule, it evaluates the kernels once
per pair of quadrature points and adds the pair's blocks in both orders to
each requested matrix.  L's second block is the transpose of its first; N's
comes from the same r and G'(r) with -(x - y) and the other panel's normal.
Pairs sharing no node come a block of rows at a time, at an order chosen by
the pair's separation, its midpoint distance over the longer panel's
length h, and by k h (see ``_SEPARATED_ORDERS``); pairs sharing a node take
order 16.  Both keys are symmetric in the pair, so M = -N^T stays exact.
A group's kernels come in pieces of ``_PIECE_PAIR_POINTS`` point pairs at
most and its blocks are scattered once, in pair order: an entry sums up to
four pairs' blocks, so any other grouping or order would change its rounding.
On node-sharing pairs neither kernel is smooth: L has a ln r singularity at
the shared vertex and N's kernel is homogeneous of degree -1 there, so the
tensor rule converges only algebraically on them.  ``evaluate_potentials``
uses the same kernels and bands: a receiver x takes, on every panel, the
largest band order over the panels p keyed on |x - mid_p| / h_p and k h_p.
The receivers are evaluated in pieces on a thread per CPU the process may
use; a receiver's value depends on that receiver alone, so the values do
not depend on the split.  On a panel paired with itself the N kernel
vanishes identically because (x - y) is parallel to a flat panel.  L's
kernel there depends on u = |s - t| alone, so its block is a 1-D integral
in u against the autocorrelation of the hats; splitting off the logarithm,

    H0^(1)(k l u) = (2i/pi) ln(u) J0(k l u) + W(u),

the order-16 Gauss rule integrates the smooth W and product-integration
weights for ln u at the same points integrate the rest, so every Bessel
value is taken at an interior point and comes from scipy.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import math
import os

import numpy as np

from . import geometry, specfun

_NEAR_ORDER = 16
# Tensor Gauss order of a pair of panels sharing no node.  With h the longer
# panel's length and s the distance between the midpoints over h, a pair
# takes the order of the first row whose s >= its first column and k h <= its
# second.  The error falls as s grows (the kernel's singularity recedes) and
# as k h shrinks (the kernel oscillates less over a panel).  Measured on the
# desk scene at ppw 4 to 30 against order 16, no row moves a pair's blocks by
# more than 1e-9 of the largest entry of L or N.
_SEPARATED_ORDERS = (
    (16.0, 0.25, 3),
    (4.0, 0.8, 4),
    (2.5, 1.6, 5),
    (0.0, math.inf, 8),
)
_CHUNK_PAIR_POINTS = 4_000_000
# Quadrature-point pairs per kernel piece.  Desk assembly at ppw 15 and 30
# took 0.13-0.14 and 0.33-0.35 s (medians of 7) with pieces of 16k or 64k
# points, and its peak RSS grew 15 MiB at ppw 15 with 16k, 23 MiB with 64k.
_PIECE_PAIR_POINTS = 16_384
# Receiver-Gauss-point pairs per piece of field evaluation.  Each thread's
# allocator arena keeps about its largest piece after freeing it, so small
# pieces hold peak RSS down: on the disk-field grid on two CPUs, pieces of
# 250k points took no longer than one 640k-point piece per CPU and peaked
# about 30 MiB lower; pieces of 60k points took longer.
_FIELD_PIECE_POINTS = 250_000
_OPERATOR_KINDS = ("single_layer", "adjoint_double_layer")


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


@functools.lru_cache(maxsize=None)
def _log_weights(order: int) -> np.ndarray:
    """Weights at the points of ``gauss_rule(order)`` that integrate ln(u)
    f(u) over [0, 1] exactly for every polynomial f of degree below
    ``order``: they match the moments of ln(u) against the shifted Legendre
    polynomials, -1 for P_0 and (-1)^(n+1) / (n (n+1)) for P_n."""
    u = gauss_rule(order).points
    n = np.arange(1, order)
    moments = np.concatenate([[-1.0], (-1.0) ** (n + 1) / (n * (n + 1))])
    legendre = np.polynomial.legendre.legvander(2.0 * u - 1.0, order - 1)
    weights = np.linalg.solve(legendre.T, moments)
    weights.flags.writeable = False
    return weights


@dataclasses.dataclass(frozen=True)
class AssembledOperator:
    """A dense Galerkin matrix together with what it discretizes.

    ``kind`` is single_layer or adjoint_double_layer.  The matrix is
    read-only.
    """

    kind: str
    matrix: np.ndarray
    k: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclasses.dataclass(frozen=True)
class BandedMass:
    """The mass matrix of the P1 hats as three bands per node: row i holds
    ``diagonal[i]`` at column i and ``off[i]`` at column next_node[i], and
    row next_node[i] holds ``off[i]`` at column i; every other entry is
    zero.  The bands are read-only."""

    diagonal: np.ndarray
    off: np.ndarray
    next_node: np.ndarray

    @property
    def n(self) -> int:
        return self.diagonal.size

    def _bands(self):
        """(rows, columns, values) of each band; each is a permutation of
        the nodes, so a fancy-index addition touches distinct entries."""
        i, nxt = np.arange(self.n), self.next_node
        return (i, i, self.diagonal), (i, nxt, self.off), (nxt, i, self.off)

    def __matmul__(self, v):
        out = np.zeros(self.n, dtype=np.result_type(self.diagonal, v))
        for rows, cols, values in self._bands():
            out[rows] += values * v[cols]
        return out

    def add_to(self, out, lo: int, c0: int, scale) -> None:
        """out += scale M[lo:lo + m, c0:c0 + c] in place, for out of shape
        (m, c); each entry gains one term, as from a dense M."""
        m, c = out.shape
        for rows, cols, values in self._bands():
            inside = (rows >= lo) & (rows < lo + m) & (cols >= c0) & (cols < c0 + c)
            out[rows[inside] - lo, cols[inside] - c0] += scale * values[inside]

    def toarray(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n))
        self.add_to(dense, 0, 0, 1.0)
        return dense


@dataclasses.dataclass(frozen=True)
class PotentialField:
    """Layer-potential values at evaluation points.

    ``near_boundary`` marks points closer to some panel than that panel is
    long; values there are quadrature-limited and should not be trusted.
    """

    values: np.ndarray
    near_boundary: np.ndarray


def _check_mesh(mesh) -> None:
    if not isinstance(mesh, geometry.SceneMesh):
        raise TypeError("expected a SceneMesh")


def _basis_weights(rule: QuadratureRule) -> np.ndarray:
    """Rows are weight * phi_alpha at the rule's points, alpha in {0, 1}."""
    u = rule.points
    return np.stack([1.0 - u, u]) * rule.weights[None, :]


def _quad_points(mesh, rule: QuadratureRule) -> np.ndarray:
    edge = mesh.nodes[mesh.next_node] - mesh.nodes
    return mesh.nodes[:, None, :] + rule.points[None, :, None] * edge[:, None, :]


def _separation(x, y, normals=()):
    """r = |x - y| and the list of (x - y).n for each n in ``normals``; the
    arguments broadcast over all but their last axis, of length 2."""
    dx = x[..., 0] - y[..., 0]
    dy = x[..., 1] - y[..., 1]
    r = np.sqrt(dx ** 2 + dy ** 2)
    along = [dx * n[..., 0] + dy * n[..., 1] for n in normals[:-1]]
    if normals:
        # the last formed in place, to hold no temporaries
        dx *= normals[-1][..., 0]
        dy *= normals[-1][..., 1]
        along.append(np.add(dx, dy, out=dx))
    return r, along


def _kernels(k: float, r: np.ndarray, single: bool, double: bool):
    """(G, F) at distances r > 0 from one Bessel evaluation: G = (i/4)
    H0^(1)(k r) if ``single``, and F = G'(r) / r if ``double``, else None.
    F (x - y).n is d/dn(x) G when n belongs to x, and -d/dn(y) G when it
    belongs to y."""
    orders = tuple(n for n, wanted in ((0, single), (1, double)) if wanted)
    j0, j1, y0, y1 = specfun.bessel_j0j1y0y1(k * r, orders)
    g = 0.25j * (j0 + 1j * y0) if single else None
    del j0, y0
    f = (-0.25j * k) * (j1 + 1j * y1) / r if double else None
    return g, f


def assemble_operators(mesh, k: float, kinds=_OPERATOR_KINDS) -> dict:
    """Assemble any subset of {L, N} in one pass over panel pairs.

    The distance computation and Bessel evaluations dominate the cost and
    are shared between the requested kernels, so asking for both is barely
    slower than asking for one.  Returns a dict keyed by kind.
    """
    geometry.check_positive(k, "wavenumber")
    kinds = tuple(dict.fromkeys(kinds))
    for kind in kinds:
        if kind not in _OPERATOR_KINDS:
            raise ValueError(f"unknown operator kind {kind!r}")
    if not kinds:
        return {}
    _check_mesh(mesh)
    n = mesh.n_nodes
    needed = len(kinds) * n * n * np.dtype(complex).itemsize
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > physical:
        raise ValueError(
            f"{len(kinds)} dense {n} x {n} operator matrices need {needed / 2**30:.1f} GiB, "
            f"more than the {physical / 2**30:.1f} GiB of physical memory"
        )
    mats = {kind: np.zeros((n, n), dtype=complex) for kind in kinds}

    for order, ti, si in _separated_pairs(mesh, k):
        _add_panel_pairs(mats, mesh, k, gauss_rule(order), ti, si)
    # Each panel i with panel next_node[i], lower index first.  The node they
    # share is never a Gauss point, so the kernels stay finite there.
    panels = np.arange(n)
    first = np.minimum(panels, mesh.next_node)
    second = np.maximum(panels, mesh.next_node)
    _add_panel_pairs(mats, mesh, k, gauss_rule(_NEAR_ORDER), first, second)
    if "single_layer" in mats:
        _scatter(mats["single_layer"], mesh, panels, panels, _same_panel_single_layer(mesh, k))

    out = {}
    for kind, mat in mats.items():
        if not np.all(np.isfinite(mat)):
            raise RuntimeError(f"non-finite entries in {kind} assembly")
        mat.flags.writeable = False
        out[kind] = AssembledOperator(kind=kind, matrix=mat, k=k)
    return out


def _separated_pairs(mesh, k: float):
    """Yield groups (order, ti, si) that hold every pair of panels sharing
    no node exactly once, with ti < si, each at its ``_SEPARATED_ORDERS``
    order.  They come a block of rows at a time, so that no group holds more
    than ``_CHUNK_PAIR_POINTS`` pairs of quadrature points."""
    n, nxt = mesh.n_nodes, mesh.next_node
    # panel i shares a node with panels next_node[i] and prev[i] only
    prev = np.empty_like(nxt)
    prev[nxt] = np.arange(n)
    mid = 0.5 * (mesh.nodes + mesh.nodes[nxt])
    top = max(order for *_, order in _SEPARATED_ORDERS)
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, _CHUNK_PAIR_POINTS // (top ** 2 * (n - lo))))
        rows = np.arange(lo, hi)
        apart = rows[:, None] < np.arange(n)[None, :]
        for cols in (nxt[rows], prev[rows]):
            apart[rows - lo, cols] = False
        ti, si = np.nonzero(apart)
        ti += lo
        h = np.maximum(mesh.lengths[ti], mesh.lengths[si])
        order = _band_order(np.hypot(*(mid[ti] - mid[si]).T) / h, k * h)
        for o in np.unique(order):
            sel = order == o
            yield int(o), ti[sel], si[sel]
        lo = hi


def _band_order(ratio, kh):
    """The ``_SEPARATED_ORDERS`` order of each separation ``ratio`` and k h."""
    return np.select(
        [(ratio >= s) & (kh <= band_kh) for s, band_kh, _ in _SEPARATED_ORDERS],
        [o for *_, o in _SEPARATED_ORDERS],
    )


def _add_panel_pairs(mats, mesh, k: float, rule: QuadratureRule, ti, si):
    """Add the tensor-rule Galerkin blocks of the distinct panel pairs
    {ti[p], si[p]}, in both orders, to every matrix in ``mats``.  One
    distance and one Bessel evaluation serve the block tested on ti[p] and
    the one tested on si[p]: L's second block is the transpose of its
    first, and N's takes the other panel's normal and -(x - y)."""
    xs = _quad_points(mesh, rule)
    single, double = "single_layer" in mats, "adjoint_double_layer" in mats
    wphi = _basis_weights(rule)
    # L's blocks tested on ti, then N's tested on ti and on si
    blocks = np.empty((single + 2 * double, len(ti), 2, 2), dtype=complex)
    step = max(1, _PIECE_PAIR_POINTS // rule.points.size ** 2)
    for lo in range(0, len(ti), step):
        a, b = ti[lo:lo + step], si[lo:lo + step]
        normals = (mesh.normals[a, None, None], -mesh.normals[b, None, None]) if double else ()
        r, along = _separation(xs[a, :, None], xs[b, None, :], normals)
        if not np.all(r > 0.0):
            raise RuntimeError("coincident quadrature points on distinct panels")
        g, f = _kernels(k, r, single, double)
        del r
        scale = mesh.lengths[a] * mesh.lengths[b]
        parts = blocks[:, lo:lo + step]
        if single:
            parts[0] = _contract(g, wphi, scale)
        del g
        for part, side in zip(parts[single:], along):
            part[...] = _contract(f * side, wphi, scale)
    for kind, first, second in (("single_layer", 0, 0), ("adjoint_double_layer", -2, -1)):
        if kind in mats:
            _scatter(mats[kind], mesh, ti, si, blocks[first])
            _scatter(mats[kind], mesh, si, ti, blocks[second].transpose(0, 2, 1))


def _contract(kernel, wphi, scale):
    """blocks[p, a, b] = scale[p] * sum over q, r of wphi[a, q] kernel[p, q, r]
    wphi[b, r], as two matrix products."""
    p, q, _ = kernel.shape
    half = (kernel.reshape(-1, q) @ wphi.T).reshape(p, q, 2)
    half = half.transpose(1, 0, 2).reshape(q, 2 * p)
    return (wphi @ half).reshape(2, p, 2).transpose(1, 0, 2) * scale[:, None, None]


def _scatter(matrix, mesh, ti, si, blocks):
    """Add blocks[p], tested on panel ti[p] and trialed on panel si[p], at
    those panels' end nodes: panel i's are i and next_node[i].  next_node is
    a permutation, so for distinct pairs each fancy-index addition touches
    distinct entries."""
    rows = (ti, mesh.next_node[ti])
    cols = (si, mesh.next_node[si])
    for a in (0, 1):
        for b in (0, 1):
            matrix[rows[a], cols[b]] += blocks[:, a, b]


def _same_panel_single_layer(mesh, k: float) -> np.ndarray:
    """L's 2 x 2 block of each panel with itself.  On a panel of length l
    the kernel depends on u = |s - t| alone, so the block is l^2 (i/4) times
    the integral over [0, 1] of H0^(1)(k l u) against the autocorrelation of
    the two hats, 2/3 - u + u^3/3 for equal hats and 1/3 - u^3/3 for
    opposite ones.  With H0^(1)(k l u) = (2i/pi) ln(u) J0(k l u) + W(u), W
    smooth, the order-16 Gauss rule integrates W and ``_log_weights`` the
    logarithm, on Bessel values at the rule's interior points."""
    rule = gauss_rule(_NEAR_ORDER)
    u, w = rule.points, rule.weights
    j0, _, y0, _ = specfun.bessel_j0j1y0y1(k * mesh.lengths[:, None] * u, (0,))
    log_part = (2j / math.pi) * (_log_weights(_NEAR_ORDER) - w * np.log(u))
    integrand = w * (j0 + 1j * y0) + log_part * j0
    equal = integrand @ (2.0 / 3.0 - u + u ** 3 / 3.0)
    opposite = integrand @ (1.0 / 3.0 - u ** 3 / 3.0)
    blocks = np.stack([equal, opposite, opposite, equal], axis=1).reshape(-1, 2, 2)
    return (0.25j * mesh.lengths ** 2)[:, None, None] * blocks


def assemble_mass(mesh) -> BandedMass:
    """Mass matrix of the P1 hats, as three bands per node, cyclic through
    ``next_node`` in each obstacle's loop.

    The local block on a panel of length l is l [[1/3, 1/6], [1/6, 1/3]],
    accumulated exactly with no quadrature: node i's diagonal is l_i / 3
    plus that of the panel ending at i, and l_i / 6 couples i and
    next_node[i] both ways.
    """
    _check_mesh(mesh)
    third = mesh.lengths / 3.0
    diagonal = np.empty(mesh.n_nodes)
    diagonal[mesh.next_node] = third
    diagonal += third
    off = mesh.lengths / 6.0
    diagonal.flags.writeable = off.flags.writeable = False
    return BandedMass(diagonal=diagonal, off=off, next_node=mesh.next_node)


def evaluate_potentials(
    mesh,
    density,
    k: float,
    points,
    layer: str = "single",
    order: int = 1,
) -> PotentialField:
    """Evaluate a layer potential of a nodal P1 density off the boundary.

    layer "single" integrates G(x, y) rho(y); layer "double" integrates the
    double-layer kernel -d/dn(y) G(x, y).  Points closer to a panel than its
    own length are flagged near_boundary and their values are unreliable.
    Each point takes one Gauss order on every panel, its band order (see the
    module docstring) or ``order`` if that is larger: ``order`` is the least
    order any point takes, so ``order=32`` is an order-32 rule everywhere.
    The points are split into pieces evaluated on a thread per CPU the
    process may use; the values are the same bit for bit for any split.
    """
    geometry.check_positive(k, "wavenumber")
    if layer not in ("single", "double"):
        raise ValueError("layer must be 'single' or 'double'")
    _check_mesh(mesh)
    n, length = mesh.n_nodes, mesh.lengths
    rho = np.asarray(density)
    if rho.shape != (n,):
        raise ValueError(f"density must have one value per node ({n})")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (m, 2)")

    mid = 0.5 * (mesh.nodes + mesh.nodes[mesh.next_node])
    m = pts.shape[0]
    values = np.empty(m, dtype=complex)
    near = np.empty(m, dtype=bool)
    top = max(order, *(o for *_, o in _SEPARATED_ORDERS))
    # os.sched_getaffinity, the CPUs the process may use, is missing on macOS
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # each piece holds at most _FIELD_PIECE_POINTS points, and the pieces in
    # flight together at most _CHUNK_PAIR_POINTS
    budget = min(_FIELD_PIECE_POINTS, _CHUNK_PAIR_POINTS // workers)
    piece = max(1, min(m // workers, budget // (n * top)))
    normals = (mesh.normals[None, :, None],) if layer == "double" else ()

    def evaluate_piece(lo):
        rows = np.arange(lo, min(lo + piece, m))
        ratio = np.hypot(*(pts[rows, None] - mid[None]).transpose(2, 0, 1)) / length
        orders = np.maximum(order, _band_order(ratio, k * length).max(axis=1))
        for o in np.unique(orders):
            sel = rows[orders == o]
            rule = gauss_rule(int(o))
            u = rule.points
            w = rule.weights * length[:, None]
            coeff = (rho[:, None] * (1.0 - u) + rho[mesh.next_node, None] * u) * w
            r, along = _separation(pts[sel, None, None], _quad_points(mesh, rule)[None], normals)
            near[sel] = np.any(r < length[None, :, None], axis=(1, 2))
            g, f = _kernels(k, np.maximum(r, 1e-12, out=r), layer == "single", layer == "double")
            del r
            kernel = g if f is None else f * along[0]
            del along, g, f
            values[sel] = np.einsum("cpr,pr->c", kernel, coeff)

    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        list(pool.map(evaluate_piece, range(0, m, piece)))  # re-raises a piece's exception
    return PotentialField(values=values, near_boundary=near)
