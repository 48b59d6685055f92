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

Quadrature.  A tile of two obstacles p < q (see below) is filled from the
circular-wave expansion of p when every 8-point Gauss point of its q band
is a far receiver of p in ``evaluate_potentials``' sense
(``_tile_expansions``): with B the p band's hat moments of (i/4) J_n(k |y -
c|) e^(-i n theta) and A the q band's of H_n(k |x - c|) e^(i n theta), |n|
<= N, L's blocks are B A^T, and N's on either side take the normal
derivatives of the same moments, shifts in n since a flat panel has one
normal (``_hat_moments``).  Both of N's sides come from one expansion, as
the tensor rule's come from one rule, so M = -N^T stays exact.  On desk
seeds 0, 1 and 7 at ppw 15 and 30 these blocks are within 1.7e-15 to 5e-15
of the largest entry of an order-16 tensor rule on every pair, where the
tensor bands are 1e-12 off at ppw 15 and 1e-10 at ppw 30.  Every other
pair of distinct panels, and all of a tile of one obstacle, is integrated
by a tensor Gauss rule, evaluating the kernels once per pair of quadrature
points for the blocks in both orders.  L's second block is the transpose
of its first; N's comes from the same r and G'(r) with -(x - y) and the
other panel's normal.  Pairs sharing no node take an order chosen by the
pair's separation, its midpoint distance over the longer panel's length h,
and by k h (see ``_SEPARATED_ORDERS``); pairs sharing a node take order
16.  Both keys are symmetric in the pair, so M = -N^T stays exact.  It runs
over tiles, largest first: every obstacle is cut into bands of at most
``_BAND_PANELS`` panels, and a tile is a band of obstacle p against a band
of obstacle q > p, or a band of p against itself or a later band of p.  A
tile's kernels come in pieces of ``_PIECE_PAIR_POINTS`` point pairs at most,
on a thread per CPU the process may use, each piece assigning only its own
slots of the tile's array of 2 x 2 blocks, one slot per ordered panel pair;
the panels paired with themselves are one more piece of a diagonal tile.
Once the pieces are done the array is folded into the matrices by slice
additions, which rely on ``geometry.SceneMesh``'s numbering (panel i of an
obstacle ends at node i + 1, its last panel at its first node): within a
tile an entry sums the blocks of up to four panel pairs, one per pair of
hats, always in the same order, and the tiles, fixed by the mesh alone, are
folded in one order, so L and N do not depend on the piece size or the
number of threads.  One tile's array is alive at a time.
On node-sharing pairs neither kernel is smooth: L has a ln r singularity at
the shared vertex and N's kernel is homogeneous of degree -1 there, so the
tensor rule converges only algebraically on them.  On a panel paired with
itself the N kernel vanishes identically because (x - y) is parallel to a
flat panel.  L's kernel there depends on u = |s - t| alone, so its block is
a 1-D integral in u against the autocorrelation of the hats; splitting off
the logarithm,

    H0^(1)(k l u) = (2i/pi) ln(u) J0(k l u) + W(u),

the order-16 Gauss rule integrates the smooth W and product-integration
weights for ln u at the same points integrate the rest, so every Bessel
value is taken at an interior point and comes from scipy.

Fields.  ``evaluate_potentials`` sums each obstacle's part of a receiver's
value, obstacle by obstacle.  A receiver at least max(2 R, R + the longest
panel) from the centre c of the obstacle's bounding box, R the largest node
distance from c, takes the obstacle's circular-wave expansion (Graf's
addition theorem; the top level of Rokhlin's 2D Helmholtz multipole
method, with no tree): the sum over |n| <= N of c_n H_n(k |x - c|)
e^(i n theta), N = ``analytic.truncation_order(k, R)`` and at least 47,
its c_n integrated once per call at 8 Gauss points per panel.  There its
terms fall as 2^-n, and it costs one Bessel pair per receiver where the
direct rule costs one per panel Gauss point.  Against an order-32 rule per
panel it is within 1e-14 to 5e-14 on a circle of radius 3 about the unit
disk from k = 1e-3 to 200.  Below k R = ``_FAR_MIN_KR``, and at every
other receiver, the obstacle's panels take the direct rule, with the same
kernels and bands as assembly: on every panel, the largest band order
over those panels p keyed on |x - mid_p| / h_p and k h_p, found from the
nearest panel of each k h class (``_receiver_orders``).  The receivers of
each obstacle, rule and order are evaluated in cache-sized pieces of at
most ``_FIELD_PIECE_POINTS`` receiver-Gauss points per kernel, or
receiver-modes, on a thread per CPU the process may use; a receiver's
value depends on that receiver alone, so the values do not depend on the
split.  A stack of d densities, shape (n, d), shares each piece's
distances and Bessel values and has values of shape (m, d); each column
takes the single or the double layer, one for all columns or one each,
and is contracted exactly as its density alone in that layer.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import itertools
import math
import os
import typing

import numpy as np

from . import analytic, geometry, linalg, specfun

_NEAR_ORDER = 16
# Tensor Gauss order of a pair of panels sharing no node.  With h the longer
# panel's length and s the distance between the midpoints over h, a pair
# takes the order of the first row whose s >= its first column and k h <= its
# second.  The error falls as s grows (the kernel's singularity recedes) and
# as k h shrinks (the kernel oscillates less over a panel).  Measured on the
# desk scene at ppw 4 to 30 against order 16, no row moves a pair's blocks by
# more than 1e-9 of the largest entry of L or N.  These serve the pairs within
# an obstacle and those of a tile of two obstacles p < q where p's
# circular-wave expansion does not reach q's band (``_tile_expansions``); the
# expansions integrate at the last row's order.
_SEPARATED_ORDERS = (
    (16.0, 0.25, 3),
    (4.0, 0.8, 4),
    (2.5, 1.6, 5),
    (0.0, math.inf, 8),
)
# Panels per band of an obstacle (``_tiles``): a tile's array is then at most
# about 12 MB, 3 sides x 250^2 panel pairs x 2 x 2 complex entries.
_BAND_PANELS = 250
# Quadrature-point pairs per kernel piece.  Desk assembly on two CPUs at ppw
# 15 and 30 took 0.08-0.09 and 0.22-0.26 s (medians of 7) with pieces of 16k
# points, about as long with 64k, and 0.11 and 0.30 s with 4k; its peak RSS
# grew 12 MiB at ppw 15 with 16k, 20 MiB with 64k.
_PIECE_PAIR_POINTS = 16_384
# Receiver-Gauss-point pairs per kernel in a piece of field evaluation: a piece
# holds receivers of one order, and one of both layers holds two kernels in half
# the points.  Each thread's allocator arena keeps about its largest piece after
# freeing it, so small pieces hold peak RSS down, and pieces of 32k points keep
# each array within about 1 MiB.  Passes of one kernel (single layer) / two (both
# layers) on two CPUs, medians of 25 interleaved calls (time) and tracemalloc
# peaks of one call, on the disk-field grid (75 panels, 2148 receivers) and on
# desk at ppw 30 (444 panels, 2304 receivers on a grid):
#     points     disk grid                      desk ppw 30
#     16,384     0.048/0.088 s  1.4/1.3 MiB    0.165/0.333 s  1.7/1.8 MiB
#     32,768     0.040/0.073 s  2.6/2.4 MiB    0.199/0.395 s  2.7/2.7 MiB
#     65,536     0.042/0.076 s  5.1/4.6 MiB    0.178/0.370 s  5.2/4.7 MiB
#     131,072    0.051/0.085 s  10.1/9.1 MiB   0.210/0.353 s  10.1/9.2 MiB
#     250,000    0.049/0.088 s  19.2/17.3 MiB  0.188/0.347 s  19.2/16.3 MiB
# The desk times move by 20% between runs of this table on a 2-core x86-64 box.
# In an earlier run, pieces that mixed orders, each budgeted as if at order 8,
# took 0.114 and 0.494 s for a pass per layer at 250k.  A piece of receivers
# that take an obstacle's expansion counts receivers x its 2N + 1 modes.
_FIELD_PIECE_POINTS = 32_768
# Least k R at which a receiver takes an obstacle's circular-wave expansion
# (``_expansion``; R the obstacle's radius about its centre).  Below it the
# direct rule runs: H_N(k r) grows as (k r)^-N, and at N = 47 it overflows
# at r = 2 R once k R is below about 7e-6.  On the unit disk (30 panels, 7
# receivers at radius 3) the expansion gave NaN at k = 3e-6 and below, and
# was within 6e-16 to 2e-14 of an order-32 rule per panel from k = 1e-5 to
# 1e-2 (the direct rule: 1e-13 to 4e-12); 1e-3 keeps two decades from the
# overflow.
_FAR_MIN_KR = 1e-3
# Least mode count N of an expansion: at |x - c| >= 2 R its terms fall as
# 2^-n, and 2^-47 < 1e-14.
_EXPANSION_MIN_MODES = 47
# Gauss points per panel of the expansion coefficients: the direct rule's
# highest order, which it takes at any k h.
_EXPANSION_ORDER = _SEPARATED_ORDERS[-1][2]
_OPERATOR_KINDS = ("single_layer", "adjoint_double_layer")


class QuadratureRule(typing.NamedTuple):
    """Gauss points and weights on the reference segment [0, 1].

    A rule of n points integrates polynomials through degree 2n - 1 exactly;
    the weights are positive and sum to one.
    """

    points: np.ndarray
    weights: np.ndarray


@functools.lru_cache(maxsize=None)
def gauss_rule(order: int) -> QuadratureRule:
    """Gauss-Legendre rule with ``order`` points mapped to [0, 1]; its arrays,
    shared by every caller, are read-only."""
    if order < 1:
        raise ValueError("gauss_rule requires order >= 1")
    x, w = np.polynomial.legendre.leggauss(order)
    rule = QuadratureRule(points=0.5 * (x + 1.0), weights=0.5 * w)
    rule.points.flags.writeable = rule.weights.flags.writeable = False
    return rule


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
    """A dense Galerkin matrix and its wavenumber; the matrix is read-only."""

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

    ``values`` has shape (m,) for one density and (m, d) for a stack of d.
    ``near_boundary``, shape (m,), marks points closer to some panel than
    that panel is long; values there are quadrature-limited and should not
    be trusted.
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


def _quad_points(mesh, rule: QuadratureRule, panels=slice(None)) -> np.ndarray:
    nodes = mesh.nodes[panels]
    edge = mesh.nodes[mesh.next_node[panels]] - nodes
    return nodes[:, None, :] + rule.points[None, :, None] * edge[:, None, :]


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


def _workers() -> int:
    """Threads for assembly and field evaluation: the CPUs the process may
    use (``os.sched_getaffinity``, missing on macOS), else ``os.cpu_count()``,
    which may be None; at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _kernels(k: float, r: np.ndarray, single: bool, double: bool):
    """(G, F) at distances r > 0 from one Bessel evaluation: G = (i/4)
    H0^(1)(k r) if ``single``, and F = G'(r) / r if ``double``, else None.
    F (x - y).n is d/dn(x) G when n belongs to x, and -d/dn(y) G when it
    belongs to y.  Both are built from their real and imaginary parts with
    the roundings of numpy's complex arithmetic: G = 0.25i (J0 + i Y0) has
    parts -Y0/4 and J0/4, and F = -0.25i k (J1 + i Y1) / r, whose division
    multiplies by 1/r, has parts (k Y1/4)(1/r) and (-k J1/4)(1/r)."""
    orders = tuple(n for n, wanted in ((0, single), (1, double)) if wanted)
    j0, j1, y0, y1 = specfun.bessel_j0j1y0y1(k * r, orders)
    g = f = None
    if single:
        g = np.empty(r.shape, dtype=complex)
        np.multiply(y0, -0.25, out=g.real)
        np.multiply(j0, 0.25, out=g.imag)
    del j0, y0
    if double:
        f = np.empty(r.shape, dtype=complex)
        inverse = np.divide(1.0, r)
        np.multiply(np.multiply(y1, 0.25 * k, out=y1), inverse, out=f.real)
        np.multiply(np.multiply(j1, -0.25 * k, out=j1), inverse, out=f.imag)
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
    linalg.check_memory(len(kinds) * n * n * np.dtype(complex).itemsize,
                        f"assembling {len(kinds)} dense {n} x {n} operator matrices")
    mats = {kind: np.zeros((n, n), dtype=complex) for kind in kinds}  # cli._peak_bytes's operators

    # largest first: this fixes the fold order from the mesh alone, and the
    # next tile's groups, built on a worker meanwhile, are of a tile no larger
    tiles = sorted(_tiles(mesh), key=lambda tile: -len(tile[2]) * len(tile[3]))
    expansions = _tile_expansions(mesh, k, tiles)
    rules = {order: (_quad_points(mesh, gauss_rule(order)), _basis_weights(gauss_rule(order)))
             for order in [_NEAR_ORDER] + [order for *_, order in _SEPARATED_ORDERS]}
    # panel i shares a node with panels next_node[i] and prev[i] only
    prev = np.empty_like(mesh.next_node)
    prev[mesh.next_node] = np.arange(n)
    with concurrent.futures.ThreadPoolExecutor(_workers()) as pool:

        def prepare(index):
            """A tile's panel pairs for the tensor rule, or its hat moments."""
            tile, expansion = tiles[index], expansions[index]
            if expansion is None:
                return pool.submit(_panel_pairs, mesh, k, prev, tile)
            return pool.submit(_tile_moments, mesh, k, tile, expansion)

        prepared = prepare(0)
        for index, (tile, expansion) in enumerate(zip(tiles, expansions)):
            if expansion is None:
                blocks, pieces = _submit_tile(pool, mats, mesh, k, tile, prepared.result(), rules)
            else:
                blocks, pieces = _submit_expansion_tile(pool, mats, tile, prepared.result())
            if index + 1 < len(tiles):  # the next tile's groups or moments, behind these pieces
                prepared = prepare(index + 1)
            for piece in pieces:
                piece.result()  # re-raises a piece's exception
            _fold_tile(pool, mats, mesh, tile, blocks)
            del blocks  # one tile's array alive at a time

    out = {}
    for kind, mat in mats.items():
        if not np.all(np.isfinite(mat)):
            raise RuntimeError(f"non-finite entries in {kind} assembly")
        mat.flags.writeable = False
        out[kind] = AssembledOperator(matrix=mat, k=k)
    return out


def _band_order(ratio, kh):
    """The ``_SEPARATED_ORDERS`` order of each separation ``ratio`` and k h."""
    return np.select(
        [(ratio >= s) & (kh <= band_kh) for s, band_kh, _ in _SEPARATED_ORDERS],
        [o for *_, o in _SEPARATED_ORDERS],
    )


def _tiles(mesh):
    """The tiles (p, q, rows, cols), rows and cols ranges of panels: every
    obstacle is cut into bands of at most ``_BAND_PANELS`` panels, as near
    equal as may be, and each band of obstacle p is a tile with each band of
    obstacle q > p, with itself and with each later band of p.  Every
    unordered pair of distinct panels lies in one tile, and a tile's array
    (``_submit_tile``) is at most about 12 MB, whatever the obstacles."""
    bands = []
    for p in range(mesh.n_obstacles):
        lo, hi = mesh.block_range(p)
        count = -(-(hi - lo) // _BAND_PANELS)
        cuts = [lo + (hi - lo) * i // count for i in range(count + 1)]
        bands.append([range(a, b) for a, b in zip(cuts, cuts[1:])])
    return [(p, q, rows, cols)
            for p, q in itertools.combinations_with_replacement(range(mesh.n_obstacles), 2)
            for i, rows in enumerate(bands[p]) for j, cols in enumerate(bands[q])
            if p < q or i <= j]


def _panel_pairs(mesh, k: float, prev, tile):
    """Groups (order, ti, si) that hold every pair of distinct panels of the
    tile (``_tiles``), ti in its rows and si in its columns, exactly once,
    with ti < si on a diagonal tile (rows = cols): order 16 for panels
    sharing a node (panel i shares one with panels next_node[i] and prev[i]
    only), else the pair's ``_SEPARATED_ORDERS`` order."""
    _, _, rows, cols = tile
    (r0, r1), (c0, c1) = (rows.start, rows.stop), (cols.start, cols.stop)
    ends = mesh.nodes[mesh.next_node]
    apart = (0.5 * (mesh.nodes[r0:r1, None] + ends[r0:r1, None])
             - 0.5 * (mesh.nodes[None, c0:c1] + ends[None, c0:c1]))
    h = np.maximum(mesh.lengths[r0:r1, None], mesh.lengths[None, c0:c1])
    order = _band_order(np.hypot(apart[..., 0], apart[..., 1]) / h, k * h)
    for shared in (mesh.next_node[r0:r1], prev[r0:r1]):
        inside = (c0 <= shared) & (shared < c1)
        order[np.flatnonzero(inside), shared[inside] - c0] = _NEAR_ORDER
    if rows == cols:
        order[np.tri(r1 - r0, dtype=bool)] = 0  # each unordered pair once, i < j
    groups = []
    for o in np.flatnonzero(np.bincount(order.ravel())[1:]) + 1:
        ti, si = np.nonzero(order == o)
        groups.append((int(o), ti + r0, si + c0))
    return groups


def _submit_tile(pool, mats, mesh, k: float, tile, groups, rules):
    """The array of the Galerkin blocks of a tile (``_tiles``), every panel
    of its rows against every panel of its columns, and the futures of the
    pieces that fill it on the executor ``pool``: the panel pairs of
    ``groups`` (``_panel_pairs``) in pieces of at most
    ``_PIECE_PAIR_POINTS`` quadrature-point pairs, each with the points and
    weighted hats ``rules`` holds for its order.
    The array holds one side per matrix block, of shape (rows, cols, 2, 2):
    entry [i, j, a, b] pairs hat a of row panel i with hat b of column panel
    j.  The sides are L's and N's tested on the rows and, off the diagonal
    (rows != cols), N's tested on the columns, kept transposed; on a
    diagonal tile each panel pair fills both its slots, and L's side also
    holds the panels paired with themselves (N's are zero).  Each piece
    assigns its own slots, and every slot is assigned."""
    single, double = "single_layer" in mats, "adjoint_double_layer" in mats
    _, _, rows, cols = tile
    r0, c0, width = rows.start, cols.start, len(cols)
    diagonal = rows == cols
    sides = single + double * (1 if diagonal else 2)
    blocks = np.empty((sides, len(rows), width, 2, 2), dtype=complex)
    slots = blocks.reshape(sides, -1, 4)
    if diagonal:
        panels = np.arange(width)
        blocks[:, panels, panels] = 0.0

    def add_piece(xs, wphi, a, b):
        normals = (mesh.normals[a, None, None], -mesh.normals[b, None, None]) if double else ()
        r, along = _separation(xs[a, :, None], xs[b, None, :], normals)
        if not np.all(r > 0.0):
            raise RuntimeError("coincident quadrature points on distinct panels")
        g, f = _kernels(k, r, single, double)
        del r
        scale = mesh.lengths[a] * mesh.lengths[b]
        # each matrix's blocks tested on a and on b, both with a's hats first
        tested = [(_contract(g, wphi, scale),) * 2] if single else []
        del g
        if double:
            tested.append(tuple(_contract(f * side, wphi, scale) for side in along))
        ij = (a - r0) * width + (b - c0)
        if diagonal:  # both slots of the pair, each tested on its first panel
            ji = (b - r0) * width + (a - c0)
            for side, (on_a, on_b) in zip(slots, tested):
                side[ij] = on_a.reshape(-1, 4)
                side[ji] = on_b.transpose(0, 2, 1).reshape(-1, 4)
        else:  # L's and N's blocks tested on a, then N's tested on b
            for side, block in zip(slots, [on_a for on_a, _ in tested] + [tested[-1][1]] * double):
                side[ij] = block.reshape(-1, 4)

    def add_self():
        blocks[0, panels, panels] = _same_panel_single_layer(mesh.lengths[r0:rows.stop], k)

    pieces = []
    for order, ti, si in groups:
        xs, wphi = rules[order]
        step = max(1, _PIECE_PAIR_POINTS // order ** 2)
        pieces += [pool.submit(add_piece, xs, wphi, ti[lo:lo + step], si[lo:lo + step])
                   for lo in range(0, len(ti), step)]
    if single and diagonal:
        pieces.append(pool.submit(add_self))
    return blocks, pieces


def _tile_expansions(mesh, k: float, tiles):
    """For each tile (p, q, rows, cols), the ``_Expansion`` of obstacle p
    that fills it (``_submit_expansion_tile``) if every ``_EXPANSION_ORDER``
    Gauss point of its columns is a far receiver of p (``_expansion``), else
    None, where the tensor rule does, as it does on a tile of one obstacle
    with itself."""
    expansions = [_expansion(mesh, k, slice(*mesh.block_range(p)))
                  for p in range(mesh.n_obstacles)]
    points = _quad_points(mesh, gauss_rule(_EXPANSION_ORDER))

    def far(expansion, panels):
        offset = points[panels] - expansion.center
        return bool(np.all(np.hypot(offset[..., 0], offset[..., 1]) >= expansion.far))

    return [expansions[p] if p != q and far(expansions[p], cols) else None
            for p, q, rows, cols in tiles]


def _hat_moments(mesh, k: float, panels: slice, expansion: _Expansion, outgoing: bool):
    """The hat moments of the panels ``panels`` and those of the normal
    derivatives, each of shape (panels x 2 hats, 2N + 1) for n = -N .. N:
    int phi O_n if ``outgoing``, O_n = H_n(k |x - c|) e^(i n theta) about
    the expansion's centre c, else (i/4) int phi Q_n, Q_n = J_n(k |y - c|)
    e^(-i n theta), by ``_EXPANSION_ORDER`` Gauss points per panel.  A flat
    panel has one nu = n_x + i n_y, so the derivatives are shifts of the
    moments for n = -N - 1 .. N + 1: d/dn O_n = (k/2) (nu O_(n-1) -
    conj(nu) O_(n+1)) and d/dn Q_n = (k/2) (conj(nu) Q_(n-1) - nu Q_(n+1)).
    Row 2 i + h is hat h of panel i, h = 0 at its first node and 1 at its
    last.  A panel's moments do not depend on the others in ``panels``."""
    top = expansion.modes + 1
    rule = gauss_rule(_EXPANSION_ORDER)
    wphi = _basis_weights(rule)
    offset = (_quad_points(mesh, rule, panels) - expansion.center).reshape(-1, 2)
    lengths = mesh.lengths[panels, None, None]
    nu = (mesh.normals[panels, 0] + 1j * mesh.normals[panels, 1])[:, None, None]
    if outgoing:  # both of shape (panels, hats, modes)
        waves = _outgoing_waves(k, offset, top).reshape(-1, rule.points.size, 2 * top + 1)
        moments = (wphi @ waves) * lengths
        derivative = nu * moments[..., :-2] - nu.conj() * moments[..., 2:]
    else:  # as (modes, panels, hats) in memory
        waves = _incoming_waves(k, offset, top).reshape(-1, rule.points.size)
        moments = (waves @ wphi.T).reshape(2 * top + 1, -1, 2).transpose(1, 2, 0)
        moments = moments * (0.25j * lengths)
        derivative = nu.conj() * moments[..., :-2] - nu * moments[..., 2:]
    shape = (-1, 2 * top - 1)
    return moments[..., 1:-1].reshape(shape), (0.5 * k * derivative).reshape(shape)


def _tile_moments(mesh, k: float, tile, expansion: _Expansion):
    """The hat moments (``_hat_moments``) that fill a tile (p, q, rows,
    cols) of two obstacles from p's expansion (``_submit_expansion_tile``):
    B and d/dn B, incoming, of the rows, and for each chunk of the columns,
    (chunk, A, d/dn A), outgoing.  Both bands go in chunks of at most
    ``_FIELD_PIECE_POINTS`` Gauss-point modes, fixed by the mesh and k."""
    _, _, rows, cols = tile
    step = max(1, _FIELD_PIECE_POINTS // ((2 * expansion.modes + 3) * _EXPANSION_ORDER))

    def chunks(band):
        return [slice(lo, min(lo + step, band.stop)) for lo in range(band.start, band.stop, step)]

    parts = [_hat_moments(mesh, k, chunk, expansion, False) for chunk in chunks(rows)]
    b, db = (np.concatenate(part) for part in zip(*parts))
    return b, db, [(chunk, *_hat_moments(mesh, k, chunk, expansion, True))
                   for chunk in chunks(cols)]


def _submit_expansion_tile(pool, mats, tile, moments):
    """The array of the Galerkin blocks of a tile (p, q, rows, cols) of two
    obstacles, laid out as ``_submit_tile``'s, and the futures of the tasks
    on ``pool`` that fill it from the circular-wave expansion of p, every
    Gauss point of the columns being a far receiver of it
    (``_tile_expansions``).  With B the rows' incoming hat moments and A the
    columns' outgoing ones (``_tile_moments``), Graf's addition theorem gives
    L's blocks as B A^T, N's tested on the rows as (d/dn B) A^T and N's
    tested on the columns as B (d/dn A)^T, the rows' panels first, each
    transposed into the tile's layout: a task per chunk of the columns."""
    single, double = "single_layer" in mats, "adjoint_double_layer" in mats
    _, _, rows, cols = tile
    blocks = np.empty((single + 2 * double, len(rows), len(cols), 2, 2), dtype=complex)
    b, db, col_chunks = moments

    def fill(chunk, a, da):
        # L's side, then N's tested on the rows and on the columns
        factors = ([(b, a)] if single else []) + [(db, a), (b, da)] * double
        at = slice(chunk.start - cols.start, chunk.stop - cols.start)
        for side, (left, right) in zip(blocks, factors):  # one product alive at a time
            product = (left @ right.T).reshape(-1, 2, chunk.stop - chunk.start, 2)
            side[:, at] = product.transpose(0, 2, 1, 3)

    return blocks, [pool.submit(fill, *part) for part in col_chunks]


def _fold_tile(pool, mats, mesh, tile, blocks) -> None:
    """Add each side of the tile's array (``_submit_tile``) to the block
    (p, q) of its matrix by ``_fold``: L's and N's tested on the rows, and
    off the diagonal N's tested on the columns to the block (q, p),
    transposed.  Off the diagonal L's side is folded into the block (q, p)
    too, transposed, so for p != q that block is the transpose of the block
    (p, q) bit for bit.  A matrix per task on the executor ``pool``, its
    folds in this order: those of one matrix can meet in an entry."""
    p, q, rows, cols = tile
    (p0, p1), (q0, q1) = mesh.block_range(p), mesh.block_range(q)
    kinds = [kind for kind in _OPERATOR_KINDS if kind in mats]
    folds = {kind: [(mats[kind][p0:p1, q0:q1], side)] for kind, side in zip(kinds, blocks)}
    if rows != cols:
        for kind, side in (("single_layer", blocks[0]), ("adjoint_double_layer", blocks[-1])):
            if kind in mats:
                folds[kind].append((mats[kind][q0:q1, p0:p1].T, side))
    at = (rows.start - p0, cols.start - q0)
    list(pool.map(lambda pairs: [_fold(out, side, *at) for out, side in pairs], folds.values()))


def _fold(out, blocks, row: int, col: int) -> None:
    """out[r, c] += blocks[i, j, a, b] over the panels i, j and the hats a, b
    with r = row + i + a and c = col + j + b, each cyclic in out, the block
    of an obstacle pair (``geometry.SceneMesh``'s numbering: panel i ends at
    node i + 1 and the last panel at the first node), by slice additions:
    every entry takes its terms in the order (a, b) = (0, 0), (0, 1), (1,
    0), (1, 1), whatever computed them."""
    for a, b in itertools.product((0, 1), (0, 1)):
        for to_rows, from_rows in _cyclic(row + a, blocks.shape[0], out.shape[0]):
            for to_cols, from_cols in _cyclic(col + b, blocks.shape[1], out.shape[1]):
                out[to_rows, to_cols] += blocks[from_rows, from_cols, a, b]


def _cyclic(start: int, count: int, size: int):
    """(to, from) slice pairs that put items 0 .. count - 1 at start, start
    + 1, ... modulo size, for start + count <= size + 1."""
    cut = min(count, size - start)
    pairs = [(slice(start, start + cut), slice(0, cut))]
    if cut < count:
        pairs.append((slice(0, count - cut), slice(cut, count)))
    return pairs


def _contract(kernel, wphi, scale):
    """blocks[p, a, b] = scale[p] * sum over q, r of wphi[a, q] kernel[p, q, r]
    wphi[b, r], as two matrix products."""
    p, q, _ = kernel.shape
    half = (kernel.reshape(-1, q) @ wphi.T).reshape(p, q, 2)
    half = half.transpose(1, 0, 2).reshape(q, 2 * p)
    return (wphi @ half).reshape(2, p, 2).transpose(1, 0, 2) * scale[:, None, None]


def _same_panel_single_layer(lengths, k: float) -> np.ndarray:
    """L's 2 x 2 block of each panel of ``lengths`` with itself.  On a panel
    of length l the kernel depends on u = |s - t| alone, so the block is l^2
    (i/4) times the integral over [0, 1] of H0^(1)(k l u) against the
    autocorrelation of the two hats, 2/3 - u + u^3/3 for equal hats and 1/3 -
    u^3/3 for opposite ones.  With H0^(1)(k l u) = (2i/pi) ln(u) J0(k l u) + W(u), W
    smooth, the order-16 Gauss rule integrates W and ``_log_weights`` the
    logarithm, on Bessel values at the rule's interior points."""
    rule = gauss_rule(_NEAR_ORDER)
    u, w = rule.points, rule.weights
    j0, _, y0, _ = specfun.bessel_j0j1y0y1(k * lengths[:, None] * u, (0,))
    log_part = (2j / math.pi) * (_log_weights(_NEAR_ORDER) - w * np.log(u))
    integrand = w * (j0 + 1j * y0) + log_part * j0
    equal = integrand @ (2.0 / 3.0 - u + u ** 3 / 3.0)
    opposite = integrand @ (1.0 / 3.0 - u ** 3 / 3.0)
    blocks = np.stack([equal, opposite, opposite, equal], axis=1).reshape(-1, 2, 2)
    return (0.25j * lengths ** 2)[:, None, None] * blocks


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


def _receiver_orders(mesh, k: float, least: int, panels=slice(None)):
    """The function that gives receivers, shape (m, 2), their Gauss orders
    on the panels ``panels`` (all by default): each takes the largest
    ``_band_order`` over those panels p, keyed on |x - mid_p| / h_p and
    k h_p, or ``least`` if that is larger.

    A panel's k h class is the first ``_SEPARATED_ORDERS`` row whose bound
    on k h it meets, and only that row and the later ones apply to it.  The
    rows' bounds on k h and their orders increase and their separations
    decrease, so within a class the order falls as the separation grows:
    the largest order over a class's panels is its order at the panel of
    least separation.  The receivers take one hypot pass, over the panels
    sorted by class, and one minimum per class."""
    bounds = np.array([band_kh for _, band_kh, _ in _SEPARATED_ORDERS])
    lengths = mesh.lengths[panels]
    classes = np.searchsorted(bounds, k * lengths)
    order = np.argsort(classes, kind="stable")
    present, starts = np.unique(classes[order], return_index=True)
    mid = (0.5 * (mesh.nodes + mesh.nodes[mesh.next_node]))[panels][order]
    length = lengths[order]

    def orders(points):
        ratio = np.hypot(*(points[:, None] - mid[None]).transpose(2, 0, 1)) / length
        nearest = np.minimum.reduceat(ratio, starts, axis=1)
        return np.maximum(least, _band_order(nearest, bounds[present]).max(axis=1))

    return orders


class _Expansion(typing.NamedTuple):
    """An obstacle's circular-wave expansion: its centre c, the radius from
    which a receiver takes it, and its mode count N."""

    center: np.ndarray
    far: float
    modes: int


def _expansion(mesh, k: float, panels: slice) -> _Expansion:
    """The ``_Expansion`` of the obstacle whose panels are ``panels``.  Its
    centre c is that of its nodes' bounding box, and R, the largest node
    distance from c, bounds every point of its straight panels.  A receiver
    takes it at |x - c| >= max(2 R, R + the longest panel), where the terms
    fall as 2^-n and no panel is nearer than its length, and only if k R >=
    ``_FAR_MIN_KR`` (the far radius is infinite otherwise).  N is
    ``analytic.truncation_order(k, R)``, at least ``_EXPANSION_MIN_MODES``."""
    nodes = mesh.nodes[panels]
    center = 0.5 * (nodes.min(axis=0) + nodes.max(axis=0))
    radius = float(np.hypot(*(nodes - center).T).max())
    far = max(2.0 * radius, radius + float(mesh.lengths[panels].max()))
    if k * radius < _FAR_MIN_KR:
        far = math.inf
    modes = max(analytic.truncation_order(k, radius), _EXPANSION_MIN_MODES)
    return _Expansion(center, far, modes)


def _expansion_coefficients(mesh, k: float, panels: slice, expansion: _Expansion,
                            columns, layers) -> np.ndarray:
    """The coefficients c_n, n = -N .. N, of every density column's layer
    potential over the panels ``panels`` (some of one obstacle's) as
    outgoing waves about the obstacle's centre c: the potential is the sum
    of c_n H_n(k |x - c|) e^(i n theta_x) where |x - c| exceeds every |y -
    c| on the panels.  By Graf's addition theorem, with Q_n(y) = J_n(k |y -
    c|) e^(-i n theta_y), the single layer has c_n = (i/4) int Q_n rho and
    the double layer, of -d/dn(y) G, c_n = -(i/4) int d/dn Q_n rho: the
    density's values at the panels' ends contracted with the incoming hat
    moments B or -d/dn B (``_hat_moments``).  Shape (d, 2N + 1), each
    column's row computed as if alone."""
    b, db = _hat_moments(mesh, k, panels, expansion, False)
    moments = {"single": b, "double": -db}
    ends = np.stack([np.arange(panels.start, panels.stop), mesh.next_node[panels]], axis=1).ravel()
    coefficients = np.empty((len(columns), 2 * expansion.modes + 1), dtype=complex)
    for j, (col, kind) in enumerate(zip(columns, layers)):
        coefficients[j] = np.einsum("hn,h->n", moments[kind], col[ends])
    return coefficients


def _incoming_waves(k: float, offset, modes: int) -> np.ndarray:
    """J_n(k r) e^(-i n theta), n = -N .. N, at offsets (c, 2) from a centre
    in polar form (r, theta), k r < N: shape (2N + 1, c), from
    ``specfun.bessel_j_orders`` and J_(-n) e^(i n theta) = (-1)^n conj(J_n
    e^(-i n theta))."""
    radius = np.hypot(offset[:, 0], offset[:, 1])
    conj_dir = offset[:, 0] - 1j * offset[:, 1]  # r e^(-i theta)
    np.divide(conj_dir, radius, out=conj_dir, where=radius > 0.0)
    waves = np.empty((2 * modes + 1, radius.size), dtype=complex)
    positive = waves[modes:]
    positive[:] = specfun.bessel_j_orders(modes, k * radius)
    positive[1:] *= np.cumprod(np.broadcast_to(conj_dir, (modes, radius.size)), axis=0)
    np.conjugate(positive[:0:-1], out=waves[:modes])
    waves[modes - 1::-2] *= -1.0  # odd n
    return waves


def _outgoing_waves(k: float, offset, modes: int) -> np.ndarray:
    """H_n(k r) e^(i n theta), n = -N .. N, at offsets (c, 2) from a centre
    in polar form (r, theta), r > 0: shape (c, 2N + 1), from
    ``specfun.hankel_orders`` and H_(-n) e^(-i n theta) = (-1)^n H_n
    e^(-i n theta)."""
    r = np.hypot(offset[:, 0], offset[:, 1])
    direction = (offset[:, 0] + 1j * offset[:, 1]) / r
    h = specfun.hankel_orders(modes, k * r)
    turns = np.cumprod(np.broadcast_to(direction, (modes, r.size)), axis=0)  # e^(i n theta)
    waves = np.empty((r.size, 2 * modes + 1), dtype=complex)
    waves[:, modes] = h[0]
    np.multiply(h[1:], turns, out=waves[:, modes + 1:].T)
    np.multiply(h[1:], np.conjugate(turns, out=turns), out=waves[:, modes - 1::-1].T)
    waves[:, modes - 1::-2] *= -1.0  # odd n
    return waves


def evaluate_potentials(
    mesh,
    density,
    k: float,
    points,
    layer="single",
    order: int = 1,
) -> PotentialField:
    """Evaluate a layer potential of a nodal P1 density off the boundary.

    layer "single" integrates G(x, y) rho(y); layer "double" integrates the
    double-layer kernel -d/dn(y) G(x, y); a sequence of the two, one per
    density column, gives each column its own layer.  Points closer to a
    panel than its own length are flagged near_boundary and their values
    are unreliable.

    Each obstacle's part is summed, obstacle by obstacle in index order, in
    one of two ways.  A receiver far from the obstacle (``_expansion``: at
    least max(2 R, R + its longest panel) from the centre c of its bounding
    box, R its largest node distance from c, and k R >= ``_FAR_MIN_KR``)
    takes its circular-wave expansion (``_expansion_coefficients``), with
    one Bessel pair per receiver and obstacle; such a receiver is never near
    that obstacle's boundary.  Every other receiver takes one Gauss order on
    all the obstacle's panels, its band order over them (see the module
    docstring) or ``order`` if that is larger: ``order`` is the least order
    of this direct rule.  The receivers of each obstacle, rule and order are
    split into pieces of at most ``_FIELD_PIECE_POINTS`` receiver-Gauss
    points per kernel, or receiver-modes, evaluated on a thread per CPU the
    process may use; the values are the same bit for bit for any split.
    ``density`` is one density of shape (n,), with values of shape (m,), or
    a stack of d densities of shape (n, d), with values of shape (m, d): the
    stack shares one pass, a piece's Bessel values serving both layers'
    kernels, and column j equals bit for bit the values of ``density[:, j]``
    alone in its layer.
    """
    geometry.check_positive(k, "wavenumber")
    _check_mesh(mesh)
    n = mesh.n_nodes
    rho = np.asarray(density)
    if rho.ndim not in (1, 2) or rho.shape[0] != n:
        raise ValueError(f"density must have shape ({n},) or ({n}, d), got {rho.shape}")
    columns = (rho if rho.ndim == 2 else rho[:, None]).T
    layers = (layer,) * len(columns) if isinstance(layer, str) else tuple(layer)
    if len(layers) != len(columns) or not set(layers) <= {"single", "double"}:
        raise ValueError("layer must be 'single', 'double' or one of them per density column")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (m, 2)")

    m = pts.shape[0]
    values = np.zeros((m, len(columns)), dtype=complex)
    part = np.empty_like(values)  # one obstacle's part of every receiver's values
    near = np.zeros(m, dtype=bool)
    single, double = "single" in layers, "double" in layers
    workers = _workers()

    def direct_piece(panels, o, sel):
        rule = gauss_rule(o)
        u = rule.points
        length = mesh.lengths[panels]
        normals = (mesh.normals[None, panels, None],) if double else ()
        r, along = _separation(pts[sel, None, None], _quad_points(mesh, rule, panels)[None],
                               normals)
        near[sel] |= np.any(r < length[None, :, None], axis=(1, 2))
        g, f = _kernels(k, np.maximum(r, 1e-12, out=r), single, double)
        del r
        if double:
            f *= along[0]
        del along
        kernels = {"single": g, "double": f}
        w = rule.weights * length[:, None]
        ends = mesh.next_node[panels]
        # one kernel per layer for every density, each contracted as if alone
        for j, (col, kind) in enumerate(zip(columns, layers)):
            coeff = (col[panels, None] * (1.0 - u) + col[ends, None] * u) * w
            part[sel, j] = np.einsum("cpr,pr->c", kernels[kind], coeff)

    def far_piece(expansion, coefficients, sel):
        waves = _outgoing_waves(k, pts[sel] - expansion.center, expansion.modes)
        for j, coefficient in enumerate(coefficients):
            part[sel, j] = np.einsum("cn,n->c", waves, coefficient)

    def split(sel, per_receiver):
        """Pieces of ``sel``: at most _FIELD_PIECE_POINTS points each, and
        one for every worker."""
        step = max(1, min(-(-sel.size // workers), _FIELD_PIECE_POINTS // per_receiver))
        return [sel[lo:lo + step] for lo in range(0, sel.size, step)]

    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        for p in range(mesh.n_obstacles):
            panels = slice(*mesh.block_range(p))
            n_p = panels.stop - panels.start
            expansion = _expansion(mesh, k, panels)
            far = np.hypot(*(pts - expansion.center).T) >= expansion.far
            direct = np.flatnonzero(~far)
            receiver_orders = _receiver_orders(mesh, k, order, panels)
            orders = np.concatenate([np.empty(0, int), *pool.map(
                lambda sel: receiver_orders(pts[sel]), split(direct, n_p))])
            tasks = []
            for o in np.unique(orders):
                tasks += [functools.partial(direct_piece, panels, int(o), sel)
                          for sel in split(direct[orders == o], n_p * o * (single + double))]
            if far.any():
                # in chunks of at most _FIELD_PIECE_POINTS Gauss-point modes, added in order
                step = max(1, _FIELD_PIECE_POINTS // ((2 * expansion.modes + 3) * _EXPANSION_ORDER))
                coefficients = sum(pool.map(
                    lambda lo: _expansion_coefficients(
                        mesh, k, slice(lo, min(lo + step, panels.stop)), expansion, columns, layers),
                    range(panels.start, panels.stop, step)))
                tasks += [functools.partial(far_piece, expansion, coefficients, sel)
                          for sel in split(np.flatnonzero(far), 2 * expansion.modes + 1)]
            list(pool.map(lambda task: task(), tasks))  # re-raises a piece's exception
            values += part
    return PotentialField(values=values.reshape((m,) + rho.shape[1:]), near_boundary=near)
