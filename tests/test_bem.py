"""Galerkin assembly of the layer operators and potential evaluation."""

import itertools
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose
from scipy.integrate import dblquad
from scipy.special import hankel1 as scipy_hankel1
from scipy.special import j0, jv, jvp, y0, yv, yvp

from multiscat import bem, formulations, geometry, linalg, specfun, verify

WAVENUMBER = 2.0


def one_shape_mesh(shape: geometry.Shape, ppw: float) -> geometry.SceneMesh:
    scene = geometry.Scene(k=WAVENUMBER, beta=(0.0, 1.0), obstacles=(shape,))
    return geometry.mesh_scene(scene, ppw=ppw)


def circle_mesh(ppw: int = 15) -> geometry.SceneMesh:
    return one_shape_mesh(geometry.Shape(kind="ellipse", a=1.0, b=1.0), ppw)


def two_circle_scene_mesh(ppw: int = 12) -> geometry.SceneMesh:
    scene = geometry.Scene(
        k=WAVENUMBER,
        beta=(0.0, 1.0),
        obstacles=(
            geometry.Shape(kind="ellipse", center=(0.0, 0.0)),
            geometry.Shape(kind="ellipse", center=(5.0, 0.0)),
        ),
        box=(-3.0, -3.0, 9.0, 3.0),
        min_center_distance=3.0,
    )
    return geometry.mesh_scene(scene, ppw=ppw)


def hankel(n, x):
    return jv(n, x) + 1j * yv(n, x)


def hankel_deriv(n, x):
    return jvp(n, x) + 1j * yvp(n, x)


def circle_symbol(kind: str, n: int, k: float) -> complex:
    """Eigenvalue of the operator on the unit circle acting on e^{i n theta}."""
    if kind == "single_layer":
        return 1j * np.pi / 2 * jv(n, k) * hankel(n, k)
    if kind == "double_layer":
        return 0.5 - 1j * np.pi * k / 2 * jvp(n, k) * hankel(n, k)
    return 0.5 + 1j * np.pi * k / 2 * jv(n, k) * hankel_deriv(n, k)


def operator_matrix(mesh, kind: str) -> np.ndarray:
    """Galerkin matrix of L, M or N.  The double layer M is read as -N^T,
    the form in which the program uses it."""
    if kind == "double_layer":
        ops = bem.assemble_operators(mesh, WAVENUMBER, kinds=("adjoint_double_layer",))
        return -ops["adjoint_double_layer"].matrix.T
    return bem.assemble_operators(mesh, WAVENUMBER, kinds=(kind,))[kind].matrix


def band_order(ratio: float, kh: float) -> int:
    """The Gauss order of a separation ``ratio`` (distance over a panel
    length h) and of k h."""
    if ratio >= 16.0 and kh <= 0.25:
        return 3
    if ratio >= 4.0 and kh <= 0.8:
        return 4
    if ratio >= 2.5 and kh <= 1.6:
        return 5
    return 8


def panel_nodes(mesh, p: int) -> tuple[int, int]:
    """The start and end node of panel p: p and next_node[p]."""
    return p, int(mesh.next_node[p])


def panel_points(mesh, p: int, u) -> np.ndarray:
    """Points of panel p at the reference parameters u in [0, 1]."""
    start, end = mesh.nodes[list(panel_nodes(mesh, p))]
    return start + np.asarray(u)[..., None] * (end - start)


def separated_order(mesh, p: int, q: int, k: float) -> int:
    """The Gauss order the assembly should give panels p and q, which share
    no node: the band of their midpoint distance over the longer panel and
    of k times that panel's length."""
    h = max(mesh.lengths[p], mesh.lengths[q])
    ratio = math.dist(panel_points(mesh, p, 0.5), panel_points(mesh, q, 0.5)) / h
    return band_order(ratio, k * h)


def receiver_order(mesh, x, k: float, panels=None) -> int:
    """The Gauss order a potential's direct rule should take at receiver x
    on every panel of ``panels`` (all by default): the largest band, over
    those panels p, of the distance from x to p's midpoint over p's length
    and of k times that length."""
    return max(
        band_order(math.dist(x, panel_points(mesh, p, 0.5)) / mesh.lengths[p], k * mesh.lengths[p])
        for p in (range(mesh.n_nodes) if panels is None else panels)
    )


def obstacle_panels(mesh) -> list[range]:
    """The panels of each obstacle, in index order."""
    return [range(*mesh.block_range(p)) for p in range(mesh.n_obstacles)]


def takes_expansion(mesh, panels, x, k: float) -> bool:
    """Whether receiver x takes the circular-wave expansion of the obstacle
    whose panels are ``panels``: with c the center of its nodes' bounding
    box and R their largest distance from c, x is at least max(2 R, R +
    the longest panel) from c, and k R >= 1e-3."""
    nodes = mesh.nodes[list(panels)]
    center = 0.5 * (nodes.min(axis=0) + nodes.max(axis=0))
    radius = max(math.dist(center, y) for y in nodes)
    longest = max(mesh.lengths[list(panels)])
    return k * radius >= 1e-3 and math.dist(x, center) >= max(2.0 * radius, radius + longest)


def reference_potentials(mesh, rho, k: float, x) -> tuple[complex, complex]:
    """Single- and double-layer potentials of the nodal density rho at x,
    with an order-32 Gauss rule on every panel and scipy Hankel functions."""
    t, w = leggauss(32)
    u, w = 0.5 * (t + 1.0), 0.5 * w
    single = double = 0.0j
    for p in range(mesh.n_nodes):
        i, j = panel_nodes(mesh, p)
        d = x - panel_points(mesh, p, u)
        r = np.linalg.norm(d, axis=1)
        weights = (rho[i] * (1.0 - u) + rho[j] * u) * w * mesh.lengths[p]
        single += weights @ (0.25j * scipy_hankel1(0, k * r))
        double += weights @ (-0.25j * k * scipy_hankel1(1, k * r) * (d @ mesh.normals[p]) / r)
    return single, double


def pair_blocks(mesh, p: int, q: int, k: float, order: int) -> dict:
    """2 x 2 Galerkin blocks of L and N, tested on panel p and trialed on
    panel q, by a tensor Gauss rule of ``order`` points on scipy Hankel
    functions; rows and columns follow the panels' start and end nodes."""
    x, w = leggauss(order)
    u, w = 0.5 * (x + 1.0), 0.5 * w
    d = panel_points(mesh, p, u)[:, None, :] - panel_points(mesh, q, u)[None, :, :]
    r = np.linalg.norm(d, axis=-1)
    kernels = {
        "single_layer": 0.25j * scipy_hankel1(0, k * r),
        "adjoint_double_layer": -0.25j * k * scipy_hankel1(1, k * r) * (d @ mesh.normals[p]) / r,
    }
    hats = np.stack([1.0 - u, u]) * w
    scale = mesh.lengths[p] * mesh.lengths[q]
    return {kind: scale * (hats @ kern @ hats.T) for kind, kern in kernels.items()}


def rayleigh_quotients(mesh, kind: str, modes) -> dict:
    a = operator_matrix(mesh, kind)
    mass = bem.assemble_mass(mesh)
    theta = np.arctan2(mesh.nodes[:, 1], mesh.nodes[:, 0])
    out = {}
    for n in modes:
        v = np.exp(1j * n * theta)
        out[n] = (v.conj() @ (a @ v)) / (v.conj() @ (mass @ v))
    return out


def two_polygons_and_banded_receivers():
    """Two 10-panel polygons and 13 receivers at distances that fall in
    every ``_SEPARATED_ORDERS`` band at k = 0.3."""
    theta = 2.0 * np.pi * np.arange(10) / 10
    radius = 1.0 + 0.3 * np.cos(3.0 * theta)
    loop = np.stack([radius * np.cos(theta), 0.7 * radius * np.sin(theta)], axis=1)
    mesh = geometry.polygon_mesh([loop + np.array(c) for c in ((0.0, 0.0), (6.0, 0.0))])
    points = np.array(
        [[0.0, 0.7 + d] for d in (0.8, 1.2, 1.5, 2.2, 3.0, 4.0, 6.0, 9.0, 30.0)]
        + [[3.0, 0.0], [3.0, 2.0], [3.0, 25.0], [-20.0, -20.0]]
    )
    return mesh, points


def disk_field_grid():
    """The unit disk at k = 5, ppw 15 (75 panels) and 2148 receivers: a
    48 x 48 grid over [-4, 4]^2 without the points within 1.2 of the center."""
    scene = geometry.Scene(
        k=5.0, beta=(0.0, 1.0), obstacles=(geometry.Shape(kind="ellipse"),),
        box=(-5.0, -5.0, 5.0, 5.0),
    )
    axis = np.linspace(-4.0, 4.0, 48)
    points = np.stack([c.ravel() for c in np.meshgrid(axis, axis)], axis=1)
    return geometry.mesh_scene(scene, ppw=15), points[np.hypot(*points.T) > 1.2]


def assert_differs_between_obstacles_only(mesh, got, reference):
    """Every diagonal obstacle block of ``got`` equals ``reference``'s bit
    for bit, and some block between obstacles does not."""
    cross = np.ones(got.shape, dtype=bool)
    for p in range(mesh.n_obstacles):
        lo, hi = mesh.block_range(p)
        cross[lo:hi, lo:hi] = False
    assert np.array_equal(got[~cross], reference[~cross])
    assert not np.array_equal(got[cross], reference[cross])


def ten_gon_mesh() -> geometry.SceneMesh:
    """Three coarse 10-panel polygons of radius 1.18 about their bounding
    boxes' centres, placed at (0, 0), (6, 0) and (0, 20)."""
    theta = 2.0 * np.pi * np.arange(10) / 10
    radius = 1.0 + 0.3 * np.cos(3.0 * theta)
    loop = np.stack([radius * np.cos(theta), 0.7 * radius * np.sin(theta)], axis=1)
    return geometry.polygon_mesh(
        [loop + np.array(c) for c in ((0.0, 0.0), (6.0, 0.0), (0.0, 20.0))])


def triangle_mesh() -> geometry.SceneMesh:
    return geometry.polygon_mesh([[[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]])


def test_mass_total_equals_perimeter():
    mesh = circle_mesh()
    mass = bem.assemble_mass(mesh)
    assert mass.n == mesh.n_nodes
    assert_allclose(mass.diagonal.sum() + 2.0 * mass.off.sum(), mesh.lengths.sum(), rtol=1e-12)
    for band in (mass.diagonal, mass.off):
        with pytest.raises(ValueError):
            band[0] = 0.0


def test_mass_local_blocks_exact():
    mesh = triangle_mesh()
    mass = bem.assemble_mass(mesh).toarray()
    lengths = mesh.lengths
    assert mass[0, 1] == lengths[0] / 6.0
    assert mass[1, 2] == lengths[1] / 6.0
    assert mass[0, 0] == lengths[0] / 3.0 + lengths[2] / 3.0
    assert mass[0, 2] == lengths[2] / 6.0


def test_mass_exactly_symmetric():
    mass = bem.assemble_mass(circle_mesh()).toarray()
    assert np.array_equal(mass, mass.T)


def dense_mass(mesh) -> np.ndarray:
    """The mass matrix assembled densely, panel by panel, from the local
    block l [[1/3, 1/6], [1/6, 1/3]] of panel i on nodes i, next_node[i]."""
    dense = np.zeros((mesh.n_nodes, mesh.n_nodes))
    for i in range(mesh.n_nodes):
        ends = (i, mesh.next_node[i])
        for a in range(2):
            for b in range(2):
                dense[ends[a], ends[b]] += mesh.lengths[i] / (3.0 if a == b else 6.0)
    return dense


def test_mass_bands_expand_to_the_dense_panel_assembly(desk15):
    for mesh in (triangle_mesh(), circle_mesh(), desk15[0]):
        mass = bem.assemble_mass(mesh)
        dense = dense_mass(mesh)
        assert np.array_equal(mass.toarray(), dense)
        v = np.random.default_rng(3).standard_normal(mesh.n_nodes) * (1.0 + 0.5j)
        assert_allclose(mass @ v, dense @ v, rtol=1e-14, atol=1e-15 * np.abs(dense @ v).max())
    # a block of rows and columns, across the first two obstacles' boundary
    lo, hi, c0 = mesh.block_offsets[1] - 3, mesh.block_offsets[1] + 4, mesh.block_offsets[1] - 5
    block = np.ones((hi - lo, 9), dtype=complex)
    mass.add_to(block, lo, c0, 0.5)
    assert np.array_equal(block, 1.0 + 0.5 * dense[lo:hi, c0:c0 + 9])


def test_single_layer_symmetric_to_quadrature_tolerance():
    ops = bem.assemble_operators(circle_mesh(), WAVENUMBER, kinds=("single_layer",))
    a = ops["single_layer"].matrix
    assert np.max(np.abs(a - a.T)) / np.max(np.abs(a)) <= 1e-10


@pytest.mark.parametrize("kind,tol", [
    ("single_layer", 1e-2),
    ("double_layer", 2e-2),
    ("adjoint_double_layer", 2e-2),
])
def test_circle_fourier_oracle(kind, tol):
    quotients = rayleigh_quotients(circle_mesh(), kind, modes=(0, 1, 2, 5))
    for n, lam in quotients.items():
        assert abs(lam - circle_symbol(kind, n, WAVENUMBER)) <= tol


def test_refinement_improves_circle_oracle():
    errors = {}
    for ppw in (10, 20):
        lam = rayleigh_quotients(circle_mesh(ppw=ppw), "single_layer", modes=(2,))[2]
        errors[ppw] = abs(lam - circle_symbol("single_layer", 2, WAVENUMBER))
    assert errors[10] / errors[20] >= 1.5


def test_quadrature_doubling_far_pairs():
    """The blocks between the two obstacles, where every panel pair is
    separated, against an order-16 reference built pair by pair from scipy
    Hankel functions, in both directions (the lower N block is -M^T)."""
    mesh = two_circle_scene_mesh()
    n = mesh.n_nodes
    cut = mesh.block_offsets[1]
    ops = bem.assemble_operators(mesh, WAVENUMBER)
    reference = {kind: np.zeros((n, n), dtype=complex) for kind in ops}
    for p in range(cut):
        for q in range(cut, n):
            for a, b in ((p, q), (q, p)):
                entries = np.ix_(panel_nodes(mesh, a), panel_nodes(mesh, b))
                for kind, block in pair_blocks(mesh, a, b, WAVENUMBER, 16).items():
                    reference[kind][entries] += block
    for kind, op in ops.items():
        for rows, cols in ((slice(None, cut), slice(cut, None)), (slice(cut, None), slice(None, cut))):
            ref = reference[kind][rows, cols]
            assert np.max(np.abs(op.matrix[rows, cols] - ref)) / np.max(np.abs(ref)) <= 1e-8


def test_far_entries_match_direct_quadrature():
    """One matrix entry between obstacles recomputed end to end with an
    independent tensor Gauss rule and scipy Hankel functions.  The double
    layer M is never assembled; its brute-force entry (i, j) is checked
    against -N[j, i]."""
    mesh = two_circle_scene_mesh()
    k = WAVENUMBER
    ops = bem.assemble_operators(mesh, k)
    matrices = {
        "single_layer": ops["single_layer"].matrix,
        "double_layer": -ops["adjoint_double_layer"].matrix.T,
        "adjoint_double_layer": ops["adjoint_double_layer"].matrix,
    }
    i, j = 3, mesh.block_offsets[1] + 7
    x16, w16 = leggauss(8)
    u = 0.5 * (x16 + 1.0)
    w = 0.5 * w16

    def direct_entry(kernel_name):
        total = 0.0j
        for p in range(mesh.n_nodes):
            if i not in panel_nodes(mesh, p):
                continue
            alpha = panel_nodes(mesh, p).index(i)
            for q in range(mesh.n_nodes):
                if j not in panel_nodes(mesh, q):
                    continue
                beta = panel_nodes(mesh, q).index(j)
                d = panel_points(mesh, p, u)[:, None, :] - panel_points(mesh, q, u)[None, :, :]
                r = np.linalg.norm(d, axis=-1)
                if kernel_name == "single_layer":
                    kern = 0.25j * scipy_hankel1(0, k * r)
                else:
                    nvec = mesh.normals[q] if kernel_name == "double_layer" else mesh.normals[p]
                    kern = -0.25j * k * scipy_hankel1(1, k * r) * (d @ nvec) / r
                pa = (1.0 - u) if alpha == 0 else u
                pb = (1.0 - u) if beta == 0 else u
                total += mesh.lengths[p] * mesh.lengths[q] * np.einsum(
                    "q,qr,r->", w * pa, kern, w * pb
                )
        return total

    # the assembly integrates this pair at order 4, the order of its
    # separation band, and the reference at order 8; the two agree to about
    # 4e-11 relative (measured), and a wrong kernel, normal, sign or hat
    # pairing moves the entry far beyond the bound
    for kind in ("single_layer", "double_layer", "adjoint_double_layer"):
        got = matrices[kind][i, j]
        assert abs(got - direct_entry(kind)) <= 1e-7 * abs(got)


@pytest.mark.parametrize("width", [250, 3])
def test_every_panel_pair_integrated_once_with_its_rule(width, monkeypatch):
    """The whole L and N matrices of three 10-panel polygons rebuilt pair by
    pair from scipy Hankel functions: order 16 on panels sharing a node, the
    order of the pair's separation band elsewhere.  A panel with itself
    adds its ``_same_panel_single_layer`` block to L and nothing to N (the
    kernel vanishes there).  The polygons are placed so that all four bands
    occur, and a pair skipped, added twice, given the wrong rule or, in L's
    transposed and self blocks, put in the wrong place moves entries far
    beyond the bound.  Assembly cuts obstacles into bands of at most
    ``width`` panels: each polygon whole, or in bands of 2 and 3 panels, so
    that node-sharing pairs and an obstacle's wrap from its last panel to
    its first node cross tiles.  This pins the tensor rule, so the
    circular-wave expansions are off (``_FAR_MIN_KR`` infinite); with them
    on, only the blocks between obstacles move."""
    monkeypatch.setattr(bem, "_BAND_PANELS", width)
    k = 0.3
    mesh = ten_gon_mesh()
    expected = {kind: np.zeros((30, 30), dtype=complex) for kind in bem._OPERATOR_KINDS}
    same = bem._same_panel_single_layer(mesh.lengths, k)
    orders = set()
    for p in range(30):
        for q in range(30):
            ends_p, ends_q = panel_nodes(mesh, p), panel_nodes(mesh, q)
            if p == q:
                expected["single_layer"][np.ix_(ends_p, ends_q)] += same[p]
                continue
            order = 16 if set(ends_p) & set(ends_q) else separated_order(mesh, p, q, k)
            orders.add(order)
            for kind, block in pair_blocks(mesh, p, q, k, order).items():
                expected[kind][np.ix_(ends_p, ends_q)] += block
    assert orders == {3, 4, 5, 8, 16}
    expanded = bem.assemble_operators(mesh, k)
    monkeypatch.setattr(bem, "_FAR_MIN_KR", math.inf)
    for kinds in (("adjoint_double_layer",), ("single_layer",), bem._OPERATOR_KINDS):
        for kind, got in bem.assemble_operators(mesh, k, kinds=kinds).items():
            error = np.abs(got.matrix - expected[kind])
            assert np.max(error) <= 1e-12 * np.max(np.abs(expected[kind]))
            assert_differs_between_obstacles_only(mesh, expanded[kind].matrix, got.matrix)


@pytest.mark.parametrize("width", [250, 7])
def test_one_bessel_evaluation_per_unordered_pair(width, monkeypatch):
    """Every quadrature point pair of every unordered pair of distinct
    panels reaches the Bessel routine exactly once, in pieces of at most
    ``_PIECE_PAIR_POINTS``: order 16 squared for panels sharing a node and
    the separation band's order squared otherwise.  The panels paired with
    themselves take one call per band of an obstacle, of 16 points per
    panel, the only calls on a 2-D array of distances.  Obstacles are cut
    into bands of at most ``width`` panels: whole, or in bands of 6 and 7.
    The expansions are off (``_FAR_MIN_KR`` infinite); with them on, the
    pairs of distinct obstacles reach it as no point pair, only as the
    outgoing waves' Hankel pairs, one call per target chunk."""
    monkeypatch.setattr(bem, "_BAND_PANELS", width)
    mesh = two_circle_scene_mesh(ppw=30)
    expanded = bem.assemble_operators(mesh, WAVENUMBER)
    monkeypatch.setattr(bem, "_FAR_MIN_KR", math.inf)
    expected = 0
    for p in range(mesh.n_nodes):
        for q in range(p + 1, mesh.n_nodes):
            shared = set(panel_nodes(mesh, p)) & set(panel_nodes(mesh, q))
            expected += (16 if shared else separated_order(mesh, p, q, WAVENUMBER)) ** 2
    received = []
    bessel = specfun.bessel_j0j1y0y1

    def counting(x, orders=(0, 1)):
        received.append(np.shape(x))
        return bessel(x, orders)

    monkeypatch.setattr(specfun, "bessel_j0j1y0y1", counting)
    operators = bem.assemble_operators(mesh, WAVENUMBER)
    for kind, op in operators.items():
        assert_differs_between_obstacles_only(mesh, expanded[kind].matrix, op.matrix)
    pairs = [math.prod(shape) for shape in received if len(shape) == 3]
    same = sorted(shape for shape in received if len(shape) == 2)
    assert sum(pairs) == expected
    assert max(pairs) <= bem._PIECE_PAIR_POINTS
    counts = np.diff(mesh.block_offsets)
    bands = [-(-int(count) // width) for count in counts]
    assert len(same) == sum(bands) and sum(rows for rows, _ in same) == mesh.n_nodes
    assert {points for _, points in same} == {bem._NEAR_ORDER}
    assert max(rows for rows, _ in same) <= width
    assert len(pairs) + len(same) == len(received)
    monkeypatch.setattr(bem, "_FAR_MIN_KR", 1e-3)
    received.clear()
    bem.assemble_operators(mesh, WAVENUMBER)
    cut = mesh.block_offsets[1]
    within = sum((16 if set(panel_nodes(mesh, p)) & set(panel_nodes(mesh, q))
                  else separated_order(mesh, p, q, WAVENUMBER)) ** 2
                 for lo, hi in ((0, cut), (cut, mesh.n_nodes))
                 for p in range(lo, hi) for q in range(p + 1, hi))
    assert sum(math.prod(shape) for shape in received if len(shape) == 3) == within
    waves = [shape for shape in received if len(shape) == 1]
    targets = sum(len(cols) for p, q, _, cols in bem._tiles(mesh) if p != q)
    assert waves and sum(points for points, in waves) == bem._EXPANSION_ORDER * targets


def expansion_case(case):
    """(mesh, k) of a desk seed at a ppw, of ``ten_gon_mesh`` at k = 0.3,
    or of two circles of 40 panels at k = 2: radii 1.5 and 0.3 with centres
    2.5 apart, where only the small one's expansion would reach the other,
    or two unit circles 2.5 apart, where neither does."""
    if case.startswith("desk"):
        seed, ppw = map(int, case.split("-")[1:])
        scene = verify.desk_scene(seed)
        return geometry.mesh_scene(scene, ppw=ppw), scene.k
    if case == "ten-gons":
        return ten_gon_mesh(), 0.3
    radii, gap = {"large-small": ((1.5, 0.3), 2.5), "unit-circles": ((1.0, 1.0), 2.5)}[case]
    theta = 2.0 * np.pi * np.arange(40) / 40
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return geometry.polygon_mesh([radii[0] * circle, radii[1] * circle + [gap, 0.0]]), 2.0


def expanded_pairs(mesh, k):
    """The obstacle pairs (p, q), p < q, whose tiles take p's expansion."""
    tiles = bem._tiles(mesh)
    return {(p, q) for (p, q, *_), expansion in zip(tiles, bem._tile_expansions(mesh, k, tiles))
            if expansion is not None}


@pytest.mark.parametrize("case", ["desk-0-15", "desk-1-15", "desk-7-15", "desk-0-30",
                                  "desk-1-30", "desk-7-30", "ten-gons"])
def test_expansion_blocks_meet_order_16_reference(case, monkeypatch):
    """The blocks between obstacles, in both orientations, from the
    circular-wave expansions, within 1e-13 of the largest entry of L and N
    assembled with order 16 on every separated pair and no expansion.  Every
    pair of these scenes takes the lower index's expansion.  The 10-gons at
    k = 0.3 have k R of 0.35, so N is the 47-mode floor, and panels of up
    to 0.7 against a far radius of 2.4."""
    mesh, k = expansion_case(case)
    assert expanded_pairs(mesh, k) == set(itertools.combinations(range(mesh.n_obstacles), 2))
    got = bem.assemble_operators(mesh, k)
    monkeypatch.setattr(bem, "_FAR_MIN_KR", math.inf)
    monkeypatch.setattr(bem, "_SEPARATED_ORDERS", ((0.0, math.inf, 16),))
    reference = bem.assemble_operators(mesh, k)
    for kind, ref in reference.items():
        for p, q in itertools.permutations(range(mesh.n_obstacles), 2):
            block = np.ix_(range(*mesh.block_range(p)), range(*mesh.block_range(q)))
            error = np.max(np.abs(got[kind].matrix[block] - ref.matrix[block]))
            assert error <= 1e-13 * np.max(np.abs(ref.matrix))


@pytest.mark.parametrize("case", ["unit-circles", "large-small", "desk-14-15"])
def test_pairs_out_of_reach_keep_the_tensor_rule(case, monkeypatch):
    """A pair of obstacles p < q where p's expansion does not reach q's
    Gauss points keeps the tensor rule, its blocks equal bit for bit to
    those with every expansion off: the two circles, though the small
    circle's expansion reaches the large one, and desk seed 14's pair
    {1, 2}."""
    mesh, k = expansion_case(case)
    pairs = set(itertools.combinations(range(mesh.n_obstacles), 2))
    kept = sorted(pairs - expanded_pairs(mesh, k))
    assert kept == [(0, 1) if case != "desk-14-15" else (1, 2)]
    got = bem.assemble_operators(mesh, k)
    monkeypatch.setattr(bem, "_FAR_MIN_KR", math.inf)
    reference = bem.assemble_operators(mesh, k)
    for kind, ref in reference.items():
        for p, q in kept + [pair[::-1] for pair in kept]:
            block = np.ix_(range(*mesh.block_range(p)), range(*mesh.block_range(q)))
            assert np.array_equal(got[kind].matrix[block], ref.matrix[block])


@pytest.mark.parametrize("case,piece", [("desk-ppw15", bem._NEAR_ORDER ** 2), ("two-circles", 1),
                                        ("unit-disk", 1), ("two-circles-in-bands", 1)])
def test_operators_do_not_depend_on_the_piece_size_or_the_cpus(case, piece, desk, monkeypatch):
    """L and N are the same bit for bit whatever the number of quadrature
    point pairs per kernel piece: the default, one node-sharing pair's
    points (so every such pair is a piece of its own) or a single point
    (every pair is).  The pieces run on a thread per CPU, each filling its
    own slots of its tile's array, which is folded in one fixed order once
    they are done, so 2, 3 and 8 CPUs give the matrices of one.  The unit
    disk is a single tile, whose pieces alone spread over the CPUs; in
    bands of at most 7 panels the two circles are 36 tiles, and there L
    alone and N alone (a tile's array then holds no L side before N's) are
    checked too."""
    if case == "two-circles-in-bands":
        monkeypatch.setattr(bem, "_BAND_PANELS", 7)
    if case == "desk-ppw15":
        mesh, k = geometry.mesh_scene(desk, ppw=15), desk.k
        assert expanded_pairs(mesh, k)
    elif case == "two-circles":
        mesh, k = two_circle_scene_mesh(), WAVENUMBER
    elif case == "unit-disk":
        mesh, k = circle_mesh(), WAVENUMBER
    else:
        mesh, k = two_circle_scene_mesh(), WAVENUMBER
        assert len(bem._tiles(mesh)) == 36
    alone = [(kind,) for kind in bem._OPERATOR_KINDS] if case == "two-circles-in-bands" else []
    for kinds in [bem._OPERATOR_KINDS] + alone:
        reference = None
        for size, cpus in itertools.product((bem._PIECE_PAIR_POINTS, piece), (1, 2, 3, 8)):
            monkeypatch.setattr(bem, "_PIECE_PAIR_POINTS", size)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            assert bem._workers() == cpus
            assembled = bem.assemble_operators(mesh, k, kinds)
            assert list(assembled) == list(kinds)
            reference = reference or assembled
            for kind, op in assembled.items():
                assert np.array_equal(op.matrix, reference[kind].matrix)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("case", ["desk-ppw30", "disk-in-bands"])
def test_assembly_holds_one_tile_at_a_time(case, cpus, desk, monkeypatch):
    """Assembly's tracemalloc peak beyond L and N stays within one tile's
    array (three sides of complex 2 x 2 blocks per pair of its panels, two
    on a diagonal tile), the lists of its panel pairs and of the next
    tile's, which a worker builds meanwhile (96 bytes per panel pair of the
    largest tile), and one piece in flight per worker (128
    bytes per quadrature-point pair).  On desk at ppw 30 (obstacles of 122,
    143 and 179 panels, each a band) the largest tile is an obstacle pair:
    9.6 MiB on one worker and 11.6 on two.  A disk of 300 panels, in bands
    of at most 60, has tiles of at most 60 x 60 pairs: 3.0 and 5.0 MiB,
    where the whole disk's array alone would take 11 MiB."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    if case == "desk-ppw30":
        mesh, k = geometry.mesh_scene(desk, ppw=30), desk.k
        counts = np.diff(mesh.block_offsets)
        tile = max((2 if p == q else 3) * int(counts[p] * counts[q])
                   for p, q in itertools.combinations_with_replacement(range(len(counts)), 2))
        pairs = int(np.max(np.multiply.outer(counts, counts)))
    else:
        monkeypatch.setattr(bem, "_BAND_PANELS", 60)
        mesh, k = circle_mesh(ppw=150), WAVENUMBER
        assert mesh.n_nodes == 300
        tile, pairs = 3 * 60 ** 2, 60 ** 2
    bound = 4 * 16 * tile + 96 * pairs + cpus * 128 * bem._PIECE_PAIR_POINTS
    bem.assemble_operators(mesh, k)  # fills the rule caches
    tracemalloc.start()
    try:
        bem.assemble_operators(mesh, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 2 * 16 * mesh.n_nodes ** 2 <= bound


def test_no_cpu_affinity_and_no_cpu_count_run_on_one_worker(monkeypatch):
    """Where os.sched_getaffinity is missing and os.cpu_count() returns
    None, assembly and field evaluation run on one worker, to the values of
    one CPU."""
    mesh, points = two_polygons_and_banded_receivers()
    rho = np.linspace(1.0, 2.0, mesh.n_nodes) * (1.0 - 0.5j)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    operators = bem.assemble_operators(mesh, 0.3)
    fields = [bem.evaluate_potentials(mesh, rho, 0.3, points, layer=layer)
              for layer in ("single", "double")]
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert bem._workers() == 1
    for kind, op in bem.assemble_operators(mesh, 0.3).items():
        assert np.array_equal(op.matrix, operators[kind].matrix)
    for layer, field in zip(("single", "double"), fields):
        after = bem.evaluate_potentials(mesh, rho, 0.3, points, layer=layer)
        assert np.array_equal(after.values, field.values)
        assert np.array_equal(after.near_boundary, field.near_boundary)


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity") else os.cpu_count() < 2,
    reason="the process may use one CPU",
)
def test_assembly_runs_on_several_threads(desk, monkeypatch):
    mesh = geometry.mesh_scene(desk, ppw=15)
    threads = set()
    kernels = bem._kernels

    def recording(*args):
        threads.add(threading.get_ident())
        return kernels(*args)

    monkeypatch.setattr(bem, "_kernels", recording)
    bem.assemble_operators(mesh, desk.k)
    assert len(threads) >= 2


def test_an_error_in_an_assembly_piece_reaches_the_caller(desk, monkeypatch):
    mesh = geometry.mesh_scene(desk, ppw=15)

    def failing(*args):
        raise ValueError("kernel evaluation failed")

    monkeypatch.setattr(bem, "_kernels", failing)
    raised = []

    def assemble():
        try:
            bem.assemble_operators(mesh, desk.k)
        except ValueError as exc:
            raised.append(exc)

    caller = threading.Thread(target=assemble, daemon=True)
    caller.start()
    caller.join(timeout=60.0)
    assert not caller.is_alive()
    assert [str(exc) for exc in raised] == ["kernel evaluation failed"]


def test_each_layer_asks_only_for_its_bessel_orders(monkeypatch):
    """The single layer needs J0 and Y0 and the double layer J1 and Y1, so
    a potential or an assembly of one kind asks for its order only, BW's
    combined field for both orders in one call, and an assembly of both
    kinds for both orders in every call over distinct panels and for order
    0 in its one call over the panels paired with themselves (the only call
    on a 2-D array), where N vanishes.  The fields of all four systems at
    once ask for the Bessel points of one single-layer pass, each call for
    both orders.  A receiver that takes the obstacle's circular-wave
    expansion asks once for both orders, H_0 and H_1, in either layer."""
    scene = geometry.Scene(
        k=WAVENUMBER, beta=(0.0, 1.0), obstacles=(geometry.Shape(kind="ellipse"),),
        box=(-3.0, -3.0, 3.0, 3.0),
    )
    mesh = geometry.mesh_scene(scene, ppw=6)
    bw = formulations.build_system(formulations.Formulation(kind="BW"), scene, mesh)
    rho = np.ones(mesh.n_nodes, dtype=complex)
    point = np.array([[1.5, 0.5]])  # within 2 R of the center: the direct rule
    far_point = np.array([[3.0, 1.0]])
    calls = []
    bessel = specfun.bessel_j0j1y0y1

    def recording(x, orders=(0, 1)):
        calls.append((tuple(orders), np.size(x), np.ndim(x)))
        return bessel(x, orders)

    monkeypatch.setattr(specfun, "bessel_j0j1y0y1", recording)

    def orders_asked(call):
        calls.clear()
        call()
        return [asked for asked, *_ in calls]

    def bessel_calls(call):
        orders_asked(call)
        return sorted((asked, size) for asked, size, _ in calls)

    assert orders_asked(lambda: bem.evaluate_potentials(mesh, rho, WAVENUMBER, point)) == [(0,)]
    assert orders_asked(
        lambda: bem.evaluate_potentials(mesh, rho, WAVENUMBER, point, layer="double")
    ) == [(1,)]
    assert orders_asked(lambda: formulations.scattered_field(bw, rho, point)) == [(0, 1)]
    for layer in ("single", "double"):
        assert orders_asked(
            lambda: bem.evaluate_potentials(mesh, rho, WAVENUMBER, far_point, layer=layer)
        ) == [(0, 1)]
    ring = 1.8 * np.stack([np.cos(np.arange(40) / 6.0), np.sin(np.arange(40) / 6.0)], axis=1)
    single_pass = bessel_calls(lambda: bem.evaluate_potentials(mesh, rho, WAVENUMBER, ring))
    every = formulations.systems(formulations.FORMULATION_KINDS, scene, mesh, operators=bw.operators)
    one_pass = bessel_calls(lambda: formulations.scattered_fields(every.values(), [rho] * 4, ring))
    assert {asked for asked, _ in one_pass} == {(0, 1)}
    assert sum(size for _, size in one_pass) == sum(size for _, size in single_pass)
    for kinds, wanted, same in (
        (("single_layer",), (0,), [(0,)]),
        (("adjoint_double_layer",), (1,), []),
        (("single_layer", "adjoint_double_layer"), (0, 1), [(0,)]),
    ):
        orders_asked(lambda: bem.assemble_operators(mesh, WAVENUMBER, kinds=kinds))
        pairs = [asked for asked, _, ndim in calls if ndim == 3]
        assert pairs and set(pairs) == {wanted}
        assert [asked for asked, _, ndim in calls if ndim == 2] == same
        assert len(pairs) + len(same) == len(calls)


def test_separated_orders_rise_with_k_h_bounds_and_fall_with_separations():
    """The receiver orders take each k h class's order at its panel of least
    separation, which holds because the rows' bounds on k h and their orders
    increase and their separations decrease."""
    separations, bounds, orders = np.array(bem._SEPARATED_ORDERS).T
    assert np.all(np.diff(bounds) > 0.0)
    assert np.all(np.diff(separations) < 0.0)
    assert np.all(np.diff(orders) > 0)
    assert separations[-1] == 0.0 and bounds[-1] == math.inf


@pytest.mark.parametrize("least", [1, 6])
@pytest.mark.parametrize("largest_kh,classes", [(0.2, 1), (0.7, 2), (1.5, 3)])
@pytest.mark.parametrize("seed", range(3))
def test_receiver_orders_are_the_largest_band_order_over_every_panel(seed, largest_kh, classes,
                                                                     least):
    """On star polygons whose panel lengths span a factor of ten or more,
    so that they fall in one to three k h classes, and at receivers from on
    the boundary to far away, each receiver's order is the largest
    ``_band_order`` over every panel, or ``least`` if that is larger."""
    rng = np.random.default_rng(seed)
    theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, 40))
    radius = rng.uniform(0.5, 3.0, theta.size)
    loop = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
    mesh = geometry.polygon_mesh([loop, 0.3 * loop[::4] + np.array([9.0, 0.0])])
    k = largest_kh / mesh.lengths.max()
    assert len(np.unique(np.searchsorted([0.25, 0.8, 1.6, math.inf], k * mesh.lengths))) == classes
    distance = np.exp(rng.uniform(np.log(0.01), np.log(80.0), 500))
    angle = rng.uniform(0.0, 2.0 * np.pi, distance.size)
    points = np.concatenate([mesh.nodes, distance[:, None] * np.stack([np.cos(angle),
                                                                      np.sin(angle)], axis=1)])
    mid = 0.5 * (mesh.nodes + mesh.nodes[mesh.next_node])
    ratio = np.hypot(*(points[:, None] - mid[None]).transpose(2, 0, 1)) / mesh.lengths
    every = bem._band_order(ratio, k * mesh.lengths).max(axis=1)
    assert len(np.unique(every)) >= 2
    got = bem._receiver_orders(mesh, k, least)(points)
    assert np.array_equal(got, np.maximum(least, every))


@pytest.mark.parametrize("k", [0.3, 2.0, 3.5])
def test_receiver_orders_meet_order_32_reference(k, monkeypatch):
    """Both layer potentials of two 10-panel polygons at receivers in every
    band, against an order-32 reference per panel: within 1e-9 of the
    largest value, with the circular-wave expansions and with the direct
    rule alone (``_FAR_MIN_KR`` infinite).  On the direct rule alone, at k =
    0.3 (k h at most 0.21) the receivers take orders 3, 4, 5 and 8 by their
    distance; at k = 2 (k h 0.97 to 1.39) orders 5 and 8; at k = 3.5 (k h
    above 1.6) order 8.  Per layer, the Bessel routine receives, for each
    receiver and polygon, the polygon's panel count times the receiver's
    order on it where the receiver takes the direct rule, and that count
    times 32 when asked for order 32; one point where it takes the
    polygon's expansion."""
    mesh, points = two_polygons_and_banded_receivers()
    n = mesh.n_nodes
    rng = np.random.default_rng(5)
    rho = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    reference = np.array([reference_potentials(mesh, rho, k, x) for x in points]).T

    received = []
    bessel = specfun.bessel_j0j1y0y1

    def counting(x, orders=(0, 1)):
        received.append(np.size(x))
        return bessel(x, orders)

    monkeypatch.setattr(specfun, "bessel_j0j1y0y1", counting)
    for far_min_kr in (bem._FAR_MIN_KR, math.inf):
        monkeypatch.setattr(bem, "_FAR_MIN_KR", far_min_kr)
        pairs = [(x, panels, far_min_kr < math.inf and takes_expansion(mesh, panels, x, k))
                 for x in points for panels in obstacle_panels(mesh)]
        orders = [receiver_order(mesh, x, k, panels) for x, panels, far in pairs if not far]
        if far_min_kr == math.inf:
            assert set(orders) == {0.3: {3, 4, 5, 8}, 2.0: {5, 8}, 3.5: {8}}[k]
        else:
            assert 0 < sum(far for *_, far in pairs) < len(pairs)
        least = {o: sum(len(panels) * max(o, receiver_order(mesh, x, k, panels)) if not far else 1
                        for x, panels, far in pairs) for o in (1, 32)}
        for layer, ref in zip(("single", "double"), reference):
            received.clear()
            got = bem.evaluate_potentials(mesh, rho, k, points, layer=layer)
            assert not np.any(got.near_boundary)
            assert np.max(np.abs(got.values - ref)) <= 1e-9 * np.max(np.abs(ref))
            assert sum(received) == least[1]
            # ``order`` is the least order of the direct rule
            received.clear()
            bem.evaluate_potentials(mesh, rho, k, points, layer=layer, order=32)
            assert sum(received) == least[32]


@pytest.mark.parametrize("case", ["desk-ppw4", "two-circles"])
def test_separated_pairs_meet_order_16_reference(case, desk, monkeypatch):
    """L and N within 1e-8 of the largest entry of matrices assembled with
    order 16 on every separated pair (the near and self rules unchanged)."""
    if case == "desk-ppw4":
        mesh, k = geometry.mesh_scene(desk, ppw=4), desk.k
    else:
        mesh, k = two_circle_scene_mesh(), WAVENUMBER
    got = bem.assemble_operators(mesh, k)
    monkeypatch.setattr(bem, "_SEPARATED_ORDERS", ((0.0, math.inf, 16),))
    reference = bem.assemble_operators(mesh, k)
    for kind, ref in reference.items():
        error = np.max(np.abs(got[kind].matrix - ref.matrix))
        assert error <= 1e-8 * np.max(np.abs(ref.matrix))


def test_flat_panel_kills_double_layer_kernel():
    """(x - y) lies along the panel for same-panel pairs, and chord normals
    are orthogonal to it, so the M and N kernels vanish there identically."""
    mesh = one_shape_mesh(geometry.Shape(kind="kite", s=0.8), ppw=12)
    along = mesh.nodes[mesh.next_node] - mesh.nodes
    assert np.max(np.abs(np.sum(along * mesh.normals, axis=1))) <= 1e-14


def test_operator_matrices_are_read_only():
    ops = bem.assemble_operators(circle_mesh(), WAVENUMBER, kinds=("single_layer",))
    op = ops["single_layer"]
    assert op.k == WAVENUMBER
    assert op.n == op.matrix.shape[0] == op.matrix.shape[1]
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 0.0


def test_assembly_input_validation():
    mesh = circle_mesh()
    with pytest.raises(ValueError):
        bem.assemble_operators(mesh, -1.0)
    with pytest.raises(ValueError):
        bem.assemble_operators(mesh, WAVENUMBER, kinds=("mystery",))
    # M is read as -N^T and never assembled
    with pytest.raises(ValueError, match="unknown operator kind"):
        bem.assemble_operators(mesh, WAVENUMBER, kinds=("double_layer",))
    with pytest.raises(TypeError):
        bem.assemble_operators(np.zeros((3, 2)), WAVENUMBER)
    for k in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="wavenumber must be finite"):
            bem.assemble_operators(mesh, k)
    with pytest.raises(ValueError, match="wavenumber must be positive"):
        bem.assemble_operators(mesh, 0.0)
    assert bem.assemble_operators(mesh, WAVENUMBER, kinds=()) == {}


def test_assembly_refuses_more_than_physical_memory_before_allocating(monkeypatch):
    # 300000 unknowns: two dense complex matrices need about 2.6 TiB
    theta = 2.0 * np.pi * np.arange(300_000) / 300_000
    mesh = geometry.polygon_mesh([np.stack([np.cos(theta), np.sin(theta)], axis=1)])

    def no_allocation(*args, **kwargs):
        raise AssertionError("np.zeros called before the memory check")

    monkeypatch.setattr(np, "zeros", no_allocation)
    with pytest.raises(ValueError, match=r"^assembling 2 dense 300000 x 300000 operator "
                       r"matrices needs about \d+\.\d GiB, more than the \d+\.\d GiB"):
        bem.assemble_operators(mesh, WAVENUMBER)


@pytest.mark.parametrize("kinds", [("single_layer",), bem._OPERATOR_KINDS])
def test_assembly_refuses_beyond_the_available_memory(kinds, monkeypatch):
    """The refusal compares the dense matrices with the one memory probe,
    ``linalg._available_memory``, the one the commands use."""
    mesh = circle_mesh(12)
    needed = len(kinds) * 16 * mesh.n_nodes ** 2
    monkeypatch.setattr(linalg, "_available_memory", lambda: needed - 1)
    with pytest.raises(ValueError, match="of physical memory available"):
        bem.assemble_operators(mesh, WAVENUMBER, kinds)
    monkeypatch.setattr(linalg, "_available_memory", lambda: needed)
    assert set(bem.assemble_operators(mesh, WAVENUMBER, kinds)) == set(kinds)


def test_gauss_rule_properties():
    rule = bem.gauss_rule(8)
    assert rule.points.shape == rule.weights.shape == (8,)
    assert np.all((rule.points >= 0.0) & (rule.points <= 1.0))
    assert np.all(rule.weights > 0.0)
    assert_allclose(rule.weights.sum(), 1.0, rtol=1e-14)
    # 8 points integrate polynomials through degree 15 exactly
    assert_allclose(rule.weights @ rule.points**15, 1.0 / 16.0, rtol=1e-13)
    with pytest.raises(ValueError):
        bem.gauss_rule(0)
    # every caller shares the cached arrays, so none may write to them
    assert bem.gauss_rule(8) is rule
    for array in (rule.points, rule.weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5


@pytest.mark.parametrize("order", [1, 2, 5, 8, 16])
def test_log_weights_integrate_log_times_monomials(order):
    """At the Gauss points, the log weights give the integral over [0, 1]
    of ln(u) u^j, -1 / (j + 1)^2, for every j below the order."""
    weights = bem._log_weights(order)
    u = bem.gauss_rule(order).points
    for j in range(order):
        assert_allclose(weights @ u ** j, -1.0 / (j + 1) ** 2, rtol=1e-13)


@pytest.mark.parametrize("ppw", [4, 15])
def test_same_panel_blocks_match_dblquad(ppw, desk):
    """The longest panel's block with itself against scipy's dblquad of
    phi_a(s) phi_b(t) (i/4) H0(k l |s - t|) l^2 over the triangles s < t
    and s > t, whose inner integrals end at the logarithmic singularity.
    At ppw 4 the panel has k l = 1.55, at ppw 15 k l = 0.42."""
    mesh = geometry.mesh_scene(desk, ppw=ppw)
    k = desk.k
    p = int(np.argmax(mesh.lengths))
    length = mesh.lengths[p]
    block = bem._same_panel_single_layer(mesh.lengths, k)[p]
    hats = (lambda s: 1.0 - s, lambda s: s)
    for b in (0, 1):
        value = 0.0j
        for factor, bessel in ((1j, j0), (-1.0, y0)):
            def integrand(t, s):
                return hats[0](s) * hats[b](t) * bessel(k * length * abs(s - t))
            for lower, upper in ((lambda s: 0.0, lambda s: s), (lambda s: s, lambda s: 1.0)):
                part, _ = dblquad(integrand, 0.0, 1.0, lower, upper, epsabs=1e-14, epsrel=1e-13)
                value += factor * part
        reference = 0.25 * length ** 2 * value
        # (1, 1) pairs the same hats as (0, 0), and (1, 0) as (0, 1)
        assert abs(block[0, b] - reference) <= 1e-13 * np.max(np.abs(block))
        assert block[1, 1 - b] == block[0, b]


def test_potential_zero_density_and_linearity():
    mesh = circle_mesh()
    rng = np.random.default_rng(11)
    rho1 = rng.standard_normal(mesh.n_nodes) + 1j * rng.standard_normal(mesh.n_nodes)
    rho2 = rng.standard_normal(mesh.n_nodes) + 1j * rng.standard_normal(mesh.n_nodes)
    pts = np.array([[4.0, 1.0], [-3.0, 5.0]])
    zero = bem.evaluate_potentials(mesh, np.zeros(mesh.n_nodes), WAVENUMBER, pts)
    assert_allclose(zero.values, 0.0, atol=0.0)
    for layer in ("single", "double"):
        v1 = bem.evaluate_potentials(mesh, rho1, WAVENUMBER, pts, layer=layer).values
        v2 = bem.evaluate_potentials(mesh, rho2, WAVENUMBER, pts, layer=layer).values
        v12 = bem.evaluate_potentials(
            mesh, 2.0 * rho1 + rho2, WAVENUMBER, pts, layer=layer
        ).values
        assert_allclose(v12, 2.0 * v1 + v2, rtol=1e-13)


def test_potential_far_point_quadrature_converged():
    mesh = circle_mesh()
    rng = np.random.default_rng(3)
    rho = rng.standard_normal(mesh.n_nodes) + 1j * rng.standard_normal(mesh.n_nodes)
    pt = np.array([6.0, 4.5])
    for layer, ref in zip(("single", "double"), reference_potentials(mesh, rho, WAVENUMBER, pt)):
        got = bem.evaluate_potentials(mesh, rho, WAVENUMBER, pt, layer=layer)
        assert not got.near_boundary[0]
        assert abs(got.values[0] - ref) <= 1e-10 * abs(ref)


def unit_disk_mesh(k: float, ppw: float) -> geometry.SceneMesh:
    """The unit disk meshed at ``ppw`` panels per wavelength of k."""
    scene = geometry.Scene(k=k, beta=(0.0, 1.0), obstacles=(geometry.Shape(kind="ellipse"),),
                           box=(-5.0, -5.0, 5.0, 5.0))
    return geometry.mesh_scene(scene, ppw=ppw)


def assert_meets_reference(mesh, k: float, points, bound: float) -> None:
    """Both layer potentials of a random density at ``points`` within
    ``bound`` of the largest value of ``reference_potentials``, none of the
    points flagged near the boundary."""
    rng = np.random.default_rng(17)
    rho = rng.standard_normal(mesh.n_nodes) + 1j * rng.standard_normal(mesh.n_nodes)
    reference = np.array([reference_potentials(mesh, rho, k, x) for x in points]).T
    for layer, ref in zip(("single", "double"), reference):
        got = bem.evaluate_potentials(mesh, rho, k, points, layer=layer)
        assert not np.any(got.near_boundary)
        assert np.max(np.abs(got.values - ref)) <= bound * np.max(np.abs(ref))


@pytest.mark.parametrize("k,mesh", [(1e-3, "circle"), (5.0, 15), (40.0, 10), (200.0, 6)],
                         ids=["1e-3", "5", "40", "200"])
def test_expansion_meets_order_32_reference_on_the_unit_disk(k, mesh):
    """Receivers on a circle of radius 3 about the unit disk take its
    circular-wave expansion, from the least k R it is taken at (1e-3, 47
    modes) to k = 200 (257 modes from ``analytic.truncation_order``), and
    are within 1e-10 of the order-32 reference per panel."""
    mesh = circle_mesh() if mesh == "circle" else unit_disk_mesh(k, mesh)
    theta = 0.3 + 2.0 * np.pi * np.arange(7) / 7
    points = 3.0 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    assert all(takes_expansion(mesh, range(mesh.n_nodes), x, k) for x in points)
    assert_meets_reference(mesh, k, points, 1e-10)


@pytest.mark.parametrize("k", [0.3, 2.0])
def test_expansion_and_direct_rule_meet_the_reference_across_twice_the_radius(k):
    """Receivers just inside and just outside 2 R of each coarse polygon's
    center take its direct rule and its expansion, and all are within 1e-9
    of the largest reference value."""
    mesh, _ = two_polygons_and_banded_receivers()
    theta = 0.4 + 2.0 * np.pi * np.arange(5) / 5
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    points, far = [], []
    for panels in obstacle_panels(mesh):
        nodes = mesh.nodes[list(panels)]
        center = 0.5 * (nodes.min(axis=0) + nodes.max(axis=0))
        radius = max(math.dist(center, y) for y in nodes)
        for scale in (1.0 - 1e-9, 1.0 + 1e-9):
            for x in center + 2.0 * radius * scale * circle:
                points.append(x)
                far.append(takes_expansion(mesh, panels, x, k))
    assert far == ([False] * 5 + [True] * 5) * 2
    assert_meets_reference(mesh, k, np.array(points), 1e-9)


def test_expansion_meets_the_reference_around_desk_and_at_its_obstacle_centers(desk):
    """A ring around desk takes every obstacle's expansion, and each
    obstacle's center, inside it, takes its own direct rule and the other
    obstacles' expansions: within 1e-10 of the largest reference value."""
    mesh = geometry.mesh_scene(desk, ppw=15)
    theta = 2.0 * np.pi * np.arange(24) / 24
    ring = np.array([6.0, 6.0]) + 9.0 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    centers = np.array([shape.center for shape in desk.obstacles])
    for x in ring:
        assert all(takes_expansion(mesh, panels, x, desk.k) for panels in obstacle_panels(mesh))
    for p, x in enumerate(centers):
        assert [takes_expansion(mesh, panels, x, desk.k) for panels in obstacle_panels(mesh)] == [
            q != p for q in range(mesh.n_obstacles)]
    assert_meets_reference(mesh, desk.k, np.concatenate([ring, centers]), 1e-10)


def test_receivers_taking_an_expansion_are_never_near_the_boundary(desk, monkeypatch):
    """The near-boundary flags are those of the direct rule alone, and no
    receiver that takes an obstacle's expansion is within a panel length of
    it, at receivers from on the boundary to far away."""
    mesh = geometry.mesh_scene(desk, ppw=10)
    rng = np.random.default_rng(4)
    points = np.concatenate([mesh.nodes + rng.normal(0.0, 0.05, mesh.nodes.shape),
                             rng.uniform(-4.0, 16.0, (300, 2))])
    rho = np.ones(mesh.n_nodes, dtype=complex)
    flags = bem.evaluate_potentials(mesh, rho, desk.k, points).near_boundary
    monkeypatch.setattr(bem, "_FAR_MIN_KR", math.inf)
    assert np.array_equal(bem.evaluate_potentials(mesh, rho, desk.k, points).near_boundary, flags)
    taken = 0
    for panels in obstacle_panels(mesh):
        for x in points:
            if takes_expansion(mesh, panels, x, desk.k):
                taken += 1
                assert all(np.hypot(*(x - panel_points(mesh, q, np.linspace(0.0, 1.0, 9))).T).min()
                           >= mesh.lengths[q] for q in panels)
    assert taken > 0


def test_tiny_k_r_takes_the_direct_rule(monkeypatch):
    """At k = 1e-6 the unit disk's k R is below ``_FAR_MIN_KR``, where
    J_(N+1) would underflow and H_N overflow: the values are finite and
    those of the direct rule alone."""
    mesh = circle_mesh()
    rng = np.random.default_rng(9)
    rho = rng.standard_normal(mesh.n_nodes) + 1j * rng.standard_normal(mesh.n_nodes)
    points = np.array([[3.0, 0.5], [-20.0, 4.0], [0.0, 300.0]])
    got = [bem.evaluate_potentials(mesh, rho, 1e-6, points, layer=layer).values
           for layer in ("single", "double")]
    monkeypatch.setattr(bem, "_FAR_MIN_KR", math.inf)
    for layer, values in zip(("single", "double"), got):
        assert np.all(np.isfinite(values))
        assert np.array_equal(values, bem.evaluate_potentials(mesh, rho, 1e-6, points,
                                                              layer=layer).values)


def test_potential_near_boundary_flag():
    mesh = circle_mesh()
    rho = np.ones(mesh.n_nodes, dtype=complex)
    res = bem.evaluate_potentials(
        mesh, rho, WAVENUMBER, np.array([[1.01, 0.0], [3.0, 0.0]])
    )
    assert res.near_boundary[0]
    assert not res.near_boundary[1]


def test_single_layer_potential_cylindrical_decay():
    mesh = circle_mesh()
    rho = np.ones(mesh.n_nodes, dtype=complex)
    res = bem.evaluate_potentials(
        mesh, rho, WAVENUMBER, np.array([[200.0, 0.0], [800.0, 0.0]])
    )
    scaled = np.abs(res.values) * np.sqrt([200.0, 800.0])
    assert abs(scaled[0] / scaled[1] - 1.0) <= 0.02


def test_double_layer_constant_density_decays_and_matches_direct_integral():
    mesh = circle_mesh()
    rho = np.ones(mesh.n_nodes, dtype=complex)
    pts = np.array([[10.0, 0.0], [40.0, 0.0]])
    res = bem.evaluate_potentials(mesh, rho, WAVENUMBER, pts, layer="double")
    assert abs(res.values[1]) < abs(res.values[0])
    # reference: trapezoid rule on the smooth circle, spectrally accurate
    theta = np.linspace(0.0, 2.0 * np.pi, 4001)[:-1]
    y = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    d = pts[0][None, :] - y
    r = np.linalg.norm(d, axis=1)
    kern = -0.25j * WAVENUMBER * scipy_hankel1(1, WAVENUMBER * r) * np.sum(d * y, axis=1) / r
    direct = kern.sum() * (2.0 * np.pi / theta.size)
    assert abs(res.values[0] - direct) / abs(direct) <= 1e-2


@pytest.mark.parametrize("layer", ["single", "double", ("double", "single", "double")],
                         ids=["single", "double", "mixed"])
def test_potentials_do_not_depend_on_the_split_into_pieces(layer, monkeypatch):
    """Each receiver's value depends on that receiver alone: evaluating the
    whole set (in pieces of the default size or of one receiver each, on
    any number of workers) gives exactly the values of evaluating slices of
    it, single receivers included.  A stack of densities gives, column by
    column, exactly the values of each density alone in its layer, also
    when the columns mix layers and one pass serves both kernels."""
    mesh, points = two_polygons_and_banded_receivers()
    rng = np.random.default_rng(8)
    stack = rng.standard_normal((mesh.n_nodes, 3)) + 1j * rng.standard_normal((mesh.n_nodes, 3))
    layers = (layer,) * 3 if isinstance(layer, str) else layer
    splits = [[(i, i + 1) for i in range(len(points))], [(0, 5), (5, 6), (6, 13)]]
    for piece in (bem._FIELD_PIECE_POINTS, 50):
        monkeypatch.setattr(bem, "_FIELD_PIECE_POINTS", piece)
        alone = [bem.evaluate_potentials(mesh, rho, 0.3, points, layer=each)
                 for rho, each in zip(stack.T, layers)]
        whole = bem.evaluate_potentials(mesh, stack, 0.3, points, layer=layer)
        assert whole.values.shape == (len(points), 3)
        for j, field in enumerate(alone):
            assert np.array_equal(whole.values[:, j], field.values)
            assert np.array_equal(whole.near_boundary, field.near_boundary)
        cases = ((stack[:, 0], layers[0], alone[0]), (stack, layer, whole))
        for bounds in splits:
            for rho, each, field in cases:
                parts = [bem.evaluate_potentials(mesh, rho, 0.3, points[lo:hi], layer=each)
                         for lo, hi in bounds]
                assert np.array_equal(np.concatenate([p.values for p in parts]), field.values)
                assert np.array_equal(
                    np.concatenate([p.near_boundary for p in parts]), field.near_boundary
                )
        for cpus in (1, 3, 8):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            for rho, each, field in cases:
                again = bem.evaluate_potentials(mesh, rho, 0.3, points, layer=each)
                assert np.array_equal(again.values, field.values)


def test_potentials_without_cpu_affinity_are_unchanged(monkeypatch):
    """Where os.sched_getaffinity does not exist (macOS), the receivers run
    on os.cpu_count() threads, to the same values."""
    mesh, points = two_polygons_and_banded_receivers()
    rho = np.linspace(1.0, 2.0, mesh.n_nodes) * (1.0 - 0.5j)
    layers = ("single", "double")
    before = [bem.evaluate_potentials(mesh, rho, 0.3, points, layer=layer) for layer in layers]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for layer, field in zip(layers, before):
        after = bem.evaluate_potentials(mesh, rho, 0.3, points, layer=layer)
        assert np.array_equal(after.values, field.values)
        assert np.array_equal(after.near_boundary, field.near_boundary)


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity") else os.cpu_count() < 2,
    reason="the process may use one CPU",
)
def test_field_evaluation_runs_on_several_threads(monkeypatch):
    mesh, points = disk_field_grid()
    rho = np.ones(mesh.n_nodes, dtype=complex)
    threads = set()
    bessel = specfun.bessel_j0j1y0y1

    def recording(x, orders=(0, 1)):
        threads.add(threading.get_ident())
        return bessel(x, orders)

    monkeypatch.setattr(specfun, "bessel_j0j1y0y1", recording)
    bem.evaluate_potentials(mesh, rho, 5.0, points)
    assert len(threads) >= 2


def test_an_error_in_a_piece_reaches_the_caller(monkeypatch):
    mesh, points = disk_field_grid()
    rho = np.ones(mesh.n_nodes, dtype=complex)

    def failing(x, orders=(0, 1)):
        raise ValueError("Bessel evaluation failed")

    monkeypatch.setattr(specfun, "bessel_j0j1y0y1", failing)
    raised = []

    def evaluate():
        try:
            bem.evaluate_potentials(mesh, rho, 5.0, points)
        except ValueError as exc:
            raised.append(exc)

    caller = threading.Thread(target=evaluate, daemon=True)
    caller.start()
    caller.join(timeout=60.0)
    assert not caller.is_alive()
    assert [str(exc) for exc in raised] == ["Bessel evaluation failed"]


@pytest.mark.parametrize("layer", ["single", "double", ("single", "double")],
                         ids=["single", "double", "both"])
def test_one_field_call_holds_cache_sized_pieces(layer, monkeypatch):
    """On two CPUs, one call on the disk-field grid allocates at most 5 MiB
    at its peak (tracemalloc sees NumPy's buffers): the two pieces in
    flight, the receivers' orders and the values.  A pass of both layers
    holds two kernels in pieces of half the points."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    mesh, points = disk_field_grid()
    rho = np.ones(mesh.n_nodes if isinstance(layer, str) else (mesh.n_nodes, 2), dtype=complex)
    bem.evaluate_potentials(mesh, rho, 5.0, points, layer=layer)  # fills the rule caches
    tracemalloc.start()
    try:
        bem.evaluate_potentials(mesh, rho, 5.0, points, layer=layer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2 ** 20


def test_potential_input_validation():
    mesh = circle_mesh()
    rho = np.ones(mesh.n_nodes, dtype=complex)
    for layer in ("triple", ("single", "double"), ("triple",)):
        with pytest.raises(ValueError, match="layer must be"):
            bem.evaluate_potentials(mesh, rho, WAVENUMBER, [[1.0, 2.0]], layer=layer)
    with pytest.raises(ValueError):
        bem.evaluate_potentials(mesh, rho[:-1], WAVENUMBER, [[1.0, 2.0]])
    for shape in ((mesh.n_nodes + 1,), (mesh.n_nodes, 2, 1)):
        with pytest.raises(ValueError, match="density must have shape"):
            bem.evaluate_potentials(mesh, np.ones(shape), WAVENUMBER, [[1.0, 2.0]])
    with pytest.raises(ValueError):
        bem.evaluate_potentials(mesh, rho, 0.0, [[1.0, 2.0]])
    for k in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="wavenumber must be finite"):
            bem.evaluate_potentials(mesh, rho, k, [[1.0, 2.0]])
    with pytest.raises(ValueError, match="wavenumber must be positive"):
        bem.evaluate_potentials(mesh, rho, -1.0, [[1.0, 2.0]])
    with pytest.raises(ValueError):
        bem.evaluate_potentials(mesh, rho, WAVENUMBER, [[1.0, 2.0, 3.0]])
