"""Galerkin assembly of the layer operators and potential evaluation."""

import math
import os
import threading

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose
from scipy.integrate import dblquad
from scipy.special import hankel1 as scipy_hankel1
from scipy.special import j0, jv, jvp, y0, yv, yvp

from multiscat import bem, formulations, geometry, specfun

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


def receiver_order(mesh, x, k: float) -> int:
    """The Gauss order a potential should take at receiver x on every panel:
    the largest band, over the panels p, of the distance from x to p's
    midpoint over p's length and of k times that length."""
    return max(
        band_order(math.dist(x, panel_points(mesh, p, 0.5)) / h, k * h)
        for p, h in enumerate(mesh.lengths)
    )


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


def test_every_panel_pair_integrated_once_with_its_rule():
    """The whole N matrix of three 10-panel polygons rebuilt pair by pair
    from scipy Hankel functions: order 16 on panels sharing a node, the
    order of the pair's separation band elsewhere, nothing on a panel with
    itself (the kernel vanishes there).  The polygons are placed so that
    all four bands occur, and a pair skipped, added twice or given the
    wrong rule moves entries far beyond the bound."""
    k = 0.3
    theta = 2.0 * np.pi * np.arange(10) / 10
    radius = 1.0 + 0.3 * np.cos(3.0 * theta)
    loop = np.stack([radius * np.cos(theta), 0.7 * radius * np.sin(theta)], axis=1)
    mesh = geometry.polygon_mesh(
        [loop + np.array(c) for c in ((0.0, 0.0), (6.0, 0.0), (0.0, 20.0))])
    expected = np.zeros((30, 30), dtype=complex)
    orders = set()
    for p in range(30):
        for q in range(30):
            if p == q:
                continue
            ends_p, ends_q = panel_nodes(mesh, p), panel_nodes(mesh, q)
            order = 16 if set(ends_p) & set(ends_q) else separated_order(mesh, p, q, k)
            orders.add(order)
            expected[np.ix_(ends_p, ends_q)] += pair_blocks(mesh, p, q, k, order)["adjoint_double_layer"]
    assert orders == {3, 4, 5, 8, 16}
    got = bem.assemble_operators(mesh, k, kinds=("adjoint_double_layer",))
    error = np.abs(got["adjoint_double_layer"].matrix - expected)
    assert np.max(error) <= 1e-12 * np.max(np.abs(expected))


def test_one_bessel_evaluation_per_unordered_pair(monkeypatch):
    """Every quadrature point pair of every unordered pair of distinct
    panels reaches the Bessel routine exactly once, in pieces of at most
    ``_PIECE_PAIR_POINTS``: order 16 squared for panels sharing a node and
    the separation band's order squared otherwise.  The panels paired with
    themselves follow in one last call of 16 points per panel."""
    mesh = two_circle_scene_mesh(ppw=30)
    expected = 0
    for p in range(mesh.n_nodes):
        for q in range(p + 1, mesh.n_nodes):
            shared = set(panel_nodes(mesh, p)) & set(panel_nodes(mesh, q))
            expected += (16 if shared else separated_order(mesh, p, q, WAVENUMBER)) ** 2
    received = []
    bessel = specfun.bessel_j0j1y0y1

    def counting(x, orders=(0, 1)):
        received.append(np.size(x))
        return bessel(x, orders)

    monkeypatch.setattr(specfun, "bessel_j0j1y0y1", counting)
    bem.assemble_operators(mesh, WAVENUMBER)
    *pairs, same = received
    assert sum(pairs) == expected
    assert max(pairs) <= bem._PIECE_PAIR_POINTS
    assert same == mesh.n_nodes * bem._NEAR_ORDER


@pytest.mark.parametrize("case,piece", [("desk-ppw15", bem._NEAR_ORDER ** 2), ("two-circles", 1)])
def test_operators_do_not_depend_on_the_piece_size(case, piece, desk, desk15, monkeypatch):
    """L and N are the same bit for bit whatever the number of quadrature
    point pairs per kernel piece: here one node-sharing pair's points (so
    every such pair is a piece of its own) or a single point (every pair
    is), against the default."""
    if case == "desk-ppw15":
        (mesh, default), k = desk15, desk.k
    else:
        mesh, k = two_circle_scene_mesh(), WAVENUMBER
        default = bem.assemble_operators(mesh, k)
    monkeypatch.setattr(bem, "_PIECE_PAIR_POINTS", piece)
    pieces = bem.assemble_operators(mesh, k)
    for kind, op in pieces.items():
        assert np.array_equal(op.matrix, default[kind].matrix)


def test_each_layer_asks_only_for_its_bessel_orders(monkeypatch):
    """The single layer needs J0 and Y0 and the double layer J1 and Y1, so
    a potential or an assembly of one kind asks for its order only, BW's
    combined field for each order once, and an assembly of both kinds for
    both orders in every call over distinct panels and for order 0 in its
    one call over the panels paired with themselves, where N vanishes."""
    scene = geometry.Scene(
        k=WAVENUMBER, beta=(0.0, 1.0), obstacles=(geometry.Shape(kind="ellipse"),),
        box=(-3.0, -3.0, 3.0, 3.0),
    )
    mesh = geometry.mesh_scene(scene, ppw=6)
    bw = formulations.build_system(formulations.Formulation(kind="BW"), scene, mesh)
    rho = np.ones(mesh.n_nodes, dtype=complex)
    point = np.array([[3.0, 1.0]])
    asked = []
    bessel = specfun.bessel_j0j1y0y1

    def recording(x, orders=(0, 1)):
        asked.append(tuple(orders))
        return bessel(x, orders)

    monkeypatch.setattr(specfun, "bessel_j0j1y0y1", recording)

    def orders_asked(call):
        asked.clear()
        call()
        return asked

    assert orders_asked(lambda: bem.evaluate_potentials(mesh, rho, WAVENUMBER, point)) == [(0,)]
    assert orders_asked(
        lambda: bem.evaluate_potentials(mesh, rho, WAVENUMBER, point, layer="double")
    ) == [(1,)]
    assert orders_asked(lambda: formulations.scattered_field(bw, rho, point)) == [(0,), (1,)]
    for kinds, wanted, same in (
        (("single_layer",), (0,), [(0,)]),
        (("adjoint_double_layer",), (1,), []),
        (("single_layer", "adjoint_double_layer"), (0, 1), [(0,)]),
    ):
        calls = orders_asked(lambda: bem.assemble_operators(mesh, WAVENUMBER, kinds=kinds))
        pairs = calls[:len(calls) - len(same)]
        assert pairs and set(pairs) == {wanted}
        assert calls[len(pairs):] == same


@pytest.mark.parametrize("k", [0.3, 2.0, 3.5])
def test_receiver_orders_meet_order_32_reference(k, monkeypatch):
    """Both layer potentials of two 10-panel polygons at receivers in every
    band, against an order-32 reference per panel: within 1e-9 of the
    largest value.  At k = 0.3 (k h at most 0.21) the receivers take orders
    3, 4, 5 and 8 by their distance; at k = 2 (k h 0.97 to 1.39) orders 5
    and 8; at k = 3.5 (k h above 1.6) order 8.  The Bessel routine receives
    exactly n_panels times each receiver's order points per layer, and
    n_panels times 32 per receiver when asked for order 32."""
    mesh, points = two_polygons_and_banded_receivers()
    n = mesh.n_nodes
    orders = [receiver_order(mesh, x, k) for x in points]
    assert set(orders) == {0.3: {3, 4, 5, 8}, 2.0: {5, 8}, 3.5: {8}}[k]
    rng = np.random.default_rng(5)
    rho = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    reference = np.array([reference_potentials(mesh, rho, k, x) for x in points]).T

    received = []
    bessel = specfun.bessel_j0j1y0y1

    def counting(x, orders=(0, 1)):
        received.append(np.size(x))
        return bessel(x, orders)

    monkeypatch.setattr(specfun, "bessel_j0j1y0y1", counting)
    for layer, ref in zip(("single", "double"), reference):
        received.clear()
        got = bem.evaluate_potentials(mesh, rho, k, points, layer=layer)
        assert not np.any(got.near_boundary)
        assert np.max(np.abs(got.values - ref)) <= 1e-9 * np.max(np.abs(ref))
        assert sum(received) == n * sum(orders)
        # ``order`` is the least order a receiver takes
        received.clear()
        bem.evaluate_potentials(mesh, rho, k, points, layer=layer, order=32)
        assert sum(received) == n * 32 * len(points)


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
    assert op.kind == "single_layer"
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
    with pytest.raises(ValueError, match=r"need \d+\.\d GiB, more than the \d+\.\d GiB"):
        bem.assemble_operators(mesh, WAVENUMBER)


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
    with pytest.raises(ValueError):
        bem.QuadratureRule(points=np.array([0.5]), weights=np.array([2.0]))


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
    block = bem._same_panel_single_layer(mesh, k)[p]
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
    for layer in ("single", "double"):
        got = bem.evaluate_potentials(mesh, rho, WAVENUMBER, pt, layer=layer)
        ref = bem.evaluate_potentials(mesh, rho, WAVENUMBER, pt, layer=layer, order=32)
        assert not got.near_boundary[0]
        assert abs(got.values[0] - ref.values[0]) <= 1e-10 * abs(ref.values[0])


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


def test_potentials_do_not_depend_on_the_split_into_pieces(monkeypatch):
    """Each receiver's value depends on that receiver alone: evaluating the
    whole set (in pieces, on any number of workers) gives exactly the values
    of evaluating slices of it, single receivers included."""
    mesh, points = two_polygons_and_banded_receivers()
    rng = np.random.default_rng(8)
    rho = rng.standard_normal(mesh.n_nodes) + 1j * rng.standard_normal(mesh.n_nodes)
    splits = [[(i, i + 1) for i in range(len(points))], [(0, 5), (5, 6), (6, 13)]]
    for layer in ("single", "double"):
        whole = bem.evaluate_potentials(mesh, rho, 0.3, points, layer=layer)
        for bounds in splits:
            parts = [bem.evaluate_potentials(mesh, rho, 0.3, points[lo:hi], layer=layer)
                     for lo, hi in bounds]
            assert np.array_equal(np.concatenate([p.values for p in parts]), whole.values)
            assert np.array_equal(
                np.concatenate([p.near_boundary for p in parts]), whole.near_boundary
            )
        for cpus in (1, 3, 8):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            again = bem.evaluate_potentials(mesh, rho, 0.3, points, layer=layer)
            assert np.array_equal(again.values, whole.values)


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


def test_potential_input_validation():
    mesh = circle_mesh()
    rho = np.ones(mesh.n_nodes, dtype=complex)
    with pytest.raises(ValueError):
        bem.evaluate_potentials(mesh, rho, WAVENUMBER, [[1.0, 2.0]], layer="triple")
    with pytest.raises(ValueError):
        bem.evaluate_potentials(mesh, rho[:-1], WAVENUMBER, [[1.0, 2.0]])
    with pytest.raises(ValueError):
        bem.evaluate_potentials(mesh, rho, 0.0, [[1.0, 2.0]])
    for k in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="wavenumber must be finite"):
            bem.evaluate_potentials(mesh, rho, k, [[1.0, 2.0]])
    with pytest.raises(ValueError, match="wavenumber must be positive"):
        bem.evaluate_potentials(mesh, rho, -1.0, [[1.0, 2.0]])
    with pytest.raises(ValueError):
        bem.evaluate_potentials(mesh, rho, WAVENUMBER, [[1.0, 2.0, 3.0]])
