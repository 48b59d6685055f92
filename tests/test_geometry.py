"""Shapes, meshing and scene generation."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from multiscat import geometry, verify


def unit_circle() -> geometry.Shape:
    return geometry.Shape(kind="ellipse", a=1.0, b=1.0)


def mesh_one(shape: geometry.Shape, k: float, ppw: float) -> geometry.SceneMesh:
    """The mesh of a scene holding ``shape`` alone."""
    scene = geometry.Scene(k=k, beta=(0.0, 1.0), obstacles=(shape,))
    return geometry.mesh_scene(scene, ppw)


def desk_templates() -> tuple[geometry.Shape, ...]:
    return (
        geometry.Shape(kind="ellipse", a=1.0, b=0.6),
        geometry.Shape(kind="rounded_rectangle", a=0.9, b=0.7, p=8),
        geometry.Shape(kind="kite", s=0.8),
    )


def test_parametrize_circle():
    t = np.linspace(0, 2 * np.pi, 17, endpoint=False)
    pts = geometry.parametrize(unit_circle(), t)
    assert_allclose(pts, np.stack([np.cos(t), np.sin(t)], axis=-1), atol=1e-14)


def test_parametrize_kite_start_point():
    pts = geometry.parametrize(geometry.Shape(kind="kite", s=1.0), np.array([0.0]))
    assert_allclose(pts, [[1.0, 0.0]], atol=1e-15)


def test_parametrize_rotation_central_symmetry():
    base = geometry.Shape(kind="ellipse", a=2.0, b=0.5, rotation=0.4, center=(1.0, -2.0))
    rotated = geometry.Shape(
        kind="ellipse", a=2.0, b=0.5, rotation=0.4 + math.pi, center=(1.0, -2.0)
    )
    t = np.linspace(0, 2 * np.pi, 9)
    p0 = geometry.parametrize(base, t)
    p1 = geometry.parametrize(rotated, t)
    assert_allclose(p1, 2.0 * np.asarray(base.center) - p0, atol=1e-13)


def test_parametrize_superellipse_on_curve():
    shape = geometry.Shape(kind="rounded_rectangle", a=0.9, b=0.7, p=8)
    t = np.linspace(0, 2 * np.pi, 101)
    pts = geometry.parametrize(shape, t)
    lame = np.abs(pts[:, 0] / 0.9) ** 8 + np.abs(pts[:, 1] / 0.7) ** 8
    assert_allclose(lame, 1.0, atol=1e-12)


def test_shape_validation():
    with pytest.raises(ValueError):
        geometry.Shape(kind="triangle").validate()
    with pytest.raises(ValueError):
        geometry.Shape(kind="ellipse", a=-1.0).validate()
    with pytest.raises(ValueError):
        geometry.Shape(kind="rounded_rectangle", p=5).validate()
    with pytest.raises(ValueError):
        geometry.Shape(kind="rounded_rectangle", p=2).validate()
    with pytest.raises(ValueError):
        geometry.Shape(kind="kite", s=0.0).validate()
    for kind, size in (("ellipse", {"a": math.nan}), ("ellipse", {"b": math.inf}),
                       ("rounded_rectangle", {"a": -math.inf}),
                       ("rounded_rectangle", {"p": math.inf}),
                       ("kite", {"s": math.nan}), ("kite", {"s": math.inf})):
        with pytest.raises(ValueError, match="must be finite"):
            geometry.Shape(kind=kind, **size).validate()


def test_mesh_circle_segment_count():
    # lambda = 1, so the rule gives ceil(2 pi * 15) = 95 segments
    mesh = mesh_one(unit_circle(), k=2 * math.pi, ppw=15)
    assert mesh.n_nodes == 95
    assert np.array_equal(mesh.next_node, (np.arange(95) + 1) % 95)


def test_mesh_circle_perimeter_second_order():
    mesh = mesh_one(unit_circle(), k=2 * math.pi, ppw=15)
    perimeter = mesh.lengths.sum()
    assert abs(perimeter - 2 * math.pi) < 1e-2
    # inscribed-polygon defect is (2 pi)^3 / (24 N^2); check the order
    n = mesh.n_nodes
    assert abs(perimeter - 2 * math.pi) < 1.1 * (2 * math.pi) ** 3 / (24 * n**2)


def test_mesh_refinement_halves_segment_length():
    m15 = mesh_one(unit_circle(), k=2 * math.pi, ppw=15)
    m30 = mesh_one(unit_circle(), k=2 * math.pi, ppw=30)
    ratio = m15.lengths.max() / m30.lengths.max()
    assert 1.9 < ratio < 2.1


@pytest.mark.parametrize("shape", desk_templates(), ids=lambda s: s.kind)
def test_mesh_orientation_and_normals(shape):
    placed = geometry.Shape(
        kind=shape.kind, a=shape.a, b=shape.b, p=shape.p, s=shape.s,
        rotation=0.7, center=(3.0, -1.0),
    )
    mesh = mesh_one(placed, k=5.0, ppw=15)
    x, y = mesh.nodes.T
    assert np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) > 0  # twice the signed area
    assert_allclose(np.linalg.norm(mesh.normals, axis=1), 1.0, atol=1e-13)
    assert np.all(mesh.lengths <= 2 * math.pi / 5.0 / 15 + 1e-12)
    # outward test against the smooth normal is robust for the kite too:
    # compare to centroid only for the convex shapes
    if shape.kind != "kite":
        mid = 0.5 * (mesh.nodes + np.roll(mesh.nodes, -1, axis=0))
        centroid = mesh.nodes.mean(axis=0)
        assert np.all(np.sum(mesh.normals * (mid - centroid), axis=1) > 0)


def test_mesh_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mesh_one(unit_circle(), k=-1.0, ppw=15)
    with pytest.raises(ValueError):
        mesh_one(unit_circle(), k=5.0, ppw=3)
    with pytest.raises(ValueError, match="wavenumber must be finite"):
        mesh_one(unit_circle(), k=math.nan, ppw=15)
    for ppw in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="points per wavelength must be finite"):
            mesh_one(unit_circle(), k=5.0, ppw=ppw)
    with pytest.raises(ValueError, match="points per wavelength must be at least 4"):
        mesh_one(unit_circle(), k=5.0, ppw=3.9)


TRIANGLE = [[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("loop,message", [
    (TRIANGLE[::-1], "counter-clockwise"),
    (TRIANGLE[:2], "at least 3 nodes"),
    ([TRIANGLE[0], TRIANGLE[1], TRIANGLE[1], TRIANGLE[2]], "coincident"),
], ids=["clockwise", "two-nodes", "repeated-node"])
def test_polygon_mesh_refuses_bad_loops(loop, message):
    with pytest.raises(ValueError, match=message):
        geometry.polygon_mesh([TRIANGLE, loop])


def test_polygon_mesh_numbers_loops_one_after_another():
    mesh = geometry.polygon_mesh([TRIANGLE, np.array(TRIANGLE) + 5.0])
    assert mesh.block_offsets == (0, 3, 6) and mesh.n_obstacles == 2
    assert np.array_equal(mesh.next_node, [1, 2, 0, 4, 5, 3])
    assert_allclose(mesh.lengths, [2.0, math.sqrt(5.0), 1.0] * 2, rtol=1e-15)
    assert_allclose(mesh.normals[:3], [[0.0, -1.0], [1.0, 2.0] / np.sqrt(5.0), [-1.0, 0.0]],
                    atol=1e-15)


def test_scene_mesh_refuses_another_numbering():
    """A panel must end at the next node of its obstacle, the last panel at
    the first node, which bem's fold of the Galerkin blocks relies on."""
    mesh = geometry.polygon_mesh([TRIANGLE, np.array(TRIANGLE) + 5.0])
    for next_node in ([2, 0, 1, 4, 5, 3], [1, 2, 3, 4, 5, 0]):
        with pytest.raises(ValueError, match="next_node"):
            dataclasses.replace(mesh, next_node=np.array(next_node))
    assert np.array_equal(dataclasses.replace(mesh).next_node, mesh.next_node)


def test_scene_validation():
    scene = geometry.Scene(
        k=5.0,
        beta=(0.0, 1.0),
        obstacles=(
            geometry.Shape(kind="ellipse", center=(0.0, 0.0)),
            geometry.Shape(kind="ellipse", center=(1.0, 0.0)),
        ),
        box=(0.0, 0.0, 12.0, 12.0),
        min_center_distance=3.0,
    )
    with pytest.raises(ValueError, match="closer"):
        scene.validate()
    with pytest.raises(ValueError, match="unit"):
        geometry.Scene(k=1.0, beta=(1.0, 1.0), obstacles=()).validate()
    # each extent on its own: min(10.0, nan) is 10.0
    single = dataclasses.replace(scene, obstacles=scene.obstacles[:1])
    for change, message in (({"k": math.nan}, "wavenumber must be finite"),
                            ({"k": math.inf}, "wavenumber must be finite"),
                            ({"k": -math.inf}, "wavenumber must be finite"),
                            ({"box": (math.nan, -5.0, 5.0, 5.0)}, "box width must be finite"),
                            ({"box": (0.0, 0.0, math.inf, 12.0)}, "box width must be finite"),
                            ({"box": (0.0, 0.0, 12.0, math.nan)}, "box height must be finite"),
                            ({"box": (5.0, 0.0, 5.0, 12.0)}, "box width must be positive"),
                            ({"box": (0.0, 12.0, 12.0, 0.0)}, "box height must be positive")):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(single, **change).validate()


def test_placement_must_be_finite():
    """A non-finite center or rotation is refused by name before meshing,
    not as a quadrature order or math domain error inside it."""
    for change, message in (({"center": (math.nan, 0.0)}, "center x must be finite, got nan"),
                            ({"center": (0.0, -math.inf)}, "center y must be finite, got -inf"),
                            ({"rotation": math.inf}, "rotation must be finite, got inf"),
                            ({"rotation": math.nan}, "rotation must be finite, got nan")):
        shape = geometry.Shape(kind="ellipse", **change)
        scene = geometry.Scene(k=5.0, beta=(0.0, 1.0), obstacles=(shape,),
                               box=(-4.0, -4.0, 4.0, 4.0))
        with pytest.raises(ValueError, match=message):
            shape.validate()
        with pytest.raises(ValueError, match=message):
            geometry.mesh_scene(scene, ppw=10)


def test_mesh_scene_offsets():
    scene = geometry.Scene(
        k=5.0,
        beta=(0.0, 1.0),
        obstacles=(
            geometry.Shape(kind="ellipse", a=1.0, b=0.6, center=(3.0, 3.0)),
            geometry.Shape(kind="kite", s=0.8, center=(8.0, 8.0)),
        ),
        box=(0.0, 0.0, 12.0, 12.0),
        min_center_distance=3.0,
    )
    sm = geometry.mesh_scene(scene, ppw=15)
    assert sm.n_obstacles == 2
    assert sm.block_range(0) == (0, sm.block_offsets[1])
    assert sm.block_range(1) == (sm.block_offsets[1], sm.n_nodes)
    for p, shape in enumerate(scene.obstacles):
        lo, hi = sm.block_range(p)
        assert hi - lo == mesh_one(shape, scene.k, 15).n_nodes
    assert sm.nodes.shape == (sm.n_nodes, 2)


def test_scene_mesh_states_one_numbering(desk):
    """Panel i of a scene mesh runs from node i to node next_node[i], the
    next node of its obstacle's loop, with that chord's length and outward
    normal; obstacle p's nodes are its own mesh's nodes, in block order."""
    sm = geometry.mesh_scene(desk, ppw=10)
    assert sm.n_obstacles == len(desk.obstacles)
    for p, shape in enumerate(desk.obstacles):
        lo, hi = sm.block_range(p)
        assert np.array_equal(sm.nodes[lo:hi], mesh_one(shape, desk.k, 10).nodes)
        assert np.array_equal(sm.next_node[lo:hi], lo + (np.arange(hi - lo) + 1) % (hi - lo))
    chords = sm.nodes[sm.next_node] - sm.nodes
    assert_allclose(np.linalg.norm(chords, axis=1), sm.lengths, rtol=1e-15)
    assert np.max(np.abs(np.sum(chords * sm.normals, axis=1))) <= 1e-15
    # outward: the normal is the chord turned clockwise on a counter-clockwise loop
    assert np.all(chords[:, 0] * sm.normals[:, 1] - chords[:, 1] * sm.normals[:, 0] < 0.0)


@pytest.mark.parametrize("preset", ["desk", "paper"])
@pytest.mark.parametrize("ppw", [4.0, 10.0, 15.0, 22.5, 30.0])
def test_node_count_is_the_meshed_count(preset, ppw):
    scene = verify.desk_scene(3) if preset == "desk" else verify.paper_scene(0)
    counted = sum(geometry.obstacle_node_counts(scene, ppw))
    assert counted == geometry.mesh_scene(scene, ppw).n_nodes


def config_for_generation(m_per_kind: int = 1) -> geometry.Scene:
    obstacles = desk_templates() * m_per_kind
    box_side = 12.0 if m_per_kind == 1 else 60.0
    return geometry.Scene(
        k=5.0,
        beta=(0.0, 1.0),
        obstacles=obstacles,
        box=(0.0, 0.0, box_side, box_side),
        min_center_distance=3.0,
    )


def test_generate_scene_deterministic():
    cfg = dataclasses.replace(config_for_generation(), seed=7)
    assert geometry.generate_scene(cfg) == geometry.generate_scene(cfg)
    assert geometry.generate_scene(cfg) != geometry.generate_scene(
        dataclasses.replace(cfg, seed=8))


def test_generate_scene_draws_from_the_template_seed():
    cfg = config_for_generation()
    scene = geometry.generate_scene(dataclasses.replace(cfg, seed=3))
    assert scene.seed == 3
    assert scene == geometry.generate_scene(dataclasses.replace(cfg, seed=3))
    other = geometry.generate_scene(dataclasses.replace(cfg, seed=7))
    assert other.seed == 7
    assert [s.center for s in scene.obstacles] != [s.center for s in other.obstacles]


def test_generate_scene_respects_min_distance():
    cfg = dataclasses.replace(config_for_generation(m_per_kind=10), seed=3)  # 30 in [0,60]^2
    scene = geometry.generate_scene(cfg, size_jitter=0.3)
    centers = np.array([s.center for s in scene.obstacles])
    m = len(centers)
    assert m == 30
    dmin = min(
        np.linalg.norm(centers[i] - centers[j])
        for i in range(m)
        for j in range(i + 1, m)
    )
    assert dmin >= 3.0
    x0, y0, x1, y1 = cfg.box
    assert np.all((centers >= [x0, y0]) & (centers <= [x1, y1]))


def test_generate_scene_single_obstacle():
    cfg = geometry.Scene(
        k=5.0,
        beta=(0.0, 1.0),
        obstacles=(geometry.Shape(kind="ellipse", a=1.0, b=1.0),),
        box=(0.0, 0.0, 8.0, 8.0),
        min_center_distance=3.0,
    )
    scene = geometry.generate_scene(dataclasses.replace(cfg, seed=0))
    assert len(scene.obstacles) == 1


def test_generate_scene_box_too_small():
    cfg = geometry.Scene(
        k=5.0,
        beta=(0.0, 1.0),
        obstacles=desk_templates(),
        box=(0.0, 0.0, 5.0, 5.0),
        min_center_distance=3.0,
    )
    with pytest.raises(ValueError, match="box too small"):
        geometry.generate_scene(dataclasses.replace(cfg, seed=0))
