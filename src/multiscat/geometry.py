"""Obstacle shapes, boundary meshing, and random scene generation.

Three smooth obstacle families are supported: ellipses, superellipses
(|x/a|^p + |y/b|^p = 1 with even p >= 4, a smooth stand-in for a
rectangle) and the classical kite curve

    (cos t + 0.65 cos 2t - 0.65, 1.5 sin t)

scaled by s.  Boundaries are meshed into closed polygons with nodes
equidistributed in arclength at a points-per-wavelength density, oriented
counter-clockwise with outward unit normals.  Scenes place several shapes
in a box by seeded rejection sampling with a minimum center distance.

Numbering.  Every mesh is a ``SceneMesh``, made from one node loop per
obstacle by ``polygon_mesh``, the one place that forms panels from nodes.
Panel i runs from node i to node ``next_node[i]``, the next node of its
obstacle's loop, with normal ``normals[i]`` and length ``lengths[i]``: node
i + 1, and for an obstacle's last panel its first node.  ``SceneMesh``
refuses any other ``next_node``, and ``bem`` folds its blocks by this rule.
Obstacle p owns the contiguous block ``block_range(p)``, the obstacles one
block after another; every operator, load vector and field is indexed this
way, and these blocks are the partition the single-scattering
preconditioner inverts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

_ARCLENGTH_SAMPLES = 2048
# each shape kind's size parameters, in the order scene files list them
SHAPE_PARAMS = {"ellipse": ("a", "b"), "rounded_rectangle": ("a", "b", "p"), "kite": ("s",)}
SHAPE_KINDS = tuple(SHAPE_PARAMS)

# Extent of the unit kite curve: max_t ||(cos t + 0.65 cos 2t - 0.65, 1.5 sin t)||
_KITE_RADIUS = 2.0657


def check_finite(value, name: str) -> None:
    """Raise ValueError, naming ``value``, unless it is finite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def check_positive(value, name: str) -> None:
    """Raise ValueError unless ``value``, a wavenumber, size or extent, is finite and > 0."""
    check_finite(value, name)
    if value <= 0:
        raise ValueError(f"{name} must be positive")


def check_ppw(ppw) -> None:
    """Raise ValueError unless the mesh density ``ppw`` is finite and at least 4."""
    check_finite(ppw, "points per wavelength")
    if ppw < 4:
        raise ValueError("points per wavelength must be at least 4")


@dataclass(frozen=True)
class Shape:
    """One obstacle boundary: kind, size parameters, placement.

    ellipse uses semi-axes (a, b); rounded_rectangle uses half-widths
    (a, b) and the even superellipse exponent p >= 4; kite uses the
    scale s only.
    """

    kind: str
    a: float = 1.0
    b: float = 1.0
    p: int = 8
    s: float = 1.0
    rotation: float = 0.0
    center: tuple[float, float] = (0.0, 0.0)

    def validate(self) -> None:
        if self.kind not in SHAPE_KINDS:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        for name in SHAPE_PARAMS[self.kind]:
            check_positive(getattr(self, name), f"{self.kind} parameter {name}")
        if self.kind == "rounded_rectangle" and (self.p < 4 or self.p % 2 != 0):
            raise ValueError("superellipse exponent must be even and >= 4")
        for axis, value in zip("xy", self.center):
            check_finite(value, f"center {axis}")
        check_finite(self.rotation, "rotation")

    def bounding_radius(self) -> float:
        """Radius of the circumscribed circle about the shape's center."""
        if self.kind == "ellipse":
            return max(self.a, self.b)
        if self.kind == "rounded_rectangle":
            return math.hypot(self.a, self.b)  # corners approach the vertex
        return _KITE_RADIUS * self.s


def _rotation_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _base_curve(shape: Shape, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unrotated, uncentered curve points and tangents at parameters t."""
    if shape.kind == "ellipse":
        pts = np.stack([shape.a * np.cos(t), shape.b * np.sin(t)], axis=-1)
        tan = np.stack([-shape.a * np.sin(t), shape.b * np.cos(t)], axis=-1)
    elif shape.kind == "rounded_rectangle":
        # polar form r(t)(cos t, sin t); with even p the integrand
        # cos^p, sin^p is smooth, so the speed stays bounded
        p = shape.p
        ct, st = np.cos(t), np.sin(t)
        f = ct**p / shape.a**p + st**p / shape.b**p
        r = f ** (-1.0 / p)
        fp = p * st * ct * (st ** (p - 2) / shape.b**p - ct ** (p - 2) / shape.a**p)
        rp = -(1.0 / p) * f ** (-1.0 / p - 1.0) * fp
        pts = np.stack([r * ct, r * st], axis=-1)
        tan = np.stack([rp * ct - r * st, rp * st + r * ct], axis=-1)
    else:  # kite; validate() has refused any other kind
        s = shape.s
        pts = s * np.stack(
            [np.cos(t) + 0.65 * np.cos(2 * t) - 0.65, 1.5 * np.sin(t)], axis=-1
        )
        tan = s * np.stack(
            [-np.sin(t) - 1.3 * np.sin(2 * t), 1.5 * np.cos(t)], axis=-1
        )
    return pts, tan


def parametrize(shape: Shape, t) -> np.ndarray:
    """Boundary points at the array of parameters t in [0, 2pi), shape
    t.shape + (2,)."""
    shape.validate()
    pts, _ = _base_curve(shape, np.asarray(t, dtype=float))
    return pts @ _rotation_matrix(shape.rotation).T + np.asarray(shape.center)


def _arclength_table(shape: Shape, k: float, ppw: float):
    """The parameters t, the arclength s(t) at each of them by the cumulative
    trapezoid rule, and the node count at panel length <= lambda/ppw,
    lambda = 2 pi / k: the count of equal arcs of that length, at least 8;
    the shape and k are those of a validated scene."""
    check_ppw(ppw)

    t_grid = np.linspace(0.0, 2.0 * math.pi, _ARCLENGTH_SAMPLES + 1)
    _, tan = _base_curve(shape, t_grid)
    speed = np.linalg.norm(tan, axis=-1)
    ds = 0.5 * (speed[:-1] + speed[1:]) * np.diff(t_grid)
    s_table = np.concatenate([[0.0], np.cumsum(ds)])
    arc_perimeter = float(s_table[-1])
    if arc_perimeter <= 0:
        raise ValueError("degenerate shape: zero perimeter")

    lam = 2.0 * math.pi / k
    return t_grid, s_table, max(int(math.ceil(arc_perimeter / (lam / ppw))), 8)


def check_unit_direction(beta) -> None:
    """Raise ValueError unless the direction beta has unit length to a relative 1e-9."""
    if not math.isclose(math.hypot(*beta), 1.0, rel_tol=1e-9):
        raise ValueError("incident direction must be a unit vector")


@dataclass(frozen=True)
class Scene:
    """Wavenumber, incident direction, and placed obstacles in a box."""

    k: float
    beta: tuple[float, float]
    obstacles: tuple[Shape, ...]
    box: tuple[float, float, float, float] = (0.0, 0.0, 60.0, 60.0)  # x0 y0 x1 y1
    min_center_distance: float = 3.0
    seed: int = 0

    def validate(self) -> None:
        check_positive(self.k, "wavenumber")
        check_unit_direction(self.beta)
        x0, y0, x1, y1 = self.box
        check_positive(x1 - x0, "box width")
        check_positive(y1 - y0, "box height")
        for shape in self.obstacles:
            shape.validate()
        centers = np.array([s.center for s in self.obstacles])
        radii = [shape.bounding_radius() for shape in self.obstacles]
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                distance = np.linalg.norm(centers[i] - centers[j])
                if distance < self.min_center_distance:
                    raise ValueError(
                        f"obstacles {i} and {j} closer than the minimum center distance"
                    )
                if distance <= radii[i] + radii[j]:
                    raise ValueError(
                        f"obstacles {i} and {j} may overlap: their circumscribed circles meet"
                    )
        if not self.obstacles:
            raise ValueError("a scene needs at least one obstacle")


@dataclass(frozen=True)
class SceneMesh:
    """Closed polygons, one per obstacle, in one numbering (module
    docstring); made by ``polygon_mesh``."""

    nodes: np.ndarray  # (N, 2)
    normals: np.ndarray  # (N, 2) outward unit normal of panel i
    lengths: np.ndarray  # (N,) length of panel i
    next_node: np.ndarray  # (N,) end node of panel i
    block_offsets: tuple[int, ...]  # length M+1; obstacle p owns [off[p], off[p+1])

    def __post_init__(self):
        if not np.array_equal(self.next_node, _next_nodes(np.asarray(self.block_offsets))):
            raise ValueError("next_node must run each obstacle's nodes in order, "
                             "its last panel ending at its first node")

    @property
    def n_nodes(self) -> int:
        return self.block_offsets[-1]

    @property
    def n_obstacles(self) -> int:
        return len(self.block_offsets) - 1

    def block_range(self, p: int) -> tuple[int, int]:
        return self.block_offsets[p], self.block_offsets[p + 1]


def polygon_mesh(loops) -> SceneMesh:
    """The mesh of closed polygons through ``loops``, each an (n, 2) array of
    n >= 3 nodes running counter-clockwise with no two consecutive nodes
    equal; loop p becomes obstacle p."""
    loops = [np.asarray(loop, dtype=float) for loop in loops]
    if any(len(loop) < 3 for loop in loops):
        raise ValueError("a closed loop needs at least 3 nodes")
    offsets = np.cumsum([0] + [len(loop) for loop in loops])
    nodes = np.concatenate(loops)
    next_node = _next_nodes(offsets)
    edges = nodes[next_node] - nodes
    lengths = np.linalg.norm(edges, axis=1)
    if np.any(lengths <= 0):
        raise ValueError("degenerate loop: coincident consecutive nodes")
    # twice each loop's signed area, by the shoelace formula
    cross = nodes[:, 0] * nodes[next_node, 1] - nodes[next_node, 0] * nodes[:, 1]
    if np.any(np.add.reduceat(cross, offsets[:-1]) <= 0):
        raise ValueError("loop must be counter-clockwise (positive area)")
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1) / lengths[:, None]
    return SceneMesh(nodes=nodes, normals=normals, lengths=lengths, next_node=next_node,
                     block_offsets=tuple(int(off) for off in offsets))


def _next_nodes(offsets) -> np.ndarray:
    """The end node of each panel in the numbering of the module docstring."""
    next_node = np.arange(1, offsets[-1] + 1)
    next_node[offsets[1:] - 1] = offsets[:-1]
    return next_node


def obstacle_node_counts(scene: Scene, ppw: float) -> tuple[int, ...]:
    """The nodes ``mesh_scene(scene, ppw)`` places on each obstacle, found
    without placing them, so a size can be refused before any node is placed."""
    scene.validate()
    return tuple(_arclength_table(s, scene.k, ppw)[2] for s in scene.obstacles)


def mesh_scene(scene: Scene, ppw: float) -> SceneMesh:
    """Mesh every obstacle of a scene at panel length <= lambda/ppw,
    lambda = 2 pi / k.

    Nodes are equidistributed in smooth arclength via inversion of a
    cumulative-trapezoid arclength table, so all panels have nearly
    equal length.
    """
    scene.validate()
    loops = []
    for shape in scene.obstacles:
        t_grid, s_table, n = _arclength_table(shape, scene.k, ppw)
        t_nodes = np.interp(np.arange(n) * (s_table[-1] / n), s_table, t_grid)
        loops.append(parametrize(shape, t_nodes))
    return polygon_mesh(loops)


def generate_scene(config: Scene, size_jitter: float = 0.0) -> Scene:
    """Place the configured shapes randomly in the box, seeded by ``config.seed``.

    ``config`` is the template, and the scene keeps its seed, k, beta and
    box.  Each obstacle's center and rotation are drawn fresh from the
    template's seed, and the size parameters of its kind (never the
    exponent p) are scaled by a factor drawn uniformly from
    [1 - size_jitter, 1 + size_jitter].  Placement is rejection
    sampling: a center is accepted when it keeps at least
    min_center_distance from all earlier centers and the circumscribed
    circles stay disjoint (the scattering problem needs disjoint
    obstacles, which a pure center-distance rule cannot guarantee).

    Deterministic for fixed (config, size_jitter); raises on
    placement failure after a bounded number of rejection rounds.
    """
    x0, y0, x1, y1 = config.box
    m_count = len(config.obstacles)
    if (x1 - x0) * (y1 - y0) < 4.0 * m_count * config.min_center_distance**2:
        raise ValueError("box too small for rejection sampling (area heuristic)")

    rng = np.random.default_rng(config.seed)
    placed: list[Shape] = []
    centers: list[np.ndarray] = []
    radii: list[float] = []
    for template in config.obstacles:
        template.validate()
        scale = 1.0 + size_jitter * float(rng.uniform(-1.0, 1.0)) if size_jitter else 1.0
        shape = replace(
            template,
            rotation=float(rng.uniform(0.0, 2.0 * math.pi)),
            **{name: getattr(template, name) * scale
               for name in SHAPE_PARAMS[template.kind] if name != "p"},
        )
        radius = shape.bounding_radius()
        lo = np.array([x0 + radius, y0 + radius])
        hi = np.array([x1 - radius, y1 - radius])
        if np.any(hi <= lo):
            raise ValueError("box too small for an obstacle of this size")
        for _ in range(1000):
            center = rng.uniform(lo, hi)
            ok = all(
                np.linalg.norm(center - c)
                >= max(config.min_center_distance, radius + r + 0.1)
                for c, r in zip(centers, radii)
            )
            if ok:
                break
        else:
            raise ValueError(
                f"could not place obstacle {len(placed)} after 1000 rejection rounds"
            )
        placed.append(replace(shape, center=(float(center[0]), float(center[1]))))
        centers.append(center)
        radii.append(radius)

    scene = replace(config, obstacles=tuple(placed))
    scene.validate()
    return scene
