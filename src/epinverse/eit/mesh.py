"""Disk meshes for the 2D complete electrode model: structured concentric-ring
generation with boundary grading toward the electrodes, plain-text mesh I/O,
and invariant validation.

Mesh file grammar (plain text, whitespace separated):

    NODES <count>
    <id> <x> <y>                 # one line per node, ids 0..count-1 in order
    TRIANGLES <count>
    <id> <n1> <n2> <n3>          # positively oriented
    ELECTRODES <L>
    <eid> <a1> <b1> <a2> <b2> ...   # flattened boundary node pairs
    INTERIOR <count>
    <id> <id> ...                # node ids, any number of lines
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from ..errors import MeshFileError, MeshGenFailed


@dataclass
class Mesh:
    nodes: np.ndarray  # (N, 2) coordinates [m]
    triangles: np.ndarray  # (T, 3) node indices, positively oriented
    electrode_edges: list[list[tuple[int, int]]]  # per electrode, boundary node pairs
    interior_node_ids: np.ndarray  # indices of non-boundary nodes
    radius: float = 0.0

    n_nodes: int = field(init=False)

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        self.interior_node_ids = np.asarray(self.interior_node_ids, dtype=np.int64)
        self.n_nodes = self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_electrodes(self) -> int:
        return len(self.electrode_edges)

    @cached_property
    def cem_operator(self):
        """The conductivity-independent CEM data of this mesh
        (``cem.MeshOperator``), built on first use: the mesh arrays are
        never changed after construction."""
        from .cem import MeshOperator

        return MeshOperator.from_mesh(self)

    def boundary_node_ids(self) -> np.ndarray:
        mask = np.ones(self.n_nodes, dtype=bool)
        mask[self.interior_node_ids] = False
        return np.nonzero(mask)[0]


def triangle_areas(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p1 = nodes[triangles[:, 0]]
    p2 = nodes[triangles[:, 1]]
    p3 = nodes[triangles[:, 2]]
    return 0.5 * (
        (p2[:, 0] - p1[:, 0]) * (p3[:, 1] - p1[:, 1])
        - (p3[:, 0] - p1[:, 0]) * (p2[:, 1] - p1[:, 1])
    )


def validate_mesh(mesh: Mesh) -> None:
    """Check the structural invariants; raises MeshGenFailed on violation.

    Every triangle is positively oriented.  Each electrode edge lies on one
    electrode only, is a hull edge of the triangulation (an edge of exactly
    one triangle, found by counting each triangle edge's (low, high) node
    pair) and joins two boundary nodes, those not listed as interior.  No
    node of a hull edge is listed as interior.
    """
    areas = triangle_areas(mesh.nodes, mesh.triangles)
    if np.any(areas <= 0.0):
        raise MeshGenFailed(f"{int(np.sum(areas <= 0))} non-positively-oriented triangles")
    # each edge as one integer: node ids that index the nodes lie in [-n, n),
    # so shifted by n they are digits of base 2n
    n2 = 2 * mesh.n_nodes
    a = mesh.triangles + mesh.n_nodes
    b = a[:, [1, 2, 0]]
    distinct, count = np.unique(np.minimum(a, b) * n2 + np.maximum(a, b), return_counts=True)
    hull = np.stack(np.divmod(distinct[count == 1], n2), axis=1) - mesh.n_nodes
    hull_edges = set(map(tuple, hull.tolist()))
    boundary = set(mesh.boundary_node_ids().tolist())
    seen: set[tuple[int, int]] = set()
    for eid, edges in enumerate(mesh.electrode_edges):
        for a, b in edges:
            key = (min(a, b), max(a, b))
            if key in seen:
                raise MeshGenFailed(f"electrode edge {key} appears on two electrodes")
            seen.add(key)
            if key not in hull_edges:
                raise MeshGenFailed(f"electrode {eid} edge {key} is not a boundary edge")
            if a not in boundary or b not in boundary:
                raise MeshGenFailed(f"electrode {eid} edge {key} uses non-boundary nodes")
    if np.isin(hull, mesh.interior_node_ids).any():
        raise MeshGenFailed("interior node set intersects the boundary")


def _boundary_angles(L: int, coverage: float, h: float, radius: float):
    """Boundary node angles plus per-electrode (start, end) node index ranges.

    Electrode l is centered at 2*pi*l/L; its arc is subdivided to edges of
    length <= h, gaps to edges of length <= 1.6 h (grading toward electrodes).
    """
    theta_e = 2.0 * math.pi * coverage
    theta_gap = 2.0 * math.pi / L - theta_e
    angles: list[float] = []
    electrode_spans: list[tuple[int, int]] = []
    for l in range(L):
        center = 2.0 * math.pi * l / L
        start = center - 0.5 * theta_e
        n_e = max(2, math.ceil(theta_e * radius / h))
        first = len(angles)
        for j in range(n_e):
            angles.append(start + theta_e * j / n_e)
        electrode_spans.append((first, len(angles)))  # nodes first..len (end exclusive)
        angles.append(start + theta_e)  # electrode end node
        gap_start = start + theta_e
        n_g = max(2, math.ceil(theta_gap * radius / (1.6 * h)))
        for j in range(1, n_g):
            angles.append(gap_start + theta_gap * j / n_g)
    return np.array(angles), electrode_spans


def _ring_radii(radius: float, h: float) -> list[tuple[float, float]]:
    """(radius, local spacing) pairs for interior rings, graded from a fine
    boundary layer toward a coarser core."""
    rings = []
    r = radius
    dr = 0.85 * h
    while True:
        r = r - dr
        if r < 1.35 * dr:
            break
        rings.append((r, dr))
        dr = min(dr * 1.3, 0.25 * radius)
    return rings


def _estimate_counts(radius: float, L: int, coverage: float, h: float) -> int:
    angles, _ = _boundary_angles(L, coverage, h, radius)
    n = len(angles)
    for r, dr in _ring_radii(radius, h):
        n += max(8, math.ceil(2.0 * math.pi * r / (1.1 * dr)))
    return n + 1  # center node


def gen_disk_mesh(radius: float, L: int, electrode_coverage: float, target_nodes: int) -> Mesh:
    """Conforming disk triangulation with boundary nodes aligned to electrode
    endpoints and grading toward the electrodes.

    The linear density is calibrated so the node count lands within +-15% of
    target_nodes.

    Raises
    ------
    MeshGenFailed
        If the coverage is infeasible or the calibrated count misses target.
    """
    from scipy.spatial import Delaunay  # deferred: only mesh generation uses it

    if not 0.0 < electrode_coverage * L < 1.0:
        raise MeshGenFailed(f"coverage {electrode_coverage} with L={L} is infeasible")
    if target_nodes < 8 * L:
        raise MeshGenFailed(f"target_nodes={target_nodes} too small for L={L} electrodes")

    # calibrate the base edge length h against the analytic node count
    h = 1.9 * radius * math.sqrt(math.pi / target_nodes)
    for _ in range(25):
        n_est = _estimate_counts(radius, L, electrode_coverage, h)
        ratio = n_est / target_nodes
        if 0.9 < ratio < 1.1:
            break
        h *= ratio**0.5
    n_est = _estimate_counts(radius, L, electrode_coverage, h)
    if not 0.85 * target_nodes <= n_est <= 1.15 * target_nodes:
        raise MeshGenFailed(f"calibration reached {n_est} nodes for target {target_nodes}")

    angles, electrode_spans = _boundary_angles(L, electrode_coverage, h, radius)
    nb = len(angles)
    pts = [np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)]
    for k, (r, dr) in enumerate(_ring_radii(radius, h)):
        n_ring = max(8, math.ceil(2.0 * math.pi * r / (1.1 * dr)))
        offset = 0.5 * (k % 2)
        th = 2.0 * math.pi * (np.arange(n_ring) + offset) / n_ring
        pts.append(np.stack([r * np.cos(th), r * np.sin(th)], axis=1))
    pts.append(np.zeros((1, 2)))
    nodes = np.concatenate(pts, axis=0)

    tri = Delaunay(nodes)
    triangles = tri.simplices.astype(np.int64)
    areas = triangle_areas(nodes, triangles)
    flip = areas < 0.0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    if np.any(np.abs(triangle_areas(nodes, triangles)) < 1e-16 * radius**2):
        raise MeshGenFailed("degenerate triangle produced")

    # consecutive boundary nodes l, l+1 (mod nb) are hull edges of the
    # triangulation because all boundary nodes lie on the circle
    electrode_edges: list[list[tuple[int, int]]] = []
    for first, end in electrode_spans:
        electrode_edges.append([(j, (j + 1) % nb) for j in range(first, end)])

    interior = np.arange(nb, nodes.shape[0])
    mesh = Mesh(nodes, triangles, electrode_edges, interior, radius=radius)
    validate_mesh(mesh)
    return mesh


def write_mesh(mesh: Mesh, path: str | Path) -> None:
    lines = [f"NODES {mesh.n_nodes}"]
    for i, (x, y) in enumerate(mesh.nodes):
        lines.append(f"{i} {float(x):.17g} {float(y):.17g}")
    lines.append(f"TRIANGLES {mesh.n_triangles}")
    for i, t in enumerate(mesh.triangles):
        lines.append(f"{i} {t[0]} {t[1]} {t[2]}")
    lines.append(f"ELECTRODES {mesh.n_electrodes}")
    for eid, edges in enumerate(mesh.electrode_edges):
        flat = " ".join(f"{a} {b}" for a, b in edges)
        lines.append(f"{eid} {flat}")
    lines.append(f"INTERIOR {len(mesh.interior_node_ids)}")
    lines.append(" ".join(str(i) for i in mesh.interior_node_ids))
    Path(path).write_text("\n".join(lines) + "\n")


def read_mesh(path: str | Path) -> Mesh:
    """The mesh in a file of the grammar above, validated.

    Raises
    ------
    MeshFileError
        If the file is truncated or malformed, or the mesh it holds breaks
        the invariants of ``validate_mesh``.
    """
    try:
        mesh = _parse_mesh([ln for ln in Path(path).read_text().splitlines() if ln.strip()])
        validate_mesh(mesh)
    except (IndexError, ValueError, MeshGenFailed) as exc:
        raise MeshFileError(f"{path}: {type(exc).__name__}: {exc}") from exc
    return mesh


def _parse_mesh(lines: list[str]) -> Mesh:
    pos = 0

    def header(word: str) -> int:
        nonlocal pos
        head = lines[pos].split()
        pos += 1
        if head[0] != word:
            raise ValueError(f"expected section {word!r}, found {head[0]!r}")
        return int(head[1])

    n = header("NODES")
    nodes = np.empty((n, 2))
    for _ in range(n):
        i, x, y = lines[pos].split()
        pos += 1
        nodes[int(i)] = (float(x), float(y))
    t = header("TRIANGLES")
    triangles = np.empty((t, 3), dtype=np.int64)
    for _ in range(t):
        i, a, b, c = lines[pos].split()
        pos += 1
        triangles[int(i)] = (int(a), int(b), int(c))
    L = header("ELECTRODES")
    electrode_edges: list[list[tuple[int, int]]] = [[] for _ in range(L)]
    for _ in range(L):
        toks = [int(v) for v in lines[pos].split()]
        pos += 1
        eid, flat = toks[0], toks[1:]
        if len(flat) % 2:
            raise ValueError(f"electrode {eid} has an odd number of edge node ids")
        electrode_edges[eid] = [(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]
    k = header("INTERIOR")
    ids: list[int] = []
    while len(ids) < k:
        ids.extend(int(v) for v in lines[pos].split())
        pos += 1
    interior = np.array(ids[:k], dtype=np.int64)
    radius = float(np.max(np.hypot(nodes[:, 0], nodes[:, 1])))
    return Mesh(nodes, triangles, electrode_edges, interior, radius=radius)
