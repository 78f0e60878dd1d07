import numpy as np
import pytest

from epinverse.eit import (
    ELECTRODE_COVERAGE,
    TANK_RADIUS,
    Mesh,
    gen_disk_mesh,
    read_mesh,
    triangle_areas,
    validate_mesh,
    write_mesh,
)
from epinverse.errors import MeshFileError, MeshGenFailed


def test_tank_scale_mesh():
    mesh = gen_disk_mesh(TANK_RADIUS, 16, ELECTRODE_COVERAGE, 424)
    assert 0.85 * 424 <= mesh.n_nodes <= 1.15 * 424
    assert mesh.n_electrodes == 16
    # disjoint electrode edge sets
    all_edges = [tuple(sorted(e)) for edges in mesh.electrode_edges for e in edges]
    assert len(all_edges) == len(set(all_edges))
    validate_mesh(mesh)


def test_coarse_l4_mesh_valid():
    mesh = gen_disk_mesh(1.0, 4, 0.08, 120)
    validate_mesh(mesh)
    assert mesh.n_electrodes == 4
    assert np.all(triangle_areas(mesh.nodes, mesh.triangles) > 0.0)


def test_boundary_nodes_on_circle_and_aligned():
    mesh = gen_disk_mesh(TANK_RADIUS, 16, ELECTRODE_COVERAGE, 300)
    b = mesh.boundary_node_ids()
    r = np.hypot(mesh.nodes[b, 0], mesh.nodes[b, 1])
    assert np.allclose(r, TANK_RADIUS, rtol=1e-12)
    # electrode arcs subtend the configured coverage
    for edges in mesh.electrode_edges:
        first = mesh.nodes[edges[0][0]]
        last = mesh.nodes[edges[-1][1]]
        ang = abs(
            np.arctan2(first[1], first[0]) - np.arctan2(last[1], last[0])
        )
        ang = min(ang, 2 * np.pi - ang)
        assert ang == pytest.approx(2 * np.pi * ELECTRODE_COVERAGE, rel=1e-9)


def test_interior_excludes_boundary():
    mesh = gen_disk_mesh(TANK_RADIUS, 16, ELECTRODE_COVERAGE, 300)
    assert not set(mesh.interior_node_ids) & set(mesh.boundary_node_ids())


def test_infeasible_coverage_rejected():
    with pytest.raises(MeshGenFailed):
        gen_disk_mesh(1.0, 16, 0.07, 400)  # 16 * 0.07 > 1
    with pytest.raises(MeshGenFailed):
        gen_disk_mesh(1.0, 16, 0.02, 40)  # too few nodes for 16 electrodes


def test_mesh_io_roundtrip(tmp_path):
    mesh = gen_disk_mesh(TANK_RADIUS, 16, ELECTRODE_COVERAGE, 300)
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    validate_mesh(back)
    assert np.array_equal(back.nodes, mesh.nodes)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert back.electrode_edges == mesh.electrode_edges
    assert np.array_equal(back.interior_node_ids, mesh.interior_node_ids)
    assert back.radius == pytest.approx(mesh.radius, rel=1e-12)


def test_generation_is_deterministic():
    a = gen_disk_mesh(TANK_RADIUS, 16, ELECTRODE_COVERAGE, 424)
    b = gen_disk_mesh(TANK_RADIUS, 16, ELECTRODE_COVERAGE, 424)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.triangles, b.triangles)


# ---------------------------------------------------------------------------
# each invariant, broken in a written mesh, fails read_mesh with its message
# ---------------------------------------------------------------------------


def _flip_first_triangle(mesh, lines, at):
    i = at["TRIANGLES"] + 1
    k, a, b, c = lines[i].split()
    lines[i] = f"{k} {a} {c} {b}"


def _list_as_interior(lines, at, node):
    i = at["INTERIOR"]
    lines[i] = f"INTERIOR {int(lines[i].split()[1]) + 1}"
    lines[i + 1] += f" {node}"


def _interior_gap_node(mesh, lines, at):
    on_electrodes = {v for edges in mesh.electrode_edges for e in edges for v in e}
    _list_as_interior(lines, at, min(set(mesh.boundary_node_ids().tolist()) - on_electrodes))


def _edge_on_two_electrodes(mesh, lines, at):
    a, b = mesh.electrode_edges[0][0]
    lines[at["ELECTRODES"] + 2] += f" {a} {b}"


def _electrode_edge_off_the_hull(mesh, lines, at):
    interior = set(mesh.interior_node_ids.tolist())
    a, b, _ = next(t for t in mesh.triangles.tolist() if interior.issuperset(t))
    rest = " ".join(f"{p} {q}" for p, q in mesh.electrode_edges[0][1:])
    lines[at["ELECTRODES"] + 1] = f"0 {a} {b} {rest}"


def _electrode_node_listed_interior(mesh, lines, at):
    _list_as_interior(lines, at, mesh.electrode_edges[0][0][0])


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_flip_first_triangle, "1 non-positively-oriented triangles"),
        (_interior_gap_node, "interior node set intersects the boundary"),
        (_edge_on_two_electrodes, r"electrode edge \(\d+, \d+\) appears on two electrodes"),
        (_electrode_edge_off_the_hull, r"electrode 0 edge \(\d+, \d+\) is not a boundary edge"),
        (_electrode_node_listed_interior, r"electrode 0 edge \(\d+, \d+\) uses non-boundary nodes"),
    ],
)
def test_read_mesh_refuses_each_broken_invariant(tmp_path, corrupt, message):
    mesh = gen_disk_mesh(TANK_RADIUS, 16, ELECTRODE_COVERAGE, 300)
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    lines = path.read_text().splitlines()
    at = {ln.split()[0]: i for i, ln in enumerate(lines) if ln[0].isalpha()}
    corrupt(mesh, lines, at)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshFileError, match="MeshGenFailed: " + message):
        read_mesh(path)


def test_hull_edges_are_the_edges_of_one_triangle():
    # the sort-and-count hull against a per-triangle tally, through the
    # "not a boundary edge" check: every hull edge passes, no other edge does
    mesh = gen_disk_mesh(1.0, 4, 0.08, 120)
    tally: dict = {}
    for t in mesh.triangles.tolist():
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            key = (min(a, b), max(a, b))
            tally[key] = tally.get(key, 0) + 1
    assert sorted(set(tally.values())) == [1, 2]
    for (a, b), count in tally.items():
        probe = Mesh(mesh.nodes, mesh.triangles, [[(a, b)]], mesh.interior_node_ids)
        if count == 1:
            validate_mesh(probe)
        else:
            with pytest.raises(MeshGenFailed, match="is not a boundary edge"):
                validate_mesh(probe)
