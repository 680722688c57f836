"""Mesh construction, tagging and refinement."""

import numpy as np
import pytest

from bgs import (GAMMA1, GAMMA2, build_rectangle_mesh, check_mesh,
                 refine_uniform, triangle_areas)
from bgs.mesh import Mesh, edge_ids, unique_edges


def test_unit_mesh_counts():
    m = build_rectangle_mesh(1, 1, ("left",))
    assert m.num_vertices == 4
    assert m.num_triangles == 2
    assert len(m.boundary_edges) == 4
    check_mesh(m)


def test_2x2_counts():
    m = build_rectangle_mesh(2, 2, ("left",))
    assert m.num_vertices == 9
    assert m.num_triangles == 8
    assert len(m.boundary_edges) == 8


def test_areas_sum_to_one():
    for nx, ny in ((1, 1), (3, 2), (5, 7)):
        m = build_rectangle_mesh(nx, ny, ("left",))
        a = triangle_areas(m)
        assert np.all(a > 0)
        assert abs(a.sum() - 1.0) < 1e-14


def test_boundary_tag_split():
    m = build_rectangle_mesh(4, 3, ("left", "top"))
    tags = np.asarray(m.boundary_tags)
    assert len(tags) == 2 * (4 + 3)
    # left has ny=3 edges, top has nx=4
    assert (tags == GAMMA1).sum() == 7
    assert (tags == GAMMA2).sum() == 7
    check_mesh(m)


@pytest.mark.parametrize("sides", [("left",), ("bottom", "right"), ("top",)])
def test_gamma1_side_membership(sides):
    m = build_rectangle_mesh(3, 3, sides)
    for (u, v), tag in zip(m.boundary_edges, m.boundary_tags):
        mid = 0.5 * (m.vertices[u] + m.vertices[v])
        on_gamma1 = (
            ("left" in sides and mid[0] < 1e-12)
            or ("right" in sides and mid[0] > 1 - 1e-12)
            or ("bottom" in sides and mid[1] < 1e-12)
            or ("top" in sides and mid[1] > 1 - 1e-12))
        assert tag == (GAMMA1 if on_gamma1 else GAMMA2)


def _canonical(mesh):
    """Coordinate-keyed triangle set, independent of vertex numbering."""
    tris = set()
    for t in mesh.triangles:
        pts = sorted((round(mesh.vertices[v][0], 12),
                      round(mesh.vertices[v][1], 12)) for v in t)
        tris.add(tuple(pts))
    return tris


def test_refinement_matches_direct_build():
    coarse = build_rectangle_mesh(2, 3, ("left",))
    fine = refine_uniform(coarse)
    direct = build_rectangle_mesh(4, 6, ("left",))
    assert fine.num_vertices == direct.num_vertices
    assert fine.num_triangles == direct.num_triangles
    assert _canonical(fine) == _canonical(direct)
    # boundary tags survive, by side membership
    for (u, v), tag in zip(fine.boundary_edges, fine.boundary_tags):
        mid = 0.5 * (fine.vertices[u] + fine.vertices[v])
        assert tag == (GAMMA1 if mid[0] < 1e-12 else GAMMA2)
    check_mesh(fine)


def test_refinement_quadruples_triangles():
    m = build_rectangle_mesh(3, 2, ("top",))
    r = refine_uniform(m)
    assert r.num_triangles == 4 * m.num_triangles
    assert abs(triangle_areas(r).sum() - 1.0) < 1e-14
    assert r.generation == m.generation + 1


def test_unique_edges_euler():
    for nx, ny in ((1, 1), (2, 2), (4, 3)):
        m = build_rectangle_mesh(nx, ny, ("left",))
        edges, tri_edges = unique_edges(m.triangles)
        # Euler characteristic of a disk: V - E + F = 1
        assert m.num_vertices - len(edges) + m.num_triangles == 1
        assert tri_edges.shape == (m.num_triangles, 3)
        assert np.all(np.diff(edges, axis=1) > 0)


def test_invalid_arguments_raise():
    with pytest.raises(ValueError):
        build_rectangle_mesh(0, 2, ("left",))
    with pytest.raises(ValueError):
        build_rectangle_mesh(2, 2, ())
    with pytest.raises(ValueError):
        build_rectangle_mesh(2, 2, ("left", "right", "top", "bottom"))
    with pytest.raises(ValueError):
        build_rectangle_mesh(2, 2, ("diagonal",))


def test_edge_ids_finds_pairs_in_either_order():
    m = build_rectangle_mesh(4, 3, ("left",))
    edges, tri_edges = unique_edges(m.triangles)
    pairs = m.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    assert np.array_equal(edge_ids(edges, pairs), tri_edges.ravel())
    assert np.array_equal(edge_ids(edges, pairs[:, ::-1]), tri_edges.ravel())
    assert edge_ids(edges, np.empty((0, 2), dtype=np.int64)).shape == (0,)


# on the 2x2 mesh (vertex rows 0-2, 3-5, 6-8), none of these is an edge;
# (0, 13) has the key 0 * 9 + 13 of the edge (1, 4)
@pytest.mark.parametrize("pair", [(0, 2), (2, 4), (0, 8), (0, 13), (-1, 0),
                                  (0, 0)])
def test_edge_ids_rejects_a_pair_that_is_no_edge(pair):
    edges, _ = unique_edges(build_rectangle_mesh(2, 2, ("left",)).triangles)
    with pytest.raises(ValueError, match="not mesh edges"):
        edge_ids(edges, np.array([[0, 1], pair]))


def _with_boundary(mesh, edges):
    return Mesh(mesh.vertices, mesh.triangles, np.array(edges, dtype=np.int64),
                np.resize(mesh.boundary_tags, len(edges)))


def test_check_mesh_reports_a_wrong_boundary():
    m = build_rectangle_mesh(2, 2, ("left",))
    edges = m.boundary_edges.tolist()
    mismatch = "tagged boundary edges do not match the mesh boundary"
    for wrong in (edges[1:],                   # one boundary edge missing
                  edges[:-1] + [[0, 4]],       # an interior edge instead
                  edges[:-1] + [[0, 8]]):      # no mesh edge at all
        with pytest.raises(ValueError, match=mismatch):
            check_mesh(_with_boundary(m, wrong))
    with pytest.raises(ValueError, match="duplicate boundary edges"):
        check_mesh(_with_boundary(m, edges + [edges[0][::-1]]))


def test_check_mesh_reports_an_edge_of_three_triangles():
    m = build_rectangle_mesh(1, 1, ("left",))
    # a third triangle on the diagonal (0, 3), keeping the areas at 1
    tri = np.vstack([m.triangles, [[0, 3, 4]]])
    verts = np.vstack([m.vertices * [1.0, 0.5], [[0.0, 1.0]]])
    mesh = Mesh(verts, tri, m.boundary_edges.copy(), m.boundary_tags.copy())
    with pytest.raises(ValueError, match="shared by more than two triangles"):
        check_mesh(mesh)
