"""Tests for scene graph nodes, textures and cameras."""

import numpy as np
import pytest

from repro.scenegraph import (
    Camera,
    Group,
    LineSet,
    QuadMesh,
    Texture2D,
    TexturedQuad,
)
from repro.scenegraph.node import transform_points
from tests.helpers import solid_texture


class TestNodes:
    def test_hierarchy_traversal_order(self):
        root = Group("root")
        a = root.add(Group("a"))
        b = root.add(Group("b"))
        a.add(Group("a1"))
        names = [n.name for n, _ in root.traverse()]
        assert names == ["root", "a", "a1", "b"]

    def test_invisible_subtree_pruned(self):
        root = Group("root")
        hidden = root.add(Group("hidden"))
        hidden.add(Group("child"))
        hidden.visible = False
        names = [n.name for n, _ in root.traverse()]
        assert names == ["root"]

    def test_self_child_rejected(self):
        n = Group("n")
        with pytest.raises(ValueError):
            n.add(n)

    def test_remove(self):
        root = Group("root")
        child = root.add(Group("c"))
        root.remove(child)
        assert root.children == []

    def test_scaling(self):
        s = np.diag([2.0, 3.0, 4.0, 1.0])
        pt = transform_points(s, np.array([[1.0, 1.0, 1.0]]))
        np.testing.assert_allclose(pt[0], [2.0, 3.0, 4.0])


class TestGeometry:
    def test_textured_quad_must_be_a_parallelogram(self):
        tex = solid_texture((1, 0, 0, 1))
        square = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float)
        sheared = square @ np.array([[2.0, 0.5, 0.1], [0.3, 1.0, 0.7], [0, 0, 1]])
        for corners in (square, sheared + 10.0):
            np.testing.assert_array_equal(
                TexturedQuad(corners, tex).corners, corners
            )
        kite = square.copy()
        kite[2] = [2.0, 2.0, 0.0]
        with pytest.raises(ValueError, match="parallelogram"):
            TexturedQuad(kite, tex)

    def test_quad_mesh_triangles_index_shared_vertices(self):
        tex = solid_texture((1, 1, 1, 1))
        mesh = QuadMesh(np.zeros((2, 3, 3)), tex)
        indices = [tuple(idx) for idx, _ in mesh.triangles()]
        # cells (0, 1, 4) / (0, 4, 3) and (1, 2, 5) / (1, 5, 4)
        assert indices == [(0, 1, 4), (0, 4, 3), (1, 2, 5), (1, 5, 4)]
        for _, uvs in mesh.triangles():
            assert uvs.shape == (3, 2)

    def test_quad_corner_validation(self):
        tex = solid_texture((1, 1, 1, 1))
        with pytest.raises(ValueError):
            TexturedQuad(np.zeros((3, 3)), tex)

    def test_quad_mesh_triangle_count(self):
        tex = solid_texture((1, 1, 1, 1))
        verts = np.zeros((3, 4, 3))
        mesh = QuadMesh(verts, tex)
        assert len(mesh.triangles()) == 2 * 2 * 3

    def test_quad_mesh_from_offsets_displaces_along_normal(self):
        tex = solid_texture((1, 1, 1, 1))
        corners = np.array([[0, 0, 0.5], [1, 0, 0.5], [1, 1, 0.5], [0, 1, 0.5]], float)
        offsets = np.full((4, 4), 1.0)
        mesh = QuadMesh.from_offsets(
            corners, offsets, np.array([0, 0, 1.0]), tex, amplitude=0.2
        )
        # offset 1.0 -> displaced +0.1 along z from the base plane.
        np.testing.assert_allclose(mesh.vertices[..., 2], 0.6, atol=1e-12)

    def test_quad_mesh_validation(self):
        tex = solid_texture((1, 1, 1, 1))
        with pytest.raises(ValueError):
            QuadMesh(np.zeros((1, 4, 3)), tex)
        with pytest.raises(ValueError):
            QuadMesh.from_offsets(
                np.zeros((4, 3)), np.zeros((2, 2)), np.zeros(3), tex
            )

    def test_lineset(self):
        segs = np.zeros((5, 2, 3))
        ls = LineSet(segs, (1, 0, 0, 1))
        assert ls.n_segments == 5
        with pytest.raises(ValueError):
            LineSet(np.zeros((5, 3, 3)))
        with pytest.raises(ValueError):
            LineSet(segs, color=(1, 0, 0))


class TestTexture:
    def test_sample_corners(self):
        data = np.zeros((2, 2, 4), np.float32)
        data[0, 0] = [1, 0, 0, 1]
        data[1, 1] = [0, 1, 0, 1]
        tex = Texture2D(data)
        np.testing.assert_allclose(
            tex.sample(np.array(0.0), np.array(0.0)), [1, 0, 0, 1]
        )
        np.testing.assert_allclose(
            tex.sample(np.array(1.0), np.array(1.0)), [0, 1, 0, 1]
        )

    def test_sample_bilinear_midpoint(self):
        data = np.zeros((1, 2, 4), np.float32)
        data[0, 0] = [1, 0, 0, 1]
        data[0, 1] = [0, 0, 1, 1]
        tex = Texture2D(data)
        mid = tex.sample(np.array(0.5), np.array(0.0))
        np.testing.assert_allclose(mid, [0.5, 0, 0.5, 1], atol=1e-6)

    def test_sample_clamps(self):
        tex = solid_texture((0.3, 0.3, 0.3, 1.0))
        np.testing.assert_allclose(
            tex.sample(np.array(-2.0), np.array(5.0)), [0.3, 0.3, 0.3, 1.0]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            Texture2D(np.zeros((4, 4, 3), np.float32))
        with pytest.raises(ValueError):
            Texture2D(np.zeros((0, 4, 4), np.float32))


class TestCamera:
    def test_forward_is_unit(self):
        cam = Camera(position=(0, 0, 5), target=(0, 0, 0))
        np.testing.assert_allclose(cam.forward, [0, 0, -1])

    def test_basis_orthonormal(self):
        cam = Camera.orbit(33, 21)
        r, u, f = cam.basis()
        for v in (r, u, f):
            assert np.linalg.norm(v) == pytest.approx(1.0)
        assert abs(np.dot(r, u)) < 1e-12
        assert abs(np.dot(r, f)) < 1e-12

    def test_project_centers_target(self):
        cam = Camera.orbit(0, 0)
        px = cam.project(np.array([[0.5, 0.5, 0.5]]), 100, 100)
        np.testing.assert_allclose(px[0, :2], [50.0, 50.0])

    def test_project_depth_increases_away(self):
        cam = Camera(position=(0.5, 0.5, 3.0), target=(0.5, 0.5, 0.5))
        near = cam.project(np.array([[0.5, 0.5, 1.0]]), 10, 10)[0, 2]
        far = cam.project(np.array([[0.5, 0.5, 0.0]]), 10, 10)[0, 2]
        assert far > near

    def test_validation(self):
        with pytest.raises(ValueError):
            Camera(position=(0, 0, 0), target=(0, 0, 0))
        with pytest.raises(ValueError):
            Camera(extent=0)
        cam = Camera.orbit(0, 0)
        with pytest.raises(ValueError):
            cam.project(np.zeros((3,)), 10, 10)
