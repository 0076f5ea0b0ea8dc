"""Tests for AMR hierarchy extraction and grid line geometry."""

import numpy as np
import pytest

from repro.datagen import (
    AMRBox,
    build_amr_hierarchy,
    combustion_field,
    CombustionConfig,
    grid_line_segments,
    refine_boxes,
)


def sharp_field(shape=(24, 24, 24)):
    """A field with one sharp internal edge to refine around."""
    field = np.zeros(shape, dtype=np.float32)
    field[: shape[0] // 2] = 1.0
    return field


class TestAMRBox:
    def test_shape_and_cells(self):
        box = AMRBox(1, (0, 0, 0), (4, 6, 8))
        assert box.shape == (4, 6, 8)
        assert np.prod(box.shape) == 192

    def test_validation(self):
        with pytest.raises(ValueError):
            AMRBox(-1, (0, 0, 0), (1, 1, 1))
        with pytest.raises(ValueError):
            AMRBox(0, (2, 0, 0), (2, 4, 4))


class TestRefineBoxes:
    def test_tags_sharp_region_only(self):
        field = sharp_field()
        boxes = refine_boxes(field, threshold=0.25, block=4)
        assert boxes, "expected refinement at the sharp front"
        mid = field.shape[0] // 2
        for lo, hi in boxes:
            # Refined boxes must straddle/neighbour the discontinuity.
            assert lo[0] <= mid <= hi[0] or abs(lo[0] - mid) <= 4

    def test_no_tags_on_uniform_field(self):
        field = np.ones((16, 16, 16), dtype=np.float32)
        assert refine_boxes(field, threshold=0.1, block=4) == []

    def test_merging_reduces_count(self):
        field = sharp_field()
        boxes = refine_boxes(field, threshold=0.25, block=4)
        # The front spans the full y/z extent: without merging that
        # would be (24/4)^2 = 36 boxes at x=mid; merging along x alone
        # cannot reduce the count below the y-z tiling, but box count
        # must never exceed the raw tagging.
        assert len(boxes) <= 36

    def test_validation(self):
        with pytest.raises(ValueError):
            refine_boxes(np.zeros((4, 4)), threshold=0.1)
        with pytest.raises(ValueError):
            refine_boxes(np.zeros((4, 4, 4)), threshold=0.1, block=0)


class TestHierarchy:
    def test_level0_covers_domain(self):
        field = sharp_field()
        boxes = build_amr_hierarchy(field, max_level=2)
        level0 = [b for b in boxes if b.level == 0]
        assert len(level0) == 1
        assert level0[0].lo == (0, 0, 0)
        assert level0[0].hi == tuple(field.shape)

    def test_deeper_levels_nest_in_sharp_regions(self):
        field = sharp_field()
        boxes = build_amr_hierarchy(field, max_level=2)
        levels = {b.level for b in boxes}
        assert levels == {0, 1, 2}
        mid = field.shape[0] // 2
        for b in boxes:
            if b.level > 0:
                assert b.lo[0] <= mid + 4 and b.hi[0] >= mid - 4

    def test_uniform_field_has_only_level0(self):
        field = np.full((16, 16, 16), 0.5, dtype=np.float32)
        boxes = build_amr_hierarchy(field, max_level=3)
        assert [b.level for b in boxes] == [0]

    def test_combustion_field_refines_at_front(self):
        cfg = CombustionConfig(shape=(24, 24, 24))
        field = combustion_field(0.0, cfg)
        boxes = build_amr_hierarchy(field, max_level=1)
        refined = [b for b in boxes if b.level == 1]
        assert refined, "flame fronts should trigger refinement"
        # Refinement is selective, not everywhere.
        refined_cells = sum(np.prod(b.shape) for b in refined)
        assert refined_cells < field.size

    def test_validation(self):
        with pytest.raises(ValueError):
            build_amr_hierarchy(np.zeros((4, 4, 4)), max_level=-1)


class TestGridLines:
    def test_segment_count_is_12_per_box(self):
        boxes = [
            AMRBox(0, (0, 0, 0), (8, 8, 8)),
            AMRBox(1, (2, 2, 2), (4, 4, 4)),
        ]
        segs = grid_line_segments(boxes, (8, 8, 8))
        assert segs.shape == (24, 2, 3)

    def test_coordinates_normalised(self):
        boxes = [AMRBox(0, (0, 0, 0), (8, 8, 8))]
        segs = grid_line_segments(boxes, (8, 8, 8))
        assert segs.min() >= 0.0
        assert segs.max() <= 1.0

    def test_empty_input(self):
        segs = grid_line_segments([], (8, 8, 8))
        assert segs.shape == (0, 2, 3)

    def test_edges_have_positive_length(self):
        boxes = [AMRBox(1, (1, 2, 3), (5, 6, 7))]
        segs = grid_line_segments(boxes, (8, 8, 8))
        lengths = np.linalg.norm(segs[:, 1] - segs[:, 0], axis=1)
        assert (lengths > 0).all()
