"""Cross-module property tests on the system's core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.scenegraph import Camera, Texture2D
from repro.volren import (
    TransferFunction,
    composite_stack,
    render_slab,
    slab_decompose,
)
from repro.volren.compositing import composite_over
from tests.helpers import solid_texture


# ------------------------------------------------------------- camera
@settings(max_examples=80, deadline=None)
@given(
    azimuth=st.floats(min_value=0.0, max_value=360.0),
    elevation=st.floats(min_value=-80.0, max_value=80.0),
)
def test_orbit_camera_basis_always_orthonormal(azimuth, elevation):
    cam = Camera.orbit(azimuth, elevation)
    r, u, f = cam.basis()
    for v in (r, u, f):
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)
    assert abs(np.dot(r, u)) < 1e-9
    assert abs(np.dot(r, f)) < 1e-9
    assert abs(np.dot(u, f)) < 1e-9


@settings(max_examples=80, deadline=None)
@given(
    azimuth=st.floats(min_value=0.0, max_value=360.0),
    elevation=st.floats(min_value=-80.0, max_value=80.0),
    width=st.integers(min_value=8, max_value=512),
    height=st.integers(min_value=8, max_value=512),
)
def test_target_always_projects_to_viewport_center(
    azimuth, elevation, width, height
):
    cam = Camera.orbit(azimuth, elevation)
    px = cam.project(np.array([list(cam.target)]), width, height)
    assert px[0, 0] == pytest.approx(width / 2, abs=1e-6)
    assert px[0, 1] == pytest.approx(height / 2, abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(
    azimuth=st.floats(min_value=0.0, max_value=360.0),
    elevation=st.floats(min_value=-80.0, max_value=80.0),
)
def test_camera_depth_orders_points_along_view(azimuth, elevation):
    cam = Camera.orbit(azimuth, elevation)
    near_pt = cam.position + 1.0 * cam.forward
    far_pt = cam.position + 2.0 * cam.forward
    depths = cam.view_depth(np.array([near_pt, far_pt]))
    assert depths[0] < depths[1]


# ------------------------------------------------------------ texture
@settings(max_examples=60, deadline=None)
@given(
    rgba=st.tuples(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    ),
    u=st.floats(min_value=-1, max_value=2),
    v=st.floats(min_value=-1, max_value=2),
)
def test_solid_texture_samples_constant_everywhere(rgba, u, v):
    tex = solid_texture(rgba)
    sample = tex.sample(np.array(u), np.array(v))
    np.testing.assert_allclose(sample, rgba, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    data=hnp.arrays(
        np.float32, (4, 5, 4),
        elements=st.floats(min_value=0, max_value=1, width=32),
    ),
    u=st.floats(min_value=0, max_value=1),
    v=st.floats(min_value=0, max_value=1),
)
def test_bilinear_sample_within_texel_range(data, u, v):
    tex = Texture2D(data)
    sample = tex.sample(np.array(u), np.array(v))
    for c in range(4):
        assert data[..., c].min() - 1e-6 <= sample[c]
        assert sample[c] <= data[..., c].max() + 1e-6


# -------------------------------------------------------- compositing
@settings(max_examples=60, deadline=None)
@given(
    alphas=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6
    )
)
def test_composited_alpha_bounded_and_monotone(alphas):
    """Stacking premultiplied layers never exceeds alpha 1 and never
    loses opacity as more layers stack behind."""
    layers = []
    for a in alphas:
        img = np.zeros((2, 2, 4), np.float32)
        img[..., 3] = a
        img[..., 0] = a  # premultiplied red
        layers.append(img)
    prev_alpha = 0.0
    for k in range(1, len(layers) + 1):
        out = composite_stack(layers[:k])
        alpha = float(out[0, 0, 3])
        assert alpha <= 1.0 + 1e-6
        assert alpha >= prev_alpha - 1e-6
        prev_alpha = alpha


@settings(max_examples=40, deadline=None)
@given(
    volume=hnp.arrays(
        np.float32, (12, 6, 6),
        elements=st.floats(min_value=0, max_value=1, width=32),
    ),
    n_slabs=st.integers(min_value=1, max_value=6),
    flip=st.booleans(),
)
def test_slab_compositing_identity_random_volumes(volume, n_slabs, flip):
    """composite(slab renders) == render(whole volume), any data, any
    slab count, both traversal directions -- the IBRAVR invariant."""
    tf = TransferFunction.fire()
    full, _ = render_slab(volume, tf, axis=0, flip=flip)
    subs = slab_decompose(volume.shape, n_slabs, axis=0)
    parts = [
        render_slab(s.extract(volume), tf, axis=0, flip=flip)[0]
        for s in subs
    ]
    if flip:
        parts = parts[::-1]  # nearest slab first
    stacked = composite_stack(parts, front_to_back=True)
    np.testing.assert_allclose(stacked, full, atol=1e-4)


@settings(max_examples=60, deadline=None)
@given(
    img=hnp.arrays(
        np.float32, (3, 3, 4),
        elements=st.floats(min_value=0, max_value=0.5, width=32),
    )
)
def test_over_with_self_is_idempotent_only_when_opaque(img):
    """over() output stays within valid premultiplied bounds."""
    out = composite_over(img, img)
    assert np.isfinite(out).all()
    assert (out >= -1e-6).all()
    assert (out <= 1.0 + 1e-5).all()


# ---------------------------------------------------------- pipeline
@settings(max_examples=15, deadline=None)
@given(
    n_pes=st.integers(min_value=1, max_value=6),
    frames=st.integers(min_value=1, max_value=4),
    overlapped=st.booleans(),
)
def test_campaign_always_delivers_every_frame(n_pes, frames, overlapped):
    """Whatever the configuration, no frame is lost or duplicated."""
    from repro.core import CampaignConfig, run_campaign

    cfg = CampaignConfig.nton_cplant(
        n_pes=n_pes, overlapped=overlapped
    ).with_changes(
        shape=(60, 16, 16), dataset_timesteps=8, n_timesteps=frames,
        name=f"prop-{n_pes}-{frames}-{overlapped}",
    )
    result = run_campaign(cfg)
    assert result.viewer_frames_complete == frames
    assert len(result.event_log.load_spans()) == n_pes * frames
    assert result.dpss_to_backend_bytes == pytest.approx(
        frames * cfg.meta.bytes_per_timestep
    )
