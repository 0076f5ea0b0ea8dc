"""E9 -- Figure 6 and section 3.3: IBRAVR off-axis artifacts.

Paper: "Using a nearly axis-aligned view, the IBRAVR method produces a
high-fidelity image. When the model is rotated off-axis, visual
artifacts can be seen." And: "objects viewed within a cone of about
sixteen degrees will appear to be relatively free of visual
artifacts." Visapult's extension: per-frame best-axis selection keeps
the view inside that cone.
"""

import pytest

from repro.datagen import CombustionConfig, combustion_field
from repro.ibravr import artifact_error, artifact_sweep
from repro.volren import TransferFunction
from benchmarks.conftest import once


@pytest.fixture(scope="module")
def volume():
    return combustion_field(
        0.0,
        CombustionConfig(
            shape=(64, 64, 64), n_kernels=4, front_sharpness=10.0
        ),
    )


@pytest.mark.benchmark(group="e9-ibravr")
def test_e9_fig6_error_vs_angle(benchmark, comparison, volume):
    comp = comparison(
        "E9", "Figure 6: image error grows as the view rotates off-axis"
    )
    tf = TransferFunction.opaque_fire()
    angles = [0.0, 8.0, 16.0, 30.0, 45.0]

    sweep = once(
        benchmark, artifact_sweep, volume, tf, angles,
        n_slabs=8, image_size=64,
    )
    errors = {s.angle_deg: s.rms_error for s in sweep}
    base = errors[0.0]
    for angle in angles:
        comp.row(
            f"RMS error at {angle:.0f} deg",
            "grows with angle; small within ~16 deg cone",
            f"{errors[angle]:.4f} ({errors[angle] / base:.1f}x on-axis)",
        )
    # Monotone growth across the sweep.
    seq = [errors[a] for a in angles]
    assert all(b > a for a, b in zip(seq, seq[1:]))
    # Within the ~16-degree cone the error stays below 2x on-axis;
    # beyond it the striping dominates and the error keeps climbing.
    assert errors[16.0] < 2.0 * base
    assert errors[30.0] > 2.0 * base
    assert errors[45.0] > 2.5 * base


@pytest.mark.benchmark(group="e9-ibravr")
def test_e9_axis_switching_bounds_error(benchmark, comparison, volume):
    comp = comparison(
        "E9", "Visapult's axis switching bounds off-axis error"
    )
    tf = TransferFunction.opaque_fire()

    def run():
        pinned = artifact_error(
            volume, tf, 80.0, n_slabs=8, image_size=64,
            axis_switching=False,
        )
        switched = artifact_error(
            volume, tf, 80.0, n_slabs=8, image_size=64,
            axis_switching=True,
        )
        on_axis = artifact_error(
            volume, tf, 0.0, n_slabs=8, image_size=64,
        )
        return pinned, switched, on_axis

    pinned, switched, on_axis = once(benchmark, run)
    comp.row(
        "80 deg view, slabs pinned to X",
        "severe artifacts (Figure 6 right)",
        f"RMS {pinned.rms_error:.4f}",
    )
    comp.row(
        "80 deg view, axis switching",
        "re-slabs along Y; artifacts bounded",
        f"RMS {switched.rms_error:.4f} (axis {switched.slab_axis})",
    )
    comp.row(
        "on-axis reference", "high fidelity", f"RMS {on_axis.rms_error:.4f}"
    )
    assert switched.slab_axis == 1
    assert switched.rms_error < pinned.rms_error
    # Post-switch the view is 10 degrees off the new axis: comparable
    # to a mildly off-axis view, far better than 80 degrees off.
    assert switched.rms_error < 2.5 * on_axis.rms_error


@pytest.mark.benchmark(group="e9-ibravr")
def test_e9_viewer_payload_is_n_squared(benchmark, comparison, volume):
    comp = comparison(
        "E9", "Footnote 5: viewer data is O(n^2) vs O(n^3) source"
    )

    def run():
        from repro.ibravr.compositor import IbravrModel
        from repro.volren import slab_decompose
        from repro.volren.renderer import VolumeRenderer

        tf = TransferFunction.fire()
        renderer = VolumeRenderer(tf)
        subs = slab_decompose(volume.shape, 8)
        renderings = [
            renderer.render(s, s.extract(volume), volume.shape)
            for s in subs
        ]
        model = IbravrModel()
        model.update(renderings)
        return model.texture_bytes, volume.size * 4

    viewer_bytes, source_bytes = once(benchmark, run)
    comp.row(
        "viewer-side texture bytes",
        "O(n^2) per slab",
        f"{viewer_bytes / 1e3:.0f} KB",
    )
    comp.row(
        "source volume bytes", "O(n^3)", f"{source_bytes / 1e3:.0f} KB"
    )
    assert viewer_bytes * 3 < source_bytes
