"""Reference implementations the production tree no longer carries.

Each module here is a superseded algorithm kept as the thing a test
compares against; nothing under ``src/`` imports from this package
(``tests/test_public_api.py::test_src_never_imports_tests``).

- ``scalar_kernels`` -- per-pixel slab composite, per-sample view
  composite, per-pixel triangle rasterizer. Pins ``render_slab`` /
  ``render_view`` / ``scenegraph.render`` images with
  ``np.array_equal`` (``test_raycast_parity.py``,
  ``test_raster_parity.py``).
- ``recompute_fluid`` -- ``FluidScheduler`` re-solving everything from
  rebuilt specs at every event. Pins rates, ETAs and completion times
  with ``==`` over 200 random scripts (``test_fluid_incremental.py``)
  and whole-campaign ULM bytes (``test_alloc_parity.py``,
  ``test_window_schedule.py``).
- ``per_session_pool`` -- one fluid flow per member instead of one per
  class. Pins member completion times with ``==`` over 200 seeds
  (``test_flowclass.py``) and shard records (``test_shard.py``); 1e-9
  relative across the wider ``test_flowclass_lazy.py`` space.
- ``tcp_ticks`` -- the per-RTT window tick loop. Pins every
  ``TransferStats`` field, ``finish_time`` and every registry
  campaign's ULM sha256 with ``==`` (``test_window_schedule.py``).
- ``eager_flowclass`` -- the per-rate-change member sweep. Pins
  completion times, pool wakes and shared counters with ``==``
  (``test_flowclass_lazy.py``).
- ``scipy_trilinear`` -- ``scipy.ndimage.map_coordinates`` at
  ``order=1``. Pins ``volren.raycast.trilinear`` with
  ``np.array_equal`` over hypothesis-drawn volumes and coordinates
  (``test_trilinear.py``). The only ``scipy`` import in the tree.
"""
