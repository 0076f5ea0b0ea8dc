"""Tile mode end to end: delta wire savings, slab-compat byte parity,
TILE_* observability, and the tile-keyed shared cache."""

import pytest

from repro.config import TileConfig
from repro.core import CampaignConfig, run_campaign
from repro.core.campaign import named_campaign
from repro.netlogger import (
    TAG_PREFIXES,
    TILE_TAGS,
    Tags,
    declared_tags,
    lifeline_plot,
)
from repro.service.workload import ViewerProfile


def _tiny(**changes):
    base = CampaignConfig.lan_e4500(overlapped=True).with_changes(
        shape=(64, 32, 32), dataset_timesteps=8, n_timesteps=3
    )
    return base.with_changes(**changes) if changes else base


TILES_ON = TileConfig(enabled=True, tile_size=8)


class TestSlabCompatParity:
    """There is one way to say "whole-slab": the disabled config, which
    is also the default. It runs no tile machinery."""

    def test_default_is_the_disabled_config(self):
        assert _tiny() == _tiny(tiles=TileConfig(enabled=False))

    def test_slab_mode_emits_no_tile_events(self, tmp_path):
        path = tmp_path / "slab.ulm"
        run_campaign(_tiny(), ulm_path=str(path))
        assert "TILE_" not in path.read_text()


class TestTileModeRuns:
    @pytest.mark.parametrize("overlapped", [False, True],
                             ids=["serial", "overlapped"])
    def test_frames_complete_and_wire_shrinks(self, overlapped, tmp_path):
        base = CampaignConfig.lan_e4500(overlapped=overlapped).with_changes(
            shape=(64, 32, 32), dataset_timesteps=8, n_timesteps=3
        )
        slab = run_campaign(base)
        tiled = run_campaign(base.with_changes(tiles=TILES_ON))
        assert tiled.viewer_frames_complete == base.n_timesteps
        assert slab.viewer_frames_complete == base.n_timesteps
        # delta references keep texture bytes off the wire
        # (PR 6's headline floor: >= 3.5x fewer bytes to the viewer)
        assert (
            slab.backend_to_viewer_bytes / tiled.backend_to_viewer_bytes
            >= 3.5
        )
        assert tiled.tiles_ref > 0  # unchanged tiles after frame 0
        assert tiled.tiles_full > 0  # frame 0 is always full
        assert tiled.tile_bytes_saved > 0
        assert "tile delta" in tiled.summary()

    def test_frame_zero_ships_every_visible_tile_full(self, tmp_path):
        path = tmp_path / "tiles.ulm"
        run_campaign(_tiny(tiles=TILES_ON), ulm_path=str(path))
        sends = [
            line for line in path.read_text().splitlines()
            if f"NL.EVNT={Tags.TILE_SEND} " in line + " "
            and "FRAME=0 " in line + " "
        ]
        assert sends, "no frame-0 TILE_SEND events logged"
        for line in sends:
            assert "NREF=0" in line  # nothing to reference yet

    def test_tile_events_present_and_prefixed(self, tmp_path):
        path = tmp_path / "tiles.ulm"
        run_campaign(_tiny(tiles=TILES_ON), ulm_path=str(path))
        text = path.read_text()
        for tag in (Tags.TILE_SEND, Tags.TILE_SEND_END, Tags.TILE_RECV,
                    Tags.TILE_RECV_END, Tags.TILE_ROUTE_START,
                    Tags.TILE_ROUTE_END, Tags.TILE_FRAME_END):
            assert tag in text, f"missing {tag} in tile-mode ULM"
        assert any(p == "TILE_" for p in TAG_PREFIXES)

    def test_tile_tags_declared_once(self):
        declared = declared_tags()
        assert set(TILE_TAGS) <= set(declared)
        assert len(set(TILE_TAGS)) == len(TILE_TAGS)

    def test_nlv_gives_tile_events_their_own_lanes(self):
        result = run_campaign(_tiny(tiles=TILES_ON))
        plot = lifeline_plot(result.event_log)
        lanes = [line.split("|")[0].strip() for line in plot.splitlines()]
        assert Tags.TILE_SEND in lanes
        assert Tags.TILE_ROUTE_START in lanes
        # tile lanes must not swallow viewer/backend lanes
        assert Tags.BE_FRAME_START in lanes

    def test_frustum_restricts_visible_tiles(self):
        full = run_campaign(_tiny(tiles=TILES_ON))
        half = run_campaign(_tiny(tiles=TILES_ON.with_changes(
            frustum=(0.0, 0.0, 0.5, 1.0)
        )))
        assert half.viewer_frames_complete == 3
        half_tiles = half.tiles_full + half.tiles_ref
        full_tiles = full.tiles_full + full.tiles_ref
        assert 0 < half_tiles < full_tiles

    def test_mpi_only_overlap_rejects_tile_mode(self):
        from repro.core.campaign import build_session

        cfg = CampaignConfig.nton_cplant(n_pes=4).with_changes(
            shape=(64, 32, 32), dataset_timesteps=8, n_timesteps=2,
            mpi_only_overlap=True, tiles=TILES_ON, name="mpi-tiles",
        )
        with pytest.raises(ValueError, match="tile mode"):
            build_session(cfg)


class TestServiceTileSharing:
    """Two viewers with overlapping frusta share tile renders through
    the (dataset, timestep, tile)-keyed cache."""

    def _config(self):
        config = named_campaign("sc99-multiviewer")
        return config.with_changes(
            base=config.base.with_changes(
                shape=(64, 32, 32), dataset_timesteps=8, n_timesteps=2,
                tiles=TILES_ON,
            ),
            workload=config.workload.with_changes(
                n_viewers=2,
                profiles=(
                    ViewerProfile(name="left",
                                  frustum=(0.0, 0.0, 0.75, 1.0)),
                    ViewerProfile(name="right",
                                  frustum=(0.25, 0.0, 1.0, 1.0)),
                ),
            ),
        )

    def test_tiles_on_configuration_constructs(self):
        config = self._config()
        assert config.base.tiles.enabled
        assert [p.name for p in config.workload.profiles] == ["left", "right"]

    def test_frustum_on_a_whole_slab_service_is_refused_by_name(self):
        # A frustum only restricts tiles; on the whole-slab path it
        # used to be dropped silently (same bytes with and without).
        config = self._config()
        with pytest.raises(
            ValueError,
            match="profile 'left' sets frustum; "
                  "frustum applies only with tiles",
        ):
            config.with_changes(
                base=config.base.with_changes(tiles=TileConfig())
            )

    def test_overlapping_frusta_hit_the_shared_tile_cache(self):
        result = run_campaign(self._config())
        assert result.cache_stats is not None
        assert result.cache_stats.hits > 0
        assert 0.0 < result.cache_stats.hit_ratio < 1.0
        assert result.tiles_full > 0
        assert "tile delta" in result.summary()
