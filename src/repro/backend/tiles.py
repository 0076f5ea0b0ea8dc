"""Tile-mode geometry of one simulated back end.

Everything tile mode needs to know before a frame runs is a pure
function of ``(meta.shape, TileConfig, n_render_pes, dataset)``:
the screen grid, the tiles a viewer's frustum can see, which rank owns
each of them, how many fragment bytes a rendering rank routes to the
other owners, the shared-cache key of a tile, and the wire size of one
owner's per-frame batch under delta transmission. :class:`TilePlan`
computes those once; :class:`~repro.backend.sim.SimBackEnd` holds one
(or ``None`` in whole-slab mode) and keeps every cache call to itself.

This lives beside the back end rather than in
:mod:`repro.volren.tiles` because the batch size needs
``TILE_WIRE_OVERHEAD`` and :mod:`repro.protocol.messages` already
imports the volren module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence, Tuple

from repro.config import TileConfig
from repro.protocol.messages import TILE_WIRE_OVERHEAD
from repro.volren.tiles import TileGrid, tile_changed

#: bytes of per-rank per-frame batch framing (tile count, frame
#: manifest); an owner with no visible tiles still ships this so the
#: viewer can close out the frame
TILE_BATCH_HEADER_BYTES = 64.0

#: share of the screen's tiles that change per timestep (camera orbit
#: or data evolution) in the deterministic change model
CHANGE_FRACTION = 0.3


@dataclass(frozen=True)
class TilePlan:
    """Who owns which visible tile, and what shipping them costs."""

    dataset: str
    grid: TileGrid
    #: tile IDs inside the viewer's frustum, ascending
    visible: Tuple[int, ...]
    #: rank -> the visible tiles it owns, ascending
    owned: Tuple[Tuple[int, ...], ...]
    #: rank -> fragment bytes it routes to the other owners per
    #: rendered frame: every visible tile it does not own
    route_bytes: Tuple[float, ...]

    @classmethod
    def build(
        cls,
        shape: Sequence[int],
        config: TileConfig,
        n_render_pes: int,
        dataset: str,
    ) -> "TilePlan":
        """Lay the grid over the two non-slab axes of ``shape``.

        The axis-0 slab decomposition projects every slab onto the
        full viewport, so every PE contributes fragments to every
        visible tile.
        """
        grid = TileGrid(
            width=int(shape[2]), height=int(shape[1]),
            tile_size=config.tile_size,
        )
        visible = (
            grid.tiles_in_rect(*config.frustum)
            if config.frustum is not None
            else grid.all_tiles()
        )
        ranks = range(n_render_pes)
        owner = {t: grid.owner_of(t, n_render_pes) for t in visible}
        return cls(
            dataset=dataset,
            grid=grid,
            visible=visible,
            owned=tuple(
                tuple(t for t in visible if owner[t] == rank)
                for rank in ranks
            ),
            route_bytes=tuple(
                float(sum(
                    grid.tile_pixels(t) * 4
                    for t in visible
                    if owner[t] != rank
                ))
                for rank in ranks
            ),
        )

    def tile_bytes(self, tile_id: int) -> float:
        """RGBA8 pixel payload of one tile."""
        return float(self.grid.tile_pixels(tile_id) * 4)

    def cache_key(self, tile_id: int, frame: int) -> Tuple[Hashable, ...]:
        """Shared-render-cache key: (dataset, timestep, tile).

        The grid geometry rides along so back ends with different
        viewports or tile sizes never alias; the key is independent of
        the PE count and of any frustum, which is exactly what lets
        partially-overlapping viewer frusta share tile renders.
        """
        grid = self.grid
        return (
            "tile",
            self.dataset,
            frame,
            grid.width,
            grid.height,
            grid.tile_size,
            tile_id,
        )

    def batch(
        self, rank: int, frame: int, all_full: bool
    ) -> Tuple[int, int, int, float, float]:
        """One owner's per-frame batch under delta transmission.

        Returns ``(ntiles, nfull, nref, nbytes, saved)``: a tile whose
        content is unchanged since the last delivered frame travels as
        a header-plus-hash reference instead of pixels, and ``saved``
        is the pixel bytes those references kept off the wire.
        ``all_full`` disables references (a degraded frame's partial
        content never matches the change model).
        """
        owned = self.owned[rank]
        nfull = 0
        nbytes = TILE_BATCH_HEADER_BYTES + TILE_WIRE_OVERHEAD * len(owned)
        saved = 0.0
        for tile_id in owned:
            if all_full or tile_changed(
                self.dataset, frame, tile_id, CHANGE_FRACTION
            ):
                nfull += 1
                nbytes += self.tile_bytes(tile_id)
            else:
                saved += self.tile_bytes(tile_id)
        return len(owned), nfull, len(owned) - nfull, nbytes, saved
