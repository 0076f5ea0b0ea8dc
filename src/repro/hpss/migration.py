"""Staging archived files into the DPSS cache."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.dpss.blocks import DpssDataset
from repro.simcore.events import Event
from repro.util.units import KIB

if TYPE_CHECKING:  # pragma: no cover
    from repro.dpss.master import DpssMaster
    from repro.hpss.archive import HpssArchive
    from repro.netsim.topology import Network


@dataclass(frozen=True)
class MigrationResult:
    """Outcome of staging one file into the DPSS."""

    dataset_name: str
    nbytes: float
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def throughput(self) -> float:
        return self.nbytes / self.duration if self.duration > 0 else 0.0


def migrate_to_dpss(
    network: "Network",
    archive: "HpssArchive",
    file_name: str,
    master: "DpssMaster",
) -> Event:
    """Stage an archived file into the DPSS as a striped dataset.

    The file streams (whole, tape-rate-limited) from the archive host
    to the DPSS master's site, then is registered with the master,
    striped in 64 KiB blocks across every block server. The event's
    value is a :class:`MigrationResult`; after it fires, clients can
    block-read the dataset at DPSS speeds.
    """
    env = network.env

    def proc():
        start = env.now
        file = archive.lookup(file_name)
        stats = yield archive.retrieve(
            network, file_name, master.host.name, label="migrate"
        )
        dataset = DpssDataset(
            name=file_name, size=file.size, block_size=64 * KIB
        )
        master.register_dataset(dataset)
        return MigrationResult(
            dataset_name=file_name,
            nbytes=file.size,
            start=start,
            end=env.now,
        )

    return env.process(proc())
