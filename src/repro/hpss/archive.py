"""The HPSS archive model: full-file access from tape-backed storage."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from repro.netsim.tcp import TcpConnection
from repro.simcore.events import Event
from repro.util.units import MB
from repro.util.validation import check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.host import Host
    from repro.netsim.topology import Network


@dataclass(frozen=True)
class ArchiveFile:
    """A file resident in the archive."""

    name: str
    size: float

    def __post_init__(self):
        check_positive("size", self.size)


class HpssArchive:
    """Tape-backed archive attached to a host.

    - ``mount_latency``: tape pick/mount/seek before the first byte.
    - ``drive_rate``: streaming rate of a tape drive; retrievals are
      capped at this regardless of network capacity.
    - Access is whole-file only: there is no partial retrieve, which
      is the property that makes direct WAN visualization from HPSS
      impractical and motivates the DPSS staging step.
    """

    def __init__(
        self,
        host: "Host",
        *,
        mount_latency: float = 30.0,
        drive_rate: float = 15 * MB,
    ):
        check_non_negative("mount_latency", mount_latency)
        check_positive("drive_rate", drive_rate)
        self.host = host
        self.mount_latency = float(mount_latency)
        self.drive_rate = float(drive_rate)
        self._files: Dict[str, ArchiveFile] = {}

    def store(self, file: ArchiveFile) -> ArchiveFile:
        """Register a file as archived."""
        if file.name in self._files:
            raise ValueError(f"file {file.name!r} already archived")
        self._files[file.name] = file
        return file

    def lookup(self, name: str) -> ArchiveFile:
        """Find an archived file."""
        try:
            return self._files[name]
        except KeyError:
            raise KeyError(f"no archived file {name!r}") from None

    def retrieve(
        self,
        network: "Network",
        name: str,
        dest_host: str,
        *,
        label: str = "hpss",
    ) -> Event:
        """Stream a whole file to ``dest_host``; value is TransferStats.

        There is deliberately no offset/length parameter: HPSS "only
        provide[s] full file, not block level, access to data".
        """
        file = self.lookup(name)
        env = network.env

        def proc():
            yield env.timeout(self.mount_latency)
            conn = TcpConnection(network, self.host.name, dest_host)
            conn.set_host_cap(self.drive_rate)
            stats = yield conn.send(file.size, label=f"{label}:{name}")
            return stats

        return env.process(proc())

    def retrieval_time_estimate(self, name: str) -> float:
        """Lower bound on retrieval latency (mount + drive-limited)."""
        file = self.lookup(name)
        return self.mount_latency + file.size / self.drive_rate
