"""Host models: NIC capacity, CPU pools, compute tasks.

The paper contrasts three host classes:

- **Cluster nodes** (CPlant): one CPU per node, per-node NICs. The
  render thread and the detached reader thread share the single CPU,
  so overlapped mode inflates and jitters load times
  (``shared_cpu_io=True``).
- **SMPs** (SGI Onyx2, Sun E4500): many CPUs behind one shared NIC;
  reader threads land on their own CPUs, so no contention -- but every
  PE's traffic squeezes through the one NIC.
- **Desktops/viewers**: modest NIC, a couple of CPUs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.simcore.events import Event
from repro.simcore.fluid import FluidResource, FluidTask
from repro.util.units import bytes_per_sec_to_mbps
from repro.util.validation import check_in_range, check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.topology import Network


class Host:
    """A machine attached to the network.

    Parameters
    ----------
    name:
        Unique host name within the network.
    nic_rate:
        Effective NIC throughput in bytes/second. This is the
        calibrated *host* limit (driver, bus, TCP stack), which on
        period hardware is often well below the medium's line rate
        (e.g. ~90 Mbps through a gigabit NIC on a 336 MHz E4500).
    n_cpus:
        Number of reference CPUs in the host's compute pool. Compute
        work is expressed in reference-CPU seconds.
    shared_cpu_io:
        True on single-CPU cluster nodes where a reader thread and the
        render process contend for the same CPU (Appendix B /
        Figure 15 discussion).
    """

    def __init__(
        self,
        name: str,
        *,
        nic_rate: float,
        n_cpus: int = 1,
        shared_cpu_io: bool = False,
    ):
        check_positive("nic_rate", nic_rate)
        if n_cpus < 1:
            raise ValueError(f"n_cpus must be >= 1, got {n_cpus}")
        self.name = name
        self.nic_rate = float(nic_rate)
        self.n_cpus = int(n_cpus)
        self.shared_cpu_io = bool(shared_cpu_io)
        self.nic = FluidResource(f"nic:{name}", nic_rate)
        # CPU pool capacity in *reference* CPU-seconds per second.
        self.cpu = FluidResource(f"cpu:{name}", float(n_cpus))
        self.network: Optional["Network"] = None

    def attach(self, network: "Network") -> None:
        """Register this host's resources with ``network``'s scheduler."""
        self.network = network
        network.sched.add_resource(self.nic)
        network.sched.add_resource(self.cpu)

    # -- computation -----------------------------------------------------
    def compute(
        self,
        cpu_seconds: float,
        *,
        label: str = "compute",
        share: float = 1.0,
    ) -> Event:
        """Run ``cpu_seconds`` of reference-CPU work on one thread.

        A single thread can use at most one CPU, i.e. a rate cap of one
        reference-second per second, scaled by ``share`` when the thread
        is known to be contending with co-scheduled I/O processing (the
        cluster overlapped mode).
        """
        check_non_negative("cpu_seconds", cpu_seconds)
        check_in_range("share", share, 0.0, 1.0)
        if self.network is None:
            raise RuntimeError(f"host {self.name!r} not attached to a network")
        task = FluidTask(
            f"{label}@{self.name}",
            work=cpu_seconds,
            usage={self.cpu: 1.0},
            cap=float(share),
        )
        return self.network.sched.submit(task)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Host({self.name!r}, nic={bytes_per_sec_to_mbps(self.nic_rate):.0f} "
            f"Mbps, cpus={self.n_cpus})"
        )
