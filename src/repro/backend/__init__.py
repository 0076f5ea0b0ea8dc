"""The Visapult back end.

"The back end is a parallelized software volume rendering engine that
uses a domain-decomposed partitioning, including the capability to
perform parallel read operations over the network to a storage cache
as well as parallel I/O to the viewer" (section 3.0).

Two implementations share the same structure:

- :mod:`~repro.backend.sim` runs on the discrete-event simulator and
  reproduces the paper's WAN campaigns (every PE is a process; the
  overlapped mode implements Appendix B's reader-thread/render-process
  semaphore handshake with :class:`~repro.simcore.sync.SimSemaphore`);
- :mod:`repro.live.backend` runs the same pipeline over real threads
  and localhost sockets with actual voxels.

:mod:`~repro.backend.tiles` holds the pure geometry the simulated back
end's tile mode runs on (:class:`~repro.backend.tiles.TilePlan`).
"""

from repro.backend.sim import BackEndTiming, SimBackEnd

__all__ = ["BackEndTiming", "SimBackEnd"]
