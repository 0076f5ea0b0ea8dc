"""The live pipeline: Visapult over real sockets and threads.

This package is threads and sockets around one slab kernel,
:func:`repro.ibravr.render_payloads` on the back end and
:func:`repro.ibravr.rendering_from_payloads` in the viewer. Back end
PEs are threads that read actual voxels and ship the kernel's payloads
over localhost TCP sockets in the :mod:`repro.protocol` wire format;
the viewer is a multi-threaded process with one I/O service thread per
PE and a decoupled render thread updating an
:class:`~repro.ibravr.IbravrModel` behind a
:class:`~repro.live.sync.SceneLock` (Figure 18, both columns). The
overlapped back end uses the Appendix B semaphore pair and double
buffer from :mod:`repro.live.sync`.
"""

from repro.live.backend import LiveBackEnd
from repro.live.viewer import LiveViewer

__all__ = ["LiveBackEnd", "LiveViewer"]
