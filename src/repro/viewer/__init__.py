"""The Visapult viewer.

"The viewer itself is a multithreaded application, with one thread
dedicated to interactive rendering, and other threads dedicated to
receiving data from the Visapult back end visualization processes over
multiple simultaneous network connections" (section 3.4).

:mod:`~repro.viewer.sim` models the viewer's network half on the
simulator (per-PE receiver connections, payload accounting, V_* event
logging);
:mod:`repro.live.viewer` is the real threaded implementation that
builds scene graphs from actual textures.
"""

from repro.viewer.sim import SimViewer

__all__ = ["SimViewer"]
