"""Visapult reproduction.

A from-scratch Python reproduction of the system described in

    W. Bethel, B. Tierney, J. Lee, D. Gunter, S. Lau,
    "Using High-Speed WANs and Network Data Caches to Enable Remote
    and Distributed Visualization", SC 2000 (LBNL-45365).

The package provides:

- :mod:`repro.simcore` -- a deterministic discrete-event simulation
  kernel with fluid (processor-sharing) resources.
- :mod:`repro.netsim` -- WAN/LAN/host models calibrated to the paper's
  testbeds (NTON, ESnet, SC99 SciNet, gigabit LANs).
- :mod:`repro.dpss` -- the Distributed-Parallel Storage System network
  block cache (master, block servers, striped datasets, parallel
  client).
- :mod:`repro.hpss` -- a tertiary-archive staging model.
- :mod:`repro.volren`, :mod:`repro.ibravr`, :mod:`repro.scenegraph` --
  the software volume renderer, IBR-assisted volume rendering, and the
  scene-graph/rasterizer used by the viewer.
- :mod:`repro.netlogger` -- NetLogger-style instrumentation and NLV
  analysis.
- :mod:`repro.backend`, :mod:`repro.viewer`, :mod:`repro.core` -- the
  Visapult back end, viewer, and campaign orchestration (the paper's
  primary contribution).
- :mod:`repro.live` -- threads and localhost sockets around the IBRAVR
  slab kernel (:mod:`repro.ibravr.payloads`), with Appendix B's
  semaphore pair and double buffer.

Quickstart::

    from repro.core import CampaignConfig, run_campaign
    result = run_campaign(CampaignConfig.lan_e4500(overlapped=True))
    print(result.summary())
"""

from repro._version import __version__

__all__ = ["__version__"]
