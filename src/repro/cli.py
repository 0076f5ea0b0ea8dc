"""Command-line interface: run campaigns, probes and demos.

Installed as the ``visapult`` console script::

    visapult list
    visapult campaign lan_e4500 --overlapped --nlv
    visapult campaign lan_e4500 --scaled --sanitize
    visapult campaign --faults examples/plans/sc99_flaky.json --sanitize
    visapult campaign sc99-flaky --stripe 4+1
    visapult serve-sim sc99-multiviewer --viewers 6 --scaled
    visapult lint
    visapult check src/repro --json CHECK_findings.json
    visapult iperf --wan esnet --streams 8
    visapult artifacts --angles 0 16 45
    visapult live --pes 4 --steps 3 --overlapped
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__


def cmd_list(_args) -> int:
    from repro.config import topology_names
    from repro.core import campaign_names

    print("available campaigns:")
    for name in campaign_names():
        print(f"  {name}")
    print("available topologies (serve-sim --topology):")
    for name in topology_names():
        print(f"  {name}")
    return 0


def _write_payload(path: str, payload) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"{payload['kind']} metrics -> {path}")


def _resolved(args, resolve):
    """``resolve()``'s campaign config, or ``None`` after one stderr
    line saying why the flags cannot be honoured (exit 2, no
    traceback)."""
    if args.tile_size is not None and not args.tiles:
        error = "--tile-size requires --tiles"
    else:
        try:
            return resolve()
        except KeyError as exc:
            error = f"{exc.args[0]}; try 'visapult list'"
        except ValueError as exc:
            error = str(exc)
    print(error, file=sys.stderr)
    return None


def cmd_campaign(args) -> int:
    from repro.config import ExperimentConfig
    from repro.core import run_campaign
    from repro.netlogger import lifeline_plot

    # A fault drill file can carry the whole experiment (campaign,
    # scale, seed, policy); explicit CLI flags win over the drill.
    drill = None
    if args.faults is not None:
        from repro.faults import load_drill

        drill = load_drill(args.faults)
    name = args.name or (drill.campaign if drill is not None else None)
    if name is None:
        print("no campaign named (positionally or in the drill file); "
              "try 'visapult list'", file=sys.stderr)
        return 2
    experiment = ExperimentConfig(
        campaign=name,
        overlapped=args.overlapped
        or (drill is not None and drill.overlapped),
        frames=args.frames,
        scaled=args.scaled or (drill is not None and drill.scaled),
        seed=args.seed
        if args.seed is not None
        else (drill.seed if drill is not None else None),
        sanitize=args.sanitize,
        faults=drill.plan if drill is not None else None,
        policy=drill.policy if drill is not None else None,
        tiles=args.tiles,
        tile_size=args.tile_size,
        stripe=args.stripe,
    )
    config = _resolved(args, experiment.to_campaign_config)
    if config is None:
        return 2
    result = run_campaign(
        config,
        sanitize=args.sanitize,
        ulm_path=args.ulm,
        alloc_stats=args.alloc_stats,
    )
    print(result.summary())
    if args.json is not None:
        _write_payload(args.json, result.to_payload())
    if args.nlv and hasattr(result, "event_log"):
        print()
        print(lifeline_plot(result.event_log, width=args.width))
    if args.sanitize:
        from repro.analysis import SanitizerReport

        report = SanitizerReport(
            findings=getattr(result, "sanitizer_findings", [])
        )
        print(report.summary())
        if not report.clean:
            return 1
    return 0


def cmd_serve(args) -> int:
    from repro.config import ExperimentConfig
    from repro.core import CampaignConfig, run_campaign
    from repro.service import CacheConfig, ServiceCampaign

    experiment = ExperimentConfig(
        campaign=args.name,
        frames=args.frames,
        scaled=args.scaled,
        seed=args.seed,
        tiles=args.tiles,
        tile_size=args.tile_size,
        stripe=args.stripe,
        topology=args.topology,
    )

    def resolve():
        config = experiment.to_campaign_config()
        if isinstance(config, CampaignConfig):
            raise ValueError(
                f"{args.name!r} is a single-session campaign; "
                "use 'visapult campaign'"
            )
        # The two CLI-only flags: the population size and the cache.
        viewers = args.sessions if args.sessions is not None else args.viewers
        if viewers is not None:
            config = config.with_changes(
                workload=config.workload.with_changes(n_viewers=viewers)
            )
        if args.no_cache:
            if not isinstance(config, ServiceCampaign):
                raise ValueError(
                    "--no-cache applies to full-world service campaigns, "
                    "not shard campaigns"
                )
            config = config.with_changes(cache=CacheConfig(capacity_bytes=0))
        return config

    config = _resolved(args, resolve)
    if config is None:
        return 2
    result = run_campaign(
        config, ulm_path=args.ulm, alloc_stats=args.alloc_stats
    )
    print(result.summary())
    if args.json is not None:
        _write_payload(args.json, result.to_payload())
    return 0


def cmd_lint(args) -> int:
    from repro.analysis import run_lint

    findings = run_lint(args.paths)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    print("lint: clean")
    return 0


def cmd_check(args) -> int:
    import json

    from repro.analysis.check import run_check, to_sarif

    result = run_check(args.paths)
    if args.json is not None:
        report = json.dumps(result.to_dict(), indent=2)
        if args.json == "-":
            print(report)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(report + "\n")
            print(f"findings report -> {args.json}")
    if args.sarif is not None:
        with open(args.sarif, "w", encoding="utf-8") as fh:
            json.dump(to_sarif(result), fh, indent=2)
            fh.write("\n")
        print(f"SARIF report -> {args.sarif}")
    if args.json != "-":
        print(result.summary())
    return 0 if result.clean else 1


def cmd_iperf(args) -> int:
    from repro.core.platforms import Wans
    from repro.netsim import Host, Link, Network, TcpParams, iperf
    from repro.util.units import MB, mbps

    wans = {
        "nton": Wans.NTON_2000,
        "nton-tuned": Wans.NTON_TUNED,
        "esnet": Wans.ESNET,
        "scinet": Wans.SCINET99,
        "lan": Wans.LAN_GIGE,
    }
    spec = wans[args.wan]
    net = Network()
    net.add_host(Host("src", nic_rate=mbps(2000)))
    net.add_host(Host("dst", nic_rate=mbps(2000)))
    link = net.add_link(
        Link(spec.name, rate=spec.rate, latency=spec.latency,
             efficiency=spec.efficiency,
             background_rate=spec.background_rate)
    )
    net.add_route("src", "dst", [link])
    result = iperf(
        net, "src", "dst",
        nbytes=args.megabytes * MB,
        streams=args.streams,
        params=TcpParams(max_window=spec.tcp_window),
    )
    print(
        f"{spec.name}: {result.mbps:.1f} Mbps aggregate over "
        f"{args.streams} stream(s) ({args.megabytes} MB in "
        f"{result.duration:.2f} s)"
    )
    return 0


def cmd_artifacts(args) -> int:
    from repro.datagen import CombustionConfig, combustion_field
    from repro.ibravr import artifact_sweep
    from repro.volren import TransferFunction

    volume = combustion_field(
        0.0,
        CombustionConfig(shape=(args.size,) * 3, n_kernels=4,
                         front_sharpness=10.0),
    )
    tf = TransferFunction.opaque_fire()
    sweep = artifact_sweep(
        volume, tf, args.angles, n_slabs=args.slabs,
        image_size=args.image_size,
        axis_switching=args.axis_switching,
    )
    mode = "axis switching" if args.axis_switching else "slabs pinned to X"
    print(f"IBRAVR artifact sweep ({mode}):")
    for s in sweep:
        print(
            f"  {s.angle_deg:6.1f} deg : rms {s.rms_error:.4f} "
            f"(slab axis {s.slab_axis})"
        )
    return 0


def cmd_live(args) -> int:
    from repro.datagen import (
        CombustionConfig,
        SyntheticTimeSeries,
        TimeSeriesMeta,
        combustion_field,
    )
    from repro.live import LiveBackEnd, LiveViewer

    shape = (args.size,) * 3
    cfg = CombustionConfig(shape=shape)
    meta = TimeSeriesMeta(name="cli-live", shape=shape,
                          n_timesteps=args.steps)
    source = SyntheticTimeSeries(
        meta, lambda t: combustion_field(t, cfg), dt=0.5
    )
    viewer = LiveViewer(frame_size=args.image_size)
    port = viewer.start()
    backend = LiveBackEnd(
        source, args.pes, port, overlapped=args.overlapped,
        n_timesteps=args.steps,
    )
    backend.run(timeout=300.0)
    ok = viewer.wait_done(timeout=60.0)
    viewer.stop()
    if viewer.errors:
        raise viewer.errors[0]
    print(
        f"live run: {args.steps} timesteps x {args.pes} PEs "
        f"({'overlapped' if args.overlapped else 'serial'}); "
        f"viewer assembled {len(viewer.frames_assembled)} frames, "
        f"drew {viewer.rendered_images} images"
    )
    if args.output and viewer.last_image is not None:
        from repro.util.image import save_ppm

        print(f"final frame -> {save_ppm(args.output, viewer.last_image)}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="visapult",
        description="Visapult reproduction: campaigns, probes, demos.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list campaign names").set_defaults(
        fn=cmd_list
    )

    p = sub.add_parser("campaign", help="run a simulated campaign")
    p.add_argument("name", nargs="?", default=None,
                   help="campaign name (may come from the drill file)")
    p.add_argument("--overlapped", action="store_true")
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--scaled", action="store_true",
                   help="shrink the dataset for a fast demo")
    p.add_argument("--seed", type=int, default=None,
                   help="override the campaign's random seed")
    p.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="inject faults from a plan/drill JSON file")
    p.add_argument("--ulm", default=None, metavar="PATH",
                   help="write the run's ULM event log to this file")
    p.add_argument("--nlv", action="store_true",
                   help="print the NLV lifeline plot")
    p.add_argument("--width", type=int, default=100)
    p.add_argument("--sanitize", action="store_true",
                   help="run with the concurrency sanitizer attached")
    p.add_argument("--alloc-stats", action="store_true",
                   help="log ALLOC_* allocator-cost events into the ULM")
    p.add_argument("--tiles", action="store_true",
                   help="tile-routed transport with delta transmission")
    p.add_argument("--tile-size", type=int, default=None, metavar="PX",
                   help="screen tile edge in pixels (default 32)")
    p.add_argument("--stripe", default=None, metavar="SPEC",
                   help="RAID-5 parity striping on the DPSS with "
                        "redundant k-of-n reads, e.g. '4+1' (hedged "
                        "repair) or '4+1:eager'")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the versioned result payload to this file")
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser(
        "serve-sim", help="run a multi-viewer service campaign"
    )
    p.add_argument("name", nargs="?", default="sc99-multiviewer",
                   help="service campaign name (default: sc99-multiviewer)")
    p.add_argument("--viewers", type=int, default=None,
                   help="override the workload's viewer count")
    p.add_argument("--frames", type=int, default=None,
                   help="timesteps each session watches")
    p.add_argument("--scaled", action="store_true",
                   help="shrink the dataset for a fast demo")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the shared render cache")
    p.add_argument("--seed", type=int, default=None,
                   help="override the service run's random seed")
    p.add_argument("--ulm", default=None, metavar="PATH",
                   help="write the run's ULM event log to this file")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write service metrics as JSON to this file")
    p.add_argument("--alloc-stats", action="store_true",
                   help="log ALLOC_* allocator-cost events into the ULM")
    p.add_argument("--tiles", action="store_true",
                   help="tile-routed transport with delta transmission "
                        "and the tile-keyed shared cache")
    p.add_argument("--tile-size", type=int, default=None, metavar="PX",
                   help="screen tile edge in pixels (default 32)")
    p.add_argument("--stripe", default=None, metavar="SPEC",
                   help="full-world campaigns: RAID-5 parity striping "
                        "on the shared DPSS site, e.g. '4+1'")
    p.add_argument("--topology", default=None, metavar="NAME",
                   help="shard campaigns: serve over this named "
                        "multi-site topology (see 'visapult list')")
    p.add_argument("--sessions", type=int, default=None,
                   help="total offered sessions (alias of --viewers)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "lint", help="check project invariants (VIS1xx rules)"
    )
    p.add_argument("paths", nargs="*",
                   help="files/dirs to lint (default: the repro package)")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "check",
        help="determinism & protocol-typestate analyzer (VIS2xx rules)",
    )
    p.add_argument("paths", nargs="*",
                   help="files/dirs to check (default: the repro package)")
    p.add_argument("--json", nargs="?", const="-", default=None,
                   metavar="PATH",
                   help="write the findings report as JSON "
                        "(default stdout)")
    p.add_argument("--sarif", default=None, metavar="PATH",
                   help="write a SARIF 2.1.0 report for PR annotation")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("iperf", help="probe a simulated WAN path")
    p.add_argument("--wan", choices=["nton", "nton-tuned", "esnet",
                                     "scinet", "lan"], default="esnet")
    p.add_argument("--streams", type=int, default=1)
    p.add_argument("--megabytes", type=float, default=100.0)
    p.set_defaults(fn=cmd_iperf)

    p = sub.add_parser("artifacts", help="IBRAVR artifact sweep")
    p.add_argument("--angles", type=float, nargs="+",
                   default=[0.0, 8.0, 16.0, 30.0, 45.0])
    p.add_argument("--slabs", type=int, default=8)
    p.add_argument("--size", type=int, default=48)
    p.add_argument("--image-size", type=int, default=64)
    p.add_argument("--axis-switching", action="store_true")
    p.set_defaults(fn=cmd_artifacts)

    p = sub.add_parser("live", help="run the live localhost pipeline")
    p.add_argument("--pes", type=int, default=2)
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--image-size", type=int, default=128)
    p.add_argument("--overlapped", action="store_true")
    p.add_argument("--output", default=None,
                   help="write the final frame to this PPM path")
    p.set_defaults(fn=cmd_live)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
