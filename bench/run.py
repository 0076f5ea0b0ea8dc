#!/usr/bin/env python3
"""The benchmark's one command.

Three ways in, one measurement underneath:

``python3 bench/run.py [--seed S] [--rounds R] [--output F] [--quick]``
    The full protocol.  R rounds; a round runs each of the five
    workloads once, each in a fresh single-threaded child process, so
    the rounds interleave the workloads and a noisy minute on a shared
    box is spread over all of them.  One extra traced round follows.
    Prints every metric by name with its unit and writes the result
    envelope (``bench/compare.py`` compares two of them).

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, as the benchmark driver runs it (``BENCHMARK.json``):
    as many rounds as fit in S seconds (at least three), or with
    ``--trace 1`` one untraced and one traced round.  The last line of
    standard output is one JSON object: ``correct``, ``attempted``,
    ``failed``, ``metrics``.

``--child W`` is the round itself (internal): set-up, exactly one cold
pass, the output checks -- or, with ``--prepare``, writing the dataset
the rounds will read.

Host time is what the simulator costs to run; ``sim_*`` quantities are
what the modelled Visapult pipeline does.  The second kind, and every
count and digest, must repeat bit for bit between rounds -- a mismatch
fails the run.
"""

import time

_T0 = time.perf_counter()  # a child's set-up clock starts here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: scratch for generated datasets: inside the checkout, one directory
#: per run, removed on exit
WORK_DIR = os.path.join(ROOT, ".bench_work")
RUN_DIR = os.path.join(WORK_DIR, str(os.getpid()))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: ``bench`` is imported as a package from the checkout root, never as
#: loose modules: ``bench/trace.py`` must not shadow the stdlib ``trace``
sys.path[:] = [SRC, ROOT] + [p for p in sys.path if p != BENCH_DIR]

#: measured on the host clock, one sample per round, and how the
#: samples of a run reduce to the reported value.  The sandbox has fast
#: episodes as well as slow ones, so the median of interleaved rounds
#: is the steady estimator, not the minimum (README, "Why the median").
HOST_REDUCE = {
    "setup_s": statistics.median,
    "host_s": statistics.median,
    "peak_rss_mb": max,
}
#: a metric that does not apply to a workload reads exactly this there
NOT_APPLICABLE = 1.0
MIN_ROUNDS_TIMED = 3
MIN_ROUNDS_FULL = 5
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a trustworthy result."""


def load_spec() -> dict:
    with open(SPEC_PATH) as f:
        return json.load(f)


# -- one round: the child process ------------------------------------------

def child_main(
    name: str, seed: int, quick: bool, trace_on: bool, workdir: str,
    prepare_only: bool,
) -> int:
    """Set-up, exactly one cold pass, checks; one JSON line on stdout."""
    from bench import workloads  # numpy + repro: the bulk of set-up

    workload = workloads.WORKLOADS[name]
    if prepare_only:
        if workload.prepare is not None:
            workload.prepare(seed, quick, workdir)
        return 0
    inputs = workload.build(seed, quick, workdir)
    setup_s = time.perf_counter() - _T0
    rollup = None
    if trace_on:
        from bench import trace

        raw, rollup = trace.traced(lambda: workload.run(inputs), BENCH_DIR)
        host_s = rollup["wall_s"]
    else:
        start = time.perf_counter()
        raw = workload.run(inputs)
        host_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = workload.report(inputs, raw)
    print(json.dumps({
        "host": {
            "setup_s": setup_s, "host_s": host_s, "peak_rss_mb": peak_rss_mb,
        },
        "exact": {
            "metrics": report.metrics,
            "counts": report.counts,
            "digests": report.digests,
            "attempted": report.attempted,
            "undelivered": report.undelivered,
        },
        "failed": report.failed,
        "failures": report.failures,
        "notes": report.notes,
        "trace": rollup,
    }))
    return 0


def _spawn(name: str, seed: int, quick: bool, workdir: str, *flags) -> str:
    """Run ``--child name`` in a fresh single-threaded interpreter and
    return its standard output.

    The parent stays a bare interpreter on purpose: a child's
    ``ru_maxrss`` starts from the parent's resident size at fork, so
    anything heavy done here would put a floor under ``peak_rss_mb``.
    """
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    command = [
        sys.executable, os.path.join(BENCH_DIR, "run.py"),
        "--child", name, "--seed", str(seed), "--workdir", workdir, *flags,
    ] + (["--quick"] if quick else [])
    try:
        # subprocess.run kills and reaps the child on timeout
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{name}: child still running after {CHILD_TIMEOUT_S} s"
        ) from None
    if proc.returncode != 0:
        raise BenchError(f"{name}: child exited {proc.returncode}")
    return proc.stdout


def prepare(name: str, seed: int, quick: bool) -> str:
    """Write the datasets ``name`` reads, once per run; returns the
    workload's scratch directory (inside the checkout)."""
    workdir = os.path.join(RUN_DIR, name)
    os.makedirs(workdir)
    _spawn(name, seed, quick, workdir, "--prepare")
    return workdir


def run_round(
    name: str, seed: int, quick: bool, trace_on: bool, workdir: str
) -> dict:
    """One round of one workload: set-up, one cold pass, the checks."""
    out = _spawn(name, seed, quick, workdir, "--trace", str(int(trace_on)))
    return json.loads(out.strip().splitlines()[-1])


# -- reducing rounds ---------------------------------------------------------

def reduce_rounds(name: str, rounds: list, spec: dict, traced=None) -> dict:
    """Fold a workload's rounds into its end-to-end metrics.

    Host times come from the untraced ``rounds`` only; the ``traced``
    round, when given, is held to round 0's exact quantities like any
    other.  Returns ``{"metrics", "attempted", "failed", "undelivered",
    "problems"}``; ``problems`` lists failed output checks and every
    exact quantity that differed between rounds.
    """
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    first = rounds[0]["exact"]
    problems = list(rounds[0]["failures"])
    checked = rounds + ([traced] if traced is not None else [])
    for index, other in enumerate(checked[1:], start=1):
        for section, value in other["exact"].items():
            if value != first[section]:
                problems.append(
                    f"{name}: round {index} {section} differ from round 0 "
                    f"(same seed must give the same bytes)"
                )
        problems.extend(
            f for f in other["failures"] if f not in problems
        )
    failed = max(r["failed"] for r in checked)
    attempted = first["attempted"]
    lost = min(attempted, first["undelivered"] + failed)
    metrics = {}
    for metric, reducer in HOST_REDUCE.items():
        samples = [r["host"][metric] for r in rounds]
        metrics[metric] = {
            "value": reducer(samples),
            "unit": units[metric],
            "samples": samples,
        }
    for metric, value in first["metrics"].items():
        metrics[metric] = {"value": value, "unit": units[metric]}
        if metric in rounds[0]["notes"]:
            metrics[metric]["note"] = rounds[0]["notes"][metric]
    metrics["delivered_share"] = {
        "value": 1.0 - lost / attempted,
        "unit": units["delivered_share"],
        "note": f"failed_share {lost / attempted:.4g} = {lost} of "
                f"{attempted} frames",
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "undelivered": first["undelivered"],
        "problems": problems,
    }


def layer_metrics(untraced_host_s: float, traced: dict, spec: dict) -> dict:
    """Every ``per_layer`` metric of the spec from one traced round."""
    rollup = traced["trace"]
    values = dict(traced["exact"]["counts"])
    values.update(rollup["counts"])
    values.update(
        {f"{layer}.self_s": s for layer, s in rollup["self_s"].items()}
    )
    values["trace.overhead"] = traced["host"]["host_s"] / untraced_host_s
    values["trace.py_calls"] = rollup["py_calls"]
    values["trace.coverage"] = rollup["coverage"]
    known = {m["name"]: m["unit"] for m in spec["per_layer"]}
    unknown = sorted(set(values) - set(known))
    if unknown:
        raise BenchError(f"per-layer metrics not in BENCHMARK.json: {unknown}")
    return {
        metric: {"value": values.get(metric, 0), "unit": unit}
        for metric, unit in known.items()
    }


# -- the driver's contract: one workload, one JSON line --------------------

def contract_main(args, spec: dict) -> int:
    workdir = prepare(args.workload, args.seed, args.quick)
    start = time.perf_counter()
    traced = None
    if args.trace:
        rounds = [
            run_round(args.workload, args.seed, args.quick, False, workdir)
        ]
        traced = run_round(
            args.workload, args.seed, args.quick, True, workdir
        )
    else:
        rounds = []
        while True:
            rounds.append(run_round(
                args.workload, args.seed, args.quick, False, workdir
            ))
            elapsed = time.perf_counter() - start
            if (
                len(rounds) >= MIN_ROUNDS_TIMED
                and elapsed + elapsed / len(rounds) > args.seconds
            ):
                break
    reduced = reduce_rounds(args.workload, rounds, spec, traced)
    for problem in reduced["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    if traced is not None:
        metrics = layer_metrics(
            reduced["metrics"]["host_s"]["value"], traced, spec
        )
    else:
        metrics = {
            m["name"]: reduced["metrics"].get(
                m["name"], {"value": NOT_APPLICABLE, "unit": m["unit"]}
            )
            for m in spec["end_to_end"]
        }
    correct = not reduced["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": reduced["attempted"],
        "failed": reduced["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in metrics.items()
        },
    }))
    return 0 if correct else 1


# -- the full protocol -----------------------------------------------------------

def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _load_average(nproc: int) -> float:
    load = os.getloadavg()[0]
    if load > nproc:
        print(f"WARNING: 1-min load average {load:.2f} exceeds "
              f"nproc={nproc}; host times will be noisy")
    return load


def _print_workload(name: str, reduced: dict, layers: dict) -> None:
    print(f"== {name}: attempted {reduced['attempted']} frames, "
          f"failed {reduced['failed']}, "
          f"undelivered {reduced['undelivered']}")
    for metric, m in reduced["metrics"].items():
        line = f"  {metric:<20} {m['value']:.6g} {m['unit']}"
        if "samples" in m:
            samples = m["samples"]
            q1, median, q3 = statistics.quantiles(samples, n=4)
            line += (
                f"   (n={len(samples)}: min {min(samples):.4g}, median "
                f"{median:.4g}, q1 {q1:.4g}, q3 {q3:.4g})"
            )
        if "note" in m:
            line += f"   ({m['note']})"
        print(line)
    print("  -- per layer (traced round)")
    for metric, m in layers.items():
        print(f"  {metric:<36} {m['value']:.6g} {m['unit']}")


def full_main(args, spec: dict) -> int:
    if args.rounds < (2 if args.quick else MIN_ROUNDS_FULL):
        raise BenchError(
            f"--rounds must be at least {MIN_ROUNDS_FULL} (2 with --quick)"
        )
    names = [w["name"] for w in spec["workloads"]]
    nproc = os.cpu_count() or 1
    load_start = _load_average(nproc)
    workdirs = {name: prepare(name, args.seed, args.quick) for name in names}
    rounds = {name: [] for name in names}
    for index in range(args.rounds):
        for name in names:
            rounds[name].append(
                run_round(name, args.seed, args.quick, False, workdirs[name])
            )
        print(f"round {index + 1}/{args.rounds} done", file=sys.stderr)
    traced = {
        name: run_round(name, args.seed, args.quick, True, workdirs[name])
        for name in names
    }
    load_end = _load_average(nproc)

    metrics, per_layer, edges, checks, problems = {}, {}, {}, {}, []
    for name in names:
        reduced = reduce_rounds(name, rounds[name], spec, traced[name])
        layers = layer_metrics(
            reduced["metrics"]["host_s"]["value"], traced[name], spec
        )
        _print_workload(name, reduced, layers)
        metrics[name] = reduced["metrics"]
        per_layer[name] = layers
        edges[name] = traced[name]["trace"]["edges"]
        checks[name] = {
            key: reduced[key]
            for key in ("attempted", "failed", "undelivered", "problems")
        }
        problems.extend(reduced["problems"])
    for problem in problems:
        print(f"FAILED: {problem}")

    if args.output:
        import numpy
        from repro.service import result_payload

        payload = result_payload(
            "bench",
            metrics,
            per_layer=per_layer,
            edges=edges,
            checks=checks,
            environment={
                "commit": _git_commit(),
                "seed": args.seed,
                "rounds": args.rounds,
                "quick": args.quick,
                "nproc": nproc,
                "load_1min_start": load_start,
                "load_1min_end": load_end,
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            },
        )
        with open(args.output, "w") as f:
            json.dump(payload, f, indent=1)
            f.write("\n")
        print(f"wrote {args.output}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="each workload scaled to under 3 s (tests)")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--output", help="write the result envelope here")
    parser.add_argument("--workload", help="run one workload (driver mode)")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--prepare", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"bench/run.py: no program to measure at {SRC}",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(
            args.child, args.seed, args.quick, bool(args.trace),
            args.workdir, args.prepare,
        )
    spec = load_spec()
    try:
        if args.workload:
            if args.workload not in {w["name"] for w in spec["workloads"]}:
                parser.error(f"unknown workload {args.workload!r}")
            return contract_main(args, spec)
        return full_main(args, spec)
    except BenchError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)


if __name__ == "__main__":
    sys.exit(main())
