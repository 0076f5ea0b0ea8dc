#!/usr/bin/env python3
"""Compare two result envelopes written by ``bench/run.py --output``.

``python3 bench/compare.py A.json B.json`` prints one row per
(end-to-end metric, workload): both values, the ratio B/A (A is the
base), the bound from ``BENCHMARK.json`` and a verdict:

``same``        an exact quantity that is bit-identical, or a measured
                one within its bound
``better``      moved the right way: by more than the bound, or every
                round of B beats every round of A
``worse``       moved the wrong way by more than the bound (for an
                exact quantity -- ``sim_*``, errors, shares -- by
                anything at all: the simulator is deterministic, so a
                host-side change has no business moving them)
``unresolved``  within the bound, but the spread between rounds
                (quartile distance over median, the wider of the two
                files) is itself wider than the bound, so "unchanged"
                cannot be claimed

Exact per-layer counts that differ are listed after the table.
Exits non-zero when any row is ``worse``.
"""

import json
import os
import statistics
import sys

SPEC_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json",
)


def _spread(samples) -> float:
    if len(samples) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Judge metric record ``b`` against base ``a``."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"])
    samples_a, samples_b = a.get("samples"), b.get("samples")
    if not samples_a or not samples_b:
        if b["value"] == a["value"]:
            return "same"
        return "worse" if worse_by > 0 else "better"
    if samples_a == samples_b:
        return "same"
    if worse_by > bound:
        return "worse"
    if max(sign * s for s in samples_b) < min(sign * s for s in samples_a):
        return "better"
    if max(_spread(samples_a), _spread(samples_b)) > bound:
        return "unresolved"
    return "better" if worse_by < -bound else "same"


def compare(a: dict, b: dict, spec: dict):
    """Rows ``(metric, workload, a, b, ratio, bound, verdict)`` plus the
    per-layer exact counts that differ."""
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for workload in spec["workloads"]:
            rec_a = a["metrics"].get(workload["name"], {}).get(name)
            rec_b = b["metrics"].get(workload["name"], {}).get(name)
            if rec_a is None or rec_b is None:
                continue  # the metric does not apply to this workload
            rows.append((
                name, workload["name"], rec_a["value"], rec_b["value"],
                rec_b["value"] / rec_a["value"], metric["bound"],
                verdict(rec_a, rec_b, metric["better"], metric["bound"]),
            ))
    drifted = []
    for workload, layers in a.get("per_layer", {}).items():
        for name, rec in layers.items():
            if name.endswith(".self_s") or name.startswith("trace."):
                continue
            other = b.get("per_layer", {}).get(workload, {}).get(name)
            if other is not None and other["value"] != rec["value"]:
                drifted.append(
                    (name, workload, rec["value"], other["value"])
                )
    return rows, drifted


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 bench/compare.py A.json B.json",
              file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        a = json.load(f)
    with open(argv[1]) as f:
        b = json.load(f)
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    rows, drifted = compare(a, b, spec)
    print(f"{'metric':<18} {'workload':<14} {'A (base)':>14} {'B':>14} "
          f"{'B/A':>8} {'bound':>6}  verdict")
    for name, workload, va, vb, ratio, bound, result in rows:
        print(f"{name:<18} {workload:<14} {va:>14.6g} {vb:>14.6g} "
              f"{ratio:>8.4f} {bound:>6.2f}  {result}")
    for name, workload, va, vb in drifted:
        print(f"count differs: {name} on {workload}: {va} -> {vb}")
    worse = sum(1 for row in rows if row[-1] == "worse")
    print(f"{len(rows)} rows, {worse} worse, "
          f"{len(drifted)} exact counts differ")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
