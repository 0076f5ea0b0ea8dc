"""The traced pass: cProfile, rolled up at the layer boundaries.

The profiler is installed from the benchmark's side only -- nothing
under ``src/`` knows it is being watched.  A *layer* is a package under
``src/repro`` (``simcore`` is cut into five, see :data:`LAYERS`).  A
*span* is a stretch of execution inside one layer's files entered from
another layer, by a call or by a generator resume: cProfile records a
resumed generator as a call from the resumer, which is what makes the
``dpss``/``backend``/``viewer`` processes visible at all -- they are
generators driven from ``simcore/process.py`` and wrapping their public
entry points alone would see none of their time.

Spans are never stored one by one.  They are aggregated per
caller-layer -> callee-layer edge (count, inclusive seconds, seconds in
the entry functions themselves, the heaviest entry functions) from the
profiler's in-memory call graph and handed back once, when the pass is
over.  A layer's self time is the time spent in its own files plus the
time of the numpy / builtin / stdlib functions it called, which have no
layer of their own and are charged to whoever called them.  Summed over
the layers that is everything the profiler saw, so ``trace.coverage``
(the sum over the traced wall-clock) says how much of the pass escaped
attribution.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer -> path prefixes under ``src/repro`` (directories end in "/")
_LAYER_PATHS = {
    "simcore.env": (
        "simcore/env.py", "simcore/events.py", "simcore/process.py",
        "simcore/calendar.py",
    ),
    "simcore.fluid": ("simcore/fluid.py", "simcore/resources.py"),
    "simcore.fairshare": ("simcore/fairshare.py",),
    "simcore.flowclass": ("simcore/flowclass.py",),
    "simcore.pipeline": ("simcore/pipeline.py", "simcore/sync.py"),
    "netsim": ("netsim/",),
    "dpss": ("dpss/",),
    "faults": ("faults/",),
    "backend": ("backend/",),
    "viewer": ("viewer/",),
    "service": ("service/",),
    "netlogger": ("netlogger/",),
    "core": ("core/", "config.py", "api.py"),
    "volren": ("volren/",),
    "ibravr": ("ibravr/",),
    "scenegraph": ("scenegraph/",),
    "protocol": ("protocol/",),
    "datagen": ("datagen/",),
}

#: every layer a ``<layer>.self_s`` metric is reported for; ``other``
#: is the rest of ``src/repro`` (util, analysis, ...), the benchmark's
#: own driver code and anything with no caller inside the profile
LAYERS: Tuple[str, ...] = tuple(_LAYER_PATHS) + ("other",)

#: the public mutators whose call counts are reported as layer counts:
#: count name -> (file under src/repro, function name)
COUNTED_CALLS = {
    "simcore.env.events": ("simcore/env.py", "step"),
    "simcore.fluid.set_cap_calls": ("simcore/fluid.py", "set_cap"),
    "simcore.fluid.set_usage_calls": ("simcore/fluid.py", "set_usage"),
    "simcore.fluid.set_capacity_calls": ("simcore/fluid.py", "set_capacity"),
    "simcore.fluid.submit_calls": ("simcore/fluid.py", "submit"),
    "simcore.fairshare.fill_calls": ("simcore/fairshare.py", "fill_rates"),
    "netlogger.log_calls": ("netlogger/logger.py", "log"),
}
_MATRIX_FILL = ("simcore/fairshare.py", "_fill_rates_matrix")

_Func = Tuple[str, int, str]
_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep


def _repro_relpath(filename: str) -> Optional[str]:
    """Path of ``filename`` relative to ``src/repro``, or None."""
    at = filename.rfind(_REPRO_MARK)
    if at < 0:
        return None
    return filename[at + len(_REPRO_MARK):].replace(os.sep, "/")


def layer_of(filename: str, bench_dir: str) -> Optional[str]:
    """The layer owning ``filename``; None for numpy/builtin/stdlib."""
    rel = _repro_relpath(filename)
    if rel is None:
        return "other" if filename.startswith(bench_dir) else None
    for layer, prefixes in _LAYER_PATHS.items():
        if rel.startswith(prefixes):
            return layer
    return "other"


class _Rollup:
    """One pass over the profiler's call graph."""

    def __init__(self, stats: Dict[_Func, tuple], bench_dir: str):
        self.stats = stats
        self.own: Dict[_Func, Optional[str]] = {
            func: layer_of(func[0], bench_dir) for func in stats
        }
        self._shares: Dict[_Func, Dict[str, float]] = {}
        self._open: set = set()

    def shares(self, func: _Func) -> Dict[str, float]:
        """Layer -> share of ``func``'s time that layer is charged.

        A function in a layer's file belongs to it outright.  A foreign
        function is split over its callers in proportion to the
        inclusive time each spent in it, recursively, so
        ``np.mean -> _mean -> reduce`` lands on whoever called
        ``np.mean``.
        """
        known = self._shares.get(func)
        if known is not None:
            return known
        layer = self.own.get(func, "other")
        if layer is not None:
            out = {layer: 1.0}
        elif func in self._open:
            return {}  # call cycle among foreign functions
        else:
            self._open.add(func)
            callers = self.stats[func][4]
            weighted: Dict[str, float] = {}
            for caller, (nc, _cc, _tt, ct) in callers.items():
                weight = ct if ct > 0 else nc * 1e-12
                for name, share in self.shares(caller).items():
                    weighted[name] = weighted.get(name, 0.0) + weight * share
            self._open.discard(func)
            total = sum(weighted.values())
            out = (
                {name: w / total for name, w in weighted.items()}
                if total > 0
                else {"other": 1.0}
            )
        self._shares[func] = out
        return out

    def dominant(self, func: _Func) -> str:
        shares = self.shares(func)
        return max(shares, key=shares.get) if shares else "other"


def roll_up(profile: cProfile.Profile, wall_s: float, bench_dir: str) -> dict:
    """Reduce a finished profile to layer self times, edges and counts."""
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    roll = _Rollup(stats, bench_dir)
    self_s = {layer: 0.0 for layer in LAYERS}
    edges: Dict[Tuple[str, str], dict] = {}
    py_calls = 0
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        py_calls += nc
        for layer, share in roll.shares(func).items():
            self_s[layer] += tt * share
        callee = roll.own[func]
        if callee is None:
            continue
        for caller, (enc, _ecc, ett, ect) in callers.items():
            source = roll.dominant(caller)
            if source == callee:
                continue
            edge = edges.setdefault(
                (source, callee),
                {"count": 0, "inclusive_s": 0.0, "entry_self_s": 0.0,
                 "entries": {}},
            )
            edge["count"] += enc
            edge["inclusive_s"] += ect
            edge["entry_self_s"] += ett
            label = f"{_repro_relpath(func[0]) or 'bench'}:{func[2]}"
            edge["entries"][label] = edge["entries"].get(label, 0.0) + ect

    def calls(target: Tuple[str, str]) -> int:
        return sum(
            stats[func][1]
            for func in stats
            if func[2] == target[1] and _repro_relpath(func[0]) == target[0]
        )

    counts: Dict[str, float] = {
        name: calls(target) for name, target in COUNTED_CALLS.items()
    }
    fills = counts["simcore.fairshare.fill_calls"]
    counts["simcore.fairshare.matrix_share"] = (
        calls(_MATRIX_FILL) / fills if fills else 0.0
    )
    counts["netsim.entries"] = sum(
        edge["count"] for (_src, dst), edge in edges.items()
        if dst == "netsim"
    )
    edge_rows: List[dict] = []
    for (source, callee), edge in sorted(
        edges.items(), key=lambda item: -item[1]["inclusive_s"]
    ):
        top = sorted(edge["entries"].items(), key=lambda kv: -kv[1])[:3]
        edge_rows.append({
            "caller": source,
            "callee": callee,
            "count": edge["count"],
            "inclusive_s": edge["inclusive_s"],
            "entry_self_s": edge["entry_self_s"],
            "top_entries": [name for name, _ in top],
        })
    return {
        "wall_s": wall_s,
        "self_s": self_s,
        "coverage": sum(self_s.values()) / wall_s if wall_s > 0 else 0.0,
        "py_calls": py_calls,
        "counts": counts,
        "edges": edge_rows,
    }


def traced(fn: Callable[[], Any], bench_dir: str) -> Tuple[Any, dict]:
    """Run ``fn()`` under the profiler; returns (its result, roll-up)."""
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    try:
        result = fn()
    finally:
        profile.disable()
    wall_s = time.perf_counter() - start
    return result, roll_up(profile, wall_s, bench_dir)
