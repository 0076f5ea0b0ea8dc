"""Fluid task scheduler: transfers and compute shares over time.

A :class:`FluidTask` is a fixed amount of *work* (bytes, CPU-seconds)
served at a rate decided by max-min fair progressive filling
(:mod:`repro.simcore.fairshare`) over the :class:`FluidResource`
objects the task touches. A change to the active set (task added,
finished, or a cap updated -- e.g. TCP slow-start opening a window)
only marks what it touched; at the end of the simulated instant one
settle recomputes the allocation and reschedules the next completion
(DESIGN.md section 12.7), so rates read mid-instant are those of the
last settle.

The same scheduler serves network links, NICs, disk pools and CPU
pools, so cross-domain contention (the paper's reader-thread vs render
CPU fight on single-CPU cluster nodes) falls out of one allocator.

Allocation is *incremental* (see DESIGN.md section 12): max-min
fairness is separable across disjoint resource components, so a change
re-solves only the connected component of flows and resources it
touches and leaves every other component's rates -- and their
scheduled completions -- untouched. Task progress is banked lazily
(only when a task's own rate changes), per-task ``FlowSpec`` and
finite-cap results are cached with dirty-flag invalidation, and the
earliest completion is tracked through a lazy-deletion heap of
absolute ETAs instead of a linear scan, with at most one outstanding
wake timeout. ``tests/oracles/recompute_fluid.py`` subclasses this
engine into a fresh-recompute oracle (every component re-solved from
rebuilt specs at every settle); because rates are pure functions of the
specs, the two are bitwise identical -- parity tests pin this.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from repro.simcore.events import Event, Interrupt, SimulationError
from repro.simcore.fairshare import (
    FlowSpec,
    ResourceSpec,
    cap_binds,
    fill_rates,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.env import Environment

#: Work below this is considered complete (dimension: task units).
_WORK_EPS = 1e-9

#: Finite stand-in cap so progressive filling terminates for tasks
#: with no finite constraint at all (no cap, no positive usage).
_CAP_SENTINEL = 1e15

#: ``alloc_observer`` callback: (tag, numeric payload) for each batch
#: of component re-solves. Attached by the campaign layer to surface
#: ALLOC_* NetLogger counters; ``None`` (the default) costs nothing.
AllocObserver = Callable[[str, Dict[str, float]], None]

#: ``FluidTask.on_rate`` callback: (task, old rate, new rate, now).
RateObserver = Callable[["FluidTask", float, float, float], None]


class CapSchedule(Protocol):
    """A task's cap as a non-decreasing step function of time.

    The scheduler pulls from it lazily (DESIGN.md section 12.6): every
    solve first brings the schedules of its component up to ``now``,
    and a step gets a wake of its own only while the cap binds.
    Between solves ``task.cap`` may therefore lag the schedule; it can
    only lag *low*, on a flow whose rate the cap was not holding back.
    """

    #: time of the next step; ``inf`` once the schedule is exhausted
    next_at: float

    def advance(self, now: float) -> float:
        """Apply every step due by ``now``; return the cap there."""
        ...


class FluidResource:
    """A named capacity constraint registered with a scheduler."""

    def __init__(self, name: str, capacity: float, *, monitor: bool = False):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.name = name
        self.capacity = float(capacity)
        self.monitor = monitor
        #: (time, aggregate consumption rate) samples, if monitored.
        self.samples: List[tuple] = []

    def record(self, time: float, load: float) -> None:
        if self.monitor:
            self.samples.append((time, load))

    def utilization_timeseries(self) -> List[tuple]:
        """Sampled (time, fraction-of-capacity) pairs."""
        if self.capacity <= 0:
            return [(t, 0.0) for t, _ in self.samples]
        return [(t, load / self.capacity) for t, load in self.samples]

    def __repr__(self) -> str:  # pragma: no cover
        return f"FluidResource({self.name!r}, capacity={self.capacity})"


class FluidTask:
    """A divisible unit of work progressing through shared resources."""

    _ids = 0

    def __init__(
        self,
        name: str,
        work: float,
        usage: Mapping[FluidResource, float],
        cap: float = float("inf"),
        floor: float = 0.0,
    ):
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work}")
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        if floor < 0:
            raise ValueError(f"floor must be >= 0, got {floor}")
        FluidTask._ids += 1
        self.name = f"{name}#{FluidTask._ids}"
        self.work = float(work)
        self.remaining = float(work)
        self.usage = dict(usage)
        self.cap = float(cap)
        #: QoS reservation: guaranteed minimum rate (section 5's
        #: bandwidth-reservation future work)
        self.floor = float(floor)
        self.rate = 0.0
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.done: Optional[Event] = None  # set by the scheduler
        #: optional observer called as ``on_rate(task, old, new, now)``
        #: whenever a solve assigns a bitwise-different rate. Used by
        #: the flow-class pool to disaggregate an aggregate flow's rate
        #: to its members at exactly the instants the allocator banks.
        #: Observers must not mutate the scheduler synchronously.
        self.on_rate: Optional[RateObserver] = None
        #: optional :class:`CapSchedule` raising ``cap`` over time (a
        #: TCP window opening); attach before :meth:`submit`.
        self.schedule: Optional[CapSchedule] = None
        # -- scheduler-internal bookkeeping (meaningful while active) --
        self._seq = 0  # global submit order; orders flows in a solve
        self._synced_at = 0.0  # sim time `remaining` was last banked at
        self._eta = float("inf")  # absolute completion estimate
        self._eta_seq = 0  # lazy-deletion stamp for the ETA heap
        self._eta_stale = False  # remaining moved without a rate change
        self._flow: Optional[FlowSpec] = None  # cached solver spec
        self._fcap: Optional[float] = None  # cached finite-cap stand-in
        self._step_at = float("inf")  # schedule step a wake is armed for

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"FluidTask({self.name!r}, remaining={self.remaining:.3g}/"
            f"{self.work:.3g}, rate={self.rate:.3g})"
        )


@dataclass
class AllocStats:
    """Counters for the allocator hot path (``FluidScheduler.stats``)."""

    events: int = 0  # mutations + live wakes processed
    components_solved: int = 0
    flows_touched: int = 0  # flow specs handed to the solver, total
    resources_touched: int = 0
    max_component_flows: int = 0
    completions: int = 0
    wakes_scheduled: int = 0  # timeouts actually pushed into the queue
    stale_wakes: int = 0  # superseded timeouts that fired dead
    cap_steps: int = 0  # binding cap-schedule steps applied at their wake
    solves_elided: int = 0  # set_cap calls that raised a slack cap

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


# ETA heap entry: (eta, push id, task, eta seq, horizon, banked-at).
# The unique push id keeps heapq from ever comparing tasks; horizon
# and banked-at let the wake be scheduled with the exact relative
# delay the ETA was computed from.
_HeapEntry = Tuple[float, int, "FluidTask", int, float, float]


class _Component:
    """A connected set of resources and the flows crossing them.

    Snapshots are cached between topology changes: cap/capacity churn
    (a binding TCP window step, a NIC derated by a busy CPU) re-solves
    a component without re-deriving connectivity. ``tasks`` is ordered
    by submit sequence so solves see flows in the same order the
    historical global recompute did.
    """

    __slots__ = ("resources", "tasks")

    def __init__(self, resources: List[str], tasks: List["FluidTask"]):
        self.resources = resources
        self.tasks = tasks


class FluidScheduler:
    """Runs fluid tasks on an :class:`~repro.simcore.env.Environment`."""

    def __init__(self, env: "Environment"):
        self.env = env
        self._resources: Dict[str, FluidResource] = {}
        self._res_specs: Dict[str, ResourceSpec] = {}  # cache
        #: resource name -> {task name: task}, the flow/resource
        #: adjacency that defines connected components.
        self._res_tasks: Dict[str, Dict[str, FluidTask]] = {}
        self._active: Dict[str, FluidTask] = {}
        #: active tasks with no positive usage coefficient: each is
        #: trivially its own component.
        self._floating: Dict[str, FluidTask] = {}
        self._dirty: Dict[str, None] = {}  # ordered set of resource seeds
        self._dirty_floating: Dict[str, None] = {}
        #: resource name -> its component; None after a topology change.
        self._comp_index: Optional[Dict[str, _Component]] = None
        self._eta_heap: List[_HeapEntry] = []
        self._push_ids = 0
        self._seq_ids = 0
        self._wake_token = 0
        self._next_wake = float("inf")  # fire time of the live wake
        self._settle_armed = False  # a settle is queued for this instant
        self.stats = AllocStats()
        self.alloc_observer: Optional[AllocObserver] = None

    # -- registry ------------------------------------------------------------
    def add_resource(self, resource: FluidResource) -> FluidResource:
        """Register a resource; names must be unique."""
        if resource.name in self._resources:
            raise ValueError(f"duplicate resource name {resource.name!r}")
        self._resources[resource.name] = resource
        self._res_tasks[resource.name] = {}
        self._comp_index = None
        return resource

    def resource(self, name: str) -> FluidResource:
        """Look up a registered resource by name."""
        return self._resources[name]

    # -- task lifecycle -------------------------------------------------------
    def submit(self, task: FluidTask) -> Event:
        """Start ``task``; returns the event fired at completion.

        The event's value is the completion time.
        """
        if task.done is not None:
            raise SimulationError(f"task {task.name!r} already submitted")
        for res in task.usage:
            if res.name not in self._resources:
                raise KeyError(
                    f"task {task.name!r} uses unregistered resource {res.name!r}"
                )
        task.done = Event(self.env)
        task.start_time = self.env.now
        if task.work <= _WORK_EPS:
            task.remaining = 0.0
            task.finish_time = self.env.now
            task.done.succeed(self.env.now)
            return task.done
        self._seq_ids += 1
        task._seq = self._seq_ids
        task._synced_at = self.env.now
        task._eta = float("inf")
        task._eta_stale = True
        task._flow = None
        task._fcap = None
        task.rate = 0.0
        self._active[task.name] = task
        touched = False
        for res, coeff in task.usage.items():
            if coeff > 0:
                self._res_tasks[res.name][task.name] = task
                self._dirty[res.name] = None
                touched = True
        if touched:
            self._comp_index = None
        else:
            self._floating[task.name] = task
            self._dirty_floating[task.name] = None
        self._after_change()
        return task.done

    def set_cap(self, task: FluidTask, cap: float) -> None:
        """Change a running task's rate cap (e.g. TCP window growth)."""
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        if task.name not in self._active:
            return  # already finished; harmless
        old = task.cap
        task.cap = float(cap)
        task._flow = None
        if cap >= old and not cap_binds(task.rate, old, task.floor):
            # Raising a cap that was not holding the flow back cannot
            # change any rate (section 12.6): record it for the next
            # solve and skip this one.
            self.stats.solves_elided += 1
            return
        self._touch_task(task)
        self._after_change()

    def set_capacity(self, resource: FluidResource, capacity: float) -> None:
        """Change a resource's capacity mid-simulation.

        Used for host-side effects such as a NIC losing effective
        bandwidth while its node's only CPU is busy rendering.
        """
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if resource.name not in self._resources:
            raise KeyError(f"unknown resource {resource.name!r}")
        resource.capacity = float(capacity)
        self._res_specs.pop(resource.name, None)
        # Uncapped tasks borrow their cap from the capacities of the
        # resources they touch; drop their cached values.
        for task in self._res_tasks[resource.name].values():
            if task.cap == float("inf"):
                task._fcap = None
                task._flow = None
        self._dirty[resource.name] = None
        self._after_change()

    def set_usage(
        self,
        changes: Sequence[Tuple[FluidTask, Mapping[FluidResource, float]]],
    ) -> None:
        """Replace the usage coefficients of running tasks in one solve.

        ``changes`` is a batch of ``(task, usage)`` pairs; every dirty
        component they touch is re-solved once, so two tasks on one
        resource changing at one instant cost one solve. For each task
        the set of resources with *positive* coefficients must be
        unchanged: the flow/resource adjacency -- and therefore the
        cached component index -- stays valid, so this is a pure
        re-solve, not a topology change. The whole batch is validated
        before any task is touched: a refused batch changes nothing.
        Finished tasks are skipped, like :meth:`set_cap`. The
        flow-class pool uses it to scale its aggregate flows'
        coefficients by their live member counts, once per instant.
        """
        live = [(t, dict(u)) for t, u in changes if t.name in self._active]
        for task, usage in live:
            new_footprint = {r.name for r, c in usage.items() if c > 0}
            old_footprint = {r.name for r, c in task.usage.items() if c > 0}
            if new_footprint != old_footprint:
                raise SimulationError(
                    f"set_usage may not change task {task.name!r}'s positive "
                    f"resource footprint (topology); resubmit instead"
                )
            for coeff in usage.values():
                if coeff < 0:
                    raise ValueError(f"usage must be >= 0, got {coeff}")
        if not live:
            return
        for task, usage in live:
            task.usage = usage
            task._flow = None
            task._fcap = None  # finite-cap stand-in depends on coefficients
            self._touch_task(task)
        self._after_change()

    def withdraw(self, task: FluidTask) -> None:
        """Remove a running task, *succeeding* its done event.

        The cooperative variant of :meth:`cancel` for callers that
        handle the abort themselves (e.g. a TCP send torn down by
        :meth:`~repro.netsim.tcp.TcpConnection.abort`): waiters that
        were already abandoned must not receive a failure nobody will
        defuse. The event value is the withdrawal time, like a normal
        completion.
        """
        if task.name not in self._active:
            return
        self._bank(task)
        self._detach(task)
        task.rate = 0.0
        assert task.done is not None  # active tasks were submitted
        task.done.succeed(self.env.now)
        self._after_change()

    def cancel(self, task: FluidTask) -> None:
        """Abort a running task; its done event fails with Interrupt."""
        if task.name not in self._active:
            return
        self._bank(task)
        self._detach(task)
        task.rate = 0.0
        assert task.done is not None  # active tasks were submitted
        task.done.fail(Interrupt("cancelled"))
        task.done._defused = True
        self._after_change()

    # -- engine ---------------------------------------------------------------
    def _bank(self, task: FluidTask) -> None:
        """Materialize ``task``'s progress at its current rate.

        Progress is lazy: ``remaining`` is only brought up to date when
        the task's own rate is about to change (or its work grows), so
        events in unrelated components never touch it. The recompute
        oracle banks at exactly the same instants -- whenever a solve
        produces a bitwise-different rate -- which keeps the two float
        trajectories identical.
        """
        now = self.env.now
        dt = now - task._synced_at
        if dt > 0:
            task.remaining = max(task.remaining - task.rate * dt, 0.0)
        task._synced_at = now

    def _advance(self) -> None:
        """Bank every active task's progress up to env.now."""
        for task in self._active.values():
            self._bank(task)

    def _touch_task(self, task: FluidTask) -> None:
        """Mark the component(s) containing ``task`` dirty."""
        touched = False
        for res, coeff in task.usage.items():
            if coeff > 0:
                self._dirty[res.name] = None
                touched = True
        if not touched:
            self._dirty_floating[task.name] = None

    def _detach(self, task: FluidTask) -> None:
        """Remove ``task`` from the active set and the adjacency.

        The resources it used are left dirty: removing a flow can both
        change its old component's rates and split the component.
        """
        del self._active[task.name]
        for res, coeff in task.usage.items():
            if coeff > 0:
                self._res_tasks[res.name].pop(task.name, None)
                self._dirty[res.name] = None
                self._comp_index = None
        self._floating.pop(task.name, None)
        self._dirty_floating.pop(task.name, None)
        task._eta_seq += 1
        task._eta = float("inf")

    def _after_change(self) -> None:
        """Queue one settle for the end of this instant (DESIGN.md 12.7)."""
        self.stats.events += 1
        if not self._settle_armed:
            self._settle_armed = True
            self.env.at_instant_end(self._settle)

    def _settle(self) -> None:
        """Solve every component dirtied this instant; re-arm the wake."""
        self._settle_armed = False
        self._flush()
        self._arm_wake()

    def _flush(self) -> None:
        now = self.env.now
        if self._dirty_floating:
            for tname in list(self._dirty_floating):
                floating = self._floating.get(tname)
                if floating is not None:
                    self._solve_floating(floating, now)
            self._dirty_floating.clear()
        if not self._dirty:
            return
        seeds = list(self._dirty)
        self._dirty.clear()
        seen: Set[str] = set()
        n_components = 0
        n_flows = 0
        n_resources = 0
        max_flows = 0
        for seed in seeds:
            if seed in seen:
                continue
            comp = self._comp_of(seed)
            # The resource set of a component is stable across the
            # settle (completions remove flows, never resources), so
            # this also covers every sub-component settled below.
            seen.update(comp.resources)
            comps, flows, biggest = self._settle_comp(comp, now)
            n_components += comps
            n_flows += flows
            n_resources += len(comp.resources)
            max_flows = max(max_flows, biggest)
        self.stats.components_solved += n_components
        self.stats.flows_touched += n_flows
        self.stats.resources_touched += n_resources
        self.stats.max_component_flows = max(
            self.stats.max_component_flows, max_flows
        )
        if self.alloc_observer is not None and n_components:
            self.alloc_observer(
                "ALLOC_REALLOC",
                {
                    "components": float(n_components),
                    "flows": float(n_flows),
                    "resources": float(n_resources),
                    "max_flows": float(max_flows),
                },
            )

    def _comp_of(self, rname: str) -> _Component:
        """The cached component containing resource ``rname``."""
        index = self._comp_index
        if index is None:
            index = self._rebuild_components()
        return index[rname]

    def _rebuild_components(self) -> Dict[str, _Component]:
        """Re-derive connectivity after a topology change.

        BFS from each resource in registration order, walking resource
        -> adjacent flow -> its resources; discovery order is adjacency
        insertion order, i.e. submit order, so the recompute oracle
        walks components identically.
        """
        index: Dict[str, _Component] = {}
        for start in self._resources:
            if start in index:
                continue
            resources = [start]
            seen = {start}
            by_seq: Dict[int, FluidTask] = {}
            i = 0
            while i < len(resources):
                for task in self._res_tasks[resources[i]].values():
                    if task._seq in by_seq:
                        continue
                    by_seq[task._seq] = task
                    for res, coeff in task.usage.items():
                        if coeff > 0 and res.name not in seen:
                            seen.add(res.name)
                            resources.append(res.name)
                i += 1
            comp = _Component(resources, [by_seq[s] for s in sorted(by_seq)])
            for rname in resources:
                index[rname] = comp
        self._comp_index = index
        return index

    def _settle_comp(self, comp: _Component, now: float) -> Tuple[int, int, int]:
        """Re-solve a dirty component until no completion is due.

        Completions can split a component, in which case each current
        sub-component is settled recursively. Returns (components
        solved, flows passed to the solver, largest component's flows).
        """
        n_components = 0
        n_flows = 0
        max_flows = 0
        while True:
            # Complete everything due, in submit order (mirrors the
            # historical completion scan over the insertion-ordered
            # active dict).
            due = [t for t in comp.tasks if t._eta <= now]
            if due:
                for task in due:
                    self._complete(task, now)
                # The component index was just invalidated; settle each
                # sub-component the remaining resources now form. They
                # partition comp.resources, so every resource is
                # re-solved (or recorded at zero load) exactly once.
                sub_seen: Set[int] = set()
                for rname in comp.resources:
                    sub = self._comp_of(rname)
                    # vis: allow[VIS202] identity dedup of component
                    # objects within one solve pass; the seen-set is
                    # never iterated, logged or carried across events.
                    if id(sub) in sub_seen:
                        continue
                    sub_seen.add(id(sub))  # vis: allow[VIS202]
                    comps, flows, biggest = self._settle_comp(sub, now)
                    n_components += comps
                    n_flows += flows
                    max_flows = max(max_flows, biggest)
                return n_components, n_flows, max_flows
            if comp.tasks:
                self._solve(comp, now)
                n_components += 1
                n_flows += len(comp.tasks)
                max_flows = max(max_flows, len(comp.tasks))
                # A solve can leave an ETA at or below `now` when the
                # horizon underflows float time resolution: the task is
                # done for all purposes. Drain it on the next pass
                # instead of spinning on zero-length timeouts.
                if any(t._eta <= now for t in comp.tasks):
                    continue
            self._record_loads(comp, now)
            return n_components, n_flows, max_flows

    def _record_loads(self, comp: _Component, now: float) -> None:
        for rname in comp.resources:
            res = self._resources[rname]
            if res.monitor:
                load = 0.0
                for task in self._res_tasks[rname].values():
                    load += task.usage[res] * task.rate
                res.record(now, load)

    def _solve(self, comp: _Component, now: float) -> None:
        """Recompute one component's rates and refresh changed ETAs."""
        for task in comp.tasks:
            if task.schedule is not None:
                self._sync_cap(task, task.schedule, now)
        flows = [self._flow_of(t) for t in comp.tasks]
        res_specs = {rname: self._spec_of(rname) for rname in comp.resources}
        rates = fill_rates(flows, res_specs)
        for task in comp.tasks:
            rate = rates[task.name]
            if rate != task.rate:
                self._bank(task)
                old = task.rate
                task.rate = rate
                self._refresh_eta(task, now)
                if task.on_rate is not None:
                    task.on_rate(task, old, rate, now)
            elif task._eta_stale:
                self._refresh_eta(task, now)
            if task.schedule is not None:
                self._arm_step(task, task.schedule)

    def _solve_floating(self, task: FluidTask, now: float) -> None:
        """A task with no positive coefficients is its own component.

        Progressive filling trivially drives it to its cap (or the
        finite sentinel when uncapped); no resources are consumed.
        """
        if task.schedule is not None:
            self._sync_cap(task, task.schedule, now)
        rate = task.cap if task.cap != float("inf") else _CAP_SENTINEL
        if rate != task.rate:
            self._bank(task)
            old = task.rate
            task.rate = rate
            self._refresh_eta(task, now)
            if task.on_rate is not None:
                task.on_rate(task, old, rate, now)
        elif task._eta_stale:
            self._refresh_eta(task, now)
        if task._eta <= now:
            self._complete(task, now)
        elif task.schedule is not None:
            self._arm_step(task, task.schedule)

    # -- cap schedules --------------------------------------------------------
    @staticmethod
    def _sync_cap(task: FluidTask, schedule: CapSchedule, now: float) -> None:
        """Bring ``task.cap`` up to its schedule before a solve reads it.

        The schedule is asked every time: its owner may have advanced
        it already (reading a TCP window does) without telling us.
        """
        cap = schedule.advance(now)
        if cap != task.cap:
            task.cap = cap
            task._flow = None

    def _arm_step(self, task: FluidTask, schedule: CapSchedule) -> None:
        """Wake at ``task``'s next schedule step if its cap binds now.

        A step of a slack cap needs no wake: the next solve of the
        component picks it up through :meth:`_sync_cap`. Step wakes
        are timeouts of their own, at the step's absolute time; they
        never share the completion wake, whose relative-delay
        arithmetic depends on the instant it was armed at.
        """
        when = schedule.next_at
        if (
            when == task._step_at
            or when == float("inf")
            or not cap_binds(task.rate, task.cap, task.floor)
        ):
            return
        task._step_at = when
        wake = self.env.timeout_at(when)
        wake.callbacks.append(lambda _ev: self._on_step(task, schedule, when))

    def _on_step(
        self, task: FluidTask, schedule: CapSchedule, when: float
    ) -> None:
        if (
            self._active.get(task.name) is not task
            or schedule.next_at != when
            or not cap_binds(task.rate, task.cap, task.floor)
        ):
            # Finished; or a solve at this instant took the step; or a
            # solve since left the cap slack, and the next one syncs it.
            return
        self.stats.cap_steps += 1
        self.set_cap(task, schedule.advance(when))

    def _refresh_eta(self, task: FluidTask, now: float) -> None:
        """Recompute the absolute completion estimate after a change.

        ETAs are only refreshed when the rate actually changed (or the
        remaining work moved), so a stable component's completion keeps
        its originally scheduled instant no matter how many events hit
        other components -- the anchor of cross-component determinism.
        """
        task._eta_stale = False
        task._eta_seq += 1
        if task.rate > 0:
            horizon = task.remaining / task.rate
            task._eta = now + horizon
            if horizon == float("inf"):
                # Unbounded work (a flow-class aggregate): there is no
                # completion to wake for, so keep it off the heap.
                return
            self._push_ids += 1
            heapq.heappush(
                self._eta_heap,
                (task._eta, self._push_ids, task, task._eta_seq, horizon, now),
            )
        else:
            # All-zero rates: an external cap/capacity change must wake
            # the component; there is nothing to schedule.
            task._eta = float("inf")

    def _complete(self, task: FluidTask, now: float) -> None:
        del self._active[task.name]
        for res, coeff in task.usage.items():
            if coeff > 0:
                self._res_tasks[res.name].pop(task.name, None)
                self._comp_index = None
        self._floating.pop(task.name, None)
        self._dirty_floating.pop(task.name, None)
        task.remaining = 0.0
        task.rate = 0.0
        task.finish_time = now
        task._eta_seq += 1
        task._eta = float("inf")
        assert task.done is not None  # active tasks were submitted
        task.done.succeed(now)
        self.stats.completions += 1

    def _arm_wake(self) -> None:
        """Ensure one timeout covers the earliest valid ETA.

        Superseded heap entries are discarded lazily here; a new
        timeout is pushed only when the earliest completion moved
        *earlier* than the outstanding wake (a later-moving ETA just
        lets the old wake fire, observe nothing due, and re-arm).
        """
        heap = self._eta_heap
        while heap:
            _eta, _pid, task, eta_seq, _horizon, _t0 = heap[0]
            if self._active.get(task.name) is task and task._eta_seq == eta_seq:
                break
            heapq.heappop(heap)
        if not heap:
            self._next_wake = float("inf")
            return
        eta, _pid, _task, _eseq, horizon, t0 = heap[0]
        if eta >= self._next_wake:
            return  # the live wake fires first and will re-arm
        self._wake_token += 1
        self._next_wake = eta
        self.stats.wakes_scheduled += 1
        token = self._wake_token
        # When arming at the instant the ETA was computed, reuse the
        # raw horizon so the wake lands exactly on fl(t0 + horizon).
        delay = horizon if self.env.now == t0 else max(eta - self.env.now, 0.0)
        wake = self.env.timeout(delay)
        wake.callbacks.append(lambda _ev, tok=token: self._on_wake(tok))

    def _on_wake(self, token: int) -> None:
        if token != self._wake_token:
            self.stats.stale_wakes += 1
            return  # superseded by a more recent re-arm
        self._next_wake = float("inf")
        now = self.env.now
        heap = self._eta_heap
        while heap:
            eta, _pid, task, eta_seq, _horizon, _t0 = heap[0]
            if not (
                self._active.get(task.name) is task
                and task._eta_seq == eta_seq
            ):
                heapq.heappop(heap)
                continue
            if eta > now:
                break
            heapq.heappop(heap)
            self._touch_task(task)
        self._after_change()

    # -- cached solver specs --------------------------------------------------
    def _flow_of(self, task: FluidTask) -> FlowSpec:
        """The task's solver spec; rebuilt only after cap changes."""
        if task._flow is None:
            cap = task.cap
            if cap == float("inf"):
                cap = self._fcap_of(task)
            task._flow = FlowSpec(
                name=task.name,
                cap=cap,
                usage={r.name: c for r, c in task.usage.items() if c > 0},
                floor=task.floor,
            )
        return task._flow

    def _fcap_of(self, task: FluidTask) -> float:
        if task._fcap is None:
            task._fcap = _finite_cap(task, self._resources)
        return task._fcap

    def _spec_of(self, name: str) -> ResourceSpec:
        spec = self._res_specs.get(name)
        if spec is None:
            spec = ResourceSpec(name=name, capacity=self._resources[name].capacity)
            self._res_specs[name] = spec
        return spec


def _finite_cap(task: FluidTask, resources: Dict[str, FluidResource]) -> float:
    """Finite stand-in cap for an uncapped task.

    An uncapped task can never exceed the full capacity of its most
    constraining resource; a task touching no resources is pinned to a
    large sentinel so progressive filling terminates.
    """
    best = float("inf")
    for res, coeff in task.usage.items():
        if coeff > 0:
            best = min(best, resources[res.name].capacity / coeff)
    return best if best != float("inf") else _CAP_SENTINEL
