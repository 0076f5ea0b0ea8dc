"""Tests for Appendix B's double buffer and the back end loop it feeds.

The depth-2 :class:`BoundedBuffer` must reproduce the paper's
double-buffer handshake event for event, and a deeper buffer lets the
producer run further ahead. The campaign-level tests at the bottom
read the same facts off an overlapped back end's NetLogger events: the
reader never runs more than ``depth - 1`` frames ahead of the render /
send loop, and each PE's makespan is bounded below by its busiest leg.
"""

import pytest

from repro.netlogger.analysis import EventLog
from repro.netlogger.events import Tags
from repro.simcore import BoundedBuffer, Environment


class TestBoundedBufferValidation:
    def test_on_get_requires_depth_two(self):
        env = Environment()
        with pytest.raises(ValueError, match="depth >= 2"):
            BoundedBuffer(env, 1, name="slabs")


def _produce(env, buf, load_starts, n=4, load=1.0):
    for frame in range(n):
        yield buf.reserve()
        load_starts.append(env.now)
        yield env.timeout(load)
        buf.commit(frame)


class TestAppendixBSchedule:
    """Reserve-before-produce at depth 2 is the double buffer."""

    def test_depth_two_reproduces_double_buffer_times(self):
        """L=1, R=2, N=4: loads start at 0,1,3,5; end = N*R + L = 9."""
        env = Environment()
        buf = BoundedBuffer(env, 2, name="slabs")
        load_starts, render_spans = [], []

        def consumer(env):
            for _ in range(4):
                yield buf.get()
                t0 = env.now
                yield env.timeout(2.0)
                render_spans.append((t0, env.now))

        env.process(_produce(env, buf, load_starts))
        env.process(consumer(env))
        env.run()
        assert load_starts == pytest.approx([0.0, 1.0, 3.0, 5.0])
        assert render_spans == pytest.approx(
            [(1.0, 3.0), (3.0, 5.0), (5.0, 7.0), (7.0, 9.0)]
        )
        assert env.now == pytest.approx(9.0)  # N*max(L,R) + min(L,R)

    def test_deeper_buffer_lets_producer_run_ahead(self):
        """At depth 4 the same workload front-loads every read."""
        env = Environment()
        buf = BoundedBuffer(env, 4, name="slabs")
        load_starts = []

        def consumer(env):
            for frame in range(4):
                assert (yield buf.get()) == frame
                yield env.timeout(2.0)

        env.process(_produce(env, buf, load_starts))
        env.process(consumer(env))
        env.run()
        # Three credits circulate: loads 0-2 are back to back, and the
        # fourth is granted when the consumer takes frame 1 at t=3.
        assert load_starts == pytest.approx([0.0, 1.0, 2.0, 3.0])
        # Same makespan: the consumer is the bottleneck either way.
        assert env.now == pytest.approx(9.0)


class TestPipelineWiring:
    def test_three_stage_chain_counts_and_timing(self):
        """reader -> render; send, wired as the back end wires it: a
        reader process over the double buffer and a counted loop."""
        env = Environment()
        slabs = BoundedBuffer(env, 2, name="slabs")
        sent = []

        def reader(env):
            for frame in range(3):
                yield slabs.reserve()
                yield env.timeout(1.0)
                slabs.commit(frame)

        def render_then_send(env):
            for _ in range(3):
                frame = yield slabs.get()
                yield env.timeout(2.0)
                yield env.timeout(1.0)
                sent.append(frame)

        env.process(reader(env))
        env.run(until=env.process(render_then_send(env)))
        assert sent == [0, 1, 2]
        # render+send is the serial bottleneck: 1 + 3*(2+1).
        assert env.now == pytest.approx(10.0)

    def test_backpressure_accounted_as_stall(self):
        """A slow consumer shows up as producer time blocked in
        reserve()."""
        env = Environment()
        buf = BoundedBuffer(env, 2, name="b")
        stalls = []

        def fast(env):
            for n in range(5):
                t0 = env.now
                yield buf.reserve()
                stalls.append(env.now - t0)
                yield env.timeout(0.1)
                buf.commit(n)

        def slow(env):
            for _ in range(5):
                yield buf.get()
                yield env.timeout(1.0)

        env.process(fast(env))
        env.process(slow(env))
        env.run()
        assert stalls[:2] == [0.0, 0.0]
        assert all(stall > 0.0 for stall in stalls[2:])


def _overlapped_run(depth, n_timesteps=5):
    from repro.core.campaign import CampaignConfig, build_session

    cfg = CampaignConfig.lan_e4500(overlapped=True).with_changes(
        shape=(64, 32, 32), dataset_timesteps=8, n_timesteps=n_timesteps,
        overlap_depth=depth,
    )
    net, backend, viewer, daemon = build_session(cfg)
    net.run(until=backend.run())
    return backend, viewer, daemon.events


def _reader_lead(events, rank):
    """How far past frame N the reader on ``rank`` has started loading
    when BE_FRAME_START(N) is logged: the largest k with
    BE_LOAD_START(N + k) logged before it, maximised over N."""
    loaded, lead = 0, 0
    for ev in events:
        if ev.get("rank") != rank:
            continue
        if ev.event == Tags.BE_LOAD_START:
            loaded = ev.get("frame") + 1
        elif ev.event == Tags.BE_FRAME_START:
            lead = max(lead, loaded - 1 - ev.get("frame"))
    return lead


class TestCampaignOverlapDepth:
    """Acceptance: the depth bounds the reader's lead, not correctness."""

    def test_reader_runs_at_most_depth_minus_one_frames_ahead(self):
        leads = {}
        for depth in (2, 3, 4):
            backend, viewer, events = _overlapped_run(depth)
            assert viewer.complete_frames(backend.n_pes) == 5
            per_pe = [_reader_lead(events, r) for r in range(backend.n_pes)]
            # BE_LOAD_START(N + depth - 1) never precedes
            # BE_FRAME_START(N): the slot for frame N + depth - 1 is
            # freed by the loop taking frame N.
            assert max(per_pe) <= depth - 2, (depth, per_pe)
            leads[depth] = per_pe
        # The deeper buffer lets the reader run further ahead.
        assert max(leads[4]) > max(leads[2])
        assert sum(leads[4]) > sum(leads[2])

    def test_makespan_bounded_below_by_stage_busy_time(self):
        """To >= N*max(L, R) in its per-PE form: a PE cannot finish
        before its busiest leg's total work, at any depth."""
        for depth in (2, 4):
            backend, _, events = _overlapped_run(depth)
            log = EventLog(events)
            for rank in range(backend.n_pes):
                loads = [s for s in log.load_spans() if s.rank == rank]
                renders = [s for s in log.render_spans() if s.rank == rank]
                assert len(loads) == len(renders) == 5
                makespan = max(s.end for s in renders) - min(
                    s.start for s in loads
                )
                busiest = max(
                    sum(s.duration for s in loads),
                    sum(s.duration for s in renders),
                )
                assert makespan >= busiest - 1e-9

    def test_config_rejects_depth_below_two(self):
        from repro.core.campaign import CampaignConfig

        with pytest.raises(ValueError, match="overlap_depth"):
            CampaignConfig.lan_e4500(overlapped=True).with_changes(
                overlap_depth=1
            )


class TestReaderFailure:
    @pytest.mark.parametrize("mpi", [False, True])
    def test_reader_exception_escapes_net_run(self, monkeypatch, mpi):
        """A PE's reader is a process nobody waits on: its failure
        must still stop the run rather than strand the render loop."""
        from repro.backend.sim import SimBackEnd
        from repro.core.campaign import CampaignConfig, build_session

        def broken_load(self, work, client, handle, log):
            if work.frame == 1:
                raise RuntimeError("slab read exploded")
            return (yield from real_load(self, work, client, handle, log))

        real_load = SimBackEnd._load
        monkeypatch.setattr(SimBackEnd, "_load", broken_load)
        base = CampaignConfig.nton_cplant(n_pes=4)
        cfg = base.with_changes(
            shape=(64, 32, 32), dataset_timesteps=8, n_timesteps=3,
            overlapped=not mpi, mpi_only_overlap=mpi,
        )
        net, backend, viewer, daemon = build_session(cfg)
        with pytest.raises(RuntimeError, match="slab read exploded"):
            net.run(until=backend.run())
