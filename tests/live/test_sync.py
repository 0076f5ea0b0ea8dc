"""Tests for the live pipeline's thread primitives."""

import threading
import time

import pytest

from repro.live.sync import DoubleBuffer, SceneLock, SemaphorePair, run_spmd


class TestRunSpmd:
    def test_barrier_synchronises(self):
        arrivals = []
        lock = threading.Lock()

        def body(barrier, rank):
            time.sleep(0.01 * rank)
            with lock:
                arrivals.append(("before", rank))
            barrier.wait()
            with lock:
                arrivals.append(("after", rank))

        run_spmd(3, body)
        befores = [i for i, (k, _) in enumerate(arrivals) if k == "before"]
        afters = [i for i, (k, _) in enumerate(arrivals) if k == "after"]
        assert max(befores) < min(afters)

    def test_rank_results_in_rank_order(self):
        assert run_spmd(3, lambda barrier, rank: rank * 10) == [0, 10, 20]

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda barrier, rank: None)

    def test_exception_propagates(self):
        def body(barrier, rank):
            if rank == 1:
                raise RuntimeError("rank 1 died")
            barrier.wait()

        with pytest.raises(RuntimeError, match="rank 1 died"):
            run_spmd(2, body)


class TestSemaphorePair:
    def test_handshake_round(self):
        pair = SemaphorePair()
        loads = []

        def reader():
            while True:
                cmd = pair.wait_command(timeout=5.0)
                if cmd is None or cmd == SemaphorePair.EXIT:
                    return
                loads.append(cmd)
                pair.post_data()

        t = threading.Thread(target=reader, daemon=True)
        t.start()
        for step in range(3):
            pair.request(step)
            assert pair.wait_data(timeout=5.0)
        pair.request_exit()
        t.join(timeout=5.0)
        assert loads == [0, 1, 2]

    def test_request_validation(self):
        with pytest.raises(ValueError):
            SemaphorePair().request(-2)


class TestDoubleBuffer:
    def test_even_odd_slots(self):
        buf = DoubleBuffer()
        buf.write(0, "frame0")
        buf.write(1, "frame1")
        assert buf.read(0) == "frame0"
        assert buf.read(1) == "frame1"
        buf.write(2, "frame2")  # replaces slot 0
        assert buf.read(2) == "frame2"

    def test_violation_detected(self):
        buf = DoubleBuffer()
        buf.write(0, "frame0")
        buf.write(2, "frame2")
        with pytest.raises(RuntimeError, match="double-buffer violation"):
            buf.read(0)

    def test_validation(self):
        buf = DoubleBuffer()
        with pytest.raises(ValueError):
            buf.write(-1, "x")
        with pytest.raises(ValueError):
            buf.read(-1)

    def test_pipeline_never_corrupts(self):
        """Stress the appendix-B protocol: reader always one ahead."""
        pair = SemaphorePair()
        buf = DoubleBuffer()
        n = 20

        def reader():
            while True:
                cmd = pair.wait_command(timeout=5.0)
                if cmd is None or cmd == SemaphorePair.EXIT:
                    return
                buf.write(cmd, f"data-{cmd}")
                pair.post_data()

        t = threading.Thread(target=reader, daemon=True)
        t.start()
        pair.request(0)
        assert pair.wait_data(timeout=5.0)
        seen = []
        for frame in range(n):
            if frame + 1 < n:
                pair.request(frame + 1)
            seen.append(buf.read(frame))
            if frame + 1 < n:
                assert pair.wait_data(timeout=5.0)
        pair.request_exit()
        t.join(timeout=5.0)
        assert seen == [f"data-{i}" for i in range(n)]


class TestSceneLock:
    def test_version_bumps_on_update(self):
        lock = SceneLock()
        assert lock.version == 0
        with lock.update():
            pass
        assert lock.version == 1

    def test_read_returns_version(self):
        lock = SceneLock()
        with lock.update():
            pass
        with lock.read() as version:
            assert version == 1

    def test_wait_for_change_immediate(self):
        lock = SceneLock()
        with lock.update():
            pass
        assert lock.wait_for_change(0) == 1

    def test_wait_for_change_blocks_until_update(self):
        lock = SceneLock()
        seen = []

        def waiter():
            seen.append(lock.wait_for_change(0, timeout=5.0))

        t = threading.Thread(target=waiter)
        t.start()
        with lock.update():
            pass
        t.join(timeout=5.0)
        assert seen == [1]
