"""RequestPolicy tests: the retry schedule is exact and seeded."""

import numpy as np
import pytest

from repro.faults import RequestPolicy


class TestValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            RequestPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RequestPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RequestPolicy(backoff_base=0.0)
        with pytest.raises(ValueError):
            RequestPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RequestPolicy(jitter=-0.1)
        with pytest.raises(ValueError):
            RequestPolicy(hedge_after=0.0)

    def test_timeout_none_waits_forever(self):
        assert RequestPolicy(timeout=None).timeout is None


class TestBackoff:
    def test_exact_schedule_without_jitter(self):
        p = RequestPolicy(
            max_retries=5, backoff_base=0.25, backoff_factor=2.0,
            backoff_max=1.5, jitter=0.0,
        )
        delays = [p.backoff_delay(i) for i in range(p.max_retries)]
        assert delays == [0.25, 0.5, 1.0, 1.5, 1.5]

    def test_no_rng_means_no_jitter(self):
        p = RequestPolicy(backoff_base=0.5, jitter=0.25)
        assert p.backoff_delay(0) == 0.5

    def test_jitter_bounds(self):
        p = RequestPolicy(backoff_base=1.0, backoff_max=1.0, jitter=0.25)
        rng = np.random.default_rng(0)
        for attempt in range(20):
            d = p.backoff_delay(0, rng)
            assert 1.0 <= d <= 1.25

    def test_same_seed_same_schedule(self):
        p = RequestPolicy(max_retries=4, jitter=0.5)

        def schedule(seed):
            rng = np.random.default_rng(seed)
            return [p.backoff_delay(i, rng) for i in range(p.max_retries)]

        a = schedule(42)
        b = schedule(42)
        assert a == b
        c = schedule(43)
        assert a != c

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            RequestPolicy().backoff_delay(-1)


class TestPresets:
    def test_aggressive_hedges(self):
        p = RequestPolicy.aggressive()
        assert p.hedge_after is not None
        assert p.timeout < RequestPolicy().timeout
