"""Request policies: timeouts, bounded retries, hedged reads.

A :class:`RequestPolicy` parameterises how
:meth:`~repro.dpss.client.DpssClient.read` behaves when a block server
stops answering: how long to wait before declaring an attempt dead,
how many retries to spend, how the backoff between attempts grows,
and whether to *hedge* -- issue a duplicate read to a replica server
when the primary is slow, keeping whichever answer lands first.

The policy itself is frozen configuration; any randomness (backoff
jitter) is drawn from a generator the caller supplies, so the same
seed always reproduces the same retry schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.util.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class RequestPolicy:
    """Client-side fault tolerance for DPSS block reads.

    ``timeout`` bounds each attempt (request + transfer); ``None``
    waits forever. After a timeout or a refused request the client
    sleeps ``backoff_base * backoff_factor**attempt`` seconds (capped
    at ``backoff_max``, stretched by up to ``jitter`` fraction drawn
    uniformly) and retries, up to ``max_retries`` times. With
    ``hedge_after`` set, an attempt that is still in flight after that
    many seconds fires a duplicate read at a replica server and the
    first completion wins -- the classic tail-latency hedge.
    """

    timeout: Optional[float] = 30.0
    max_retries: int = 3
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 4.0
    jitter: float = 0.25
    hedge_after: Optional[float] = None

    def __post_init__(self):
        if self.timeout is not None:
            check_positive("timeout", self.timeout)
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        check_positive("backoff_base", self.backoff_base)
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        check_positive("backoff_max", self.backoff_max)
        check_non_negative("jitter", self.jitter)
        if self.hedge_after is not None:
            check_positive("hedge_after", self.hedge_after)

    def backoff_delay(
        self, attempt: int, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Seconds to sleep before retry number ``attempt + 1``.

        Deterministic for a given ``(attempt, rng state)``; with no
        generator the jitter term is omitted entirely.
        """
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        delay = min(
            self.backoff_base * self.backoff_factor ** attempt,
            self.backoff_max,
        )
        if self.jitter > 0 and rng is not None:
            delay *= 1.0 + self.jitter * float(rng.random())
        return delay

    def backoff_schedule(
        self, rng: Optional[np.random.Generator] = None
    ) -> List[float]:
        """The full sequence of backoff delays this policy would use."""
        return [self.backoff_delay(i, rng) for i in range(self.max_retries)]

    @classmethod
    def aggressive(cls) -> "RequestPolicy":
        """Short timeouts, quick retries, hedging on: drill settings."""
        return cls(
            timeout=2.0,
            max_retries=3,
            backoff_base=0.1,
            backoff_factor=2.0,
            backoff_max=1.0,
            jitter=0.25,
            hedge_after=1.0,
        )
