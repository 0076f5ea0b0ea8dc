"""Fixture: VIS210 buffer credit reserve/commit pairing."""


class LeakyStage:
    def push(self, item):
        self.buffer.reserve()  # VIS210: no commit in scope
        self.staged.append(item)


class SplitPhaseStage:
    """Balanced across methods: reserve in one, commit in another."""

    def stage(self):
        self.buffer.reserve()  # clean: _emit discharges the credit

    def _emit(self, item):
        self.buffer.commit(item)


class TokenBucketUser:
    def admit(self, cost, now):
        return self.bucket.reserve(cost, now)  # clean: different API


class CancelOnlyStage:
    """cancel() is no discharge: BoundedBuffer has only commit()."""

    def push(self, item):
        self.buffer.reserve()  # VIS210: cancel() does not release it
        self.buffer.cancel()
