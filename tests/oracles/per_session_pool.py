"""One fluid flow per member: the serving model flow classes replaced.

Until PR 19 this was ``FlowClassPool(aggregate=False)``.  Every
admitted member becomes its own :class:`FluidTask` with the class's
usage and cap; no class state, no aggregate flow.  With unit usage
coefficients the production pool completes every
member at the bitwise-identical instant
(``tests/simcore/test_flowclass.py``, 200 seeds, and the shard runs in
``tests/service/test_shard.py``, which patch this class in as
``repro.service.shard.FlowClassPool``); across wider scenario spaces it
is exact max-min to float noise (``test_flowclass_lazy.py``, 1e-9
relative).
"""

from repro.simcore.flowclass import FlowClassPool
from repro.simcore.fluid import FluidTask


class PerSessionPool(FlowClassPool):
    def submit(self, spec, work, name):
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work}")
        task = FluidTask(name, work, spec.usage)
        done = self.sched.submit(task)
        self.stats.members_submitted += 1
        return done
