"""Mean-field flow-class engine for very large flow populations.

The per-flow kernels in :mod:`repro.tcp.simulate` walk every stream
every tick, which tops out around thousands of concurrent flows.  This
package trades per-flow congestion state for *flow classes* — groups of
flows sharing the same path, congestion control and transport
parameters — and advances each class with ODE-style population
dynamics:

* one aggregate congestion window per class (the population mean),
  stepped by the same :class:`~repro.tcp.congestion.CongestionControl`
  batch arithmetic the exact kernels use;
* loss-rate coupling through shared link capacities: classes offer
  their aggregate demand onto the links they cross, links grow virtual
  queues, and overflow feeds back as a per-class loss pressure;
* birth/death demographics as transfers start and finish, tracked in
  O(total flows) with per-class finish heaps — never a per-flow walk
  per tick.

Per-tick cost is O(classes + links), independent of population size,
which is what makes 100k–1M concurrent flows tractable (see
``benchmarks/bench_megaflows.py``).

Accuracy contract
-----------------
The fluid engine is **approximate by design** — it is the approximate
member of :data:`repro.vectorize.SIM_ENGINES`, beside the exact
``"numpy"`` kernel.  The contract, gated by the megaflows bench, is a
*delivered-bytes ratio within 1% of the per-flow kernel at matched
horizon* for saturated many-flow workloads.  Scenarios below the
hybrid switchover threshold never reach this engine at all: the
``engine="hybrid"`` dispatcher keeps them on the exact kernel,
byte-for-byte.
"""

from .classes import DEFAULT_PHASE_SHARDS, FlowClass, build_flow_classes
from .engine import DEFAULT_SWITCHOVER, FluidEngine, FluidResult

__all__ = [
    "DEFAULT_PHASE_SHARDS",
    "DEFAULT_SWITCHOVER",
    "FlowClass",
    "FluidEngine",
    "FluidResult",
    "build_flow_classes",
]
