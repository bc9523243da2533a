"""CONGEST substrate: a layered message-passing runtime and round accounting.

The paper works in the standard CONGEST model: the communication network is a
graph ``G`` with O(log n)-bit node identifiers; computation proceeds in
synchronous rounds; in each round a node may send one B = O(log n)-bit
message to each of its neighbors (Section 1).  This subpackage provides two
complementary ways of running algorithms in that model.

**The layered message-passing runtime** -- algorithms are written as per-node
state machines (:class:`repro.congest.node.NodeAlgorithm`) and executed by
the :class:`repro.congest.simulator.Simulator` facade over four explicit
layers (see ``ARCHITECTURE.md`` for the full picture):

* *topology* (:mod:`repro.congest.topology`) --
  :class:`TopologySnapshot`: integer-indexed CSR adjacency, canonical edge
  indices, ID tables; built once per network and cached;
* *transport* (:mod:`repro.congest.transport`) -- :class:`Transport`: pooled
  lazy inboxes plus the bandwidth accountant that enforces the *aggregate*
  per-edge per-round budget and tracks congestion by edge index;
* *scheduling* (:mod:`repro.congest.engine`) -- pluggable
  :class:`RoundEngine` implementations: :class:`SyncEngine` (reference
  semantics) and :class:`VectorEngine`
  (:mod:`repro.congest.vector_engine`: whole rounds as batched numpy array
  operations over the CSR snapshot, bit-identical to ``SyncEngine``, with
  automatic scalar fallback when a run is not vectorizable);
* *instrumentation* (:mod:`repro.congest.observers`) -- the
  :class:`RoundObserver` trace API with built-in observers for run
  statistics, per-round congestion profiles and halting timelines.

The simpler single-graph algorithms (Luby, BeepingMIS, the distributed
ruling set of :mod:`repro.ruling.distributed`, broadcast / convergecast) run
on the runtime directly, and the measured round counts feed the Table-1
experiment.

**The analytic round-cost ledger** (:mod:`repro.congest.cost`) -- the
power-graph algorithms (DetSparsification on ``G^s``, the communication
tools of Section 4, the shattering pipeline of Section 8) perform their
computation at the graph level while charging rounds exactly according to
the paper's communication lemmas.  This keeps the Python simulation feasible
at thousands of nodes while preserving the round-complexity shape that the
experiments measure.  Every charge is labelled so the benchmark harness can
break total round counts down by phase.
"""

from repro.congest.cost import RoundLedger
from repro.congest.engine import RoundEngine, SyncEngine
from repro.congest.message import DEFAULT_BANDWIDTH_BITS, Message, id_bits, message_bits
from repro.congest.network import CongestNetwork
from repro.congest.node import NodeAlgorithm
from repro.congest.observers import (
    CongestionProfileObserver,
    HaltingTimelineObserver,
    RoundObserver,
    RoundSnapshot,
    StatsObserver,
)
from repro.congest.simulator import BandwidthExceededError, SimulationResult, Simulator
from repro.congest.topology import TopologySnapshot
from repro.congest.transport import Transport
from repro.congest.bfs import BFSTree, build_bfs_tree, build_spanning_bfs_tree, elect_leader
from repro.congest.primitives import (
    run_bfs_layering,
    run_convergecast_sum,
    run_flooding,
    run_leader_election,
)

__all__ = [
    "BFSTree",
    "BandwidthExceededError",
    "CongestNetwork",
    "CongestionProfileObserver",
    "DEFAULT_BANDWIDTH_BITS",
    "HaltingTimelineObserver",
    "Message",
    "NodeAlgorithm",
    "RoundEngine",
    "RoundLedger",
    "RoundObserver",
    "RoundSnapshot",
    "SimulationResult",
    "Simulator",
    "StatsObserver",
    "SyncEngine",
    "TopologySnapshot",
    "Transport",
    "VectorEngine",
    "build_bfs_tree",
    "build_spanning_bfs_tree",
    "elect_leader",
    "id_bits",
    "message_bits",
    "run_bfs_layering",
    "run_convergecast_sum",
    "run_flooding",
    "run_leader_election",
]


def __getattr__(name: str):
    # VectorEngine is exported lazily (PEP 562): importing it pulls numpy,
    # which scalar-only users should never pay for at `import repro` time.
    if name == "VectorEngine":
        from repro.congest.vector_engine import VectorEngine

        return VectorEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
