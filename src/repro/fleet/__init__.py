"""Distributed solve fleet: registry, affinity routing, failure containment.

The fifth subsystem layers *horizontal scale-out* over the service stack
without changing its semantics: a fleet is N independent ``repro serve``
nodes (:mod:`repro.fleet.worker`) behind one asyncio front door
(:mod:`repro.fleet.coordinator`), held together by a lease-based worker
registry (:mod:`repro.fleet.registry`) and a retrying, circuit-breaking
JSON/HTTP transport (:mod:`repro.fleet.transport`).

Determinism does the heavy lifting.  Every solve is content-addressed by
``solve_key(graph_fingerprint, algorithm, config, seed)``, so the
distributed-systems problems that usually need protocol work collapse:

* **Affinity routing** is pure optimisation -- consistent hashing sends a
  graph's solves to the worker whose cache is warm for it, but *any*
  worker computes the bit-identical report.
* **Retries are idempotent replay** -- re-sending a failed request to
  another worker needs no dedup tables or fencing; at worst it recomputes
  the exact same bytes.
* **Speculative scatter** needs no quorum -- the first successful answer
  is as good as any other, and disagreeing answers are impossible by
  construction.

Failures are contained MAAS-style: fan-outs collect a ``(discovered,
failures)`` pair per worker and resolve it with
:func:`~repro.fleet.transport.get_best_discovered_result` -- any success
wins, otherwise the *most informative* failure is raised (a request-level
4xx beats a solver 5xx beats load shedding beats a connection error).

Entry points: ``repro fleet coordinator``, ``repro fleet worker
--coordinator URL``, ``repro fleet status`` (:mod:`repro.fleet.cli`).
"""

from repro._lazy import lazy_exports as _lazy_exports

#: Public name -> the submodule that defines it, imported on first access.
_EXPORTS = {
    "CircuitBreaker": "repro.fleet.transport",
    "CircuitOpenError": "repro.fleet.transport",
    "FleetCoordinator": "repro.fleet.coordinator",
    "FleetError": "repro.fleet.transport",
    "FleetWorker": "repro.fleet.worker",
    "HashRing": "repro.fleet.coordinator",
    "NoLiveWorkersError": "repro.fleet.transport",
    "TransportError": "repro.fleet.transport",
    "WorkerInfo": "repro.fleet.registry",
    "WorkerLink": "repro.fleet.transport",
    "WorkerRegistry": "repro.fleet.registry",
    "assemble_trace": "repro.fleet.tracing",
    "federate_prometheus": "repro.fleet.tracing",
    "get_best_discovered_result": "repro.fleet.transport",
    "render_span_tree": "repro.fleet.tracing",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
