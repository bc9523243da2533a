"""repro -- distributed symmetry breaking on power graphs via sparsification.

A simulation-grade reproduction of

    Yannic Maus, Saku Peltonen, Jara Uitto.
    "Distributed Symmetry Breaking on Power Graphs via Sparsification."
    PODC 2023 (arXiv:2302.06878).

The library implements, on a CONGEST simulator / round-cost model:

* the deterministic sparsification of power graphs (Lemma 3.1 / 5.1 / 5.8)
  and the communication tools of Section 4;
* the deterministic ``(k+1, k^2)``-ruling set of Theorem 1.1, plus the
  AGLP-style baselines it improves upon (Theorem 6.1, Corollary 6.2);
* the randomized MIS of ``G^k`` of Theorem 1.2 and the ``beta``-ruling sets
  of Corollary 1.3 (shattering + ball graphs + network decomposition);
* the revisited shattering MIS of ``G`` of Theorem 1.4;
* the baselines used for comparison (Luby on ``G^k``, BeepingMIS, KP12).

Quickstart
----------
Every algorithm is registered in the typed solver API and dispatched
through one call -- ``repro.solve(graph, algorithm_or_problem, **config)``
-- which returns a :class:`~repro.api.RunReport` carrying the solution set,
the charged CONGEST rounds, provenance (algorithm, config, derived seed,
graph fingerprint) and a verification certificate:

>>> import networkx as nx
>>> import repro
>>> graph = nx.random_regular_graph(4, 60, seed=1)
>>> report = repro.solve(graph, "det-power-ruling", k=2, seed=7)
>>> report.certificate.ok          # (k+1, k^2)-ruling set, verified
True
>>> report.rounds > 0              # charged CONGEST rounds
True
>>> replayed = repro.replay(graph, report.provenance)
>>> replayed.output == report.output
True

``repro.solve(graph, "mis-power", k=2)`` dispatches a problem *family* to
its default algorithm (Theorem 1.2's shattering MIS).  The registered
algorithms are listed by ``repro.api.REGISTRY.algorithm_names()`` and the
``repro`` command line (``repro solve <cell> <algorithm>``,
``repro scenarios run --smoke``).  ``repro serve`` exposes the same solves
over JSON/HTTP behind the content-addressed cache of
:mod:`repro.service`.  The free functions behind each algorithm live in
their implementation modules (``repro.mis.power_mis.power_graph_mis`` and
friends).
"""

from repro._lazy import lazy_exports as _lazy_exports

__version__ = "1.2.0"

#: Public name -> the module that defines it, imported on first access
#: (``repro.api`` is the subpackage itself).
_EXPORTS = {
    "ActiveSetEngine": "repro.congest",
    "Algorithm": "repro.api.registry",
    "Certificate": "repro.api",
    "CongestNetwork": "repro.congest",
    "NodeAlgorithm": "repro.congest",
    "Problem": "repro.api",
    "Provenance": "repro.api",
    "RoundLedger": "repro.congest",
    "RoundObserver": "repro.congest",
    "RunReport": "repro.api",
    "Simulator": "repro.congest",
    "SolverRegistry": "repro.api.registry",
    "SyncEngine": "repro.congest",
    "api": "repro.api",
    "check_power_sparsification": "repro.core.invariants",
    "check_sparsification": "repro.core.invariants",
    "is_mis_of_power_graph": "repro.ruling.verify",
    "is_ruling_set": "repro.ruling.verify",
    "power_graph": "repro.graphs",
    "replay": "repro.api",
    "solve": "repro.api",
    "solve_batch": "repro.api",
    "verify_invariants": "repro.core.invariants",
    "verify_ruling_set": "repro.ruling.verify",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [*sorted(_EXPORTS), "__version__"]
