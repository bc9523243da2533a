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
:mod:`repro.service`.

The legacy free functions (``repro.power_graph_mis`` and friends) remain as
deprecation shims with bit-identical outputs; new code should call
``repro.solve`` or import the implementation modules directly.
"""

import functools as _functools
import warnings as _warnings

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
    "aglp_ruling_set": "repro.ruling.aglp",
    "api": "repro.api",
    "beeping_mis": "repro.mis.beeping",
    "beeping_mis_power": "repro.mis.beeping",
    "check_power_sparsification": "repro.core.invariants",
    "check_sparsification": "repro.core.invariants",
    "det_sparsification": "repro.core.detsparsify",
    "deterministic_power_ruling_set": "repro.ruling.det_ruling_set",
    "form_distance_k_ball_graph": "repro.decomposition.ball_graph",
    "greedy_mis": "repro.ruling.greedy",
    "id_based_ruling_set": "repro.ruling.aglp",
    "is_mis_of_power_graph": "repro.ruling.verify",
    "is_ruling_set": "repro.ruling.verify",
    "luby_mis": "repro.mis.luby",
    "luby_mis_power": "repro.mis.luby",
    "network_decomposition": "repro.decomposition.network_decomposition",
    "power_graph": "repro.graphs",
    "power_graph_mis": "repro.mis.power_mis",
    "power_graph_ruling_set": "repro.mis.power_ruling",
    "power_graph_sparsification": "repro.core.power_sparsify",
    "power_graph_sparsification_low_diameter": "repro.core.power_sparsify",
    "randomized_sparsification": "repro.core.sampling",
    "replay": "repro.api",
    "shattering_mis": "repro.mis.shattering",
    "solve": "repro.api",
    "solve_batch": "repro.api",
    "verify_invariants": "repro.core.invariants",
    "verify_ruling_set": "repro.ruling.verify",
}

#: Legacy solver entry points, served as deprecation shims over their
#: implementation modules, each with its ``repro.solve`` algorithm name.
_DEPRECATED = {
    "aglp_ruling_set": "aglp",
    "beeping_mis": "beeping",
    "beeping_mis_power": "beeping-power",
    "det_sparsification": "det-sparsify",
    "deterministic_power_ruling_set": "det-power-ruling",
    "form_distance_k_ball_graph": "ball-graph",
    "greedy_mis": "greedy-mis",
    "id_based_ruling_set": "id-ruling",
    "luby_mis": "luby",
    "luby_mis_power": "luby-power",
    "network_decomposition": "network-decomposition",
    "power_graph_mis": "power-mis",
    "power_graph_ruling_set": "power-ruling",
    "power_graph_sparsification": "sparsify",
    "power_graph_sparsification_low_diameter": "sparsify-low-diameter",
    "randomized_sparsification": "randomized-sparsify",
    "shattering_mis": "shattering-mis",
}


def _deprecated_shim(func, api_name=None):
    """Wrap a legacy free function in a DeprecationWarning-emitting shim.

    The shim delegates verbatim (bit-identical outputs); the replacement
    hint names the ``repro.solve`` algorithm when one exists.  Internal
    code imports the implementation modules directly and never routes
    through these shims -- the parity suite runs with
    ``-W error::DeprecationWarning`` to enforce that.
    """
    if api_name:
        hint = f'repro.solve(graph, "{api_name}", ...)'
    else:
        hint = f"{func.__module__}.{func.__name__}"

    @_functools.wraps(func)
    def shim(*args, **kwargs):
        _warnings.warn(
            f"repro.{func.__name__} is deprecated; use {hint} "
            f"(or import {func.__module__}.{func.__name__} directly)",
            DeprecationWarning, stacklevel=2)
        return func(*args, **kwargs)

    return shim


def _wrap_deprecated(name, value):
    if name in _DEPRECATED:
        return _deprecated_shim(value, _DEPRECATED[name])
    return value


__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS,
                                     wrap=_wrap_deprecated)

__all__ = [*sorted(_EXPORTS), "__version__"]
