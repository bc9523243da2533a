"""The solver registry: typed algorithms dispatched through one ``solve``.

Every algorithm in the library is registered here as an :class:`Algorithm`:
a name, the :class:`~repro.api.problems.Problem` it solves, a frozen typed
config (the ``defaults`` tuple enumerates every accepted key with its
default value -- unknown keys are a ``TypeError``), and an adapter callable
``run(graph, ctx) -> AdapterOutcome``.

Seed policy (the reproducibility contract)
------------------------------------------
Adapters never construct randomness themselves: the solve path derives one
integer seed per call and hands the adapter a :class:`SolveContext` carrying
both the integer (``ctx.seed``, used for CONGEST ID assignments and
simulator seeding) and a single ``random.Random`` built from it
(``ctx.rng``, passed to the graph-level algorithms).  When the caller
supplies ``seed=s`` the integer is ``s`` itself (policy ``"explicit"`` --
bit-identical to calling the legacy free function with
``random.Random(s)``); otherwise it is derived with
:func:`repro.hashing.seeds.derive_seed` from the algorithm name, the
canonical config and the graph fingerprint (policy ``"derived"``).  Either
way the concrete integer lands in ``RunReport.provenance``, so
:func:`replay`-ing a provenance block reproduces the run bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping

import networkx as nx

from repro.api.problems import BUILTIN_PROBLEMS, Problem
from repro.api.report import Provenance, RunReport, graph_fingerprint
from repro.hashing.seeds import derive_seed

Node = Hashable

__all__ = [
    "AdapterOutcome",
    "Algorithm",
    "SolveContext",
    "SolvePlan",
    "SolverRegistry",
]


def _config_tuple(config: Mapping[str, Any] | None) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted((config or {}).items()))


@dataclass(frozen=True)
class SolveContext:
    """Everything an adapter may consume besides the graph itself."""

    config: Mapping[str, Any]
    seed: int
    rng: random.Random = field(repr=False)

    def __getitem__(self, key: str) -> Any:
        return self.config[key]


@dataclass
class AdapterOutcome:
    """What an adapter hands back to the solve path."""

    output: set[Node]
    rounds: int
    metrics: dict[str, Any] = field(default_factory=dict)
    payload: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SolvePlan:
    """A fully-resolved solve before execution: the content address.

    ``plan()`` performs everything deterministic about a solve -- algorithm
    resolution, config canonicalisation, graph fingerprinting and seed
    derivation -- without running the algorithm.  The resulting tuple
    ``(graph_fingerprint, algorithm, config, seed)`` identifies the run
    bit-for-bit (it is exactly what lands in the report's provenance), so
    the service layer uses the plan as its cache key and coalescing
    identity.
    """

    algorithm: Algorithm
    config: tuple[tuple[str, Any], ...]
    graph_fingerprint: str
    seed: int
    seed_policy: str

    @property
    def config_dict(self) -> dict[str, Any]:
        return dict(self.config)


@dataclass(frozen=True)
class Algorithm:
    """A registered solver with a declared problem and typed config."""

    name: str
    problem: str
    run: Callable[[nx.Graph, SolveContext], AdapterOutcome]
    #: Every accepted config key with its default value; the frozen schema.
    defaults: tuple[tuple[str, Any], ...] = ()
    description: str = ""
    simulator_native: bool = False
    randomized: bool = True
    #: Config keys that select *how* the run executes without changing what
    #: it computes (the ``engine`` of the simulator-native algorithms): they
    #: are recorded in the provenance but excluded from derived-seed
    #: material, so e.g. ``engine="vector"`` and ``engine="sync"`` derive
    #: the same seed and produce bit-identical outputs.  ``replay`` accepts
    #: overrides for exactly these keys.
    seed_neutral: tuple[str, ...] = ()
    #: Optional batched runner ``run_batch(graph, [ctx, ...]) -> [outcome,
    #: ...]`` executing one seed sweep (shared graph and config, one context
    #: per seed) as a single batch.  Must be bit-identical, outcome by
    #: outcome, to calling :attr:`run` once per context;
    #: :meth:`SolverRegistry.solve_batch` falls back to exactly that loop
    #: when the field is ``None``.
    run_batch: Callable[[nx.Graph, "list[SolveContext]"],
                        "list[AdapterOutcome]"] | None = None

    @property
    def config_keys(self) -> frozenset[str]:
        return frozenset(key for key, _ in self.defaults)

    @property
    def seed_neutral_keys(self) -> frozenset[str]:
        return frozenset(self.seed_neutral)

    def resolve_config(self, overrides: Mapping[str, Any]) -> dict[str, Any]:
        """Merge overrides into the defaults; unknown keys are a TypeError."""
        unknown = set(overrides) - self.config_keys
        if unknown:
            allowed = ", ".join(sorted(self.config_keys)) or "(none)"
            raise TypeError(
                f"algorithm {self.name!r} got unknown config "
                f"{sorted(unknown)}; accepted keys: {allowed}")
        config = dict(self.defaults)
        config.update(overrides)
        return config


class SolverRegistry:
    """Problems and algorithms behind the uniform ``solve`` entry point."""

    def __init__(self) -> None:
        self._problems: dict[str, Problem] = {}
        self._algorithms: dict[str, Algorithm] = {}
        self._default_algorithm: dict[str, str] = {}

    # ------------------------------------------------------------- problems
    def register_problem(self, problem: Problem) -> Problem:
        if problem.name in self._problems:
            raise ValueError(f"problem {problem.name!r} already registered")
        self._problems[problem.name] = problem
        return problem

    def problem(self, name: str) -> Problem:
        return self._problems[name]

    def problems(self) -> list[Problem]:
        return list(self._problems.values())

    def problem_names(self) -> list[str]:
        return sorted(self._problems)

    # ----------------------------------------------------------- algorithms
    def register(self, algorithm: Algorithm, *, default: bool = False) -> Algorithm:
        if algorithm.name in self._algorithms:
            raise ValueError(f"algorithm {algorithm.name!r} already registered")
        if algorithm.problem not in self._problems:
            raise KeyError(f"algorithm {algorithm.name!r} declares unknown "
                           f"problem {algorithm.problem!r}")
        self._algorithms[algorithm.name] = algorithm
        if default or algorithm.problem not in self._default_algorithm:
            self._default_algorithm[algorithm.problem] = algorithm.name
        return algorithm

    def algorithm(self, name: str) -> Algorithm:
        try:
            return self._algorithms[name]
        except KeyError:
            raise KeyError(
                f"unknown algorithm {name!r}; registered: "
                f"{', '.join(self.algorithm_names())}") from None

    def algorithms(self, *, problem: str | None = None) -> list[Algorithm]:
        return [spec for spec in self._algorithms.values()
                if problem is None or spec.problem == problem]

    def algorithm_names(self) -> list[str]:
        return sorted(self._algorithms)

    def default_algorithm(self, problem: str) -> Algorithm:
        """The algorithm ``solve`` picks when handed a problem name."""
        name = self._default_algorithm.get(problem)
        if name is None:
            raise KeyError(f"problem {problem!r} has no registered algorithm")
        return self._algorithms[name]

    def resolve(self, problem_or_algorithm: str | Algorithm | Problem) -> Algorithm:
        """Map a name (algorithm first, then problem family) to an Algorithm."""
        if isinstance(problem_or_algorithm, Algorithm):
            return problem_or_algorithm
        if isinstance(problem_or_algorithm, Problem):
            return self.default_algorithm(problem_or_algorithm.name)
        name = str(problem_or_algorithm)
        if name in self._algorithms:
            return self._algorithms[name]
        if name in self._problems:
            return self.default_algorithm(name)
        raise KeyError(
            f"{name!r} is neither a registered algorithm "
            f"({', '.join(self.algorithm_names())}) nor a problem family "
            f"({', '.join(self.problem_names())})")

    # ------------------------------------------------------------ execution
    def plan(self, graph: nx.Graph,
             problem_or_algorithm: str | Algorithm | Problem, *,
             seed: int | None = None, **config: Any) -> SolvePlan:
        """Resolve a solve to its content address without executing it.

        Performs the deterministic half of :meth:`solve` -- name
        resolution, typed-config validation and canonicalisation, graph
        fingerprinting and seed derivation -- and returns the
        :class:`SolvePlan` that identifies the run.  ``solve`` itself is
        ``plan`` + adapter execution + certification, so a plan computed by
        the service layer keys exactly the report ``solve`` would produce.
        """
        spec = self.resolve(problem_or_algorithm)
        resolved = spec.resolve_config(config)
        fingerprint = graph_fingerprint(graph)
        canonical = _config_tuple(resolved)
        if seed is not None:
            derived_seed, policy = int(seed), "explicit"
        else:
            # Execution-selection keys (engine backends) are excluded from
            # the seed material: the same workload derives the same seed --
            # and therefore the same outputs -- under every engine.
            material = tuple(item for item in canonical
                             if item[0] not in spec.seed_neutral_keys)
            derived_seed = derive_seed("repro.api", spec.name, fingerprint,
                                       material, bits=32)
            policy = "derived"
        return SolvePlan(algorithm=spec, config=canonical,
                         graph_fingerprint=fingerprint, seed=derived_seed,
                         seed_policy=policy)

    def solve(self, graph: nx.Graph,
              problem_or_algorithm: str | Algorithm | Problem, *,
              seed: int | None = None, verify: bool = True,
              **config: Any) -> RunReport:
        """Run a registered algorithm and return its certified RunReport.

        ``problem_or_algorithm`` is an algorithm name (``"power-mis"``), a
        problem-family name (``"mis-power"``, dispatched to the family's
        default algorithm) or a spec object.  ``seed`` pins the run's
        randomness (policy ``"explicit"``); omitted, a seed is derived from
        the algorithm, config and graph fingerprint (policy ``"derived"``).
        ``verify=True`` attaches the problem certifier's Certificate.
        """
        plan = self.plan(graph, problem_or_algorithm, seed=seed, **config)
        ctx = SolveContext(config=plan.config_dict, seed=plan.seed,
                           rng=random.Random(plan.seed))
        outcome = plan.algorithm.run(graph, ctx)
        return self._finish(graph, plan, outcome, verify=verify)

    def solve_batch(self, graph: nx.Graph,
                    problem_or_algorithm: str | Algorithm | Problem, *,
                    seeds: Any, verify: bool = True,
                    **config: Any) -> list[RunReport]:
        """Run one algorithm for many explicit seeds; one RunReport per seed.

        Semantically equivalent to ``[solve(graph, ..., seed=s, **config)
        for s in seeds]`` -- every report is certified and replayable on
        its own (policy ``"explicit"``) -- but algorithms that declare a
        batched runner (:attr:`Algorithm.run_batch`) execute the whole
        sweep as a single batch: the simulator-native algorithms run all
        replicas as one array program over the shared topology
        (:func:`repro.congest.batch.simulate_replicas`), sharing CSR
        neighbor structure and round loops across seeds while keeping each
        replica's RNG streams, transport accounting and outputs
        bit-identical to its solo run.
        """
        seed_list = [int(s) for s in seeds]
        if not seed_list:
            return []
        plans = [self.plan(graph, problem_or_algorithm, seed=s, **config)
                 for s in seed_list]
        spec = plans[0].algorithm
        ctxs = [SolveContext(config=plan.config_dict, seed=plan.seed,
                             rng=random.Random(plan.seed))
                for plan in plans]
        if spec.run_batch is not None:
            outcomes = spec.run_batch(graph, ctxs)
            if len(outcomes) != len(ctxs):
                raise RuntimeError(
                    f"algorithm {spec.name!r} run_batch returned "
                    f"{len(outcomes)} outcomes for {len(ctxs)} seeds")
        else:
            outcomes = [spec.run(graph, ctx) for ctx in ctxs]
        return [self._finish(graph, plan, outcome, verify=verify)
                for plan, outcome in zip(plans, outcomes)]

    def _finish(self, graph: nx.Graph, plan: SolvePlan,
                outcome: AdapterOutcome, *, verify: bool) -> RunReport:
        """Certify an adapter outcome and assemble its RunReport."""
        from repro import __version__ as library_version  # late: avoids cycle

        spec = plan.algorithm
        provenance = Provenance(
            algorithm=spec.name,
            problem=spec.problem,
            config=plan.config,
            seed=plan.seed,
            seed_policy=plan.seed_policy,
            graph_fingerprint=plan.graph_fingerprint,
            n=graph.number_of_nodes(),
            m=graph.number_of_edges(),
            library_version=library_version,
        )
        certificate = None
        if verify:
            certificate = self._problems[spec.problem].certify(
                graph, outcome.output, config=plan.config_dict,
                payload=outcome.payload)
        return RunReport(output=outcome.output, rounds=outcome.rounds,
                         provenance=provenance, metrics=outcome.metrics,
                         payload=outcome.payload, certificate=certificate)

    def replay(self, graph: nx.Graph, provenance: Provenance, *,
               verify: bool = True, **overrides: Any) -> RunReport:
        """Re-run a provenance block; bit-identical on the same graph.

        ``overrides`` may remap the algorithm's *seed-neutral* config keys
        only (e.g. ``engine="sync"`` to replay a vector-engine report on
        the reference engine) -- those select the execution backend without
        affecting seeds or outputs, so the replay stays bit-for-bit equal.
        Overriding any other key would change what is computed and raises
        ``TypeError``.
        """
        if graph_fingerprint(graph) != provenance.graph_fingerprint:
            raise ValueError(
                "graph fingerprint mismatch: the provenance block was recorded "
                f"for {provenance.graph_fingerprint}, got "
                f"{graph_fingerprint(graph)}")
        if overrides:
            spec = self.resolve(provenance.algorithm)
            illegal = set(overrides) - spec.seed_neutral_keys
            if illegal:
                allowed = ", ".join(sorted(spec.seed_neutral_keys)) or "(none)"
                raise TypeError(
                    f"replay can only override the seed-neutral keys of "
                    f"{spec.name!r} ({allowed}); got {sorted(illegal)}")
        config = {**provenance.config_dict, **overrides}
        return self.solve(graph, provenance.algorithm, seed=provenance.seed,
                          verify=verify, **config)


def _with_builtin_problems(registry: SolverRegistry) -> SolverRegistry:
    for problem in BUILTIN_PROBLEMS:
        registry.register_problem(problem)
    return registry


def new_registry() -> SolverRegistry:
    """A fresh registry pre-loaded with the builtin problem families."""
    return _with_builtin_problems(SolverRegistry())
