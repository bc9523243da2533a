"""Behavior of the typed solver API: solve, certify, provenance, CLI."""

from __future__ import annotations

import asyncio
import json

import networkx as nx
import pytest

import repro
from repro.api import REGISTRY, RunReport, graph_fingerprint, replay, solve
from repro.api.certify import sparsification_checks
from repro.cli import main as cli_main
from repro.scenarios.registry import (
    DEFAULT_REGISTRY,
    Scenario,
    ScenarioRegistry,
    scenario_config,
)
from repro.scenarios.runner import _request, run_task
from repro.service.cache import SolveCache
from repro.service.scheduler import SolveScheduler

K = 2


@pytest.fixture(scope="module")
def workload() -> nx.Graph:
    return DEFAULT_REGISTRY.build_cell("regular-n24-d3", seed=5)


class TestSolve:
    def test_every_algorithm_solves_and_certifies(self, workload):
        for name in REGISTRY.algorithm_names():
            spec = REGISTRY.algorithm(name)
            config = {"k": K} if "k" in spec.config_keys else {}
            report = solve(workload, name, seed=3, **config)
            assert isinstance(report, RunReport)
            assert report.verified, f"{name}: {report.certificate.summary()}"
            assert report.provenance.algorithm == name
            assert report.provenance.problem == spec.problem

    def test_verify_false_skips_certificate(self, workload):
        report = solve(workload, "power-mis", k=K, seed=3, verify=False)
        assert report.certificate is None
        assert not report.verified
        assert report.ok  # unverified is not failed

    def test_unknown_algorithm_raises(self, workload):
        with pytest.raises(KeyError, match="neither a registered algorithm"):
            solve(workload, "no-such-algorithm")

    def test_unknown_config_key_raises(self, workload):
        with pytest.raises(TypeError, match="unknown config"):
            solve(workload, "power-mis", k=K, bogus=1)

    def test_problem_name_dispatches_to_default_algorithm(self, workload):
        assert solve(workload, "mis-power", k=K, seed=3).algorithm == "power-mis"
        assert solve(workload, "ruling-set", k=K,
                     seed=3).algorithm == "det-power-ruling"
        assert solve(workload, "sparsify-power", k=K,
                     seed=3).algorithm == "sparsify"

    def test_top_level_exports_are_the_default_registry(self, workload):
        assert repro.solve.__self__ is REGISTRY
        assert repro.replay.__self__ is REGISTRY


class TestSeedPolicy:
    def test_derived_seed_is_deterministic(self, workload):
        first = solve(workload, "power-mis", k=K)
        second = solve(workload, "power-mis", k=K)
        assert first.provenance.seed_policy == "derived"
        assert first.provenance.seed == second.provenance.seed
        assert first.output == second.output
        assert first.rounds == second.rounds

    def test_derived_seed_depends_on_config_and_graph(self, workload):
        other_config = solve(workload, "power-mis", k=3)
        other_graph = solve(nx.path_graph(24), "power-mis", k=K)
        base = solve(workload, "power-mis", k=K)
        assert base.provenance.seed != other_config.provenance.seed
        assert base.provenance.seed != other_graph.provenance.seed

    def test_explicit_seed_recorded(self, workload):
        report = solve(workload, "luby", seed=42)
        assert report.provenance.seed == 42
        assert report.provenance.seed_policy == "explicit"

    def test_replay_is_bit_identical(self, workload):
        for name in ("power-mis", "det-ruling-sim", "sparsify"):
            config = {"k": K} if name != "det-ruling-sim" else {}
            report = solve(workload, name, **config)
            again = replay(workload, report.provenance)
            assert again.output == report.output, name
            assert again.rounds == report.rounds, name
            # The replay pins the derived seed explicitly; everything else
            # in the provenance block must round-trip unchanged.
            assert again.provenance.seed == report.provenance.seed, name
            assert again.provenance.seed_policy == "explicit", name
            assert again.provenance.config == report.provenance.config, name
            assert again.provenance.graph_fingerprint == \
                report.provenance.graph_fingerprint, name

    def test_replay_rejects_wrong_graph(self, workload):
        report = solve(workload, "luby", seed=1)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            replay(nx.path_graph(5), report.provenance)

    def test_fingerprint_is_label_stable(self):
        one = nx.Graph([(1, 2), (2, 3)])
        two = nx.Graph([(2, 3), (1, 2)])  # different insertion order
        assert graph_fingerprint(one) == graph_fingerprint(two)
        assert graph_fingerprint(one) != graph_fingerprint(nx.Graph([(1, 2)]))

    def test_streaming_fingerprint_matches_its_definition(self):
        """The large-graph digest is a cache key: its value is pinned
        against the per-item definition, on labels whose ``str`` order
        differs from their natural order."""
        import hashlib

        from repro.api.report import _streaming_fingerprint

        def reference(graph):
            node_acc = edge_acc = 0
            for node in graph.nodes():
                item = hashlib.sha256(f"v:{node!r};".encode()).digest()
                node_acc = (node_acc + int.from_bytes(item, "big")) % 2 ** 256
            for u, v in graph.edges():
                a, b = sorted((u, v), key=str)
                item = hashlib.sha256(f"e:{a!r}|{b!r};".encode()).digest()
                edge_acc = (edge_acc + int.from_bytes(item, "big")) % 2 ** 256
            digest = hashlib.sha256(f"merkle;n={graph.number_of_nodes()};"
                                    f"m={graph.number_of_edges()};".encode())
            digest.update(node_acc.to_bytes(32, "big"))
            digest.update(edge_acc.to_bytes(32, "big"))
            return digest.hexdigest()[:16]

        mixed = nx.Graph([(9, 10), (10, "a"), ((1, 2), 9), ("b", "a"), (3, 3)])
        for graph in (mixed, nx.random_regular_graph(4, 200, seed=1)):
            reordered = nx.Graph()
            reordered.add_nodes_from(reversed(list(graph.nodes())))
            reordered.add_edges_from((v, u) for u, v in reversed(list(graph.edges())))
            assert _streaming_fingerprint(graph) == reference(graph)
            assert _streaming_fingerprint(reordered) == reference(graph)
        assert _streaming_fingerprint(mixed) == "64fd67c6023960ba"


class TestReportShape:
    def test_to_row_is_json_serialisable(self, workload):
        report = solve(workload, "det-power-ruling", k=K, seed=3)
        row = json.loads(json.dumps(report.to_row()))
        assert row["algorithm"] == "det-power-ruling"
        assert row["problem"] == "ruling-set"
        assert row["certificate"]["ok"] is True
        assert row["provenance"]["seed"] == 3

    def test_native_result_rides_in_payload(self, workload):
        report = solve(workload, "power-mis", k=K, seed=3)
        assert report.result is not None
        assert report.result.mis == report.output

    def test_sparsification_sequence_length_is_checked(self, workload):
        sequence = solve(workload, "sparsify", k=K, seed=3).result.sequence
        assert len(sequence) == K + 1
        for whole in (sequence, [sequence[0], sequence[-1]]):  # chain, Lemma 5.8 form
            assert all(check.ok for check in sparsification_checks(workload, whole, K))
        failed = [check.name for check in sparsification_checks(workload, sequence[:1], K)
                  if not check.ok]
        assert failed == ["sequence-length"]

    def test_greedy_reference_check_attached_for_det_ruling_sim(self, workload):
        report = solve(workload, "det-ruling-sim", seed=3)
        names = [check.name for check in report.certificate.checks]
        assert "greedy-reference" in names
        assert report.verified


def _runner_report(scenario: Scenario, *, seed: int) -> RunReport:
    """The report the scenario runner's request for one task yields."""

    async def submit() -> RunReport:
        scheduler = SolveScheduler(cache=SolveCache(""), shards=1,
                                   inline=True, metrics=None, tracing=False)
        try:
            response = await scheduler.submit(
                _request(scenario, seed, verify=True))
        finally:
            await scheduler.stop()
        return response.report

    return asyncio.run(submit())


class TestScenarioIntegration:
    def test_scenarios_accept_exactly_the_solver_registry(self):
        registry = ScenarioRegistry()
        registry.register_family(DEFAULT_REGISTRY.family("path"))
        registry.register_cell("p8", "path", params={"n": 8})
        for name in REGISTRY.algorithm_names():
            assert registry.add_scenario("p8", name).algorithm == name
        with pytest.raises(KeyError, match="power-mis"):
            registry.add_scenario("p8", "no-such-algorithm")

    def test_scenario_view_matches_direct_solve(self):
        scenario = DEFAULT_REGISTRY.scenario("regular-n24-d3/power-mis-k2")
        graph = DEFAULT_REGISTRY.build_graph(scenario, seed=11)
        direct = solve(graph, "power-mis", k=2, seed=11)
        report = _runner_report(scenario, seed=11)
        assert report.output == direct.output
        assert report.rounds == direct.rounds
        row = run_task(scenario, seed=11)
        assert row["output_size"] == len(direct.output)
        assert row["rounds"] == direct.rounds

    def test_runner_verdict_is_the_solve_certificate(self):
        scenario = DEFAULT_REGISTRY.scenario("regular-n24-d3/sparsify-k2")
        graph = DEFAULT_REGISTRY.build_graph(scenario, seed=11)
        direct = solve(graph, "sparsify", k=2, seed=11)
        report = _runner_report(scenario, seed=11)
        assert report.certificate.ok == direct.certificate.ok
        assert [c.name for c in report.certificate.checks] == \
            [c.name for c in direct.certificate.checks]
        row = run_task(scenario, seed=11)
        assert row["ok"] == direct.certificate.ok
        assert row["checks"] == len(direct.certificate.checks)

    def test_scenario_payload_feeds_the_certifier(self):
        scenario = DEFAULT_REGISTRY.scenario("er-n20/det-power-ruling-k2")
        graph = DEFAULT_REGISTRY.build_graph(scenario, seed=4)
        report = solve(graph, scenario.algorithm, seed=4,
                       **scenario_config(scenario))
        assert "beta_bound" in report.payload
        assert "alpha" in report.payload

    def test_run_and_verify_agree_on_filtered_config(self):
        """A k the algorithm does not accept must be dropped on BOTH paths.

        luby-sim never sees `k` (it computes an MIS of G); a scenario that
        nonetheless carries k=2 must not be verified against G^2.
        """
        scenario = Scenario(name="adhoc/luby-sim-k2", cell="regular-n24-d3",
                            algorithm="luby-sim", k=2, engine="sync")
        assert "k" not in scenario_config(scenario)
        row = run_task(scenario, seed=3)
        assert row["ok"] and row["checks"] > 0, row["failures"]


class TestCli:
    def test_solve_command_smoke(self, capsys):
        exit_code = cli_main(["solve", "regular-n24-d3", "power-mis",
                              "--k", "2", "--seed", "3"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "power-mis" in out and "checks ok" in out

    def test_solve_command_json(self, capsys):
        exit_code = cli_main(["solve", "er", "power-ruling", "--k", "2",
                              "--param", "beta=2", "--json"])
        assert exit_code == 0
        row = json.loads(capsys.readouterr().out)
        assert row["certificate"]["ok"] is True
        assert row["provenance"]["config"]["beta"] == 2

    def test_solve_command_rejects_unknown_algorithm(self, capsys):
        assert cli_main(["solve", "er", "nope"]) == 2

    def test_algorithms_command_lists_registry(self, capsys):
        assert cli_main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "power-mis" in out and "mis-power" in out

    def test_scenarios_passthrough(self, capsys):
        assert cli_main(["scenarios", "list", "--smoke"]) == 0
        assert "det-ruling-sim" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_version(self, capsys):
        assert cli_main(["--version"]) == 0
        assert repro.__version__ in capsys.readouterr().out
