"""Tests for the analysis helpers and the top-level public API surface."""

from __future__ import annotations

import os

import networkx as nx
import pytest

import repro
from repro.analysis import (
    AlgorithmRun,
    format_series,
    format_table,
    mis_quality,
    record_experiment,
    ruling_set_quality,
    sparsification_quality,
)
from repro.core.power_sparsify import power_graph_sparsification
from repro.graphs import random_regular_graph
from repro.ruling.det_ruling_set import deterministic_power_ruling_set
from repro.ruling.greedy import greedy_mis, greedy_ruling_set


class TestMetrics:
    def test_ruling_set_quality(self):
        graph = nx.cycle_graph(12)
        quality = ruling_set_quality(graph, {0, 4, 8}, alpha=4, beta=2)
        assert quality["valid"]
        assert quality["size"] == 3
        assert quality["independence"] == 4
        assert quality["domination"] == 2

    def test_mis_quality(self):
        graph = random_regular_graph(40, 4, seed=1)
        mis = greedy_mis(graph, 2)
        quality = mis_quality(graph, mis, k=2)
        assert quality["valid"]
        assert quality["k"] == 2

    def test_sparsification_quality(self):
        graph = random_regular_graph(60, 5, seed=2)
        result = power_graph_sparsification(graph, 2)
        quality = sparsification_quality(graph, set(graph.nodes()), result.q, 2)
        assert quality["valid"]
        assert quality["max_q_degree"] <= quality["degree_bound"]

    def test_algorithm_run_row(self):
        run = AlgorithmRun(algorithm="luby", graph_name="regular-40", n=40, delta=4,
                           k=1, rounds=12, extra={"size": 11})
        row = run.as_row()
        assert row["algorithm"] == "luby"
        assert row["size"] == 11
        assert row["rounds"] == 12


class TestTables:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy", "c": 3.14159}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1] and "c" in lines[1]
        assert "3.14" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_series(self):
        text = format_series("n", [10, 20], {"rounds": [5, 9], "size": [3, 6]},
                             title="scaling")
        assert "scaling" in text
        assert "rounds" in text
        assert "20" in text

    def test_record_experiment(self, tmp_path):
        path = os.path.join(tmp_path, "results.md")
        record_experiment(path, "E-TEST", "row1\nrow2")
        with open(path, encoding="utf-8") as handle:
            content = handle.read()
        assert "## E-TEST" in content
        assert "row1" in content


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.2.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_quickstart_docstring_flow(self):
        graph = nx.random_regular_graph(4, 60, seed=1)
        result = deterministic_power_ruling_set(graph, k=2)
        report = repro.verify_ruling_set(graph, result.ruling_set, alpha=3,
                                         beta=result.beta_bound)
        assert report.ok

    def test_greedy_ruling_set_exported_through_subpackage(self):
        graph = nx.cycle_graph(10)
        ruling = greedy_ruling_set(graph, alpha=3)
        assert repro.is_ruling_set(graph, ruling, 3, 2)
