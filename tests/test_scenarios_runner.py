"""The batch runner: rows, store caching, shard determinism, CLI."""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import signal
import subprocess
import sys

from repro.api import REGISTRY
from repro.api.registry import AdapterOutcome, Algorithm
from repro.scenarios import (
    DEFAULT_REGISTRY,
    Scenario,
    run_batch,
    run_task,
)
from repro.scenarios.cli import main
from repro.service import scheduler as scheduler_module
from repro.service.shardstore import ShardStore

SMOKE = DEFAULT_REGISTRY.select(tags={"smoke"})


def _comparable(row):
    """Row content that must be identical across runs/processes."""
    return (row["cell_key"], row["rounds"], row["output_size"], row["ok"],
            row["n"], row["m"], row["checks"])


class TestRunTask:
    def test_row_schema_and_verification(self):
        scenario = DEFAULT_REGISTRY.select(names=["regular-n24-d3/power-mis-k2"])[0]
        seed = DEFAULT_REGISTRY.task_seed(scenario)
        row = run_task(scenario, seed=seed)
        assert row["cell_key"] == scenario.cell_key(seed)
        assert row["family"] == "regular"
        assert row["algorithm"] == "power-mis"
        assert row["k"] == 2
        assert row["n"] == 24
        assert row["ok"] and row["checks"] >= 3 and row["failures"] == []
        json.dumps(row)  # every row must be JSON-serialisable

    def test_unverified_row(self):
        scenario = SMOKE[0]
        row = run_task(scenario, seed=1, verify=False)
        assert row["ok"] and row["checks"] == 0


class TestBatchAndStore:
    def test_store_roundtrip_and_caching(self, tmp_path):
        store_path = str(tmp_path / "results")
        scenarios = SMOKE[:6]
        first = run_batch(scenarios, jobs=1, store_path=store_path)
        assert first.ok
        assert (first.executed, first.cached) == (6, 0)
        second = run_batch(scenarios, jobs=1, store_path=store_path)
        assert second.ok
        assert (second.executed, second.cached) == (0, 6)
        assert all(row["cached"] for row in second.rows)
        assert [_comparable(r) for r in sorted(first.rows, key=lambda r: r["cell_key"])] \
            == [_comparable(r) for r in sorted(second.rows, key=lambda r: r["cell_key"])]

    def test_new_cells_only_are_executed(self, tmp_path):
        store_path = str(tmp_path / "results")
        run_batch(SMOKE[:3], jobs=1, store_path=store_path)
        grown = run_batch(SMOKE[:5], jobs=1, store_path=store_path)
        assert (grown.executed, grown.cached) == (2, 3)

    def test_no_resume_re_executes(self, tmp_path):
        store_path = str(tmp_path / "results")
        run_batch(SMOKE[:2], jobs=1, store_path=store_path)
        fresh = run_batch(SMOKE[:2], jobs=1, store_path=store_path, resume=False)
        assert (fresh.executed, fresh.cached) == (2, 0)

    def test_corrupt_store_lines_are_skipped(self, tmp_path):
        store_path = str(tmp_path / "results")
        run_batch(SMOKE[:2], jobs=1, store_path=store_path)
        for segment in glob.glob(os.path.join(store_path, "*", "seg-*")):
            with open(segment, "a", encoding="utf-8") as handle:
                handle.write("{not json\n")
        summary = run_batch(SMOKE[:2], jobs=1, store_path=store_path)
        assert (summary.executed, summary.cached) == (0, 2)

    def test_repeats_derive_distinct_seeds(self, tmp_path):
        store_path = str(tmp_path / "results")
        summary = run_batch(SMOKE[:1], jobs=1, repeats=3, store_path=store_path)
        assert summary.executed == 3
        assert len({row["seed"] for row in summary.rows}) == 3

    def test_parallel_matches_serial(self):
        scenarios = SMOKE[:4]
        serial = run_batch(scenarios, jobs=1, store_path="")
        parallel = run_batch(scenarios, jobs=2, store_path="")
        assert serial.ok and parallel.ok
        key = lambda row: row["cell_key"]
        assert [_comparable(r) for r in sorted(serial.rows, key=key)] \
            == [_comparable(r) for r in sorted(parallel.rows, key=key)]

    def test_store_disabled(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        summary = run_batch(SMOKE[:1], jobs=1, store_path="")
        assert summary.store_path is None
        assert not (tmp_path / "benchmarks").exists()

    def test_unverified_rows_do_not_satisfy_a_verifying_batch(self, tmp_path):
        store_path = str(tmp_path / "results")
        loose = run_batch(SMOKE[:2], jobs=1, store_path=store_path, verify=False)
        assert all(row["checks"] == 0 for row in loose.rows)
        strict = run_batch(SMOKE[:2], jobs=1, store_path=store_path)
        assert (strict.executed, strict.cached) == (2, 0)
        assert all(row["checks"] > 0 for row in strict.rows)
        # ...and the verified rows now satisfy both verifying and loose runs.
        assert run_batch(SMOKE[:2], jobs=1, store_path=store_path).cached == 2
        assert run_batch(SMOKE[:2], jobs=1, store_path=store_path,
                         verify=False).cached == 2

    def test_unknown_cell_yields_failed_row_not_batch_abort(self):
        ghost = dataclasses.replace(SMOKE[0], name="ghost", cell="no-such-cell")
        summary = run_batch([SMOKE[1], ghost], jobs=1, store_path="")
        assert summary.executed == 2 and len(summary.failed) == 1
        (row,) = summary.failed
        assert row["scenario"] == "ghost"
        assert any("KeyError" in failure for failure in row["failures"])

    def test_no_verify_summary_does_not_claim_verification(self):
        summary = run_batch(SMOKE[:2], jobs=1, store_path="", verify=False)
        assert "skipped (verification disabled)" in summary.format()
        assert "verified ok" not in summary.format()

    def test_adhoc_scenario_runs_on_process_shards(self):
        # A request is pure data: a scenario object the default registry
        # does not hold by that name runs on worker processes too.
        adhoc = dataclasses.replace(SMOKE[0], name="adhoc-copy")
        summary = run_batch([adhoc], jobs=2, store_path="")
        assert summary.ok and summary.executed == 1
        assert summary.rows[0]["scenario"] == "adhoc-copy"

    def test_more_tasks_than_max_pending_are_all_served(self):
        # 300 tasks against the scheduler's 256-job admission bound: the
        # runner bounds its in-flight submits, so no task is refused.
        summary = run_batch(SMOKE[:1], jobs=1, repeats=300, store_path="")
        assert summary.executed == 300
        assert summary.ok, summary.format()
        assert {row["solve_cache_tier"] for row in summary.rows} == {"computed"}

    def test_solve_cache_path_on_process_shards(self, tmp_path, monkeypatch):
        built = []

        class Recording(scheduler_module.SolveScheduler):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                built.append((self.inline, self.shards))

        monkeypatch.setattr(scheduler_module, "SolveScheduler", Recording)
        cache_path = str(tmp_path / "solve_cache")
        first = run_batch(SMOKE[:4], jobs=2, store_path="",
                          solve_cache_path=cache_path)
        assert first.ok
        assert not any(row["solve_cache_hit"] for row in first.rows)
        second = run_batch(SMOKE[:4], jobs=2, store_path="",
                           solve_cache_path=cache_path)
        assert second.ok and second.executed == 4
        assert all(row["solve_cache_tier"] == "persistent"
                   for row in second.rows)
        assert all(row["checks"] > 0 for row in second.rows)
        assert built == [(False, 2), (False, 2)]

    def test_process_shards_survive_imports_while_planning(self):
        # In a fresh interpreter the unit-disk cell's builder imports
        # scipy while the scheduler plans the other tasks on threads.  A
        # worker forked during that import (at the first job, or by a
        # first submit that starts the scheduler after planning) inherits
        # the import lock held and blocks forever on its first unit-disk
        # solve.
        code = (
            "from repro.scenarios import DEFAULT_REGISTRY\n"
            "from repro.scenarios.runner import run_batch\n"
            f"names = {_IMPORTING_SWEEP!r}\n"
            "summary = run_batch(DEFAULT_REGISTRY.select(names=names),\n"
            "                    jobs=2, store_path='')\n"
            "assert summary.ok and summary.executed == len(names)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")]))
        child = subprocess.Popen([sys.executable, "-c", code], env=env,
                                 start_new_session=True)
        try:
            assert child.wait(timeout=60) == 0
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)  # the workers too
            child.wait()
            raise


#: Registry scenarios ending on a unit-disk cell, whose builder imports
#: scipy on first use.
_IMPORTING_SWEEP = [
    "regular-n64-d4/det-ruling-sim-k1@active-set",
    "regular-n64-d4/power-mis-k2",
    "er-n48/det-ruling-sim-k1@active-set",
    "er-n48/power-mis-k2",
    "udg-n40/det-ruling-sim-k1@active-set",
]
SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


#: An ad-hoc scenario over a default-registry cell, running an algorithm
#: the tests register in ``repro.api.REGISTRY`` under this name.
BROKEN = Scenario(name="path-n16/broken-mis-k1", cell="path-n16",
                  algorithm="broken-mis", k=1, tags=frozenset({"broken"}))


def _register(monkeypatch, run) -> None:
    monkeypatch.setitem(REGISTRY._algorithms, BROKEN.algorithm, Algorithm(
        name=BROKEN.algorithm, problem="mis-power", run=run,
        defaults=(("k", 1),)))


def _empty(graph, ctx):
    return AdapterOutcome(output=set(), rounds=0)


class TestOracleFailureSurfacing:
    def test_failures_reported_with_cell_key(self, tmp_path, monkeypatch):
        _register(monkeypatch, _empty)
        summary = run_batch([BROKEN], jobs=1, store_path=str(tmp_path / "r"))
        assert not summary.ok
        (row,) = summary.failed
        assert row["failures"]
        assert "domination" in " ".join(row["failures"])
        assert row["cell_key"] in summary.format()

    def test_failed_rows_are_not_served_from_cache(self, tmp_path,
                                                   monkeypatch):
        # A red cell must re-execute on resume, so fixing the algorithm
        # clears it without deleting the store.
        store_path = str(tmp_path / "r")
        _register(monkeypatch, _empty)
        first = run_batch([BROKEN], jobs=1, store_path=store_path)
        assert not first.ok and first.executed == 1

        def working(graph, ctx):
            mis = {node for node in graph.nodes() if node % 2 == 0}
            return AdapterOutcome(output=mis, rounds=1)

        _register(monkeypatch, working)
        second = run_batch([BROKEN], jobs=1, store_path=store_path)
        assert second.ok and (second.executed, second.cached) == (1, 0)
        # The green row now supersedes the red one in the store.
        third = run_batch([BROKEN], jobs=1, store_path=store_path)
        assert third.ok and third.cached == 1

    def test_crashing_algorithm_yields_failed_row_not_batch_abort(
            self, tmp_path, monkeypatch):
        def exploding(graph, ctx):
            raise RuntimeError("boom")

        _register(monkeypatch, exploding)
        summary = run_batch([BROKEN, SMOKE[0]], jobs=1,
                            store_path=str(tmp_path / "r"))
        assert not summary.ok and summary.executed == 2
        (row,) = summary.failed
        assert any("RuntimeError" in failure for failure in row["failures"])


class TestResultStore:
    """The runner's store: a :class:`ShardStore` keyed by ``cell_key``."""

    def test_last_write_wins(self, tmp_path):
        store = ShardStore(str(tmp_path / "s"), key_field="cell_key")
        store.put("a", {"cell_key": "a", "v": 1})
        store.put("a", {"cell_key": "a", "v": 2})
        assert store.get("a")["v"] == 2
        assert len(store) == 1
        reopened = ShardStore(store.root, key_field="cell_key")
        assert reopened.get("a")["v"] == 2 and len(reopened) == 1

    def test_missing_file_loads_empty(self, tmp_path):
        store = ShardStore(str(tmp_path / "missing" / "s"),
                           key_field="cell_key")
        assert len(store) == 0
        assert store.get("a") is None


class TestCLI:
    def test_list_smoke(self, capsys):
        assert main(["list", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "det-ruling-sim" in out and "bipartite-crown" in out

    def test_families(self, capsys):
        assert main(["families"]) == 0
        assert "dense-core-pendant" in capsys.readouterr().out

    def test_run_then_cached(self, tmp_path, capsys):
        store = str(tmp_path / "cli")
        assert main(["run", "--smoke", "--limit", "5", "--jobs", "1",
                     "--store", store]) == 0
        first = capsys.readouterr().out
        assert "5 executed, 0 cached" in first
        assert main(["run", "--smoke", "--limit", "5", "--jobs", "1",
                     "--store", store]) == 0
        second = capsys.readouterr().out
        assert "0 executed, 5 cached" in second

    def test_empty_selection_is_an_error(self, capsys):
        assert main(["run", "--tags", "no-such-tag", "--store", ""]) == 2
