"""Result-dir anchoring (``repro._paths``), store compaction, file-root
refusal and the runner's ``--cache`` path through the service tier."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import _paths
from repro.cli import main as repro_cli
from repro.fleet import worker
from repro.scenarios.cli import main as scenarios_cli
from repro.scenarios.registry import DEFAULT_REGISTRY
from repro.scenarios.runner import _request, plan_tasks, run_batch
from repro.service import scheduler, server
from repro.service.cache import SolveCache
from repro.service.shardstore import ShardStore, shard_of


class TestResultsDir:
    def test_env_var_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "elsewhere"))
        assert _paths.results_dir() == str(tmp_path / "elsewhere")
        assert _paths.results_path("scenarios") == str(
            tmp_path / "elsewhere" / "scenarios")

    def test_source_tree_anchoring(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
        root = _paths.repo_root()
        assert root is not None
        assert os.path.isdir(os.path.join(root, "benchmarks"))
        assert _paths.results_dir() == os.path.join(root, "benchmarks",
                                                    "results")
        # Anchored, therefore independent of the working directory.
        assert os.path.isabs(_paths.results_path("scenarios"))

    def test_results_path_creates_parent_on_demand(self, monkeypatch,
                                                   tmp_path):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "deep"))
        path = _paths.results_path("sub", "file.json", create=True)
        assert os.path.isdir(os.path.dirname(path))
        assert not os.path.exists(path)  # only the parent is created


def _segment_of(store: ShardStore, key: str) -> str:
    """The active segment file of ``key``'s shard."""
    return os.path.join(store.root, f"shard-{shard_of(key, store.shards):02d}",
                        "seg-000001.jsonl")


class TestCompact:
    def _store_with_history(self, tmp_path) -> ShardStore:
        store = ShardStore(str(tmp_path / "rows"), key_field="cell_key")
        store.put("a", {"cell_key": "a", "value": 1})
        store.put("b", {"cell_key": "b", "value": 1})
        store.put("a", {"cell_key": "a", "value": 2})  # supersedes
        with open(_segment_of(store, "a"), "a", encoding="utf-8") as handle:
            handle.write("{corrupt\n")          # killed-worker debris
            handle.write('{"no_key": true}\n')  # key-less row
        return store

    @staticmethod
    def _disk_rows(store: ShardStore) -> int:
        rows = 0
        for directory, _, names in os.walk(store.root):
            for name in names:
                with open(os.path.join(directory, name),
                          encoding="utf-8") as handle:
                    rows += sum(1 for line in handle if line.strip())
        return rows

    def test_compact_keeps_last_write_wins(self, tmp_path):
        store = self._store_with_history(tmp_path)
        kept, dropped = store.compact()
        assert (kept, dropped) == (2, 3)
        assert store.get("a")["value"] == 2
        assert self._disk_rows(store) == 2

    def test_compact_is_idempotent(self, tmp_path):
        store = self._store_with_history(tmp_path)
        store.compact()
        assert store.compact() == (2, 0)

    def test_compact_missing_store(self, tmp_path):
        store = ShardStore(str(tmp_path / "absent"), key_field="cell_key")
        assert store.compact() == (0, 0)

    def test_custom_key_field(self, tmp_path):
        store = ShardStore(str(tmp_path / "cache"), key_field="cache_key")
        store.put("x", {"cache_key": "x", "value": 1})
        store.put("x", {"cache_key": "x", "value": 2})
        assert store.compact() == (1, 1)
        assert store.get("x")["value"] == 2

    def test_cli_compact(self, tmp_path, capsys):
        store = self._store_with_history(tmp_path)
        cache = ShardStore(str(tmp_path / "cache"), key_field="cache_key")
        cache.put("x", {"cache_key": "x", "value": 1})
        cache.put("x", {"cache_key": "x", "value": 2})
        exit_code = scenarios_cli(["compact", "--store", store.root,
                                   "--cache", cache.root])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "kept 2, dropped 3" in out
        assert "kept 1, dropped 1" in out
        assert len(ShardStore(store.root, key_field="cell_key")) == 2
        assert len(ShardStore(cache.root, key_field="cache_key")) == 1


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


class TestFileRootRefused:
    """A leftover single-file store is refused before any work runs."""

    def _leftover(self, tmp_path, name: str) -> str:
        path = tmp_path / name
        path.write_text('{"cell_key": "a", "value": 1}\n', encoding="utf-8")
        return str(path)

    def test_shardstore_raises_naming_the_path(self, tmp_path):
        path = self._leftover(tmp_path, "rows")
        with pytest.raises(ValueError, match="rows"):
            ShardStore(path)

    def test_serve_exits_nonzero_before_serving(self, tmp_path,
                                                monkeypatch, capsys):
        path = self._leftover(tmp_path, "solve_cache.jsonl")

        def refuse_to_serve(*args, **kwargs):
            raise AssertionError("served over a file cache path")

        monkeypatch.setattr(server, "ServiceServer", refuse_to_serve)
        exit_code = server.main(["--port", "0", "--inline-workers",
                                 "--cache-path", path])
        assert exit_code != 0
        assert path in capsys.readouterr().err

    def test_fleet_worker_exits_2_before_enrolling(self, tmp_path, monkeypatch,
                                                   capsys):
        path = self._leftover(tmp_path, "solve_cache.jsonl")

        def refuse_to_enroll(*args, **kwargs):
            raise AssertionError("enrolled over a file cache path")

        monkeypatch.setattr(worker, "FleetWorker", refuse_to_enroll)
        exit_code = repro_cli(["fleet", "worker", "--coordinator",
                               "http://127.0.0.1:9", "--inline-workers",
                               "--cache-path", path])
        assert exit_code == 2
        assert path in capsys.readouterr().err

    def test_scenarios_run_exits_nonzero_before_running(self, tmp_path,
                                                        capsys):
        path = self._leftover(tmp_path, "scenarios.jsonl")
        before = _read(path)
        exit_code = scenarios_cli(["run", "--smoke", "--limit", "1",
                                   "--jobs", "1", "--store", path])
        assert exit_code != 0
        captured = capsys.readouterr()
        assert path in captured.err
        assert "executed" not in captured.out
        assert _read(path) == before

    @pytest.mark.parametrize("argv", [
        ["cache", "stats", "--cache-path"],
        ["cache", "compact", "--cache-path"],
        ["scenarios", "compact", "--store"],
    ], ids=["cache-stats", "cache-compact", "scenarios-compact"])
    def test_store_clis_exit_nonzero_naming_the_path(self, tmp_path, capsys,
                                                     argv):
        path = self._leftover(tmp_path, "rows.jsonl")
        before = _read(path)
        try:
            exit_code = repro_cli([*argv, path])
        except SystemExit as stop:
            exit_code = stop.code
        assert exit_code == 2
        assert path in capsys.readouterr().err
        assert _read(path) == before


class TestRunnerRowOrder:
    """``run_batch`` returns rows in task order, whatever order the shards
    complete them in and whichever rows the store already holds."""

    def _pair(self):
        return DEFAULT_REGISTRY.select(names=[
            "regular-n24-d3/power-mis-k2",
            "er-n20/det-power-ruling-k2",
        ])

    def _task_keys(self, scenarios):
        return [scenario.cell_key(seed)
                for scenario, _, seed in plan_tasks(scenarios)]

    def _task_shards(self, scenarios, shards):
        """The scheduler shard each task's solve lands on."""
        planner = scheduler.SolveScheduler(cache=SolveCache(""), inline=True,
                                           metrics=None, tracing=False)
        placement = []
        for scenario, _, seed in plan_tasks(scenarios):
            _, (key,) = planner._plan(_request(scenario, seed, verify=True),
                                      [seed])
            placement.append(int(key, 16) % shards)
        return placement

    def test_pool_finishing_the_second_task_first(self, monkeypatch):
        scenarios = self._pair()
        # On one shard the slow task would simply run first.
        assert self._task_shards(scenarios, 2) == [0, 1]
        slow = scenarios[0].algorithm
        original = scheduler._worker_solve

        def slow_first(workload, graph_seed, algorithm, *args):
            if algorithm == slow:
                time.sleep(1.0)
            return original(workload, graph_seed, algorithm, *args)

        # Pickled by reference: the forked workers resolve the patched name.
        slow_first.__module__ = scheduler.__name__
        slow_first.__qualname__ = "_worker_solve"
        monkeypatch.setattr(scheduler, "_worker_solve", slow_first)
        summary = run_batch(scenarios, store_path="", resume=False, jobs=2)
        assert summary.ok
        assert [row["cell_key"] for row in summary.rows] \
            == self._task_keys(scenarios)

    def test_cache_hits_keep_their_task_position(self, tmp_path):
        scenarios = self._pair()
        store = str(tmp_path / "scenarios")
        run_batch(scenarios[1:], store_path=store, jobs=1)
        summary = run_batch(scenarios, store_path=store, jobs=1)
        assert [row["cached"] for row in summary.rows] == [False, True]
        assert [row["cell_key"] for row in summary.rows] \
            == self._task_keys(scenarios)


class TestRunnerSolveCache:
    def _smoke_pair(self):
        return DEFAULT_REGISTRY.select(names=[
            "regular-n24-d3/power-mis-k2",
            "er-n20/det-power-ruling-k2",
        ])

    def test_cache_path_serves_second_batch(self, tmp_path):
        scenarios = self._smoke_pair()
        assert len(scenarios) == 2
        cache_path = str(tmp_path / "solve_cache")
        first = run_batch(scenarios, store_path="", resume=False,
                          solve_cache_path=cache_path)
        assert first.ok
        assert all(row["solve_cache_hit"] is False for row in first.rows)

        second = run_batch(scenarios, store_path="", resume=False,
                           solve_cache_path=cache_path)
        assert second.ok
        assert all(row["solve_cache_hit"] is True for row in second.rows)
        assert all(row["solve_cache_tier"] == "persistent"
                   for row in second.rows)
        # The replayed certificate is the row's verdict.
        assert all(row["checks"] > 0 for row in second.rows)

    def test_cached_rows_match_direct_rows(self, tmp_path):
        scenarios = self._smoke_pair()
        direct = run_batch(scenarios, store_path="", resume=False)
        cached = run_batch(scenarios, store_path="", resume=False,
                           solve_cache_path=str(tmp_path / "c"))
        for direct_row, cached_row in zip(direct.rows, cached.rows):
            assert cached_row["cell_key"] == direct_row["cell_key"]
            assert cached_row["rounds"] == direct_row["rounds"]
            assert cached_row["output_size"] == direct_row["output_size"]
            assert cached_row["ok"] is direct_row["ok"] is True

    def test_memory_only_cache(self):
        scenarios = self._smoke_pair()[:1]
        summary = run_batch(scenarios, store_path="", resume=False,
                            solve_cache_path="")
        assert summary.ok
        assert summary.rows[0]["solve_cache_hit"] is False

    def test_rows_stay_json_serialisable(self, tmp_path):
        summary = run_batch(self._smoke_pair(), store_path="", resume=False,
                            solve_cache_path=str(tmp_path / "c"))
        for row in summary.rows:
            json.dumps(row)
