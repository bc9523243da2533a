"""Tests of the benchmark's own helpers (``python -m pytest perfbench``).

Percentile selection, the low-steal window selection, ``/proc``
accounting of a process tree (against a fabricated ``/proc`` and a real
child), sequence determinism and the split into parts, the windows of a
solve phase, the self-time partition of a traced request, and
``BENCHMARK.json`` agreeing with the metrics the runner prints.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import procfs, stats, workloads  # noqa: E402
from perfbench.layers import (  # noqa: E402
    PER_LAYER, RATIO_BASES, moves, self_times)


# ----------------------------------------------------------- percentiles
def test_percentile_is_nearest_rank_sample():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.9) == 90
    assert stats.percentile(reversed(values), 0.99) == 99
    assert stats.percentile([7.0], 0.5) == 7.0


def test_tail_needs_ten_samples_beyond():
    assert stats.tail_percentile(list(range(100)), 0.9) == (89, 10)
    assert stats.tail_percentile(list(range(99)), 0.9) is None
    assert stats.tail_percentile(list(range(1000)), 0.99) == (989, 10)
    assert stats.tail_percentile(list(range(999)), 0.99) is None
    assert stats.tail_percentile([], 0.9) is None


def test_low_steal_drops_stolen_windows_and_keeps_order():
    def windows(*steals):
        return [procfs.Window(range(i, i + 1), 0.2, 0.1, steal)
                for i, steal in enumerate(steals)]

    calm = windows(0.0, 0.02, 0.3, 0.1, 0.0)
    assert [w.steal for w in stats.low_steal(calm)] == [0.0, 0.02, 0.1, 0.0]
    # Fewer than half under the limit: the half with the least steal.
    stolen = windows(0.4, 0.2, 0.3, 0.05, 0.5)
    assert [w.steal for w in stats.low_steal(stolen)] == [0.2, 0.3, 0.05]
    assert stats.low_steal([]) == []


# ------------------------------------------------------------------ /proc
def _fake_process(proc, pid, *, ppid, session, utime, stime, hwm_kb,
                  comm="python3"):
    directory = proc / str(pid)
    directory.mkdir()
    fields = ["S", ppid, pid, session, 0, -1, 0, 0, 0, 0, 0, utime, stime,
              0, 0, 20, 0, 1, 0]
    (directory / "stat").write_text(
        f"{pid} ({comm}) " + " ".join(str(field) for field in fields))
    (directory / "status").write_text(
        f"Name:\t{comm}\nVmPeak:\t 999 kB\nVmHWM:\t{hwm_kb} kB\n")


def test_process_tree_accounting_from_fake_proc(tmp_path):
    proc = tmp_path / "proc"
    proc.mkdir()
    (proc / "stat").write_text("cpu  100 0 50 800 0 0 0 50 0 0\n")
    (proc / "self").mkdir()  # non-numeric entries are skipped
    _fake_process(proc, 100, ppid=1, session=100, utime=300, stime=100,
                  hwm_kb=2048, comm="repro serve")
    _fake_process(proc, 101, ppid=100, session=100, utime=50, stime=50,
                  hwm_kb=1024, comm="weird ) name")
    _fake_process(proc, 200, ppid=1, session=200, utime=999, stime=999,
                  hwm_kb=4096)

    pids = procfs.session_pids([100], proc=str(proc))
    assert pids == [100, 101]
    seconds = procfs.cpu_seconds(pids, proc=str(proc))
    ticks = procfs.CLOCK_TICKS
    assert seconds == {100: 400 / ticks, 101: 100 / ticks}
    assert procfs.peak_rss_mb(pids, proc=str(proc)) == pytest.approx(3.0)
    # A process that vanished reads as absent, not as an error.
    assert procfs.cpu_seconds([100, 555], proc=str(proc)) == {100: 400 / ticks}
    assert procfs.vm_hwm_kb(555, proc=str(proc)) == 0


def test_cpu_delta_counts_newborns_from_zero_and_drops_the_dead():
    before = {1: 2.0, 2: 5.0}
    after = {1: 3.5, 3: 0.25}  # 2 exited, 3 was born
    assert procfs.cpu_delta(before, after) == pytest.approx(1.75)


def test_steal_fraction_from_proc_stat(tmp_path):
    proc = tmp_path / "proc"
    proc.mkdir()
    (proc / "stat").write_text("cpu  100 0 50 800 0 0 0 50 7 0\n")
    before = procfs.read_cpu_sample(proc=str(proc))
    (proc / "stat").write_text("cpu  160 0 70 900 0 0 0 70 9 0\n")
    after = procfs.read_cpu_sample(proc=str(proc))
    assert before == procfs.CpuSample(total=1000, steal=50)
    assert procfs.steal_fraction(before, after) == pytest.approx(20 / 200)


def test_real_child_tree_cpu_and_rss():
    """A child session that burns CPU and holds memory shows up in both."""
    code = ("import os, time\n"
            "if os.fork() == 0:\n"
            "    block = bytearray(48 * 1024 * 1024)\n"
            "    for i in range(0, len(block), 4096): block[i] = 1\n"
            "    print('ready', flush=True); time.sleep(30); os._exit(0)\n"
            "end = time.process_time() + 0.3\n"
            "while time.process_time() < end: pass\n"
            "time.sleep(30)\n")
    child = subprocess.Popen([sys.executable, "-c", code],
                             stdout=subprocess.PIPE, start_new_session=True)
    try:
        assert child.stdout.readline().strip() == b"ready"
        deadline = time.monotonic() + 10
        while True:
            pids = procfs.session_pids([child.pid])
            cpu = sum(procfs.cpu_seconds(pids).values())
            if (len(pids) == 2 and cpu >= 0.25) or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert len(pids) == 2
        assert cpu >= 0.25
        assert procfs.peak_rss_mb(pids) >= 48
    finally:
        os.killpg(child.pid, 9)
        child.wait(timeout=10)
        child.stdout.close()


# -------------------------------------------------------------- sequences
def test_sequences_are_deterministic_per_seed():
    assert (workloads.solve_power_sequence(3, 10)
            == workloads.solve_power_sequence(3, 10))
    assert (workloads.solve_power_sequence(3, 10)
            != workloads.solve_power_sequence(4, 10))
    assert workloads.warm_sequence(3, 10) == workloads.warm_sequence(3, 10)
    assert workloads.warm_sequence(3, 10) != workloads.warm_sequence(4, 10)
    assert workloads.churn_plan(3, 10) == workloads.churn_plan(3, 10)
    assert workloads.churn_plan(3, 10) != workloads.churn_plan(4, 10)


def test_sequence_shapes():
    solves = workloads.solve_power_sequence(1, 10)
    per_cycle = sum(weight for *_, weight in workloads.SOLVE_POWER_MIX)
    assert len(solves) % per_cycle == 0 and len(solves) >= 100
    assert len({request.seed for request in solves}) == len(solves)

    keys = workloads.warm_keys(1)
    assert len(set(keys)) == 16
    sequence = workloads.warm_sequence(1, 10)
    assert len(sequence) == workloads.request_count("fleet-warm", 10)
    assert set(sequence) <= set(keys)

    prefill, churn = workloads.churn_plan(1, 10)
    assert len(set(prefill)) == workloads.CHURN_WORKING_SET
    fresh = [request for request in churn if request not in set(prefill)]
    assert len(fresh) == len(churn) // workloads.CHURN_FRESH_EVERY
    assert len(set(fresh)) == len(fresh)
    assert len(churn) >= 1000


def test_parts_are_equal_runs_of_whole_windows():
    for name, sequence in (
            ("solve-power", workloads.solve_power_sequence(2, 7)),
            ("fleet-warm", workloads.warm_sequence(2, 7)),
            ("serve-churn", workloads.churn_plan(2, 7)[1])):
        split = workloads.parts(sequence, name)
        assert len(split) == workloads.PARTS
        assert [request for part in split for request in part] == sequence
        assert {len(part) % workloads.WINDOW[name] for part in split} == {0}
    with pytest.raises(ValueError):
        workloads.parts(list(range(workloads.PARTS * 100 + 1)), "fleet-warm")


def test_joined_parts_rebase_requests_and_windows():
    from perfbench.run import Phase
    from perfbench.programs import Outcome

    def part(count, elapsed):
        return Phase(
            outcomes=[Outcome(index, 200, 0, 1000, b"") for index in
                      range(count)],
            windows=[procfs.Window(range(0, count), elapsed, 0.1, 0.0)],
            peak_rss_mb=float(count), steal=0.0)

    joined = Phase.join([part(2, 1.0), part(3, 2.0)])
    assert [outcome.index for outcome in joined.outcomes] == [0, 1, 2, 3, 4]
    assert [w.requests for w in joined.windows] == [range(0, 2), range(2, 5)]
    assert joined.peak_rss_mb == 3.0
    assert joined.throughput() == pytest.approx(5 / 3.0)


def test_solve_phase_windows_tile_its_requests():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.scenarios.registry import DEFAULT_REGISTRY

    from perfbench.run import solve_phase

    size = workloads.WINDOW["solve-power"]
    requests = workloads.solve_power_sequence(1, 1)[:2 * size]
    graphs = {cell: DEFAULT_REGISTRY.build_cell(cell, seed=0)
              for cell, *_ in workloads.SOLVE_POWER_MIX}
    phase = solve_phase(requests, graphs)
    assert [outcome.index for outcome in phase.outcomes] == list(range(2 * size))
    assert [w.requests for w in phase.windows] == [range(0, size),
                                                    range(size, 2 * size)]
    assert all(outcome.ok and outcome.size > 0 for outcome in phase.outcomes)


# ---------------------------------------------------------------- tracing
def _span(span_id, parent, start, end, name="x"):
    return {"id": span_id, "parent": parent, "start": start, "end": end,
            "name": name, "rid": "r0", "attrs": {}}


def test_self_times_partition_the_client_time():
    spans = [
        _span("c", None, 0, 100),
        _span("h", "c", 10, 130),   # server span outlives the reply
        _span("s", "h", 20, 60),
        _span("p", "s", 25, 35),
        _span("k", "s", 40, 45),
        _span("w", "h", 95, 120),   # partly after the reply
    ]
    selfs = self_times(spans)
    assert selfs == {"c": 10, "h": 45, "s": 25, "p": 10, "k": 5, "w": 5}
    assert sum(selfs.values()) == 100


def test_benchmark_json_lists_what_the_runner_prints():
    from perfbench.run import END_TO_END_UNITS, WORKLOAD_NAMES

    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [row["name"] for row in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {row["name"]: row["unit"] for row in spec["end_to_end"]} == \
        END_TO_END_UNITS
    assert {row["name"]: row["unit"] for row in spec["per_layer"]} == PER_LAYER
    assert all(moves(name) for name in PER_LAYER)
    assert set(RATIO_BASES) == {name for name, unit in PER_LAYER.items()
                                if unit == "ratio"}
    assert all(row["bound"] <= 0.25 for row in spec["end_to_end"])
