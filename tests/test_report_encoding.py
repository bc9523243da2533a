"""A report is encoded once, compactly, and served as the stored text.

* :mod:`repro.service.jsontext` splices already-encoded values verbatim;
* ``report_to_json`` writes canonical compact text that reads back equal,
  and :class:`CachedReport` answers ``certified`` without a parse;
* the serving process parses and encodes nothing on a memory or a
  persistent hit, and on a miss only the solving worker encodes;
* a store written with the old spaced rows (``tests/fixtures/
  spaced_solve_store``, four rows put by ``SolveCache(path, shards=1)
  .solve`` before the text became compact; ``spaced_solve_store.json``
  lists their requests and keys) still serves equal reports under the
  same keys, before and after compaction.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys
import threading

import networkx as nx
import pytest

import repro.api.serialize as serialize
from repro.api import REGISTRY, report_from_json, report_to_json, solve
from repro.scenarios.registry import DEFAULT_REGISTRY
from repro.service import (
    CachedReport,
    ServiceClient,
    ServiceServer,
    SolveCache,
    SolveScheduler,
)
from repro.service.cache import key_for_plan
from repro.service.jsontext import COMPACT, RawJSON, dumps

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
WORKLOAD = "regular-n24-d3"


def _compact(text: str | bytes) -> bool:
    """No separator spaces: as long as its compact re-encoding."""
    return len(text) == len(json.dumps(json.loads(text), separators=COMPACT))


def _same_report(left, right) -> None:
    assert left.output == right.output
    assert left.rounds == right.rounds
    assert left.provenance == right.provenance
    assert left.metrics == right.metrics
    assert left.certificate == right.certificate


# ------------------------------------------------------------ jsontext
class TestJsonText:
    def test_plain_objects_are_compact_and_sorted(self):
        assert dumps({"b": [1, 2], "a": {"y": 1, "x": None}}) == \
            '{"a":{"x":null,"y":1},"b":[1,2]}'

    def test_raw_values_are_written_verbatim_after_the_rest(self):
        text = dumps({"z": 1, "report": RawJSON('{"k":[1,2]}'),
                      "a": "s", "list": RawJSON("[]")})
        assert text == '{"a":"s","z":1,"list":[],"report":{"k":[1,2]}}'
        assert json.loads(text) == {"a": "s", "z": 1, "list": [],
                                    "report": {"k": [1, 2]}}

    def test_only_raw_values(self):
        assert dumps({"rows": RawJSON("[1]")}) == '{"rows":[1]}'
        assert dumps({}) == "{}"

    def test_default_applies_to_plain_values(self):
        assert dumps({"s": {1}}, default=str) == '{"s":"{1}"}'


# ----------------------------------------------------- canonical text
@pytest.fixture(scope="module")
def graph():
    return DEFAULT_REGISTRY.build_cell(WORKLOAD, seed=0)


class TestCanonicalText:
    def test_report_to_json_is_compact_sorted_and_round_trips(self, graph):
        report = solve(graph, "power-mis", k=2, seed=4)
        text = report_to_json(report)
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=COMPACT)
        _same_report(report_from_json(text), report)

    def test_spaced_text_still_reads(self, graph):
        report = solve(graph, "power-mis", k=2, seed=4)
        spaced = json.dumps(json.loads(report_to_json(report)),
                            sort_keys=True)
        assert ", " in spaced
        _same_report(report_from_json(spaced), report)

    @pytest.mark.parametrize("verify", [True, False])
    def test_certified_flag_needs_no_parse(self, graph, verify):
        report = solve(graph, "luby", seed=2, verify=verify)
        entry = CachedReport.from_text(report_to_json(report))
        assert entry.certified is verify
        assert CachedReport.from_obj(
            json.loads(entry.text)).certified is verify
        assert CachedReport.from_report(report).certified is verify


# ------------------------------------------------------- encode counts
@pytest.fixture
def encode_calls(monkeypatch):
    """Count ``report_to_json`` / ``report_from_json`` calls by thread.

    Every ``repro`` module global bound to either function is swapped for
    a counting wrapper; calls on the inline solve threads
    (``repro-shard*``) are the worker's, every other call the serving
    process's.
    """
    calls: list[tuple[str, str]] = []
    for name in ("report_to_json", "report_from_json"):
        original = getattr(serialize, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append((_name, threading.current_thread().name))
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name == "repro" or module_name.startswith("repro."):
                if vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, counted)
    return calls


NO_CALLS = {"parent_to_json": 0, "parent_from_json": 0,
            "worker_to_json": 0, "worker_from_json": 0}


def _counts(calls: list[tuple[str, str]]) -> dict[str, int]:
    """Calls by side since the last count (which it clears)."""
    counts = dict(NO_CALLS)
    for name, thread in calls:
        side = "worker" if thread.startswith("repro-shard") else "parent"
        counts[f"{side}_{name[len('report_'):]}"] += 1
    calls.clear()
    return counts


def _post_solve(url: str, seed: int) -> tuple[dict, bytes]:
    client = ServiceClient(url)
    try:
        body = client.request_bytes("POST", "/solve", {
            "workload": WORKLOAD, "algorithm": "power-mis",
            "config": {"k": 2}, "seed": seed})
    finally:
        client.close()
    return json.loads(body), body


class TestEncodeCounts:
    def test_hits_neither_parse_nor_encode(self, tmp_path, encode_calls):
        store = str(tmp_path / "store")
        scheduler = SolveScheduler(cache=SolveCache(store), inline=True,
                                   shards=1)
        with ServiceServer(port=0, scheduler=scheduler) as server:
            computed, body = _post_solve(server.url, 21)
            assert computed["status"] == "computed"
            counts = _counts(encode_calls)
            assert counts["worker_to_json"] == 1
            assert counts["parent_to_json"] == 0
            assert counts["parent_from_json"] <= 1
            assert _compact(body)

            hit, body = _post_solve(server.url, 21)
            assert (hit["status"], hit["tier"]) == ("hit", "memory")
            assert _counts(encode_calls) == NO_CALLS
            assert hit["report"] == computed["report"]
            assert _compact(body)

            client = ServiceClient(server.url)
            try:
                polled = client.request_bytes("GET",
                                              f"/report/{hit['key']}")
            finally:
                client.close()
            assert _counts(encode_calls) == NO_CALLS
            assert json.loads(polled)["report"] == computed["report"]
            assert _compact(polled)

        scheduler = SolveScheduler(cache=SolveCache(store), inline=True,
                                   shards=1)
        with ServiceServer(port=0, scheduler=scheduler) as server:
            hit, body = _post_solve(server.url, 21)
            assert (hit["status"], hit["tier"]) == ("hit", "persistent")
            assert _counts(encode_calls) == NO_CALLS
            assert hit["report"] == computed["report"]
            assert _compact(body)

    def test_in_process_cache_encodes_a_solve_once(self, graph,
                                                   encode_calls):
        cache = SolveCache("")
        computed = cache.solve(graph, "power-mis", k=2, seed=22)
        assert _counts(encode_calls)["parent_to_json"] == 1
        hit = cache.solve(graph, "power-mis", k=2, seed=22)
        assert hit.tier == "memory" and hit.report is computed.report
        assert _counts(encode_calls) == NO_CALLS


# ------------------------------------------------- spaced store rows
def _fixture_graph(name: str) -> nx.Graph:
    if name == "grid-4x4":
        return nx.grid_2d_graph(4, 4)
    return DEFAULT_REGISTRY.build_cell(name, seed=0)


@pytest.fixture
def spaced_store(tmp_path):
    root = tmp_path / "store"
    shutil.copytree(FIXTURES / "spaced_solve_store", root)
    manifest = json.loads(
        (FIXTURES / "spaced_solve_store.json").read_text())
    originals = {}
    for line in (root / "shard-00" / "seg-000001.jsonl").read_text(
            ).splitlines():
        assert ", " in line  # written with the old separators
        row = json.loads(line)
        originals[row["cache_key"]] = row["report"]
    return str(root), manifest, originals


def _segment_lines(root: str) -> list[str]:
    return [line for path in sorted(pathlib.Path(root).rglob("seg-*.jsonl"))
            for line in path.read_text().splitlines() if line]


class TestSpacedStore:
    def test_keys_do_not_move(self, spaced_store):
        _, manifest, originals = spaced_store
        for request in manifest:
            plan = REGISTRY.plan(_fixture_graph(request["graph"]),
                                 request["algorithm"], seed=request["seed"],
                                 **request["config"])
            assert key_for_plan(plan) == request["key"]
            assert request["key"] in originals

    def test_old_rows_serve_persistent_hits(self, spaced_store):
        root, manifest, originals = spaced_store
        cache = SolveCache(root)
        for request in manifest:
            key = request["key"]
            entry, tier = cache.lookup(
                key, require_certificate=request["verify"])
            assert tier == "persistent"
            assert entry.certified is request["verify"]
            assert json.loads(entry.text) == originals[key]
            assert entry.text == json.dumps(originals[key], sort_keys=True,
                                            separators=COMPACT)
            _same_report(entry.report, report_from_json(originals[key]))
        unverified = next(r["key"] for r in manifest if not r["verify"])
        assert SolveCache(root).lookup(
            unverified, require_certificate=True) == (None, "miss")

    def test_old_and_new_rows_read_alike_after_compaction(self, graph,
                                                          spaced_store):
        root, manifest, originals = spaced_store
        cache = SolveCache(root)
        # Re-put one old row (its old line goes dead) and add a new one.
        rewritten = manifest[0]["key"]
        cache.put(rewritten, cache.lookup(rewritten)[0])
        fresh = cache.solve(graph, "power-mis", k=2, seed=30)
        expected = {key: report_from_json(obj)
                    for key, obj in originals.items()}
        expected[fresh.key] = fresh.report
        assert any(", " in line for line in _segment_lines(root))
        kept, dropped = cache.compact()
        assert (kept, dropped) == (len(expected), 1)
        lines = _segment_lines(root)
        assert len(lines) == len(expected)
        assert all(_compact(line) for line in lines)
        reopened = SolveCache(root)
        for key, report in expected.items():
            entry, tier = reopened.lookup(key)
            assert tier == "persistent"
            _same_report(entry.report, report)
            assert _compact(entry.text)
