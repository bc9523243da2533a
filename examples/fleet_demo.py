"""Fleet demo: coordinator + two workers, affinity routing, failover.

This example boots the full :mod:`repro.fleet` stack in-process -- a
coordinator front door plus two enrolled workers (each one a complete
``repro serve`` node with its own scheduler and solve cache) -- and walks
the fleet's guarantees:

1. boot a coordinator and enroll two workers (ephemeral ports, inline
   schedulers, memory-only caches);
2. solve a spread of graphs through the coordinator -- consistent hashing
   on the graph identity (``workload@graph_seed``) routes each graph to a
   stable worker;
3. repeat the whole sweep -- every request lands on the worker that
   computed it the first time, so the second pass is all cache hits
   (watch ``affinity_hit_rate`` in ``GET /stats``);
4. scatter one request to *every* worker speculatively and take the first
   answer (all answers are bit-identical by construction);
5. stop one worker mid-flight -- the coordinator retries the victim's
   graphs on the survivor and recomputes the same content-addressed
   reports, bit-for-bit;
6. read the coordinator's ``/stats``: dispatch counters, affinity hit
   rate, per-worker cache warmth.

Run with:  python examples/fleet_demo.py
"""

from __future__ import annotations

from repro.fleet import FleetCoordinator, FleetWorker
from repro.service import ServiceClient, SolveCache, SolveScheduler

WORKLOAD = "regular-n64-d4"
ALGORITHM = "det-power-ruling"
CONFIG = {"k": 2}
GRAPH_SEEDS = list(range(8))


def main() -> None:
    # ------------------------------------------------------------------ 1.
    # One coordinator, two workers.  A worker is a ServiceServer wrapped
    # with an enrollment loop: it registers with the coordinator, renews
    # its liveness lease, and reports queue depth and cache warmth.
    coordinator = FleetCoordinator(port=0, ttl_s=5.0)
    coordinator.start()
    workers = [
        FleetWorker(coordinator.url, worker_id=f"w{index}", port=0,
                    scheduler=SolveScheduler(cache=SolveCache(""),
                                             inline=True, shards=2))
        for index in range(2)]
    for worker in workers:
        worker.start()
    client = ServiceClient(coordinator.url)
    client.wait_healthy()
    live = [row["worker_id"] for row in coordinator.registry.to_rows()]
    print(f"coordinator up at {coordinator.url}, workers enrolled: {live}\n")

    try:
        # -------------------------------------------------------------- 2.
        # Cold sweep: eight different graphs.  The coordinator never builds
        # a graph: it routes on the request's *graph identity*,
        # ``workload@graph_seed``, so distinct graphs spread across the
        # fleet while every solve of the same graph goes to the same
        # worker, which builds the graph and derives the content address.
        placement: dict[int, str] = {}
        for graph_seed in GRAPH_SEEDS:
            row = client.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                               graph_seed=graph_seed, seed=7)
            placement[graph_seed] = row["worker"]
        spread = {wid: sum(1 for w in placement.values() if w == wid)
                  for wid in sorted(set(placement.values()))}
        print(f"cold sweep:  8 graphs placed as {spread} "
              f"(status of last: {row['status']!r})")

        # -------------------------------------------------------------- 3.
        # Warm sweep: the same eight graphs again.  Affinity routing sends
        # each one back to the worker whose cache already holds it.
        hits = 0
        for graph_seed in GRAPH_SEEDS:
            row = client.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                               graph_seed=graph_seed, seed=7)
            assert row["worker"] == placement[graph_seed], \
                f"graph {graph_seed} moved to {row['worker']}"
            hits += row["status"] == "hit"
        stats = client.stats()
        print(f"warm sweep:  {hits}/8 cache hits on the same workers, "
              f"affinity_hit_rate={stats['affinity_hit_rate']:.0%}")

        # -------------------------------------------------------------- 4.
        # Scatter: ask every live worker at once and keep the first
        # answer.  Content addressing makes them interchangeable -- the
        # losers' results are bit-identical to the winner's.
        row = client.request("POST", "/solve", {
            "workload": WORKLOAD, "algorithm": ALGORITHM, "config": CONFIG,
            "graph_seed": 99, "seed": 7, "scatter": True,
        })
        print(f"scatter:     answered by {row['worker']!r}, "
              f"discovered on {row['scatter']['discovered']}")

        # -------------------------------------------------------------- 5.
        # Failure containment: crash one worker (no deregistration, like a
        # SIGKILL) and re-sweep.  The coordinator hits the dead transport,
        # retries on the survivor, and the recomputed reports carry the
        # same content addresses.
        victim = workers[0]
        victim_id = victim.worker_id
        victim.crash()
        coordinator._drop_link(victim_id)  # the TCP reset a crash delivers
        survivors = {wid for wid in placement.values() if wid != victim_id}
        rerouted = 0
        for graph_seed in GRAPH_SEEDS:
            row = client.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                               graph_seed=graph_seed, seed=7)
            assert row["worker"] != victim_id
            rerouted += placement[graph_seed] == victim_id
        stats = client.stats()
        counters = stats["counters"]
        print(f"kill {victim_id!r}:   {rerouted} graphs rerouted to "
              f"{sorted(survivors)}, retried={counters['retried']}, "
              f"stolen={counters['stolen']}, failed={counters['failed']}")

        # -------------------------------------------------------------- 6.
        print(f"\n/stats: routed={counters['routed']} "
              f"affinity_hit_rate={stats['affinity_hit_rate']:.0%} "
              f"scattered={counters['scattered']} "
              f"workers_live={len(stats['workers'])}")
    finally:
        for worker in workers:
            worker.stop()
        coordinator.stop()
    print("fleet stopped")


if __name__ == "__main__":
    main()
