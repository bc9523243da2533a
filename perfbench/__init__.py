"""Seeded benchmark workloads run against ``repro`` the way users run it.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics; see ``run.py``.
"""
