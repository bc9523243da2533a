"""The default-config contract over every registered algorithm.

Each algorithm in :data:`repro.api.REGISTRY`, run with its default config
and solve seed 1 on ``nx.random_regular_graph(4, n, seed=1)``, must return
a report whose certificate passes, for ``n`` in ``SIZES``.
"""

from __future__ import annotations

import functools

import networkx as nx
import pytest

from repro.api import REGISTRY, solve

SIZES = (100, 1000, 10_000)


@functools.lru_cache(maxsize=None)
def _graph(n: int) -> nx.Graph:
    return nx.random_regular_graph(4, n, seed=1)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("algorithm", REGISTRY.algorithm_names())
def test_default_config_certifies(algorithm, n):
    report = solve(_graph(n), algorithm, seed=1)
    assert report.verified, report.certificate.summary()
