"""The row store's two capacity regimes, for tests that run under both.

``"full"`` is the default capacity, which keeps every row of the small
graphs these tests use; ``"lazy"`` is a store of :data:`LRU_ROWS` rows,
which evicts.
"""

from __future__ import annotations

import networkx as nx

from repro.graphs.network import SensorNetwork

#: capacity of the evicting store
LRU_ROWS = 4

ROW_STORES = ("full", "lazy")


def network(graph: nx.Graph, rows: str, normalize: bool = False) -> SensorNetwork:
    """A network over ``graph`` whose row store runs in regime ``rows``."""
    return SensorNetwork(
        graph, normalize=normalize, lazy_cache_rows=LRU_ROWS if rows == "lazy" else None
    )
