"""Sensor-network graph substrate: model, exact distances, generators, doubling."""

from repro.graphs.network import SensorNetwork
from repro.graphs.generators import (
    grid_network,
    ring_network,
    line_network,
    star_network,
    random_geometric_network,
    erdos_renyi_network,
    random_tree_network,
    paper_grid_sizes,
)
from repro.graphs.doubling import estimate_doubling_dimension

__all__ = [
    "SensorNetwork",
    "grid_network",
    "ring_network",
    "line_network",
    "star_network",
    "random_geometric_network",
    "erdos_renyi_network",
    "random_tree_network",
    "paper_grid_sizes",
    "estimate_doubling_dimension",
]
