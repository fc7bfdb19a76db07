"""The bring-up's arrays, pinned by digest.

A network's CSR, its overlay (levels, default parents, hops, MIS round
counts) and the batch engine's static tables are pure functions of the
input graph and the seed. Every array here is pinned by its SHA-256
digest, for two grids, a weighted geometric network and a weighted tree
read raw (lightest edge below 1, so level 0 is solved as balls) and
normalized (level 0 read off the CSR), at two seeds and with a row
store that keeps every row or evicts: a change to how bring-up computes
them that moves a single bit, or the order of a single entry, fails
here.
"""

import hashlib

import networkx as nx
import numpy as np
import pytest

from repro.core.batch import BatchMOTEngine
from repro.graphs.generators import random_geometric_network
from repro.hierarchy.structure import build_hierarchy
from tests.graphs.regimes import ROW_STORES, network


def _grid(side: int) -> nx.Graph:
    return nx.convert_node_labels_to_integers(nx.grid_2d_graph(side, side))


def _tree() -> nx.Graph:
    g = nx.random_labeled_tree(300, seed=3)
    rng = np.random.default_rng(4)
    for u, v in g.edges():
        g[u][v]["weight"] = float(rng.uniform(0.5, 3.0))
    return g


#: name -> (graph, normalize)
GRAPHS = {
    "grid-32": (_grid(32), False),
    "grid-64": (_grid(64), False),
    "geometric": (random_geometric_network(300, seed=4).graph, False),
    "tree-raw": (_tree(), False),
    "tree-normalized": (_tree(), True),
}


def _sha(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()[:24]


def _digests(graph: nx.Graph, normalize: bool, rows: str, seed: int) -> dict[str, str]:
    net = network(graph, rows, normalize=normalize)
    csr = net._engine.csr
    hs = build_hierarchy(net, seed=seed)
    ls = hs.levels
    tables = BatchMOTEngine(hs).tables
    return {
        "csr": _sha(csr.indptr, csr.indices, csr.data),
        "levels": _sha(ls.levels),
        "default_parents": _sha(
            [
                [(w, parent[w]) for w in level]
                for level, parent in zip(ls.levels, ls.default_parents, strict=False)
            ]
        ),
        "hops": _sha(
            [
                [float(hop[w]).hex() for w in level]
                for level, hop in zip(ls.levels, ls.default_parent_hops, strict=False)
            ]
        ),
        "mis_rounds": _sha(ls.mis_rounds),
        "tables": _sha(
            tables.chain, tables.cum_q, tables.up_cum, tables.lift, tables.sdl_hop, tables.pub_cost
        ),
    }


#: (graph, seed) -> digest of each array, as the bring-up computed them
#: before it kept the overlay as index arrays
DIGESTS = {
    ("grid-32", 0): {
        "csr": "5434d06ad690a0420bc99dd6",
        "levels": "8257808b957b3db166a5ba92",
        "default_parents": "8cd2ebcc0d59cb00f34c5eba",
        "hops": "7eac20e614ab14aa35f7db16",
        "mis_rounds": "396f05bac8c1e75a283ed39b",
        "tables": "50330f2c67e007ea132a8069",
    },
    ("grid-32", 5): {
        "csr": "5434d06ad690a0420bc99dd6",
        "levels": "78c06fb56bb30debc5782aa2",
        "default_parents": "a7f7a7637911c620faaa909b",
        "hops": "2005e7fc8098b3998b698200",
        "mis_rounds": "d7f34c12a0201d96dae088c0",
        "tables": "147d0a58656b3718c16ec7b1",
    },
    ("grid-64", 0): {
        "csr": "39c995c3a1ec73732f242bc1",
        "levels": "fb3f0423b277affc44144234",
        "default_parents": "e5e278d9d00b5f80c55f508c",
        "hops": "71c079ab0327902bdf5a36d8",
        "mis_rounds": "0212d0ea20beefdfd23944e8",
        "tables": "89ca5b3c11145d1f8a139f57",
    },
    ("grid-64", 5): {
        "csr": "39c995c3a1ec73732f242bc1",
        "levels": "befbf5e60d60aa3c65b8daff",
        "default_parents": "72403e827074940026d43b86",
        "hops": "c484af83f34ef1467a17ce13",
        "mis_rounds": "228bb816226091b2a8d098a0",
        "tables": "307113d849a4c78686d05e3e",
    },
    ("geometric", 0): {
        "csr": "5c1a10217cea11653cc5d900",
        "levels": "dfa01df6bdbc01e7782693d2",
        "default_parents": "818a9e9cb8d2a804193e0fd6",
        "hops": "1fcfac08e308cfb7f25a4a8e",
        "mis_rounds": "e400b7a792b822e68f37358a",
        "tables": "e2cdb83087d686d882ad1365",
    },
    ("geometric", 5): {
        "csr": "5c1a10217cea11653cc5d900",
        "levels": "9bc5cb720b40ceaf9c81adff",
        "default_parents": "12b2a901f1f394dc0bf797e1",
        "hops": "eb91b3ffe28678094bc44367",
        "mis_rounds": "7087004cd9a6960a0516fb95",
        "tables": "355079c89d828c20810f8c9a",
    },
    ("tree-raw", 0): {
        "csr": "40e0f53f69ba60935133efee",
        "levels": "26f428d1d421db67d6ab3e05",
        "default_parents": "37e2ed16c80d0e1c6ff5075e",
        "hops": "5769332528a06262f8149234",
        "mis_rounds": "3a5ffa45c3bd96e973973d07",
        "tables": "e08b88041096a0bcf5556af2",
    },
    ("tree-raw", 5): {
        "csr": "40e0f53f69ba60935133efee",
        "levels": "edfb7b053957da64271fb9e8",
        "default_parents": "55e7729ece0b3c8cabb44d08",
        "hops": "0dc1c27a059529bee940fed3",
        "mis_rounds": "cbefff9ffea61252c58596e5",
        "tables": "e6e94a8df0e41b8d57fbd126",
    },
    ("tree-normalized", 0): {
        "csr": "d0e1af307a996f7e3c26a0a4",
        "levels": "15ed22576a4ae7cc6ac26911",
        "default_parents": "173e0bc3aa6431002381f4ec",
        "hops": "bfc3bac655fee3c5435d90fb",
        "mis_rounds": "d157d49b6d03526fdd5a8fb3",
        "tables": "4d730751facac262668847eb",
    },
    ("tree-normalized", 5): {
        "csr": "d0e1af307a996f7e3c26a0a4",
        "levels": "800801a41b3438fdbcc22e6d",
        "default_parents": "b5e3469db285cd9fa8282e0a",
        "hops": "62e27d1a4a7e7643e8dd03af",
        "mis_rounds": "19aa6f005a8199d4b8be2438",
        "tables": "e926b32cbe1cae3c0e3639cc",
    },
}


@pytest.mark.parametrize("rows", ROW_STORES)
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_bring_up_arrays_match_their_digests(name, seed, rows):
    graph, normalize = GRAPHS[name]
    assert _digests(graph, normalize, rows, seed) == DIGESTS[name, seed]
