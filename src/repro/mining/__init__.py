"""Offline mining: frequent fragments (gSpan) and DIFs."""

from repro.mining.dfs_code import DFSCode
from repro.mining.dif import connected_one_smaller_subgraphs, mine_catalogs
from repro.mining.fragments import Fragment, FragmentCatalog, is_frequent
from repro.mining.gspan import GSpanMiner, mine_frequent_fragments

__all__ = [
    "DFSCode",
    "Fragment",
    "FragmentCatalog",
    "is_frequent",
    "GSpanMiner",
    "mine_frequent_fragments",
    "mine_catalogs",
    "connected_one_smaller_subgraphs",
]
