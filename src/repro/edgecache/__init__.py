"""Edge cache node: storage, replacement policies, and statistics.

An edge cache in the paper is an HTTP cache at the network edge holding
copies of dynamically generated documents. This package models one such
node: a byte-budgeted document store (:mod:`~repro.edgecache.storage`)
driven by a pluggable replacement policy (:mod:`~repro.edgecache.replacement`
— the paper's experiments use LRU; LFU, FIFO and GDSF are provided for
ablations), per-document access-rate estimators used by the utility-based
placement scheme (:mod:`~repro.edgecache.stats`), and the node facade
(:mod:`~repro.edgecache.cache`).
"""

from repro.edgecache.cache import EdgeCache
from repro.edgecache.replacement import (
    FIFOPolicy,
    GDSFPolicy,
    LFUPolicy,
    LRUPolicy,
    NoReplacement,
    ReplacementPolicy,
    make_policy,
)
from repro.edgecache.stats import AccessFrequencyTracker, CacheStats
from repro.edgecache.storage import CacheStorage

__all__ = [
    "AccessFrequencyTracker",
    "CacheStats",
    "CacheStorage",
    "EdgeCache",
    "FIFOPolicy",
    "GDSFPolicy",
    "LFUPolicy",
    "LRUPolicy",
    "NoReplacement",
    "ReplacementPolicy",
    "make_policy",
]
