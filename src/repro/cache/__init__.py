"""Sliced last-level cache substrate.

Models the LLC the paper builds on (Huang et al.'s sliced design,
paper Sec. II): a NUCA L3 split into per-core slices around a central
interconnect, where each slice is 20 ways of four data arrays and each
data array is two 8 KB SRAM sub-arrays with a 32-bit port.

The substrate is both *functional* (it stores bytes and returns them)
and *statistical* (hits, misses, evictions, sub-array accesses are
counted so the timing and power models can charge them).
"""

from .address import AddressCodec, DecodedAddress
from .replacement import LruPolicy, PseudoLruPolicy, ReplacementPolicy
from .subarray import Subarray
from .slice_ import CacheSlice, LineState
from .cache import SetAssociativeCache
from .hierarchy import AccessResult, CacheHierarchy, HierarchyStats
from .coherence import CoherentSystem, MsiState
from .ring import NucaLlc, RingInterconnect

__all__ = [
    "AddressCodec",
    "DecodedAddress",
    "ReplacementPolicy",
    "LruPolicy",
    "PseudoLruPolicy",
    "Subarray",
    "CacheSlice",
    "LineState",
    "SetAssociativeCache",
    "CacheHierarchy",
    "AccessResult",
    "HierarchyStats",
    "CoherentSystem",
    "MsiState",
    "NucaLlc",
    "RingInterconnect",
]
