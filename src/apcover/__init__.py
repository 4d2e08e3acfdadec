"""apcover: arithmetic-progression covering sequences.

The central object is the set A built from base-4 digit blocks: level
l contributes every number lead * 4**l + sum(low_i * 4**i) with lead
in 1..4 and each low digit 1 or 2.  Every n >= 32 (in fact every
n >= 3) extends two smaller members of A to a 3-term arithmetic
progression, and A(n)/sqrt(n) tends to sqrt(15) along the all-twos
members while staying below 4 everywhere.

Modules: sequence (membership / counting / ranking / decomposition),
witness (constructive 3-AP witnesses and the sweep that checks them
over a range), oracle (brute-force covering checks over any integer
sequence and the bitset covering scan), stanley (greedy AP-free
generator), density (exact ratio analysis), cli (command line).
"""

from .sequence import (
    BLOCK_SEQUENCE,
    Element,
    count_leq,
    decompose,
    element_at,
    encode,
    iter_range,
    member,
)
from .witness import Witness, find_witness, validate

__version__ = "0.1.0"

__all__ = [
    "BLOCK_SEQUENCE",
    "Element",
    "Witness",
    "count_leq",
    "decompose",
    "element_at",
    "encode",
    "find_witness",
    "iter_range",
    "member",
    "validate",
    "__version__",
]
