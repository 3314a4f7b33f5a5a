"""One bounded memo table type for every cache in dbl.

dbl's objects are exact and immutable, so every cache is plain
memoization.  A Memo is a dict, so a hit is one C-level dict read that
takes no lock and counts nothing.  A miss computes its value and calls
store, the one write, under the one lock all tables share: a kept key
keeps its first value, which store returns, so callers that miss at once
get one object; a value of more than max_bits bits is returned and not
kept; a full table drops its oldest entry first (reading moves nothing).
Misses and evictions are counted there.
"""

from __future__ import annotations

from threading import Lock

_LOCK = Lock()  # held by every write to every table; reads take no lock


class Memo(dict):
    """A dict of at most bound entries, written only by store."""

    __slots__ = ("bound", "max_bits", "misses", "evictions")

    def __init__(self, bound: int, max_bits: int | None = None):
        super().__init__()
        self.bound = bound
        self.max_bits = max_bits
        self.misses = self.evictions = 0

    def store(self, key, value, bits: int = 0):
        """Keep a computed value of that many bits for key, within the bounds; return the kept value."""
        with _LOCK:
            self.misses += 1
            if key in self:
                return self[key]
            if self.max_bits is not None and bits > self.max_bits:
                return value
            if len(self) >= self.bound:
                del self[next(iter(self))]
                self.evictions += 1
            self[key] = value
        return value
