"""The action-aware infrequent index (A2I) — Section III.

A2I is an array of DIFs in ascending size order.  Each entry stores the
canonical code of a DIF ``g`` and its full FSG-id list (DIFs are infrequent,
so the lists are short by construction; support-0 DIFs carry empty lists and
are the strongest pruners — probing one empties ``Rq`` immediately).
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.graph.canonical import CanonicalCode
from repro.mining.fragments import FragmentCatalog
from repro.obs.histogram import observe
from repro.obs.metrics import count
from repro.obs.recorder import RECORDER


class A2IEntry:
    """One DIF entry in the array."""

    __slots__ = ("a2i_id", "code", "size", "fsg_ids")

    def __init__(
        self, a2i_id: int, code: CanonicalCode, size: int, fsg_ids: FrozenSet[int]
    ) -> None:
        self.a2i_id = a2i_id
        self.code = code
        self.size = size
        self.fsg_ids = fsg_ids


class A2IIndex:
    """Lookup: canonical code -> a2iId -> FSG ids."""

    def __init__(self, difs: FragmentCatalog) -> None:
        ordered = sorted(difs.values(), key=lambda f: (f.size, f.code))
        self._entries: List[A2IEntry] = [
            A2IEntry(i, frag.code, frag.size, frag.fsg_ids)
            for i, frag in enumerate(ordered)
        ]
        self._by_code: Dict[CanonicalCode, int] = {
            e.code: e.a2i_id for e in self._entries
        }
        self._bits_cache: Dict[int, int] = {}

    def lookup(self, code: CanonicalCode) -> Optional[int]:
        """``a2iId`` of the DIF with this canonical code, if indexed."""
        start = time.perf_counter()
        a2i_id = self._by_code.get(code)
        observe("index.a2i.lookup", time.perf_counter() - start)
        count("a2i.lookup.hit" if a2i_id is not None else "a2i.lookup.miss")
        RECORDER.transition(
            "a2i.lookup", "hit" if a2i_id is not None else "miss"
        )
        return a2i_id

    def __contains__(self, code: CanonicalCode) -> bool:
        return code in self._by_code

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, a2i_id: int) -> A2IEntry:
        return self._entries[a2i_id]

    def fsg_ids(self, a2i_id: int) -> FrozenSet[int]:
        return self._entries[a2i_id].fsg_ids

    def fsg_bits(self, a2i_id: int) -> int:
        """``fsgIds`` as an int bitmask (memoised) — the A2I/bitset boundary."""
        cached = self._bits_cache.get(a2i_id)
        if cached is None:
            count("a2i.bits_cache.miss")
            # Local import: repro.core pulls in the index package at init.
            from repro.core.candidates import bits_of

            cached = bits_of(self._entries[a2i_id].fsg_ids)
            self._bits_cache[a2i_id] = cached
        else:
            count("a2i.bits_cache.hit")
        return cached

    def entries(self) -> Tuple[A2IEntry, ...]:
        return tuple(self._entries)
