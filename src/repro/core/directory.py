"""The lookup directory a beacon point maintains.

"The beacon point of a document maintains the up-to-date lookup information,
which includes a list of caches in the cloud that currently hold the
document" (paper §2.1). The directory is keyed by document id and secondarily
indexed by IrH value so that sub-range migrations can extract exactly the
entries whose IrH values moved.

Each entry may also carry a *stamp* ``(version, epoch)``: a record that, when
it was set, every listed holder was alive and held a copy at ``version`` or
newer. A lookup that finds the stamp current — ``version`` is the origin's,
``epoch`` the cloud's holder-epoch — may trust the entry instead of probing
every holder's storage (CUP's remedy: keep directory state correct by
propagating the events that can invalidate it, and let the query trust the
entry). The directory only stores stamps; who sets one and which events
drop one is :class:`~repro.core.roles.BeaconRole`'s business, except for the
two rules that are properties of the entry itself: removing a holder never
un-verifies the rest, and adding one does unless the caller vouches for it.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

#: Serialized size of one directory entry during migration (doc key + holder
#: list). Used for DIRECTORY_MIGRATION traffic accounting.
DIRECTORY_ENTRY_BYTES = 96


_NO_HOLDERS: AbstractSet[int] = frozenset()


class LookupDirectory:
    """doc_id -> set of holder cache ids, indexed by IrH value."""

    #: The entry's ``(version, epoch)`` stamp, or ``None``. Bound to the
    #: stamp dict's C-implemented ``get`` in ``__init__``: every lookup and
    #: every store decision asks, and the binding saves a Python frame per
    #: ask. ``_stamps`` is mutated in place, never rebound.
    stamp_of: Callable[[int], Optional[Tuple[int, int]]]

    def __init__(self) -> None:
        self._holders: Dict[int, Set[int]] = {}
        self._irh_of_doc: Dict[int, int] = {}
        self._docs_by_irh: Dict[int, Set[int]] = {}
        self._stamps: Dict[int, Tuple[int, int]] = {}
        self.stamp_of = self._stamps.get

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_holder(
        self, doc_id: int, irh: int, cache_id: int, keep_stamp: bool = False
    ) -> None:
        """Register ``cache_id`` as holding ``doc_id``.

        The IrH value is stored on first sight; subsequent calls must agree
        (a document's IrH is a pure function of its URL). The entry's stamp
        is dropped unless ``keep_stamp`` says the caller has checked that
        the new holder is alive with a copy at the stamp's version or newer.
        """
        known_irh = self._irh_of_doc.get(doc_id)
        if known_irh is None:
            self._irh_of_doc[doc_id] = irh
            self._docs_by_irh.setdefault(irh, set()).add(doc_id)
            self._holders[doc_id] = set()
        elif known_irh != irh:
            raise ValueError(
                f"doc {doc_id} registered with IrH {known_irh}, got {irh}"
            )
        self._holders[doc_id].add(cache_id)
        if not keep_stamp:
            self._stamps.pop(doc_id, None)

    def remove_holder(self, doc_id: int, cache_id: int) -> None:
        """Unregister a holder; empty entries are garbage-collected.

        The stamp stays: the holders that remain are as verified as before.
        """
        holders = self._holders.get(doc_id)
        if holders is None:
            return
        holders.discard(cache_id)
        if not holders:
            self._drop_doc(doc_id)

    def drop_cache(self, cache_id: int) -> int:
        """Remove ``cache_id`` from every entry (cache failure/disk loss).

        Returns the number of entries it was removed from.
        """
        touched = 0
        for doc_id in [d for d, h in self._holders.items() if cache_id in h]:
            self.remove_holder(doc_id, cache_id)
            touched += 1
        return touched

    def _drop_doc(self, doc_id: int) -> None:
        irh = self._irh_of_doc.pop(doc_id)
        del self._holders[doc_id]
        self._stamps.pop(doc_id, None)
        docs = self._docs_by_irh.get(irh)
        if docs is not None:
            docs.discard(doc_id)
            if not docs:
                del self._docs_by_irh[irh]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def holders(self, doc_id: int) -> Set[int]:
        """Current holder set (a copy; empty when unknown)."""
        return set(self._holders.get(doc_id, ()))

    def entry(self, doc_id: int) -> AbstractSet[int]:
        """The live holder set itself (empty when unknown): read, never mutate.

        For hot paths that only iterate or measure; anything that changes
        the directory while walking must use the :meth:`holders` copy.
        """
        return self._holders.get(doc_id, _NO_HOLDERS)

    def knows(self, doc_id: int) -> bool:
        """Whether the directory has any entry for ``doc_id``."""
        return doc_id in self._holders

    def __len__(self) -> int:
        return len(self._holders)

    def __iter__(self) -> Iterator[int]:
        return iter(self._holders)

    # ------------------------------------------------------------------
    # Stamps
    # ------------------------------------------------------------------
    def stamp(self, doc_id: int, version: int, epoch: int) -> None:
        """Record that every listed holder is alive with a copy >= ``version``."""
        self._stamps[doc_id] = (version, epoch)

    def unstamp(self, doc_id: int) -> None:
        """Drop the entry's stamp (a listed holder may have lost its copy)."""
        self._stamps.pop(doc_id, None)

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def extract_range(self, lo: int, hi: int) -> List[Tuple[int, int, Set[int]]]:
        """Remove and return entries with IrH in ``[lo, hi]``.

        Returns ``(doc_id, irh, holders)`` tuples — the payload of the
        directory-migration transfer to the new owner.
        """
        extracted: List[Tuple[int, int, Set[int]]] = []
        for irh in range(lo, hi + 1):
            for doc_id in list(self._docs_by_irh.get(irh, ())):
                extracted.append((doc_id, irh, set(self._holders[doc_id])))
                self._drop_doc(doc_id)
        return extracted

    def ingest(self, entries: Iterable[Tuple[int, int, Set[int]]]) -> None:
        """Install migrated entries (merging holder sets on conflict)."""
        for doc_id, irh, holders in entries:
            for cache_id in holders:
                self.add_holder(doc_id, irh, cache_id)

    def snapshot(self) -> List[Tuple[int, int, Set[int]]]:
        """Full copy of the directory (lazy-replication payload)."""
        return [
            (doc_id, self._irh_of_doc[doc_id], set(holders))
            for doc_id, holders in self._holders.items()
        ]

    def __repr__(self) -> str:
        return f"LookupDirectory(entries={len(self._holders)})"
