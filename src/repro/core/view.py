"""The SecureCyclon partial view: owned descriptors plus repair state.

Unlike the legacy Cyclon view, entries here are descriptors the node
*owns* (it is the chain tail), and each may be flagged non-swappable
(paper §V-A): a retained copy of a descriptor whose ownership was
transferred away, usable only to redeem — never to swap.

Invariants (checked in tests):

* at most ``capacity`` entries;
* at most one entry per descriptor *identity* (creator, timestamp) —
  unlike legacy Cyclon, two links to the same creator may coexist,
  because each descriptor is a distinct conserved token and silently
  discarding one would leak view slots (and the paper's §II-B
  equilibrium argument counts descriptors, not distinct creators);
* never an entry created by the view's owner.

``_entries`` (a plain list of :class:`ViewEntry`, in insertion order)
remains the source of truth — the audit tests plant invariant
violations by mutating it directly.  On top of it the view maintains
O(1) indexes: an identity-keyed dict for membership and removal, a
per-creator entry counter for ``contains_creator``/``purge_creator``
fast paths, a running non-swappable count, and a cached oldest entry.
Every indexed operation first checks that the list length still
matches the indexed length and reindexes if an external mutation is
detected.  Observable behaviour (entry order, RNG consumption,
tie-breaking) is identical to the original linear-scan implementation;
``tests/properties/test_indexed_view_equivalence.py`` checks the
equivalence under randomised operation sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.core.descriptor import DescriptorId, SecureDescriptor
from repro.crypto.keys import PublicKey


@dataclass(frozen=True, slots=True)
class ViewEntry:
    """One view slot: an owned descriptor and its swap eligibility.

    ``creator`` and ``timestamp`` mirror the descriptor's fields as
    plain (slotted) attributes, not properties: view filtering touches
    them for every entry on every exchange, and attribute reads keep
    that scan off the simulation's critical path.
    """

    descriptor: SecureDescriptor
    non_swappable: bool = False
    creator: PublicKey = field(init=False, repr=False, compare=False)
    timestamp: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "creator", self.descriptor.creator)
        object.__setattr__(self, "timestamp", self.descriptor.timestamp)


def _new_entry(descriptor: SecureDescriptor, non_swappable: bool) -> ViewEntry:
    """Assemble a ViewEntry without the dataclass constructor.

    Entry creation sits on the per-swap hot path; four direct slot
    stores beat ``__init__`` + ``__post_init__`` by about a
    microsecond each.
    """
    entry = object.__new__(ViewEntry)
    fill = object.__setattr__
    fill(entry, "descriptor", descriptor)
    fill(entry, "non_swappable", non_swappable)
    fill(entry, "creator", descriptor.creator)
    fill(entry, "timestamp", descriptor.timestamp)
    return entry


class SecureView:
    """Bounded view of owned descriptors held by one SecureCyclon node."""

    def __init__(self, owner_id: PublicKey, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("view capacity must be >= 1")
        self.owner_id = owner_id
        self.capacity = capacity
        self._entries: List[ViewEntry] = []
        self._by_identity: Dict[DescriptorId, ViewEntry] = {}
        self._creator_count: Dict[PublicKey, int] = {}
        self._nonswap_count = 0
        # Cached oldest entry; None means "unknown, recompute".
        self._oldest_entry: Optional[ViewEntry] = None
        # Length of _entries when the indexes were last in sync; a
        # mismatch means someone mutated the list behind our back.
        self._synced_len = 0

    # ------------------------------------------------------------------
    # index maintenance
    # ------------------------------------------------------------------

    def _sync(self) -> None:
        if len(self._entries) != self._synced_len:
            self._reindex()

    def _reindex(self) -> None:
        """Rebuild every index from the entry list (source of truth)."""
        by_identity: Dict[DescriptorId, ViewEntry] = {}
        creator_count: Dict[PublicKey, int] = {}
        nonswap = 0
        for entry in self._entries:
            by_identity[entry.descriptor.identity] = entry
            creator = entry.creator
            creator_count[creator] = creator_count.get(creator, 0) + 1
            if entry.non_swappable:
                nonswap += 1
        self._by_identity = by_identity
        self._creator_count = creator_count
        self._nonswap_count = nonswap
        self._oldest_entry = None
        self._synced_len = len(self._entries)

    def _index_add(self, entry: ViewEntry) -> None:
        self._by_identity[entry.descriptor.identity] = entry
        creator = entry.creator
        count = self._creator_count
        count[creator] = count.get(creator, 0) + 1
        if entry.non_swappable:
            self._nonswap_count += 1
        oldest = self._oldest_entry
        if oldest is not None and entry.timestamp < oldest.timestamp:
            self._oldest_entry = entry
        self._synced_len += 1

    def _index_drop(self, entry: ViewEntry) -> None:
        self._by_identity.pop(entry.descriptor.identity, None)
        creator = entry.creator
        count = self._creator_count
        remaining = count.get(creator, 0) - 1
        if remaining > 0:
            count[creator] = remaining
        else:
            count.pop(creator, None)
        if entry.non_swappable:
            self._nonswap_count -= 1
        if self._oldest_entry is entry:
            self._oldest_entry = None
        self._synced_len -= 1

    def _list_remove(self, entry: ViewEntry) -> None:
        """Remove ``entry`` from the list by object identity."""
        entries = self._entries
        for index, candidate in enumerate(entries):
            if candidate is entry:
                del entries[index]
                return
        entries.remove(entry)  # pragma: no cover - identity always hits

    def _find_oldest(self) -> Optional[ViewEntry]:
        """First entry (in view order) with the earliest timestamp.

        Tie-break rule, pinned deterministically: among equal
        timestamps the entry at the earliest view position wins,
        exactly as the original ``min``-based scan behaved.
        """
        entries = self._entries
        if not entries:
            return None
        best = entries[0]
        best_ts = best.timestamp
        for entry in entries:
            if entry.timestamp < best_ts:
                best = entry
                best_ts = entry.timestamp
        return best

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ViewEntry]:
        return iter(self._entries)

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self._entries)

    def descriptors(self) -> List[SecureDescriptor]:
        return [entry.descriptor for entry in self._entries]

    def neighbor_ids(self) -> List[PublicKey]:
        return [entry.creator for entry in self._entries]

    def contains_creator(self, creator: PublicKey) -> bool:
        self._sync()
        return creator in self._creator_count

    def entry_for_creator(self, creator: PublicKey) -> Optional[ViewEntry]:
        self._sync()
        if creator not in self._creator_count:
            return None
        for entry in self._entries:
            if entry.creator == creator:
                return entry
        return None  # pragma: no cover - counter implies presence

    def non_swappable_count(self) -> int:
        self._sync()
        return self._nonswap_count

    def swappable_count(self) -> int:
        self._sync()
        return len(self._entries) - self._nonswap_count

    def oldest(self) -> Optional[ViewEntry]:
        """The entry with the earliest birth timestamp.

        Ties break to the earliest view position — see
        :meth:`_find_oldest` for why the rule is pinned.
        """
        self._sync()
        entry = self._oldest_entry
        if entry is None:
            entry = self._find_oldest()
            self._oldest_entry = entry
        return entry

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def insert(
        self, descriptor: SecureDescriptor, non_swappable: bool = False
    ) -> bool:
        """Insert respecting the invariants; True if the view changed.

        A duplicate *identity* keeps the existing entry unless the new
        copy is swappable and the old one is not (a swappable link is
        strictly more useful).  Duplicate creators with different
        timestamps are distinct tokens and may coexist.
        """
        if descriptor.creator.digest == self.owner_id.digest:
            return False
        self._sync()
        identity = descriptor.identity
        existing = self._by_identity.get(identity)
        if existing is not None:
            if existing.non_swappable and not non_swappable:
                candidate = _new_entry(descriptor, False)
                entries = self._entries
                for index, entry in enumerate(entries):
                    if entry is existing:
                        entries[index] = candidate
                        break
                self._by_identity[identity] = candidate
                self._nonswap_count -= 1
                if self._oldest_entry is existing:
                    self._oldest_entry = candidate
                return True
            return False
        if len(self._entries) >= self.capacity:
            return False
        candidate = _new_entry(descriptor, non_swappable)
        self._entries.append(candidate)
        self._index_add(candidate)
        return True

    def remove_entry(self, entry: ViewEntry) -> bool:
        """Remove one specific entry; True if it was present."""
        self._sync()
        stored = self._by_identity.get(entry.descriptor.identity)
        if stored is None or (stored is not entry and stored != entry):
            return False
        self._list_remove(stored)
        self._index_drop(stored)
        return True

    def remove_identity(self, identity: DescriptorId) -> Optional[ViewEntry]:
        self._sync()
        stored = self._by_identity.get(identity)
        if stored is None:
            return None
        self._list_remove(stored)
        self._index_drop(stored)
        return stored

    def pop_random_swappable(
        self, count: int, rng, exclude_creator: Optional[PublicKey] = None
    ) -> List[ViewEntry]:
        """Remove and return up to ``count`` random swappable entries.

        ``exclude_creator`` skips descriptors created by the exchange
        counterparty: sending a node its own descriptor would just
        retire the token (the receiver holds no self-links), wasting a
        swap slot, so honest peers pick around it.
        """
        self._sync()
        entries = self._entries
        if self._nonswap_count == 0 and (
            exclude_creator is None
            or exclude_creator not in self._creator_count
        ):
            # Fast path: every entry qualifies, skip the per-entry scan.
            swappable_indices = list(range(len(entries)))
        elif exclude_creator is None:
            swappable_indices = [
                index
                for index, entry in enumerate(entries)
                if not entry.non_swappable
            ]
        else:
            # Key equality is digest equality; comparing the digests
            # directly keeps this per-entry scan at C speed.
            excluded = exclude_creator.digest
            swappable_indices = [
                index
                for index, entry in enumerate(entries)
                if not entry.non_swappable
                and entry.creator.digest != excluded
            ]
        count = min(count, len(swappable_indices))
        if count == 0:
            return []
        chosen = rng.sample(swappable_indices, count)
        picked = [entries[index] for index in chosen]
        for index in sorted(chosen, reverse=True):
            del entries[index]
        for entry in picked:
            self._index_drop(entry)
        return picked

    def pop_one_random_swappable(
        self, rng, exclude_creator: Optional[PublicKey] = None
    ) -> Optional[ViewEntry]:
        entries = self.pop_random_swappable(
            1, rng, exclude_creator=exclude_creator
        )
        return entries[0] if entries else None

    def purge_creator(self, creator: PublicKey) -> int:
        """Drop every entry created by ``creator`` (it was blacklisted)."""
        self._sync()
        if creator not in self._creator_count:
            return 0
        before = len(self._entries)
        self._entries = [
            entry for entry in self._entries if entry.creator != creator
        ]
        self._reindex()
        return before - len(self._entries)
