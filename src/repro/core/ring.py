"""Beacon rings and the dynamic sub-range determination algorithm (§2.3).

A beacon ring holds an ordered set of beacon points that collectively own
the intra-ring hash space ``[0, IntraGen)`` as contiguous arcs. Periodically
(once per *cycle*) the ring re-draws the arc boundaries so that each beacon
point's expected load is proportional to its capability:

1. Collect each beacon point's capability ``Cp_i``, current sub-range, and
   measured cycle load ``CAvgLoad_i`` — optionally at per-IrH-value
   granularity (``CIrHLd``).
2. ``TotLoad = Σ CAvgLoad_i``; fair share ``ShrLoad_i = Cp_i/ΣCp · TotLoad``.
3. Walk the boundaries between adjacent beacon points. At each boundary,
   the left neighbour with a *load surplus* sheds IrH values from the end
   of its sub-range to the right neighbour, greedily, while the cumulative
   shed load stays within the surplus; with a *deficit* it acquires IrH
   values from the start of the right neighbour's sub-range under the same
   rule. Load pushed or pulled is carried into subsequent boundary
   evaluations.
4. Without per-IrH counters, a beacon point's per-IrH load is approximated
   by ``CAvgLoad_i / |sub-range_i|``.

The greedy stop rule ("move while cumulative moved load ≤ surplus") is
validated against the paper's worked example (Figure 2): loads 500/300 over
sub-ranges (0,4)/(5,9) rebalance to 410/390 with full information and to
440/360 with the average approximation — exactly the paper's numbers.

Circularity
-----------
The IrH space is treated as a circle: member ``m-1``'s arc is followed by
member ``0``'s, and the wrap boundary is balanced too (after the interior
boundaries, so the interior walk reproduces the paper's example verbatim).
The paper's prose describes only the interior boundaries, but a purely
linear walk has a blocking failure mode the published results could not
exhibit: when a single *indivisible* hot IrH value sits at the only boundary
of a 2-member ring, no greedy move can reduce the imbalance — light values
would have to flow around the hot one, which requires a second boundary.
On the circle that escape route exists and 2-member rings reach the balance
the paper reports (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

_EPS = 1e-9


@dataclass(frozen=True)
class Arc:
    """A contiguous arc of the circular IrH space.

    ``start`` is the first IrH value; the arc covers ``width`` consecutive
    values modulo ``intra_gen``. ``end`` is inclusive.
    """

    start: int
    width: int
    intra_gen: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.intra_gen:
            raise ValueError(f"start {self.start} outside [0, {self.intra_gen})")
        if not 1 <= self.width <= self.intra_gen:
            raise ValueError(f"width {self.width} outside [1, {self.intra_gen}]")

    @property
    def end(self) -> int:
        """Last IrH value of the arc (inclusive, modulo the circle)."""
        return (self.start + self.width - 1) % self.intra_gen

    @property
    def wraps(self) -> bool:
        """Whether the arc crosses the IntraGen → 0 wrap point."""
        return self.start + self.width > self.intra_gen

    def contains(self, irh: int) -> bool:
        """Whether ``irh`` falls inside the arc."""
        if not 0 <= irh < self.intra_gen:
            return False
        return (irh - self.start) % self.intra_gen < self.width

    def spans(self) -> List[Tuple[int, int]]:
        """The arc as 1-2 linear inclusive (lo, hi) spans."""
        if not self.wraps:
            return [(self.start, self.end)]
        return [(self.start, self.intra_gen - 1), (0, self.end)]

    def values(self) -> List[int]:
        """All IrH values in the arc, in arc order."""
        return [(self.start + k) % self.intra_gen for k in range(self.width)]


@dataclass
class RebalanceResult:
    """Outcome of one sub-range determination cycle.

    Attributes
    ----------
    changed:
        Whether any boundary moved.
    moves:
        ``(lo, hi, from_cache, to_cache)`` linear spans whose ownership
        changed; the new owner must pull the lookup records for these IrH
        values.
    ranges:
        The post-cycle assignment, cache id -> :class:`Arc`.
    predicted_loads:
        The walk's estimate of each beacon point's next-cycle load.
    """

    changed: bool
    moves: List[Tuple[int, int, int, int]] = field(default_factory=list)
    ranges: Dict[int, Arc] = field(default_factory=dict)
    predicted_loads: Dict[int, float] = field(default_factory=dict)


class BeaconRing:
    """One beacon ring: ordered members owning contiguous circular arcs.

    Parameters
    ----------
    members:
        Cache ids in ring order.
    intra_gen:
        The intra-ring hash generator (size of the IrH space).
    capabilities:
        Cache id -> positive capability; missing entries default to 1.0.
    """

    def __init__(
        self,
        members: Sequence[int],
        intra_gen: int,
        capabilities: Optional[Dict[int, float]] = None,
    ) -> None:
        if not members:
            raise ValueError("a beacon ring needs at least one beacon point")
        if len(set(members)) != len(members):
            raise ValueError("ring members must be distinct")
        if intra_gen < len(members):
            raise ValueError(
                f"intra_gen ({intra_gen}) must be >= number of members "
                f"({len(members)}) so every sub-range is non-empty"
            )
        self.intra_gen = intra_gen
        self._members: List[int] = list(members)
        self._capabilities: Dict[int, float] = {}
        capabilities = capabilities or {}
        for member in self._members:
            cap = capabilities.get(member, 1.0)
            if cap <= 0:
                raise ValueError(f"capability of {member} must be > 0, got {cap}")
            self._capabilities[member] = cap
        #: Arc start of each member, in member order; arc ``i`` runs from
        #: ``_starts[i]`` to ``_starts[(i+1) % m] - 1`` on the circle.
        self._starts: List[int] = self._equal_split_starts()
        #: Memoized IrH -> owner table; every lookup on the request path
        #: routes through :meth:`owner_of`, so the linear arc scan is paid
        #: once per assignment change instead of once per lookup.
        self._owner_cache: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _equal_split_starts(self) -> List[int]:
        m = len(self._members)
        base, remainder = divmod(self.intra_gen, m)
        starts = []
        cursor = 0
        for index in range(m):
            starts.append(cursor)
            cursor += base + (1 if index < remainder else 0)
        return starts

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def members(self) -> List[int]:
        """Ring members in order (copy)."""
        return list(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def capability_of(self, cache_id: int) -> float:
        """Configured capability of a member."""
        return self._capabilities[cache_id]

    def _width(self, index: int) -> int:
        m = len(self._members)
        if m == 1:
            return self.intra_gen
        nxt = self._starts[(index + 1) % m]
        return (nxt - self._starts[index]) % self.intra_gen or self.intra_gen

    def arc_of(self, cache_id: int) -> Arc:
        """The arc currently owned by ``cache_id``."""
        index = self._members.index(cache_id)
        return Arc(self._starts[index], self._width(index), self.intra_gen)

    def ranges(self) -> Dict[int, Arc]:
        """Snapshot of the whole assignment."""
        return {member: self.arc_of(member) for member in self._members}

    def owner_of(self, irh: int) -> int:
        """The beacon point whose arc contains ``irh``."""
        table = self._owner_cache
        if table is None:
            table = self.owner_table()
            self._owner_cache = table
        if not 0 <= irh < self.intra_gen:
            raise ValueError(f"IrH value {irh} outside [0, {self.intra_gen})")
        return table[irh]

    def owner_table(self) -> List[int]:
        """IrH value -> owner cache id, for the full circle."""
        table = [0] * self.intra_gen
        for index, member in enumerate(self._members):
            start = self._starts[index]
            for k in range(self._width(index)):
                table[(start + k) % self.intra_gen] = member
        return table

    # ------------------------------------------------------------------
    # The sub-range determination algorithm
    # ------------------------------------------------------------------
    def rebalance(
        self,
        measured_loads: Dict[int, float],
        per_irh_loads: Optional[Dict[int, float]] = None,
    ) -> RebalanceResult:
        """Run one sub-range determination cycle.

        Parameters
        ----------
        measured_loads:
            ``CAvgLoad`` per member over the closing cycle. Missing members
            count as 0.
        per_irh_loads:
            Optional ``CIrHLd``: IrH value -> load. When omitted, each
            member's load is spread evenly over its current sub-range
            (the paper's approximation).
        """
        m = len(self._members)
        self._owner_cache = None  # boundaries may move below
        old_table = self.owner_table()
        if m == 1:
            only = self._members[0]
            return RebalanceResult(
                changed=False,
                ranges=self.ranges(),
                predicted_loads={only: measured_loads.get(only, 0.0)},
            )

        loads = [max(0.0, measured_loads.get(member, 0.0)) for member in self._members]
        total_load = sum(loads)
        if total_load <= _EPS:
            return RebalanceResult(
                changed=False,
                ranges=self.ranges(),
                predicted_loads={member: 0.0 for member in self._members},
            )

        estimates = self._estimate_per_irh(loads, per_irh_loads)
        total_capability = sum(self._capabilities[member] for member in self._members)
        shares = [
            self._capabilities[member] / total_capability * total_load
            for member in self._members
        ]
        carried = list(loads)
        changed = False

        # Interior boundaries first (the paper's left-to-right walk), then
        # the wrap boundary between the last and first member.
        boundary_order = list(range(1, m)) + [0]
        for k in boundary_order:
            left = (k - 1) % m
            right = k
            if carried[left] > shares[left] + _EPS:
                # Left surplus: shed from the END of left's arc into right.
                surplus = carried[left] - shares[left]
                moved = 0.0
                while self._width(left) > 1:
                    edge = (self._starts[right] - 1) % self.intra_gen
                    edge_load = estimates[edge]
                    if moved + edge_load > surplus + _EPS:
                        break
                    moved += edge_load
                    self._starts[right] = edge
                    changed = True
                carried[left] -= moved
                carried[right] += moved
            elif carried[left] < shares[left] - _EPS:
                # Left deficit: acquire from the START of right's arc.
                deficit = shares[left] - carried[left]
                moved = 0.0
                while self._width(right) > 1:
                    edge = self._starts[right]
                    edge_load = estimates[edge]
                    if moved + edge_load > deficit + _EPS:
                        break
                    moved += edge_load
                    self._starts[right] = (edge + 1) % self.intra_gen
                    changed = True
                carried[left] += moved
                carried[right] -= moved

        new_table = self.owner_table()
        moves = _ownership_moves(old_table, new_table)
        return RebalanceResult(
            changed=changed,
            moves=moves,
            ranges=self.ranges(),
            predicted_loads={
                member: carried[index] for index, member in enumerate(self._members)
            },
        )

    def _estimate_per_irh(
        self,
        loads: List[float],
        per_irh_loads: Optional[Dict[int, float]],
    ) -> List[float]:
        """Per-IrH load estimates over the *current* (pre-move) assignment."""
        if per_irh_loads is not None:
            return [
                max(0.0, per_irh_loads.get(irh, 0.0)) for irh in range(self.intra_gen)
            ]
        estimates = [0.0] * self.intra_gen
        for index in range(len(self._members)):
            width = self._width(index)
            average = loads[index] / width
            start = self._starts[index]
            for k in range(width):
                estimates[(start + k) % self.intra_gen] = average
        return estimates

    # ------------------------------------------------------------------
    # Membership changes (failure resilience support)
    # ------------------------------------------------------------------
    def remove_member(self, cache_id: int) -> int:
        """Remove a member; its arc merges into its successor.

        Returns the absorbing member's cache id.
        """
        if len(self._members) == 1:
            raise ValueError("cannot remove the only member of a ring")
        self._owner_cache = None
        index = self._members.index(cache_id)
        m = len(self._members)
        successor_index = (index + 1) % m
        absorber = self._members[successor_index]
        # The successor's arc now begins where the removed member's did.
        self._starts[successor_index] = self._starts[index]
        del self._members[index]
        del self._starts[index]
        del self._capabilities[cache_id]
        return absorber

    def add_member(self, cache_id: int, index: int, capability: float = 1.0) -> None:
        """Insert ``cache_id`` at ``index``, taking the first half of the arc
        of the member currently at that position (its new successor)."""
        if cache_id in self._members:
            raise ValueError(f"cache {cache_id} already in ring")
        if capability <= 0:
            raise ValueError(f"capability must be > 0, got {capability}")
        m = len(self._members)
        if not 0 <= index <= m:
            raise IndexError(f"index {index} out of range")
        self._owner_cache = None
        donor_index = index % m
        donor_width = self._width(donor_index)
        if donor_width < 2:
            # The member at the requested position cannot split (rebalance
            # can shrink an arc to a single IrH value). A join — crash
            # recovery or an elastic warm join — must not abort for that:
            # fall back to the widest arc in the ring (ties to the lowest
            # index, so the choice is deterministic) and insert there.
            donor_index = max(range(m), key=lambda i: (self._width(i), -i))
            donor_width = self._width(donor_index)
            if donor_width < 2:
                raise ValueError("no sub-range wide enough to split")
            index = donor_index
        new_start = self._starts[donor_index]
        half = donor_width // 2
        self._starts[donor_index] = (new_start + half) % self.intra_gen
        insert_at = index if index <= m else m
        self._members.insert(insert_at, cache_id)
        self._starts.insert(insert_at, new_start)
        self._capabilities[cache_id] = capability

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{member}:[{arc.start},{arc.end}]" for member, arc in self.ranges().items()
        )
        return f"BeaconRing({parts})"


def _ownership_moves(
    old_table: Sequence[int], new_table: Sequence[int]
) -> List[Tuple[int, int, int, int]]:
    """Diff two owner tables into contiguous (lo, hi, from, to) move spans."""
    moves: List[Tuple[int, int, int, int]] = []
    span_start = None
    span_pair: Optional[Tuple[int, int]] = None
    for irh, (old_owner, new_owner) in enumerate(zip(old_table, new_table)):
        pair = (old_owner, new_owner)
        if old_owner == new_owner:
            if span_start is not None:
                moves.append((span_start, irh - 1, span_pair[0], span_pair[1]))
                span_start = None
            continue
        if span_start is None or pair != span_pair:
            if span_start is not None:
                moves.append((span_start, irh - 1, span_pair[0], span_pair[1]))
            span_start = irh
            span_pair = pair
    if span_start is not None:
        moves.append((span_start, len(old_table) - 1, span_pair[0], span_pair[1]))
    return moves
