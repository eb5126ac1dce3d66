"""TERP posets (Definitions 3 and 4) and Hasse-diagram utilities.

A *TERP protection mechanism* reduces the time a memory region is
accessible to a permission group.  Mechanisms of different strength
form a partial order — e.g. process-wide attach/detach sits above
per-thread MPK-style permission control, because detaching removes the
mapping entirely (even Spectre-class attacks fail) while a thread
permission bit can be flipped from user space.

The runtime uses the poset to implement *implicit lowering*: an
``attach()`` on an already-attached PMO lowers to the thread-permission
mechanism one level down (Section IV-C).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.errors import TerpError


class ProtectionLevel(enum.IntEnum):
    """Canonical strength levels discussed in Section III-B.

    Higher value = stronger isolation = higher overhead, hence used at
    coarser grain (the paper's guidance for choosing levels).
    """

    THREAD_PERMISSION = 1    # MPK-style, user-level PKRU, weakest
    PROCESS_ATTACH = 2       # attach/detach by process (mapping removed)
    USER_PERMISSION = 3      # OS-level per-user permission
    USER_GROUP_PERMISSION = 4


@dataclass(frozen=True)
class Mechanism:
    """One TERP protection mechanism (an element of a TERP poset)."""

    name: str
    level: ProtectionLevel
    #: Approximate cost in cycles to engage/disengage the mechanism;
    #: used by documentation and ablation benches, not by correctness.
    engage_cost_cycles: int = 0
    description: str = ""

    def __str__(self) -> str:
        return self.name


class TerpPoset:
    """A partially ordered set of protection mechanisms (Definition 4).

    The order is supplied as explicit covering pairs plus the implied
    order from :class:`ProtectionLevel`.  Supports the standard order-
    theoretic queries the paper leans on: comparability, covering
    relation (for Hasse diagrams), maximal/minimal elements, and the
    "lowering" step used by EW-conscious semantics.
    """

    def __init__(self) -> None:
        self._elements: Dict[str, Mechanism] = {}
        self._less: Dict[str, Set[str]] = {}  # name -> set of strictly-greater names

    # -- construction -------------------------------------------------

    def add(self, mechanism: Mechanism) -> Mechanism:
        if mechanism.name in self._elements:
            raise TerpError(f"duplicate poset element {mechanism.name!r}")
        self._elements[mechanism.name] = mechanism
        self._less[mechanism.name] = set()
        return mechanism

    def order(self, lower: Mechanism, higher: Mechanism) -> None:
        """Declare ``lower < higher`` and close transitively."""
        if lower.name not in self._elements or higher.name not in self._elements:
            raise TerpError("both mechanisms must be added before ordering")
        if lower == higher or self.leq(higher, lower):
            raise TerpError(
                f"ordering {lower.name} < {higher.name} would create a cycle")
        self._less[lower.name].add(higher.name)
        # Transitive closure: everything below `lower` is below everything
        # above `higher`.
        above_higher = {higher.name} | self._less[higher.name]
        for name, above in self._less.items():
            if name == lower.name or lower.name in above:
                self._less[name] |= above_higher

    @classmethod
    def standard(cls) -> "TerpPoset":
        """The poset of Figure 2 / Section III-B, as used by the runtime.

        thread-permission < process attach/detach < user permission
        < user-group permission.
        """
        poset = cls()
        thread = poset.add(Mechanism(
            "thread-permission", ProtectionLevel.THREAD_PERMISSION,
            engage_cost_cycles=27,
            description="MPK-style per-thread access permission (PKRU)"))
        attach = poset.add(Mechanism(
            "process-attach", ProtectionLevel.PROCESS_ATTACH,
            engage_cost_cycles=4422,
            description="attach/detach by process: mapping added/removed"))
        user = poset.add(Mechanism(
            "user-permission", ProtectionLevel.USER_PERMISSION,
            engage_cost_cycles=100_000,
            description="OS permission on user"))
        group = poset.add(Mechanism(
            "user-group-permission", ProtectionLevel.USER_GROUP_PERMISSION,
            engage_cost_cycles=100_000,
            description="OS permission on user groups"))
        poset.order(thread, attach)
        poset.order(attach, user)
        poset.order(user, group)
        return poset

    # -- order queries ------------------------------------------------

    def elements(self) -> List[Mechanism]:
        return list(self._elements.values())

    def get(self, name: str) -> Mechanism:
        try:
            return self._elements[name]
        except KeyError:
            raise TerpError(f"unknown poset element {name!r}") from None

    def leq(self, a: Mechanism, b: Mechanism) -> bool:
        """a <= b under the declared partial order."""
        return a == b or b.name in self._less[a.name]

    def comparable(self, a: Mechanism, b: Mechanism) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def strictly_below(self, a: Mechanism) -> List[Mechanism]:
        return [self._elements[n] for n, above in self._less.items()
                if a.name in above]

    def covers(self, lower: Mechanism, higher: Mechanism) -> bool:
        """True if ``higher`` covers ``lower`` (no element in between).

        The covering relation is what a Hasse diagram draws as edges.
        """
        if lower == higher or not self.leq(lower, higher):
            return False
        for mid in self._elements.values():
            if mid in (lower, higher):
                continue
            if self.leq(lower, mid) and self.leq(mid, higher):
                return False
        return True

    def hasse_edges(self) -> List[Tuple[Mechanism, Mechanism]]:
        """All covering pairs (lower, higher), for rendering Figure 2."""
        edges = []
        for a in self._elements.values():
            for b in self._elements.values():
                if self.covers(a, b):
                    edges.append((a, b))
        return edges

    def minimal_elements(self) -> List[Mechanism]:
        return [m for m in self._elements.values()
                if not self.strictly_below(m)]

    def maximal_elements(self) -> List[Mechanism]:
        return [m for m in self._elements.values()
                if not self._less[m.name]]

    def lower(self, mechanism: Mechanism) -> Optional[Mechanism]:
        """One implicit-lowering step: the greatest element strictly below.

        Returns ``None`` at the bottom of the poset.  When several
        incomparable elements sit below, the one with the highest
        protection level (then lowest cost) is chosen deterministically.
        """
        below = self.strictly_below(mechanism)
        candidates = [m for m in below if self.covers(m, mechanism)]
        if not candidates:
            return None
        return max(candidates,
                   key=lambda m: (m.level, -m.engage_cost_cycles, m.name))

    def render_hasse(self) -> str:
        """ASCII rendering of the Hasse diagram, top level first."""
        by_level: Dict[int, List[str]] = {}
        for m in self._elements.values():
            by_level.setdefault(int(m.level), []).append(m.name)
        lines = []
        for level in sorted(by_level, reverse=True):
            lines.append(f"  L{level}: " + "  ".join(sorted(by_level[level])))
        edge_lines = [f"  {lo.name} < {hi.name}" for lo, hi in self.hasse_edges()]
        return "levels:\n" + "\n".join(lines) + "\ncovers:\n" + "\n".join(edge_lines)
