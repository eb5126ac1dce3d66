"""Permission sets and permission groups (Definitions 1 and 2).

The paper formalizes TERP over *permission sets* — binary read/write/
execute rights over data objects — and *permission groups*: sets of
entities (threads, processes, users) sharing a permission set.  These
classes are used by the poset machinery (:mod:`repro.core.poset`) to
order protection mechanisms, and by the runtime to track per-thread
grants.
"""

from __future__ import annotations

import enum
from typing import FrozenSet, Iterable

from repro.core.record import field, record


class Access(enum.Flag):
    """Access kinds of Definition 1: read, write, execute."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    EXECUTE = enum.auto()
    RW = READ | WRITE
    RWX = READ | WRITE | EXECUTE

    @classmethod
    def parse(cls, text: str) -> "Access":
        """Parse a compact permission string like ``"rw"`` or ``"R"``.

        >>> Access.parse("rw") is Access.RW
        True
        """
        mapping = {"r": cls.READ, "w": cls.WRITE, "x": cls.EXECUTE}
        result = cls.NONE
        for ch in text.lower():
            if ch not in mapping:
                raise ValueError(f"unknown access character {ch!r} in {text!r}")
            result |= mapping[ch]
        return result

    def allows(self, requested: "Access") -> bool:
        """True if every bit of ``requested`` is granted by ``self``."""
        return (self & requested) == requested

    def short(self) -> str:
        """Compact display form, e.g. ``"rw-"``."""
        return ("r" if self & Access.READ else "-") + \
               ("w" if self & Access.WRITE else "-") + \
               ("x" if self & Access.EXECUTE else "-")


@record(frozen=True)
class PermissionSet:
    """A permission set P over named objects (Definition 1).

    Stored as a frozen set of ``(object_name, Access)`` pairs where the
    Access value carries the granted bits for that object.  Objects not
    present have no access.
    """

    grants: FrozenSet[tuple] = field(default_factory=frozenset)

    @classmethod
    def of(cls, **kwargs: str) -> "PermissionSet":
        """Build from keyword arguments: ``PermissionSet.of(pmo1="rw")``."""
        return cls(frozenset((name, Access.parse(mode))
                             for name, mode in kwargs.items()))

    def access_to(self, obj: str) -> Access:
        """The access this set grants to ``obj`` (NONE if absent)."""
        combined = Access.NONE
        for name, acc in self.grants:
            if name == obj:
                combined |= acc
        return combined

    def objects(self) -> FrozenSet[str]:
        return frozenset(name for name, _ in self.grants)

    def is_subset_of(self, other: "PermissionSet") -> bool:
        """P1 <= P2: every grant in P1 is covered by P2.

        This is the containment used for the poset partial order: a
        permission set is *weaker* (lower) if it grants no more than
        the other on every object.
        """
        return all(other.access_to(name).allows(acc)
                   for name, acc in self.grants)

    def intersect(self, other: "PermissionSet") -> "PermissionSet":
        """Greatest common permission set of two sets."""
        grants = []
        for name in self.objects() & other.objects():
            acc = self.access_to(name) & other.access_to(name)
            if acc != Access.NONE:
                grants.append((name, acc))
        return PermissionSet(frozenset(grants))

    def union(self, other: "PermissionSet") -> "PermissionSet":
        """Least common upper bound of two permission sets."""
        grants = {}
        for name, acc in list(self.grants) + list(other.grants):
            grants[name] = grants.get(name, Access.NONE) | acc
        return PermissionSet(frozenset(grants.items()))

    def __bool__(self) -> bool:
        return bool(self.grants)


class EntityKind(enum.Enum):
    """Kinds of entities a permission group may contain (Definition 2)."""

    THREAD = "thread"
    PROCESS = "process"
    USER = "user"
    USER_GROUP = "user_group"


@record(frozen=True)
class Entity:
    """An agent g with its own permission set p(g)."""

    kind: EntityKind
    name: str

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.name}"


@record(frozen=True)
class PermissionGroup:
    """A permission group G(P): entities sharing permission set P.

    Definition 2 requires P to be contained in the intersection of the
    members' own permission sets; :meth:`validate` checks that against
    a mapping of per-entity permissions.
    """

    members: FrozenSet[Entity]
    shared: PermissionSet

    @classmethod
    def of(cls, members: Iterable[Entity], shared: PermissionSet) -> "PermissionGroup":
        return cls(frozenset(members), shared)

    def validate(self, entity_permissions: dict) -> bool:
        """Check P is a subset of the intersection of members' p(g)."""
        for member in self.members:
            perm = entity_permissions.get(member)
            if perm is None or not self.shared.is_subset_of(perm):
                return False
        return True

    def is_subgroup_of(self, other: "PermissionGroup") -> bool:
        """Partial order used in the Hasse diagram of Figure 2.

        G1 <= G2 when G1's members are contained in G2's and G1's
        shared permission is no stronger than G2's.  (A thread-level
        grant sits below the process-wide attach that covers it.)
        """
        return (self.members <= other.members
                and self.shared.is_subset_of(other.shared))
