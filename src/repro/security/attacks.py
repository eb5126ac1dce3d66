"""Data-only attack case study (Section VII-D, Figure 12).

A concrete, runnable reproduction of the paper's FTP-server example:
the victim program keeps a linked list in a PMO; a buffer overflow in
``readData`` lets the attacker control local variables (``type``,
``size``, ``srv``, and the loop counter), turning three innocent
lines into *data-only gadgets*:

* ``srv->typ = *type``       — attacker-controlled assignment;
* ``*size = *(srv->cur_max)``— attacker-controlled dereference;
* ``srv->total += *size``    — attacker-controlled addition;

chained by the request loop (a *gadget dispatcher*) to execute the
attack goal of Figure 12(b): add a chosen value to every node of the
victim list.

:class:`DataOnlyAttack` replays that chain against the same victim
structure under three protection levels — none, MERR (process-wide
windows + randomization), TERP (thread windows + randomization) — and
reports how far the attacker gets.  The gadget can only touch the PMO
when the executing thread can (the protection's exposure schedule),
and learned addresses die at every randomization.
"""

from __future__ import annotations

import enum
from typing import List, Optional

import numpy as np

from repro.core.record import record
from repro.core.units import MIB, us
from repro.pmo.object_id import Oid
from repro.pmo.pmo import Pmo


class Protection(enum.Enum):
    NONE = "none"
    MERR = "merr"
    TERP = "terp"


@record
class AttackConfig:
    protection: Protection
    ew_us: float = 40.0
    #: fraction of time the PMO is attached (exposure rate)
    exposure_rate: float = 0.5
    #: fraction of the EW during which the *vulnerable thread* holds
    #: permission (TERP only; = TER/ER)
    thread_fraction: float = 1.0 / 30.0
    #: time the attacker needs per gadget round
    round_us: float = 1.0
    #: entropy of the PMO placement, in bits (scaled down from 18 so
    #: the demo terminates; the probability model scales linearly)
    entropy_bits: int = 10
    #: attacker budget
    max_rounds: int = 200_000
    #: interactive attacks observe probe results over the network;
    #: each result arrives one RTT later (Table VI: "network
    #: latencies (ms level) are much larger than EW (40us)")
    interactive: bool = False
    network_rtt_us: float = 1_000.0


@record
class AttackOutcome:
    corrupted_nodes: int
    total_nodes: int
    rounds_used: int
    faults: int
    stale_addresses: int
    reprobes: int

    @property
    def succeeded(self) -> bool:
        return self.corrupted_nodes == self.total_nodes

    @property
    def progress(self) -> float:
        return self.corrupted_nodes / self.total_nodes


class VictimList:
    """Figure 12(b)'s structure: ``struct Obj {Obj *next; uint prop;}``
    as a real persistent linked list on a PMO."""

    NODE_SIZE = 16  # next oid (8) + prop (8)

    def __init__(self, pmo: Pmo, n_nodes: int) -> None:
        self.pmo = pmo
        self.nodes: List[Oid] = []
        prev = Oid.NULL
        for i in range(n_nodes):
            oid = pmo.pmalloc(self.NODE_SIZE)
            pmo.write_u64(oid.offset, prev.pack())
            pmo.write_u64(oid.offset + 8, 100 + i)   # prop
            prev = oid
            self.nodes.append(oid)
        pmo.root_oid = prev  # head

    def props(self) -> List[int]:
        return [self.pmo.read_u64(oid.offset + 8) for oid in self.nodes]


class DataOnlyAttack:
    """Replays the gadget chain under a protection schedule."""

    def __init__(self, config: AttackConfig, *, n_nodes: int = 16,
                 seed: int = 99) -> None:
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.pmo = Pmo(1, "victim", 4 * MIB)
        self.victim = VictimList(self.pmo, n_nodes)
        #: current placement epoch; bumps on every randomization, and
        #: any address learned in an older epoch is stale.
        self._epoch = 0
        self._known_epoch: Optional[int] = None

    # -- protection schedule ------------------------------------------------

    def _pmo_accessible(self, now_us: float) -> bool:
        """Is the PMO attached at ``now_us`` (MERR/TERP schedule)?"""
        if self.config.protection is Protection.NONE:
            return True
        cycle = self.config.ew_us / self.config.exposure_rate
        return (now_us % cycle) < self.config.ew_us

    def _thread_can_access(self, now_us: float) -> bool:
        """Does the compromised thread hold permission at ``now_us``?"""
        if not self._pmo_accessible(now_us):
            return False
        if self.config.protection is not Protection.TERP:
            return True
        # Thread windows are short slices at the start of each EW.
        cycle = self.config.ew_us / self.config.exposure_rate
        offset = now_us % cycle
        return offset < self.config.ew_us * self.config.thread_fraction

    def _current_epoch(self, now_us: float) -> int:
        """Randomization epoch: the placement changes every EW."""
        if self.config.protection is Protection.NONE:
            return 0
        cycle = self.config.ew_us / self.config.exposure_rate
        return int(now_us // cycle)

    # -- the attack ---------------------------------------------------------------

    def run(self) -> AttackOutcome:
        cfg = self.config
        corrupted = 0
        faults = stale = reprobes = 0
        now_us = 0.0
        rounds = 0
        value = 7777  # the attacker's chosen increment
        while corrupted < len(self.victim.nodes) and \
                rounds < cfg.max_rounds:
            rounds += 1
            now_us += cfg.round_us
            epoch = self._current_epoch(now_us)
            if not self._thread_can_access(now_us):
                # The gadget fires but the load faults: under TERP
                # this is also a detectable signal.
                faults += 1
                continue
            if self._known_epoch != epoch:
                # Learned base address died at randomization; one
                # probe round per attempt, success 2^-entropy.
                stale += 1
                if self.rng.random() < 2.0 ** -cfg.entropy_bits:
                    if cfg.interactive:
                        # The probe's answer travels over the network:
                        # it describes the placement of the epoch the
                        # probe ran in, observed one RTT later.
                        observed_at = now_us + cfg.network_rtt_us
                        if self._current_epoch(observed_at) == epoch:
                            self._known_epoch = epoch
                            reprobes += 1
                        # else: the answer is already stale on arrival
                    else:
                        self._known_epoch = epoch
                        reprobes += 1
                continue
            # Address known and permission held: the odd/even-round
            # gadget pair (Figure 12c) advances one node.
            node = self.victim.nodes[corrupted]
            prop = self.pmo.read_u64(node.offset + 8)
            self.pmo.write_u64(node.offset + 8,
                               (prop + value) & ((1 << 64) - 1))
            corrupted += 1
        return AttackOutcome(corrupted_nodes=corrupted,
                             total_nodes=len(self.victim.nodes),
                             rounds_used=rounds,
                             faults=faults,
                             stale_addresses=stale,
                             reprobes=reprobes)


def compare_protections(*, n_nodes: int = 16, seed: int = 99,
                        max_rounds: int = 100_000) -> dict:
    """Run the same attack under none/MERR/TERP; the case-study data."""
    results = {}
    for protection in Protection:
        config = AttackConfig(protection=protection,
                              max_rounds=max_rounds)
        attack = DataOnlyAttack(config, n_nodes=n_nodes, seed=seed)
        results[protection.value] = attack.run()
    return results
