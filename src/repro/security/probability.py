"""Attack success probability (Section VII-D, Table V).

The paper's quantitative comparison follows the standard
effectiveness analysis of randomization defenses: an attacker who
needs ``x`` µs per probe attacks a PMO whose placement carries
``entropy_bits`` of entropy (18 bits for a 1GB PMO in a 1GB-aligned
256K-slot region).  Within one exposure window of length W the
attacker completes ``W/x`` probes over ``2^entropy`` equally likely
positions, so the per-window success probability is::

    P(success) = (W / x) / 2^entropy

Randomization at window boundaries makes windows independent.  Under
TERP, a compromised thread can probe only while *it* holds thread
permission — the thread exposure rate slice of the window — which is
the paper's 30x reduction: probing capacity shrinks from the full EW
to ``TER/ER`` of it.

The module reproduces Table V exactly and generalizes it (arbitrary
window sizes, entropies, attack times), and backs it with a Monte
Carlo probe simulator for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.units import GIB


def placement_entropy_bits(pmo_size: int = GIB,
                           region_size: int = 256 * 1024 * GIB) -> int:
    """Entropy of a randomized, alignment-constrained placement.

    A PMO's embedded subtree must land on a slot aligned to its own
    span; a 1GB PMO in a 256TB region has 256K slots = 18 bits.
    """
    slots = region_size // max(pmo_size, 1)
    if slots <= 1:
        return 0
    return int(np.log2(slots))


@dataclass(frozen=True)
class AttackScenario:
    """One column of Table V."""

    attack_time_us: float            # x: time per probe/attempt
    window_us: float = 40.0          # EW (MERR) or EW under TERP
    entropy_bits: int = 18           # 1GB PMO
    #: fraction of the window during which the attacking thread holds
    #: access (1.0 for MERR; TER/ER for TERP's thread permissions)
    access_fraction: float = 1.0

    @property
    def probes_per_window(self) -> float:
        usable = self.window_us * self.access_fraction
        return usable / self.attack_time_us

    @property
    def success_probability(self) -> float:
        """Per-window success probability (a fraction, not %)."""
        p = self.probes_per_window / (2 ** self.entropy_bits)
        return min(1.0, p)

    @property
    def success_percent(self) -> float:
        return 100.0 * self.success_probability


def merr_success_percent(attack_time_us: float, *,
                         ew_us: float = 40.0,
                         entropy_bits: int = 18) -> float:
    """Table V, MERR column: (0.015/x)% for a 40us EW, 18-bit PMO."""
    return AttackScenario(attack_time_us, window_us=ew_us,
                          entropy_bits=entropy_bits).success_percent


def terp_success_percent(attack_time_us: float, *,
                         ew_us: float = 40.0,
                         tew_us: float = 2.0,
                         access_fraction: float = 1.0 / 30.0,
                         entropy_bits: int = 18) -> Optional[float]:
    """Table V, TERP column: (0.0005/x)%, and None when the attack
    cannot run at all (each probe must fit inside a thread window).
    """
    if attack_time_us > tew_us:
        return None   # the probe needs permission longer than any TEW
    return AttackScenario(attack_time_us, window_us=ew_us,
                          entropy_bits=entropy_bits,
                          access_fraction=access_fraction
                          ).success_percent


def reduction_factor(attack_time_us: float = 1.0, *,
                     access_fraction: float = 1.0 / 30.0) -> float:
    """How much smaller TERP's success probability is vs MERR's.

    The paper reports 30x from the thread-permission restriction (the
    malicious thread holds access ~3.4% of the EW in WHISPER).
    """
    merr = merr_success_percent(attack_time_us)
    terp = terp_success_percent(attack_time_us,
                                access_fraction=access_fraction)
    if terp is None or terp == 0.0:
        return float("inf")
    return merr / terp


def simulate_probing(attack_time_us: float, *, window_us: float = 40.0,
                     entropy_bits: int = 18,
                     access_fraction: float = 1.0,
                     windows: int = 200_000,
                     seed: int = 1) -> float:
    """Monte Carlo cross-check of the analytic model.

    Each window the attacker probes distinct positions; success if the
    target position is among them.  Returns the per-window success
    rate in percent.
    """
    rng = np.random.default_rng(seed)
    slots = 2 ** entropy_bits
    probes = int(window_us * access_fraction / attack_time_us)
    if probes <= 0:
        return 0.0
    # The target is uniform per window (re-randomized); probing
    # distinct positions gives P = probes/slots exactly, sampled here.
    hits = rng.integers(0, slots, size=windows) < probes
    return 100.0 * float(np.mean(hits))
