"""The paper's threat model (Section III-B), as checkable structure.

Data-only attacks against PMO contents: the attacker controls local
variables through a memory-safety bug (buffer overflow, format
string) in code that legitimately accesses the PMO, and tries to read
or corrupt PMO data.  The model's assumptions (trusted OS, correct
MMU, trustworthy randomness, no instruction injection) are encoded as
explicit predicates so analyses can state what they rely on.
"""

from __future__ import annotations

import enum
from typing import FrozenSet, List

from repro.core.record import record


class Assumption(enum.Enum):
    """Trust assumptions the TERP analysis rests on."""

    TRUSTED_OS = "system software (OS) is trusted"
    CORRECT_MMU = "MMU enforces page-table mappings correctly"
    TRUSTED_RNG = "randomization source is trustworthy"
    NO_INSTRUCTION_INJECTION = (
        "attackers cannot inject or reuse TERP instructions (call "
        "gates / binary inspection, e.g. ERIM)")
    CFI_DEPLOYED = "control-flow attacks are mitigated separately"


class AttackClass(enum.Enum):
    """Attack classes discussed in the evaluation (Table V)."""

    STACK_BUFFER_OVERFLOW = "stack buffer overflow"
    HEAP_OVERFLOW = "heap overflow"
    FORMAT_STRING = "format string"
    INTEGER_OVERFLOW = "integer overflow"
    SPECTRE = "speculative side channel"
    MELTDOWN = "meltdown-class"


#: The three PMO data states a thread can observe (Section VII-D).
class PmoState(enum.Enum):
    DETACHED = "detached"
    ATTACHED_NO_PERMISSION = "attached without thread permission"
    ATTACHED_WITH_PERMISSION = "attached with thread permission"


@record(frozen=True)
class ThreatModel:
    """What the attacker can and cannot do."""

    assumptions: FrozenSet[Assumption] = frozenset(Assumption)
    in_scope: FrozenSet[AttackClass] = frozenset({
        AttackClass.STACK_BUFFER_OVERFLOW,
        AttackClass.HEAP_OVERFLOW,
        AttackClass.FORMAT_STRING,
        AttackClass.INTEGER_OVERFLOW,
    })

    def protects_against(self, attack: AttackClass,
                         state: PmoState) -> bool:
        """Can the attack reach PMO data in the given state?

        Section VII-D: in the DETACHED state even attacks exploiting
        virtual-memory implementation flaws (Spectre/Meltdown) fail —
        no mapping exists.  In the two attached states, in-scope
        data-only attacks are *hindered probabilistically* (short
        windows plus randomization), and out-of-scope
        microarchitectural attacks are not blocked.
        """
        if state is PmoState.DETACHED:
            return True
        if attack in (AttackClass.SPECTRE, AttackClass.MELTDOWN):
            return False
        if state is PmoState.ATTACHED_NO_PERMISSION:
            # The MPK permission stops ordinary loads/stores from the
            # compromised thread.
            return True
        return False  # attached-with-permission: the probabilistic case


DEFAULT_THREAT_MODEL = ThreatModel()
