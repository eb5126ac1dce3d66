"""TERP: Temporal Exposure Reduction Protection for Persistent Memory.

A complete reproduction of the HPCA 2022 paper: the TERP formal
framework (posets, exposure windows, the four attach/detach
semantics), the PMO substrate (pools, persistent heap, crash
consistency, embedded page-table subtrees), the memory-protection
substrate (page tables, TLBs, permission matrix, MPK domains), the
TERP architecture (circular buffer, conditional attach/detach,
sweeping), the compiler pass (region analysis and automatic
insertion), the evaluation workloads (WHISPER- and SPEC-style), and
the security analyses (dead times, success probabilities, gadget
census, a data-only attack case study).

Quick start::

    from repro import PmoLibrary, Access

    lib = PmoLibrary(ew_target_us=40.0)
    pmo = lib.PMO_create("mydata", 8 * 1024 * 1024)
    handle = lib.attach(pmo, Access.RW)
    oid = lib.pmalloc(pmo, 64)
    lib.write(oid, b"persistent!")

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
regeneration of every table and figure in the paper's evaluation.
"""

import importlib
from typing import Any, Dict

#: Each quick-start name and the module it lives in.  A name is
#: imported on first use (PEP 562), so a process that imports one
#: ``repro`` module loads that module, not all of these: a warm
#: standby, which never builds a library, loads none of them.
_EXPORTS: Dict[str, str] = {
    **dict.fromkeys((
        "CompilerError", "ConfigurationError", "CrashConsistencyError",
        "OutOfPersistentMemory", "PmoError", "ProtectionFault",
        "SegmentationFault", "SemanticsViolation", "SimulationError",
        "TerpError"), "repro.core.errors"),
    **dict.fromkeys(("ExposureMonitor", "Window", "WindowTracker"),
                    "repro.core.exposure"),
    **dict.fromkeys((
        "Access", "Entity", "EntityKind", "PermissionGroup",
        "PermissionSet"), "repro.core.permissions"),
    **dict.fromkeys(("Mechanism", "ProtectionLevel", "TerpPoset"),
                    "repro.core.poset"),
    **dict.fromkeys(("Handle", "TerpRuntime"), "repro.core.runtime"),
    **dict.fromkeys((
        "BasicSemantics", "EwConsciousSemantics", "FcfsSemantics",
        "make_semantics", "Outcome", "OutermostSemantics"),
        "repro.core.semantics"),
    "TerpArchEngine": "repro.arch.cond_engine",
    "PmoLibrary": "repro.pmo.api",
    "Oid": "repro.pmo.object_id",
    "Pmo": "repro.pmo.pmo",
    "PmoManager": "repro.pmo.pool",
}


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


__version__ = "1.0.0"

__all__ = [*_EXPORTS]
