"""Observability wired through PmoLibrary / TerpRuntime."""

from repro.arch.cond_engine import TerpArchEngine
from repro.core.units import MIB, us
from repro.obs import Observability
from repro.pmo.api import PmoLibrary


def _library(obs: Observability) -> PmoLibrary:
    engine = TerpArchEngine(us(50), capacity=8)
    lib = PmoLibrary(semantics=engine, seed=2022, strict=True, obs=obs)
    engine.tracer = obs.tracer
    return lib


def _cycle(lib: PmoLibrary) -> None:
    pmo = lib.PMO_create("wired", MIB)
    oid = lib.pmalloc(pmo, 32)
    lib.tick(1_000)
    lib.attach(pmo)
    pmo.begin_tx()
    lib.write(oid, b"x" * 32)
    lib.psync(pmo)
    lib.tick(2_500)
    lib.detach(pmo)


def test_audit_records_library_attach_detach():
    obs = Observability()
    _cycle(_library(obs))
    events = obs.audit.events()
    kinds = [e["kind"] for e in events]
    assert "attach" in kinds
    assert "detach" in kinds
    detach = [e for e in events if e["kind"] == "detach"][-1]
    # Sim-clock discipline: held duration is exactly the ticks between
    # attach and detach.
    assert detach["duration_ns"] == 2_500
    assert obs.audit.summary()["per_pmo"]["wired"]["windows"] == 1


def test_psync_span_recorded():
    obs = Observability()
    _cycle(_library(obs))
    [span] = [s for s in obs.tracer.recent()
              if s["name"] == "lib.psync"]
    assert span["attrs"]["pmo"] == "wired"
    assert span["attrs"]["flushed"] >= 1


def test_runtime_records_no_spans():
    """Attach and detach land on the audit timeline, not the tracer."""
    obs = Observability()
    _cycle(_library(obs))
    assert not [s for s in obs.tracer.recent()
                if s["name"].startswith("rt.")]
    assert obs.audit.summary()["attaches"] == 1


def test_noop_mode_records_nothing_at_library_level():
    obs = Observability.noop()
    _cycle(_library(obs))
    assert obs.audit.events() == []
    assert obs.tracer.recent() == []
    assert obs.tracer.stats()["started"] == 0
