#!/usr/bin/env python3
"""The TERP compiler pass on a Figure 5-style control-flow graph.

Writes a function with branching and a loop around PMO accesses in the
compiler's textual IR, runs the region analysis and Algorithm 1's
insertion, prints the instrumented IR in the same syntax, and then
*executes* it against the TERP architecture engine to show the
inserted conditional attach/detach (a) never violate the EW-conscious
semantics and (b) bound the thread exposure window at the compiler's
budget.
"""

from repro.arch.cond_engine import TerpArchEngine
from repro.compiler.insertion import TerpInsertionPass, verify_program
from repro.compiler.interp import Interpreter
from repro.compiler.pointer_analysis import analyze
from repro.compiler.text import parse_program, print_program
from repro.core.units import cycles_to_ns, ns_to_us, us

#: if (...) { read PMO } else { update PMO };
#: then loop { audit(); compute } — audit writes the PMO.
SOURCE = """
pmo h = accounts

func audit
block entry:
    load h
    compute 40
    store h

func main
block entry:
    compute 100
    branch fast slow
block fast:
    load h
    compute 30
    jump join
block slow:
    load h
    compute 400
    store h
    jump join
block join:
    compute 50
    jump loop
block loop:
    compute 20
    branch body done
block body:
    call audit
    compute 500
    jump loop
block done:
    compute 10
"""


def main() -> None:
    prog = parse_program(SOURCE)
    points_to = analyze(prog)
    print("pointer analysis: PMO-accessing blocks per function")
    for fname in prog.functions:
        blocks = sorted(points_to.blocks_with_accesses(fname))
        print(f"  {fname}: {blocks}")

    tew_cycles = 2_000   # ~0.9us at 2.2 GHz
    pass_ = TerpInsertionPass(let_threshold_cycles=100_000,
                              tew_cycles=tew_cycles)
    report = pass_.run(prog)
    verify_program(prog)
    print(f"\ninserted {report.attaches} CondAttach / "
          f"{report.detaches} CondDetach across {report.regions} "
          "PMO-WFG regions (verified: matched on every path)\n")
    print(print_program(prog), end="")

    engine = TerpArchEngine(us(40))
    result = Interpreter(prog, engine, seed=11).run("main")
    print(f"\nexecution under the TERP architecture engine:")
    print(f"  {result.attaches} attaches, {result.detaches} detaches, "
          f"{result.faults} faults, "
          f"{result.semantics_errors} semantics errors")
    print(f"  thread windows: {result.tew_count}, max "
          f"{ns_to_us(result.max_tew_ns):.2f}us "
          f"(budget {ns_to_us(cycles_to_ns(tew_cycles)):.2f}us)")
    assert result.clean


if __name__ == "__main__":
    main()
