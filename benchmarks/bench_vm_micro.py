"""VM microbenchmarks: the trace compiler against the interpreter.

Four guest workloads stress what the trace compiler optimizes, at
the CPU level with no kernel in the way:

* ``tight_loop``   — branchy integer arithmetic in registers (block
  linking and in-trace register caching);
* ``call_heavy``   — a jsr/rts leaf call per iteration (static call
  linking, stack traffic);
* ``mem_stream``   — streaming stores and loads through memory
  (guarded indirect access, dirty-page tracking);
* ``split_loop``   — a loop whose body branches mid-way into a
  ``cmp``/``blt`` tail block, shaped like ``cpuhog`` (loop arms and
  tail duplication).

Each guest runs twice — interpreter (``use_predecode=False``) and
trace engine — in 5000-instruction chunks like a kernel quantum, and
the final registers, flags and memory must be identical before any
number is reported.  Results merge into ``BENCH_perf.json`` under the
``vm_micro`` key, preserving whatever else lives in that file.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__),
                                os.pardir, "src"))

from repro.vm import assemble, CPU  # noqa: E402
from repro.vm.cpu import TrapStop  # noqa: E402
from repro.vm.image import ProcessImage, TEXT_BASE  # noqa: E402
from repro.vm.isa import cpu_model  # noqa: E402

#: one kernel scheduling quantum's worth of instructions
CHUNK = 5_000
MEM_SIZE = 256 * 1024

TIGHT_LOOP = """
start:  move  #0, d7
        move  #0, d6
loop:   add   #1, d7
        move  d7, d5
        mul   #13, d5
        add   #7, d5
        mod   #97, d5
        add   d5, d6
        cmp   #%(iters)d, d7
        blt   loop
        trap
"""

CALL_HEAVY = """
start:  move  #0, d7
        move  #0, d6
loop:   add   #1, d7
        push  d7
        jsr   leaf
        pop   d1
        add   d0, d6
        cmp   #%(iters)d, d7
        blt   loop
        trap
leaf:   move  4(sp), d0
        mul   #3, d0
        add   #1, d0
        rts
"""

MEM_STREAM = """
start:  move  #0, d7
loop:   lea   buf, a0
        move  #0, d6
wr:     move  d6, (a0)
        add   #4, a0
        add   #1, d6
        cmp   #64, d6
        blt   wr
        lea   buf, a1
        move  #0, d5
rd:     move  (a1), d4
        add   d4, d3
        add   #4, a1
        add   #1, d5
        cmp   #64, d5
        blt   rd
        add   #1, d7
        cmp   #%(iters)d, d7
        blt   loop
        trap
        .data
buf:    .space 256
"""

SPLIT_LOOP = """
start:  move  #0, d7
        move  #0, d6
        move  #0, d4
loop:   add   #1, d7
        move  d7, d5
        mul   #7, d5
        add   #3, d5
        mod   #123, d5
        add   d5, d6
        move  d7, d5
        mod   #64, d5
        tst   d5
        bne   next
        jsr   tick
next:   cmp   #%(iters)d, d7
        blt   loop
        trap
tick:   add   #1, d4
        rts
"""

WORKLOADS = [
    ("tight_loop", TIGHT_LOOP, 30_000),
    ("call_heavy", CALL_HEAVY, 20_000),
    ("mem_stream", MEM_STREAM, 500),
    ("split_loop", SPLIT_LOOP, 30_000),
]


def _fresh_image(out):
    image = ProcessImage(mem_size=MEM_SIZE)
    image.text_size = len(out.text)
    image.write_bytes(TEXT_BASE, out.text)
    image.write_bytes(TEXT_BASE + len(out.text), out.data)
    image.data_size = len(out.data)
    image.brk = TEXT_BASE + len(out.text) + len(out.data)
    image.clear_dirty()
    image.regs.pc = out.entry
    image.regs.sp = image.stack_top
    return image


def _run_engine(out, use_predecode, cpu="mc68010"):
    """Run a guest to its trap in CHUNK-sized budgets; returns the
    finished image, the instruction count and the elapsed seconds."""
    vm = CPU(cpu_model(cpu))
    vm.use_predecode = use_predecode
    image = _fresh_image(out)
    executed = 0
    start = time.perf_counter()
    while True:
        stop = vm.run(image, CHUNK)
        executed += stop.executed
        if isinstance(stop, TrapStop):
            break
        if stop.executed == 0:
            raise AssertionError("guest stopped making progress: %r"
                                 % stop)
    elapsed = time.perf_counter() - start
    return image, executed, elapsed


def _visible(image):
    return (list(image.regs.d), list(image.regs.a), image.regs.pc,
            image.regs.zf, image.regs.nf, bytes(image.mem),
            bytes(image.dirty_pages))


def run_workload(name, source, iters, verbose=True):
    out = assemble(source % {"iters": iters})
    interp, n_interp, t_interp = _run_engine(out, use_predecode=False)
    traced, n_traced, t_traced = _run_engine(out, use_predecode=True)
    if _visible(interp) != _visible(traced):
        raise AssertionError("%s: engines disagree on the final "
                             "machine state" % name)
    if n_interp != n_traced:
        raise AssertionError("%s: executed counts differ (%d vs %d)"
                             % (name, n_interp, n_traced))
    result = {
        "iterations": iters,
        "instructions": n_interp,
        "interp_instr_per_sec": round(n_interp / t_interp, 1),
        "trace_instr_per_sec": round(n_traced / t_traced, 1),
        "speedup": round(t_interp / t_traced, 3) if t_traced else 0.0,
    }
    if verbose:
        print("  %-11s %9d instr   interp %9.0f/s   "
              "traces %9.0f/s   %5.2fx"
              % (name, n_interp, result["interp_instr_per_sec"],
                 result["trace_instr_per_sec"], result["speedup"]),
              flush=True)
    return result


def merge_report(path, key, payload):
    """Read-modify-write ``path``: set ``key`` without disturbing any
    other benchmark's results already in the file."""
    doc = {}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (ValueError, OSError):
            doc = {}
    if not isinstance(doc, dict):
        doc = {}
    doc[key] = payload
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="BENCH_perf.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny iteration counts (shape check only)")
    args = parser.parse_args(argv)

    print("vm micro: interpreter vs trace engine "
          "(%d-instruction chunks)" % CHUNK, flush=True)
    results = {}
    for name, source, iters in WORKLOADS:
        if args.smoke:
            iters = max(10, iters // 100)
        results[name] = run_workload(name, source, iters)
    merge_report(args.out, "vm_micro",
                 {"benchmark": "bench_vm_micro",
                  "chunk_instructions": CHUNK,
                  "workloads": results})
    print("written to %s" % args.out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
