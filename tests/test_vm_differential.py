"""Differential fuzzing: the trace compiler against the interpreter.

Randomized instruction sequences are encoded straight to machine code
and run twice — once with ``use_predecode=False`` (the reference
interpreter, the executable spec) and once through the trace compiler
— in small odd budget chunks, so quantum boundaries and entry-guard
bails land mid-trace.  After every chunk each architecturally visible
outcome must be identical: registers, flags, pc, memory contents,
dirty pages, executed counts, and the stop itself (type, fault kind,
faulting address).

The generator deliberately includes the awkward cases: invalid and
out-of-range addresses (segv parity), 68020-only opcodes run on a
68010 (ill parity), division by zero (fpe parity), dynamic branch and
call targets, byte operations, and stack traffic.  The one thing it
avoids is *stores that land inside the code window*: self-modifying
code mid-quantum hits the legacy per-run decode-cache staleness that
predates the trace compiler, in both engines.

The lazy half runs the same comparison on images with chunks pending
copy-on-reference fill (the lazy trace variant against the
interpreter) and also requires the exact same sequence of chunk
fetches.
"""

import struct

from hypothesis import given, settings, strategies as st

from repro.core.formats import ChunkManifest
from repro.errors import UnixError, EIO
from repro.vm import isa
from repro.vm.cpu import CPU, QuantumStop
from repro.vm.image import ProcessImage, TEXT_BASE, PAGE_BYTES
from repro.vm.isa import Op, Mode, MC68010, MC68020

MEM_SIZE = 64 * 1024
ISIZE = isa.INSTRUCTION_SIZE
#: largest program the generator emits (plus the trap sentinel)
MAX_PROG = 24
#: code window stores must avoid (see module docstring)
CODE_END = TEXT_BASE + ISIZE * (MAX_PROG + 1)
#: start of the store-safe data window
DATA_BASE = CODE_END + 64

REG = st.integers(0, 7)

#: the int32 bounds and their neighbours, where one-sided wraps fire
INT32_EDGES = [2 ** 31 - 1, 2 ** 31 - 2, -(2 ** 31), -(2 ** 31) + 1]

#: immediates: small arithmetic values, addresses in the data window,
#: clearly-invalid addresses, the constants that push a value across
#: an int32 bound — never inside the code window
IMM = st.one_of(
    st.integers(-64, 64),
    st.integers(DATA_BASE, MEM_SIZE - 4),
    st.sampled_from([-16, 0, MEM_SIZE - 2, MEM_SIZE - 1,
                     MEM_SIZE + 64, 2 ** 20, -(2 ** 20)]),
    st.sampled_from([1, -1, 2 ** 31 - 1, -(2 ** 31)]),
)

#: absolute operands: same spread (reads from low memory are legal,
#: stores below TEXT_BASE never alias code)
ABS = IMM

#: opcodes, weighted roughly by how interesting their compiled form is
OPS = ([Op.ADD, Op.SUB, Op.MUL, Op.MOVE] * 4
       + [Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.CMP, Op.TST,
          Op.MOVB, Op.LEA, Op.DIV, Op.MOD, Op.NOT, Op.NEG] * 2
       + [Op.PUSH, Op.POP, Op.JSR, Op.RTS, Op.NOP]
       + [Op.MULL, Op.DIVL, Op.BFEXT]
       + [Op.BEQ, Op.BNE, Op.BLT, Op.BLE, Op.BGT, Op.BGE, Op.BRA] * 2)


@st.composite
def _operand(draw, code_pcs, hot=()):
    mode = draw(st.sampled_from([Mode.IMM, Mode.DREG, Mode.DREG,
                                 Mode.AREG, Mode.ABS, Mode.IND,
                                 Mode.IND_DISP]))
    if mode in (Mode.IMM, Mode.ABS):
        # ``hot``: addresses inside (and straddling the pages of) the
        # lazy case's pending chunks
        if hot and draw(st.booleans()):
            return mode, draw(st.sampled_from(hot))
        return mode, draw(IMM if mode == Mode.IMM else ABS)
    if mode in (Mode.DREG, Mode.AREG, Mode.IND):
        return mode, draw(REG)
    return mode, isa.pack_ind_disp(draw(st.integers(-16, 16)) * 4,
                                   draw(REG))


@st.composite
def _instruction(draw, code_pcs, hot=()):
    op = draw(st.sampled_from(OPS))
    if op in isa.ZERO_OPERAND:
        return isa.encode(op)
    if op in isa.BRANCHES or op == Op.JSR:
        # mostly static targets (they compile to links), sometimes a
        # dynamic register target (always a trace exit)
        if draw(st.integers(0, 4)):
            return isa.encode(op, Mode.IMM, draw(st.sampled_from(code_pcs)))
        mode = draw(st.sampled_from([Mode.DREG, Mode.AREG]))
        return isa.encode(op, mode, draw(REG))
    if op in isa.ONE_OPERAND_SRC:  # push
        sm, s = draw(_operand(code_pcs, hot))
        return isa.encode(op, sm, s)
    if op in isa.ONE_OPERAND_DST:  # not/neg/tst/pop
        dm, dv = draw(_operand(code_pcs, hot))
        return isa.encode(op, 0, 0, dm, dv)
    sm, s = draw(_operand(code_pcs, hot))
    dm, dv = draw(_operand(code_pcs, hot))
    return isa.encode(op, sm, s, dm, dv)


@st.composite
def _program(draw, hot=()):
    n = draw(st.integers(2, MAX_PROG))
    code_pcs = [TEXT_BASE + ISIZE * k for k in range(n + 1)]
    body = [draw(_instruction(code_pcs, hot)) for _ in range(n)]
    body.append(isa.encode(Op.TRAP))  # sentinel: falling off traps
    return b"".join(body)


#: initial register files: arithmetic values for d, data-window
#: addresses for a (so indirect stores start out store-safe)
DREGS = st.lists(st.one_of(st.integers(-100, 100),
                           st.integers(-(2 ** 31), 2 ** 31 - 1)
                           .filter(lambda v: not
                                   TEXT_BASE - 256 <= v <= CODE_END),
                           st.sampled_from(INT32_EDGES)),
                 min_size=8, max_size=8)
AREGS = st.lists(st.integers(DATA_BASE + 256, MEM_SIZE - 256),
                 min_size=8, max_size=8)


def _fresh_image(text, dregs, aregs):
    image = ProcessImage(mem_size=MEM_SIZE)
    image.text_size = len(text)
    image.write_bytes(TEXT_BASE, text)
    image.data_size = 0
    image.brk = TEXT_BASE + len(text)
    # a recognizable non-zero pattern under the data window so loads
    # see real values and byte ops have something to truncate
    pattern = bytes((i * 37 + 11) & 0xFF for i in range(4096))
    image.write_bytes(DATA_BASE, pattern)
    image.clear_dirty()
    image.regs.pc = TEXT_BASE
    image.regs.sp = image.stack_top - 64
    image.regs.d[:] = dregs
    image.regs.a[:7] = aregs[:7]
    return image


def _visible_state(image, stop):
    return (type(stop).__name__, stop.executed,
            getattr(stop, "kind", None), getattr(stop, "address", None),
            list(image.regs.d), list(image.regs.a),
            image.regs.pc, image.regs.sp, image.regs.zf, image.regs.nf)


def _run_differential(text, dregs, aregs, model, budgets, cap=400,
                      regions=(), fail_at=None):
    """Run both engines chunk by chunk; returns the fast image.

    ``regions`` are ``(base, chunk_bytes, length)`` triples registered
    as pending copy-on-reference chunks on both images; the
    ``fail_at``-th fetch (if any) fails once.
    """
    ref_cpu = CPU(model)
    ref_cpu.use_predecode = False
    fast_cpu = CPU(model)
    ref = _fresh_image(text, dregs, aregs)
    fast = _fresh_image(text, dregs, aregs)
    ref_fetches = _add_regions(ref, regions, fail_at)
    fast_fetches = _add_regions(fast, regions, fail_at)
    total = 0
    chunk = 0
    while total < cap:
        budget = budgets[chunk % len(budgets)]
        ref_stop = ref_cpu.run(ref, budget)
        fast_stop = fast_cpu.run(fast, budget)
        assert _visible_state(ref, ref_stop) == \
            _visible_state(fast, fast_stop), \
            "diverged at chunk %d (budget %d)" % (chunk, budget)
        assert bytes(ref.mem) == bytes(fast.mem), \
            "memory diverged at chunk %d" % chunk
        assert bytes(ref.dirty_pages) == bytes(fast.dirty_pages), \
            "dirty pages diverged at chunk %d" % chunk
        assert ref_fetches == fast_fetches, \
            "chunk fetches diverged at chunk %d" % chunk
        assert (ref._lazy is None) == (fast._lazy is None)
        total += ref_stop.executed
        chunk += 1
        if not isinstance(ref_stop, QuantumStop):
            break  # trap/halt/fault: the program is done
    return fast


def _add_regions(image, regions, fail_at):
    """Register ``regions`` as pending on ``image``; returns the list
    every fetch appends its digest to."""
    fetches = []

    def fetch(digest, size):
        fetches.append(digest)
        if len(fetches) == fail_at:
            raise UnixError(EIO, "chunk holder unreachable")
        return (digest * (size // len(digest) + 1))[:size]

    for number, (base, chunk_bytes, length) in enumerate(regions):
        count = -(-length // chunk_bytes)
        digests = [struct.pack("<HHI", number, index, 0x5A5A5A5A + index)
                   for index in range(count)]
        image.add_lazy_region(base, ChunkManifest(chunk_bytes, length,
                                                  digests), fetch=fetch)
    return fetches


@given(text=_program(), dregs=DREGS, aregs=AREGS,
       budgets=st.lists(st.integers(3, 17).map(lambda v: v | 1),
                        min_size=1, max_size=4),
       model=st.sampled_from([MC68010, MC68020]))
@settings(max_examples=120, deadline=None)
def test_compiled_traces_match_interpreter(text, dregs, aregs,
                                           budgets, model):
    _run_differential(text, dregs, aregs, model, budgets)


def test_linked_loop_matches_interpreter_chunked():
    """A deterministic cpuhog-shaped loop: block linking, a memory
    read-modify-write, and a conditional exit, stepped in budgets that
    never divide the loop length."""
    loop = TEXT_BASE
    body = [
        isa.encode(Op.ADD, Mode.IMM, 1, Mode.DREG, 7),
        isa.encode(Op.MOVE, Mode.DREG, 7, Mode.DREG, 5),
        isa.encode(Op.MUL, Mode.IMM, 7, Mode.DREG, 5),
        isa.encode(Op.MOD, Mode.IMM, 123, Mode.DREG, 5),
        isa.encode(Op.ADD, Mode.DREG, 5, Mode.ABS, DATA_BASE),
        isa.encode(Op.CMP, Mode.IMM, 500, Mode.DREG, 7),
        isa.encode(Op.BLT, Mode.IMM, loop),
        isa.encode(Op.TRAP),
    ]
    text = b"".join(body)
    zeros = [0] * 8
    addrs = [DATA_BASE + 1024] * 8
    _run_differential(text, zeros, addrs, MC68010, [7, 13, 11],
                      cap=5000)


def _split_loop_text(iterations):
    """A cpuhog-shaped loop: the head block's ``bne`` jumps mid-body to
    a ``cmp``/``blt`` tail block that closes the loop; the fall-through
    calls a subroutine every fourth iteration."""
    loop = TEXT_BASE
    tail = loop + 11 * ISIZE
    sub = tail + 3 * ISIZE
    return b"".join([
        isa.encode(Op.ADD, Mode.IMM, 1, Mode.DREG, 7),
        isa.encode(Op.MOVE, Mode.DREG, 7, Mode.DREG, 5),
        isa.encode(Op.MUL, Mode.IMM, 7, Mode.DREG, 5),
        isa.encode(Op.ADD, Mode.IMM, 3, Mode.DREG, 5),
        isa.encode(Op.MOD, Mode.IMM, 123, Mode.DREG, 5),
        isa.encode(Op.ADD, Mode.DREG, 5, Mode.ABS, DATA_BASE),
        isa.encode(Op.MOVE, Mode.DREG, 7, Mode.DREG, 5),
        isa.encode(Op.MOD, Mode.IMM, 4, Mode.DREG, 5),
        isa.encode(Op.TST, 0, 0, Mode.DREG, 5),
        isa.encode(Op.BNE, Mode.IMM, tail),
        isa.encode(Op.JSR, Mode.IMM, sub),
        # tail:
        isa.encode(Op.CMP, Mode.IMM, iterations, Mode.DREG, 7),
        isa.encode(Op.BLT, Mode.IMM, loop),
        isa.encode(Op.TRAP),
        # sub:
        isa.encode(Op.ADD, Mode.IMM, 1, Mode.ABS, DATA_BASE + 4),
        isa.encode(Op.RTS),
    ])


def test_split_loop_matches_interpreter_at_every_budget():
    """The loop-arm and tail-duplication shape: the head block's arm
    runs as an inner loop whose back edge sits in the inlined copy of
    the tail block.  Every budget from 1 to three loop lengths stops
    the trace at a different guard (the head's, the inlined tail's,
    mid-call), and each must hand back exactly the interpreter's
    registers, flags, pc, executed count, memory and dirty pages."""
    loop_len = 12  # add … bne, cmp, blt (the call-free iteration)
    text = _split_loop_text(20)
    addrs = [DATA_BASE + 1024] * 8
    for budget in range(1, 3 * loop_len + 1):
        _run_differential(text, [0] * 8, addrs, MC68010, [budget],
                          cap=5000)


def test_cpuhog_loop_compiles_to_an_inner_loop_with_an_inlined_tail():
    """The compiled ``cpuhog`` trace: ``hog_loop``'s arm is the first
    dispatch arm and an inner ``while`` loop; the ``cmp``/``blt`` block
    at ``hog_next`` is inlined into it under its own budget guard, and
    its back edge to ``hog_loop`` is a ``continue``."""
    from repro.programs.guest.cpuhog import BODY, DATA
    from repro.programs.guest.libasm import program
    from repro.vm.predecode import compile_trace
    out = program(BODY, DATA)
    image = ProcessImage(mem_size=256 * 1024)
    image.text_size = len(out.text)
    image.write_bytes(TEXT_BASE, out.text)
    image.write_bytes(TEXT_BASE + len(out.text), out.data)
    loop, tail = out.symbols["hog_loop"], out.symbols["hog_next"]
    trace, __, __ = compile_trace(MC68010, image, loop)
    lines = trace.source.splitlines()
    first = lines.index("        if _pc == %d:" % loop)
    end = next(i for i in range(first + 1, len(lines))
               if lines[i].startswith("        el"))
    arm = [line.strip() for line in lines[first + 1:end]]
    assert arm[0] == "while 1:"
    assert "_n += 2; continue" in arm  # cmp, blt, back to the head
    guard = [line for line in arm
             if line.startswith("if budget - _n < ")]
    assert len(guard) >= 2 and guard[1].startswith(
        "if budget - _n < 4:") and guard[1].endswith(
        "return _n, %d, zf, nf, 0" % tail)
    # add #1 can only overflow upwards
    assert "if rd7 > 2147483647: rd7 -= 4294967296" in arm


def test_immediate_add_sub_cmp_wrap_at_int32_bounds():
    """``add``/``sub``/``cmp`` by an immediate emit a one-sided wrap
    test (none for #0): at and next to both int32 bounds, in a register
    and at an absolute memory word, the results and flags match the
    interpreter's two-sided wrap."""
    addrs = [DATA_BASE + 512] * 8
    for opcode in (Op.ADD, Op.SUB, Op.CMP):
        for imm in (1, -1, 0, -(2 ** 31)):
            for value in INT32_EDGES:
                for mode, operand in ((Mode.DREG, 0),
                                      (Mode.ABS, DATA_BASE)):
                    text = b"".join([
                        isa.encode(Op.MOVE, Mode.IMM, value, mode,
                                   operand),
                        isa.encode(opcode, Mode.IMM, imm, mode, operand),
                        isa.encode(opcode, Mode.IMM, imm, mode, operand),
                        isa.encode(Op.TRAP),
                    ])
                    for budget in (1, 2, 3, 5):
                        _run_differential(text, [0] * 8, addrs, MC68010,
                                          [budget])


def test_division_and_ill_parity_under_traces():
    """fpe (divide by zero through a register) and ill (68020 opcode
    on a 68010) must fault identically through both engines."""
    fpe = b"".join([
        isa.encode(Op.MOVE, Mode.IMM, 0, Mode.DREG, 1),
        isa.encode(Op.DIV, Mode.DREG, 1, Mode.DREG, 0),
        isa.encode(Op.TRAP),
    ])
    zeros = [0] * 8
    addrs = [DATA_BASE + 512] * 8
    _run_differential(fpe, zeros, addrs, MC68010, [5])
    ill = b"".join([
        isa.encode(Op.ADD, Mode.IMM, 3, Mode.DREG, 0),
        isa.encode(Op.MULL, Mode.IMM, 9, Mode.DREG, 0),
        isa.encode(Op.TRAP),
    ])
    _run_differential(ill, zeros, addrs, MC68010, [5])
    _run_differential(ill, zeros, addrs, MC68020, [5])


# -- lazily-restored images: the lazy trace variant ---------------------------


@st.composite
def _region(draw):
    """A pending region clear of the code bytes; it may share the last
    code page (like the data segment after an unaligned text end), its
    base may be page aligned or not (like a stack region at sp)."""
    chunk_bytes = draw(st.sampled_from([64, 100, PAGE_BYTES, 3 * 512]))
    length = draw(st.integers(1, 6 * chunk_bytes))
    base = draw(st.one_of(
        st.just(CODE_END),
        st.integers(CODE_END, MEM_SIZE - length),
        st.integers(MEM_SIZE - 2048 - length, MEM_SIZE - length),
        st.integers(CODE_END // PAGE_BYTES + 1,
                    (MEM_SIZE - length) // PAGE_BYTES)
        .map(lambda page: page * PAGE_BYTES)))
    return base, chunk_bytes, length


def _hot_addresses(regions):
    """Addresses inside the regions, plus 4-byte accesses straddling
    each page boundary they cover and each of their ends."""
    hot = set()
    for base, chunk_bytes, length in regions:
        end = base + length
        hot.update((base - 2, base, base + length // 2, end - 2, end - 1))
        page = (base // PAGE_BYTES + 1) * PAGE_BYTES
        while page <= end:
            hot.update((page - 3, page - 2, page - 4, page))
            page += PAGE_BYTES
    # IND_DISP adds up to +-64: keep the registers clear of the code
    return sorted(addr for addr in hot
                  if CODE_END <= addr <= MEM_SIZE - 4)


@st.composite
def _lazy_case(draw):
    regions = draw(st.lists(_region(), min_size=1, max_size=3))
    hot = _hot_addresses(regions)
    text = draw(_program(hot))
    safe = [addr for addr in hot if addr >= DATA_BASE + 64]
    aregs = draw(st.lists(
        st.sampled_from(safe) if safe and draw(st.booleans())
        else st.integers(DATA_BASE + 256, MEM_SIZE - 256),
        min_size=8, max_size=8))
    fail_at = draw(st.one_of(st.none(), st.integers(1, 4)))
    return text, regions, aregs, fail_at


@given(case=_lazy_case(), dregs=DREGS,
       budgets=st.lists(st.integers(3, 17).map(lambda v: v | 1),
                        min_size=1, max_size=4),
       model=st.sampled_from([MC68010, MC68020]))
@settings(max_examples=120, deadline=None)
def test_lazy_traces_match_interpreter(case, dregs, budgets, model):
    text, regions, aregs, fail_at = case
    _run_differential(text, dregs, aregs, model, budgets,
                      regions=regions, fail_at=fail_at)


#: pages 4-8: chunk 0 shares the code's page, and a word at 0x1ffe
#: straddles pages 7 and 8 (and page 7 overlaps chunks 1 and 2)
_DATA_REGION = (CODE_END, 1536, 4 * PAGE_BYTES)
#: stack-like: unaligned base, so page 12 overlaps both chunks and a
#: word at 0x33fe straddles pages 12 and 13
_STACK_REGION = (0x3000 - 300, PAGE_BYTES, 2000)


def _lazy_loop_text():
    """A loop over ABS and straddling IND loads and stores touching
    every chunk of both regions, one of them on the code's page."""
    loop = TEXT_BASE
    return b"".join([
        isa.encode(Op.ADD, Mode.IMM, 1, Mode.DREG, 7),
        isa.encode(Op.MOVE, Mode.ABS, DATA_BASE + 8, Mode.DREG, 1),
        isa.encode(Op.ADD, Mode.DREG, 7, Mode.ABS, 0x1C00),
        isa.encode(Op.MOVE, Mode.IND, 0, Mode.DREG, 2),
        isa.encode(Op.MOVE, Mode.DREG, 7, Mode.IND_DISP,
                   isa.pack_ind_disp(8, 1)),
        isa.encode(Op.CMP, Mode.IMM, 300, Mode.DREG, 7),
        isa.encode(Op.BLT, Mode.IMM, loop),
        isa.encode(Op.TRAP),
    ])


def test_lazy_loop_straddles_and_drains_onto_normal_traces():
    """ABS loads/stores into pending pages, IND accesses straddling a
    page boundary, and a chunk sharing the code's page: the fetch
    sequence matches the interpreter's, the image drains, and the
    lazy-variant lookups never count as cache rebuilds."""
    from repro.perf.counters import PerfCounters
    aregs = [0x1FFE, 0x33F6] + [DATA_BASE + 1024] * 6
    regions = [_DATA_REGION, _STACK_REGION]
    image = _run_differential(_lazy_loop_text(), [0] * 8, aregs,
                              MC68010, [7, 13, 11], cap=5000,
                              regions=regions)
    assert image._lazy is None  # every pending chunk landed

    cpu = CPU(MC68010)
    cpu.perf = PerfCounters()
    fresh = _fresh_image(_lazy_loop_text(), [0] * 8, aregs)
    fetches = _add_regions(fresh, regions, None)
    for __ in range(100):
        if fresh._lazy is None:
            break
        cpu.run(fresh, 50)
    assert fresh._lazy is None and len(fetches) == 5
    tables, hit = cpu.code_cache.blocks_for(cpu.model, fresh)
    assert hit and tables[1], "the lazy variant ran while pending"
    # the run that landed the last chunk went on in the normal variant
    assert tables[0], "a drained image returns to the normal variant"
    assert cpu.perf.cache_rebuilds == 1  # the first arrival, only


def test_lazy_word_straddling_into_a_pending_page():
    """Loads and stores of a word that starts on a resident page and
    ends on a pending one (a page-aligned region) fault the chunk in,
    through either engine, at the same instruction."""
    base = 0x2000
    # (instruction, its address register's offset from the word)
    accesses = [
        (isa.encode(Op.MOVE, Mode.IND, 0, Mode.DREG, 2), 0),
        (isa.encode(Op.MOVE, Mode.DREG, 3, Mode.IND, 0), 0),
        (isa.encode(Op.ADD, Mode.IMM, 9, Mode.IND_DISP,
                    isa.pack_ind_disp(-4, 0)), 4),
    ]
    for inst, offset in accesses:
        text = b"".join([isa.encode(Op.ADD, Mode.IMM, 1, Mode.DREG, 3),
                         inst, isa.encode(Op.TRAP)])
        for word in (base - 1, base - 2, base - 3):
            _run_differential(text, [0] * 8, [word + offset] * 8,
                              MC68010, [5],
                              regions=[(base, PAGE_BYTES, 2 * PAGE_BYTES)])


def test_lazy_fetch_failure_faults_identically_and_refetches():
    """A failed fetch stops both engines with the same segv; the chunk
    stays pending, so the next touch fetches it again."""
    chunk = 0x2000  # a page of its own, away from the code
    text = b"".join([
        isa.encode(Op.ADD, Mode.IMM, 5, Mode.DREG, 1),
        isa.encode(Op.MOVE, Mode.ABS, chunk + 4, Mode.DREG, 0),
        isa.encode(Op.TRAP),
    ])
    outcomes = []
    for engine in (False, True):
        cpu = CPU(MC68010)
        cpu.use_predecode = engine
        image = _fresh_image(text, [0] * 8, [DATA_BASE + 256] * 8)
        fetches = _add_regions(image, [(chunk, 64, 64)], 1)
        stop = cpu.run(image, 10)
        assert (stop.kind, stop.address) == ("segv", chunk)
        assert image._lazy is not None and len(fetches) == 1
        outcomes.append(_visible_state(image, stop))
        assert image.read_i32(chunk + 4) == struct.unpack_from(
            "<i", fetches[0] * 2, 4)[0]
        assert fetches == [fetches[0]] * 2 and image._lazy is None
    assert outcomes[0] == outcomes[1]


def test_failed_fetch_of_a_chunk_sharing_the_text_page_is_a_segv():
    """The first run hashes the text through ``image._check``, which
    faults in a pending chunk sharing the last text page (the data
    segment after an unaligned text end).  A failed fetch there stops
    the run with a segv, on both engines, instead of raising out of
    ``CPU.run``; the next run fetches the chunk again."""
    text = b"".join([isa.encode(Op.ADD, Mode.IMM, 1, Mode.DREG, 0),
                     isa.encode(Op.TRAP)])
    for engine in (False, True):
        cpu = CPU(MC68010)
        cpu.use_predecode = engine
        image = _fresh_image(text, [0] * 8, [DATA_BASE + 256] * 8)
        fetches = _add_regions(image, [(TEXT_BASE + len(text), 64, 64)], 1)
        stop = cpu.run(image, 10)
        assert (stop.kind, stop.executed) == ("segv", 0)
        assert image.regs.pc == TEXT_BASE and image._lazy is not None
        stop = cpu.run(image, 10)
        assert type(stop).__name__ == "TrapStop" and stop.executed == 2
        assert len(fetches) == 2 and image._lazy is None
