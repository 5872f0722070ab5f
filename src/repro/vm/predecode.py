"""Trace compiler for the CPU interpreter.

The text segment of a process image never changes between execs (and
``text_version`` tells us when it does), so instead of re-decoding and
re-dispatching every instruction through :meth:`CPU.run`'s if-chain,
we compile whole *traces* once: a trace is a small set of straight-line
blocks linked by their statically-known branch targets, emitted as one
Python function.  A trace function has the signature::

    trace(d, a, mem, dp, lp, budget, zf, nf)
        -> (executed, next_pc, zf, nf, sig)

Four things make traces fast:

* **Block linking.**  A block that ends in a branch, ``jsr`` or
  fall-through whose target is another member block transfers control
  *inside* the generated function (``_pc = <head>`` into a small
  dispatch loop of ``if _pc == …`` arms) instead of returning to
  ``CPU._run``'s dict lookup.
* **Loop arms and tail duplication.**  A member block whose own arm
  transfers back to its head runs as an inner ``while 1:`` inside that
  arm: the back edge is ``_n += k; continue`` and never walks the
  dispatch chain; every other linked transfer from the arm is
  ``_pc = X; break``.  A transfer to a small member block that is not
  a loop head (at most :data:`TAIL_DUP_MAX` instructions) inlines a
  copy of that block, one level deep, at the transfer site, so a loop
  split across a mid-body branch (``bne next`` … ``next: cmp; blt
  loop``) still closes inside one arm.  The copy keeps the block's own
  head budget guard, so every ``(executed, next_pc, zf, nf, sig)`` a
  trace returns, at every budget, is the one the flat dispatch loop
  would return.
* **In-trace register caching.**  Every ``d``/``a`` register the trace
  touches lives in a Python local (``rd0`` … ``ra7``) loaded once in
  the prologue; the registers the trace *writes* are spilled back to
  the register arrays at every exit (return or bail).  Because guards
  fire before the first mutation of their instruction, a spill at a
  bail point writes back exactly the committed pre-instruction values.
* **Budget checks per block, not per instruction.**  Each block is
  guarded once at its head (``if budget - _n < len: return``); the
  check that used to run before every instruction is gone.  When the
  remaining budget cannot cover even the entry block, the trace bails
  with zero progress and the reference interpreter single-steps the
  quantum tail — at most ``MAX_BLOCK_LEN - 1`` instructions — with
  exact legacy semantics.

Registers and memory words always hold signed 32-bit values, so adding
or subtracting a constant can overflow on one side only: ``add``,
``sub`` and ``cmp`` with an immediate operand emit a single one-sided
wrap test (none at all for ``#0``).

``dp`` is the image's per-page dirty bitmap: every memory store marks
the page(s) it touches, exactly as the interpreter's ``write_u8`` /
``write_i32`` do, so incremental dumps see the same dirty set on both
engines.

``lp`` is the image's per-page pending map while chunks await
copy-on-reference fill (``None`` otherwise).  Only the *lazy variant*
of a trace reads it: each of its memory guards also bails when a
touched page is pending, so the interpreter replays that one
instruction, faults the chunk in through ``image._check`` and the
trace resumes.

``sig`` is one of the :data:`SIG_OK`/``TRAP``/``HALT``/``BAIL`` codes
below.  ``BAIL`` means the instruction at ``next_pc`` was *not*
executed and **no state was touched for it**: every guard (address out
of range, store into the text segment, divide by a runtime zero) fires
before the first mutation of its instruction, so the interpreter can
replay the instruction from scratch and produce the exact legacy
fault behaviour — partial-mutation order, fault pc, executed counts
and all.  That bail-before-mutate rule is what lets the fast path be
bit-identical to the reference interpreter.

Flag writes that can never be observed (overwritten before any branch,
bail point or trace exit reads them) are eliminated by a per-block
backward liveness pass; every observation point — conditional branch,
guarded instruction, transfer, return — is treated as a read, so the
architectural flags are always current whenever anyone can look.

Anything the compiler cannot prove safe (stores through unknown
addressing modes, instructions the CPU model faults on, constant
divides by zero, ``lea`` to a non-address register) simply terminates
the block; the interpreter handles the next instruction.  Program
counters outside the text segment get the :data:`INTERP` marker and
always take the interpreter path, preserving the lazy decode semantics
for code executed out of data or stack.
"""

import functools
import sys

from repro.vm import isa
from repro.vm.isa import Op, Mode
from repro.vm.image import to_unsigned, PAGE_SHIFT

#: word-aligned absolute loads/stores go through a ``cast('i')``
#: memoryview — native-endian, so only when native is little like the
#: guest (the byte-slice path stays for the rare big-endian host)
_MV4_OK = sys.byteorder == "little"

#: marker cached for pcs that must go through the interpreter
INTERP = "interp"

SIG_OK = 0  #: ran to the end of what it could (or out of budget)
SIG_TRAP = 1  #: executed a trap instruction
SIG_HALT = 2  #: executed a halt instruction
SIG_BAIL = 3  #: instruction at next_pc needs the interpreter (untouched)

#: longest straight-line run compiled into one block
MAX_BLOCK_LEN = 64
#: most blocks linked into one trace function
TRACE_MAX_BLOCKS = 8
#: longest member block a transfer inlines a copy of (tail duplication)
TAIL_DUP_MAX = 16

#: byte-compiled trace sources, keyed on the generated source: every
#: cluster built in one process compiles the same texts to the same
#: sources, so only the first pays ``compile``.  Each
#: :func:`compile_trace` call still runs the emitter and ``exec``s a
#: fresh function from the cached code object.
_compile = functools.lru_cache(maxsize=512)(compile)

_ISIZE = isa.INSTRUCTION_SIZE

_ALU = {Op.ADD: "+", Op.SUB: "-", Op.MUL: "*", Op.MULL: "*",
        Op.AND: "&", Op.OR: "|", Op.XOR: "^"}

_COND = {Op.BEQ: "zf", Op.BNE: "not zf", Op.BLT: "nf",
         Op.BLE: "nf or zf", Op.BGT: "not (nf or zf)", Op.BGE: "not nf"}

#: modes whose jump target is a compile-time constant
_STATIC = (Mode.IMM, Mode.ABS)
#: modes that need a runtime address guard (and may therefore bail)
_GUARDED = (Mode.IND, Mode.IND_DISP)

#: opcodes that set zf/nf (the flag-liveness pass elides dead writes)
_FLAG_WRITERS = frozenset((
    Op.MOVE, Op.MOVB, Op.ADD, Op.SUB, Op.MUL, Op.MULL, Op.DIV, Op.DIVL,
    Op.MOD, Op.AND, Op.OR, Op.XOR, Op.NOT, Op.NEG, Op.SHL, Op.SHR,
    Op.BFEXT, Op.CMP, Op.TST))


class _Uncompilable(Exception):
    """This instruction must end the block (interpreter handles it)."""


class _Ctx:
    """Compile context: layout constants, register mapping and exits.

    With ``dmap``/``amap`` unset the context is in *probe* mode —
    register references emit plain ``d[i]``/``a[i]`` subscripts, and
    with no ``members`` every transfer is an exit — but either way
    every reference is recorded in the ``dused``/``aused`` (and
    ``dwritten``/``awritten``) sets, so a probe pass over a block
    discovers exactly the registers the final pass will touch.
    """

    def __init__(self, text_end, mem_size, dmap=None, amap=None,
                 spill="", lazy=False, entry=None, members=None,
                 loop_heads=frozenset()):
        self.text_end = text_end
        self.mem_size = mem_size
        self.lazy = lazy  #: emit the pending-page checks?
        self.dmap = dmap  #: reg -> local name, or None (probe mode)
        self.amap = amap
        self.spill = spill  #: "d[0] = rd0; ..." prefix for every exit
        self.entry = entry  #: the trace's root pc
        self.members = members or {}  #: pc -> _BlockIR of this trace
        self.loop_heads = loop_heads  #: member pcs never inlined
        self.arm = None  #: head pc of the dispatch arm being emitted
        self.loop = False  #: does that arm run as an inner while loop?
        self.inline = False  #: may a transfer inline its target here?
        self.dispatched = []  #: member pcs the arm's transfers dispatch
        self.n = 0  #: index of the instruction within its block
        self.pc = 0  #: its program counter
        self.flags_live = True  #: emit this instruction's flag writes?
        self.uses_mv4 = False  #: emit the cast-memoryview prologue?
        self.dused = set()
        self.aused = set()
        self.dwritten = set()
        self.awritten = set()

    # -- register references ----------------------------------------------

    def d(self, operand):
        i = operand & 7
        self.dused.add(i)
        return self.dmap[i] if self.dmap is not None else "d[%d]" % i

    def a(self, operand):
        i = operand & 7
        self.aused.add(i)
        return self.amap[i] if self.amap is not None else "a[%d]" % i

    def dl(self, operand):
        i = operand & 7
        self.dused.add(i)
        self.dwritten.add(i)
        return self.dmap[i] if self.dmap is not None else "d[%d]" % i

    def al(self, operand):
        i = operand & 7
        self.aused.add(i)
        self.awritten.add(i)
        return self.amap[i] if self.amap is not None else "a[%d]" % i

    # -- pending-page checks (lazy variant) ---------------------------------

    def pending(self, size):
        """Guard suffix: the access of ``size`` bytes at ``t`` touches a
        page still pending copy-on-reference fill."""
        if not self.lazy:
            return ""
        if size == 1:
            return " or lp[t >> %d]" % PAGE_SHIFT
        return " or lp[t >> %d] or lp[(t + %d) >> %d]" % (
            PAGE_SHIFT, size - 1, PAGE_SHIFT)

    def pending_const(self, lines, address, size):
        """Bail line for a constant access of ``size`` bytes."""
        if self.lazy:
            pages = sorted({address >> PAGE_SHIFT,
                            (address + size - 1) >> PAGE_SHIFT})
            lines.append("if %s: %s" % (" or ".join(
                "lp[%d]" % page for page in pages), self.bail()))

    # -- exits --------------------------------------------------------------

    def bail(self):
        """A return that hands this very instruction to the interpreter."""
        return "%sreturn _n + %d, %d, zf, nf, 3" % (self.spill, self.n,
                                                    self.pc)

    def stop(self, sig):
        """Return after executing this instruction (trap/halt)."""
        return "%sreturn _n + %d, %d, zf, nf, %d" % (
            self.spill, self.n + 1, self.pc + _ISIZE, sig)

    def exit(self, count, target):
        """Leave the trace for ``target`` (an expression string)."""
        return "%sreturn _n + %d, %s, zf, nf, 0" % (self.spill, count,
                                                    target)

    def transfer(self, count, static, expr):
        """Lines for the control transfer after ``count`` instructions
        of this block: the loop arm's back edge, an inlined copy of a
        small member block, a jump through the dispatch loop to any
        other member block, or an exit."""
        if static not in self.members:
            return [self.exit(count, expr)]
        if static == self.arm and self.loop:
            return ["_n += %d; continue" % count]
        if self.inline and _inlinable(self.members, self.loop_heads,
                                      self.arm, static):
            saved = self.n, self.pc, self.flags_live
            self.inline = False  # one level deep
            lines = ["_n += %d" % count] + self.block(self.members[static])
            self.inline = True
            self.n, self.pc, self.flags_live = saved
            return lines
        self.dispatched.append(static)
        return ["_n += %d; _pc = %d; %s" % (
            count, static, "break" if self.loop else "continue")]

    def block(self, ir):
        """Lines for member block ``ir``: its head budget guard (re-
        reaching the entry with zero progress bails, so the interpreter
        runs the quantum tail), its instructions and, unless it ends in
        a terminator, its fall-through transfer."""
        sig = "(0 if _n else 3)" if ir.pc == self.entry else "0"
        lines = ["if budget - _n < %d: %sreturn _n, %d, zf, nf, %s"
                 % (len(ir.insts), self.spill, ir.pc, sig)]
        live = _flag_liveness(ir.insts, self.lazy)
        for i, (pc, inst) in enumerate(ir.insts):
            self.n, self.pc = i, pc
            self.flags_live = live[i]
            _emit_instruction(lines, self, inst)
        if not ir.terminated:
            lines.extend(self.transfer(len(ir.insts), ir.end_pc,
                                       "%d" % ir.end_pc))
        return lines


def _emit_value(lines, ctx, mode, operand, var, byte=False):
    """Return an expression for the operand's (guarded) value.

    Pure operands — immediates and registers — come back as inline
    expressions and emit no code at all, so ``add #7, d5`` compiles to
    a single statement instead of three.  Memory operands emit their
    guard and load into ``var`` and return it.
    """
    if mode == Mode.IMM:
        return "%d" % ((operand & 0xFF) if byte else operand)
    if mode == Mode.DREG:
        name = ctx.d(operand)
        return "(%s & 255)" % name if byte else name
    if mode == Mode.AREG:
        name = ctx.a(operand)
        return "(%s & 255)" % name if byte else name
    size = 1 if byte else 4
    if mode == Mode.ABS:
        if operand < 0 or operand + size > ctx.mem_size:
            raise _Uncompilable  # interpreter raises the segv
        ctx.pending_const(lines, operand, size)
        if (_MV4_OK and not byte and operand % 4 == 0
                and ctx.mem_size % 4 == 0):
            # aligned word: one signed int32 read, no sign fix
            ctx.uses_mv4 = True
            return "mv4[%d]" % (operand >> 2)
        addr = "%d" % operand
    elif mode == Mode.IND:
        lines.append("t = %s" % ctx.a(operand))
        lines.append("if t < 0 or t + %d > %d%s: %s"
                     % (size, ctx.mem_size, ctx.pending(size), ctx.bail()))
        addr = "t"
    elif mode == Mode.IND_DISP:
        disp, reg = isa.unpack_ind_disp(operand)
        lines.append("t = %s + %d" % (ctx.a(reg), disp))
        lines.append("if t < 0 or t + %d > %d%s: %s"
                     % (size, ctx.mem_size, ctx.pending(size), ctx.bail()))
        addr = "t"
    else:
        raise _Uncompilable
    if byte:
        lines.append("%s = mem[%s]" % (var, addr))
    else:
        if addr == "t":
            lines.append("%s = _fb(mem[t:t + 4], 'little')" % var)
        else:
            lines.append("%s = _fb(mem[%d:%d], 'little')"
                         % (var, operand, operand + 4))
        lines.append("if %s & 2147483648: %s -= 4294967296" % (var, var))
    return var


def _emit_store(lines, ctx, mode, operand, var, byte=False):
    """Emit a store of ``var`` (already signed-32 unless byte) to the
    operand.  Memory stores are guarded against the text segment so a
    block can never invalidate itself mid-run."""
    if mode == Mode.DREG:
        lines.append("%s = %s%s" % (ctx.dl(operand), var,
                                    " & 255" if byte else ""))
        return
    if mode == Mode.AREG:
        lines.append("%s = %s%s" % (ctx.al(operand), var,
                                    " & 255" if byte else ""))
        return
    size = 1 if byte else 4
    if mode == Mode.ABS:
        if (operand < ctx.text_end
                or operand + size > ctx.mem_size):
            raise _Uncompilable  # text write or segv: interpreter's job
        ctx.pending_const(lines, operand, size)
        if (_MV4_OK and not byte and operand % 4 == 0
                and ctx.mem_size % 4 == 0):
            # aligned word: every value here is already signed 32-bit
            ctx.uses_mv4 = True
            lines.append("mv4[%d] = %s" % (operand >> 2, var))
            _emit_dirty(lines, "%d" % operand, 4)
            return
        addr = "%d" % operand
    elif mode == Mode.IND:
        lines.append("t = %s" % ctx.a(operand))
        lines.append("if t < %d or t + %d > %d%s: %s"
                     % (ctx.text_end, size, ctx.mem_size, ctx.pending(size),
                        ctx.bail()))
        addr = "t"
    elif mode == Mode.IND_DISP:
        disp, reg = isa.unpack_ind_disp(operand)
        lines.append("t = %s + %d" % (ctx.a(reg), disp))
        lines.append("if t < %d or t + %d > %d%s: %s"
                     % (ctx.text_end, size, ctx.mem_size, ctx.pending(size),
                        ctx.bail()))
        addr = "t"
    else:
        raise _Uncompilable  # store to immediate / bad mode: segv
    if byte:
        lines.append("mem[%s] = %s & 255" % (addr, var))
    else:
        lines.append("mem[%s:%s + 4] = (%s & 4294967295)"
                     ".to_bytes(4, 'little')" % (addr, addr, var))
    _emit_dirty(lines, addr, 1 if byte else 4)


def _emit_dirty(lines, addr, size):
    """Mark the page(s) a store of ``size`` bytes at ``addr`` touches,
    mirroring the interpreter's ``write_u8``/``write_i32``."""
    if addr == "t":
        lines.append("dp[t >> %d] = 1" % PAGE_SHIFT)
        if size == 4:
            lines.append("dp[(t + 3) >> %d] = 1" % PAGE_SHIFT)
        return
    first = int(addr) >> PAGE_SHIFT
    last = (int(addr) + size - 1) >> PAGE_SHIFT
    lines.append("dp[%d] = 1" % first)
    if last != first:
        lines.append("dp[%d] = 1" % last)


def _target_expr(ctx, mode, operand):
    """Jump/branch target, matching ``CPU._address`` exactly."""
    if mode in (Mode.IMM, Mode.ABS):
        return "%d" % operand
    if mode == Mode.DREG:
        return ctx.d(operand)
    if mode in (Mode.AREG, Mode.IND):
        return ctx.a(operand)
    if mode == Mode.IND_DISP:
        disp, reg = isa.unpack_ind_disp(operand)
        return "%s + %d" % (ctx.a(reg), disp)
    raise _Uncompilable  # _address would segv; interpreter's job


def _wrap(var, delta=None):
    """Lines folding ``var`` back into signed 32 bits.  ``delta`` is a
    compile-time constant just added to a signed 32-bit value: the sum
    can then leave the range on one side only (and not at all for 0)."""
    if delta is None:
        return ["if %s > 2147483647 or %s < -2147483648: %s = ((%s & "
                "4294967295) ^ 2147483648) - 2147483648" % ((var,) * 4)]
    if delta > 0:
        return ["if %s > 2147483647: %s -= 4294967296" % (var, var)]
    if delta < 0:
        return ["if %s < -2147483648: %s += 4294967296" % (var, var)]
    return []


def _delta(opcode, sm, s):
    """The constant an ``add``/``sub`` adds to its destination, when
    the source is an immediate (else None: the sum is unbounded)."""
    if sm != Mode.IMM or opcode not in (Op.ADD, Op.SUB):
        return None
    return s if opcode == Op.ADD else -s


def _alu_out(ctx, dm, dv):
    """Result variable for an arithmetic op: the destination register
    local itself when the destination is a register (skipping the v2
    copy and the separate store), else ``v2``.  Safe because nothing
    can bail after the operand guards have passed."""
    if dm == Mode.DREG:
        return ctx.dl(dv), True
    if dm == Mode.AREG:
        return ctx.al(dv), True
    return "v2", False


def _emit_flags(lines, ctx, var):
    if not ctx.flags_live:
        return
    try:  # a constant's flags fold at compile time
        value = int(var)
    except ValueError:
        lines.append("zf = %s == 0" % var)
        lines.append("nf = %s < 0" % var)
    else:
        lines.append("zf = %r" % (value == 0))
        lines.append("nf = %r" % (value < 0))


def _emit_instruction(lines, ctx, inst):
    """Emit one instruction; returns True if it terminates the block."""
    opcode, sm, s, dm, dv = inst
    n, pc = ctx.n, ctx.pc

    if opcode == Op.NOP:
        return False
    if opcode == Op.HALT:
        lines.append(ctx.stop(2))
        return True
    if opcode == Op.TRAP:
        lines.append(ctx.stop(1))
        return True

    if opcode == Op.MOVE:
        val = _emit_value(lines, ctx, sm, s, "v")
        _emit_store(lines, ctx, dm, dv, val)
        _emit_flags(lines, ctx, val)
        return False
    if opcode == Op.MOVB:
        val = _emit_value(lines, ctx, sm, s, "v", byte=True)
        _emit_store(lines, ctx, dm, dv, val, byte=True)
        _emit_flags(lines, ctx, val)
        return False

    if opcode == Op.LEA:
        if dm != Mode.AREG:
            raise _Uncompilable  # "ill" fault with executed - 1
        if sm in (Mode.IMM, Mode.ABS):
            lines.append("%s = %d" % (ctx.al(dv), s))
            return False
        lines.append("v = %s" % _target_expr(ctx, sm, s))
        if sm == Mode.IND_DISP:  # the only mode that can overflow
            lines.extend(_wrap("v"))
        lines.append("%s = v" % ctx.al(dv))
        return False

    if opcode in _ALU:
        src = _emit_value(lines, ctx, sm, s, "v1")
        dst = _emit_value(lines, ctx, dm, dv, "v2")
        out, direct = _alu_out(ctx, dm, dv)
        if opcode in (Op.AND, Op.OR, Op.XOR):
            lines.append("%s = (%s %s %s) & 4294967295"
                         % (out, dst, _ALU[opcode], src))
        else:
            lines.append("%s = %s %s %s" % (out, dst, _ALU[opcode], src))
        lines.extend(_wrap(out, _delta(opcode, sm, s)))
        if not direct:
            _emit_store(lines, ctx, dm, dv, out)
        _emit_flags(lines, ctx, out)
        return False
    if opcode in (Op.DIV, Op.DIVL, Op.MOD):
        if sm == Mode.IMM and s == 0:
            raise _Uncompilable  # certain fpe: interpreter's job
        src = _emit_value(lines, ctx, sm, s, "v1")
        dst = _emit_value(lines, ctx, dm, dv, "v2")
        out, direct = _alu_out(ctx, dm, dv)
        if sm == Mode.IMM:
            # truncated division by a compile-time constant depends
            # only on |divisor|: the sign rides on the dividend (and
            # flips with a negative divisor for the quotient)
            mag = abs(s)
            if opcode == Op.MOD:
                # |result| < |divisor|, so this can never wrap
                lines.append("%s = %s %% %d if %s >= 0 else"
                             " -(-%s %% %d)"
                             % (out, dst, mag, dst, dst, mag))
            else:
                if s > 0:
                    lines.append("%s = %s // %d if %s >= 0 else"
                                 " -(-%s // %d)"
                                 % (out, dst, mag, dst, dst, mag))
                else:
                    lines.append("%s = -(%s // %d) if %s >= 0 else"
                                 " -%s // %d"
                                 % (out, dst, mag, dst, dst, mag))
                if mag == 1:  # -2**31 / -1 is the one overflow
                    lines.extend(_wrap(out))
        else:
            lines.append("if %s == 0: %s" % (src, ctx.bail()))  # fpe
            # floored-to-truncated correction: one %% plus a branch,
            # in place of the abs/floordiv/multiply round trip
            if opcode == Op.MOD:
                lines.append("q = %s %% %s" % (dst, src))
                lines.append("if q and (%s < 0) != (%s < 0): q -= %s"
                             % (dst, src, src))
                lines.append("%s = q" % out)
            else:
                lines.append("q = %s // %s" % (dst, src))
                lines.append("if q < 0 and %s %% %s: q += 1"
                             % (dst, src))
                lines.append("%s = q" % out)
                lines.extend(_wrap(out))
        if not direct:
            _emit_store(lines, ctx, dm, dv, out)
        _emit_flags(lines, ctx, out)
        return False
    if opcode in (Op.SHL, Op.SHR, Op.BFEXT):
        src = _emit_value(lines, ctx, sm, s, "v1")
        dst = _emit_value(lines, ctx, dm, dv, "v2")
        out, direct = _alu_out(ctx, dm, dv)
        if opcode == Op.SHL:
            lines.append("%s = (%s & 4294967295) << (%s & 31)"
                         % (out, dst, src))
        elif opcode == Op.SHR:
            lines.append("%s = (%s & 4294967295) >> (%s & 31)"
                         % (out, dst, src))
        else:
            lines.append("%s = ((%s & 4294967295) >> (%s & 31)) & 255"
                         % (out, dst, src))
        lines.extend(_wrap(out))
        if not direct:
            _emit_store(lines, ctx, dm, dv, out)
        _emit_flags(lines, ctx, out)
        return False
    if opcode in (Op.NOT, Op.NEG):
        dst = _emit_value(lines, ctx, dm, dv, "v2")
        out, direct = _alu_out(ctx, dm, dv)
        lines.append("%s = %s(%s)" % (out, "~" if opcode == Op.NOT
                                      else "-", dst))
        lines.extend(_wrap(out))
        if not direct:
            _emit_store(lines, ctx, dm, dv, out)
        _emit_flags(lines, ctx, out)
        return False

    if opcode == Op.CMP:
        src = _emit_value(lines, ctx, sm, s, "v1")
        dst = _emit_value(lines, ctx, dm, dv, "v2")
        if ctx.flags_live:  # dead flags leave only the operand guards
            lines.append("v2 = %s - %s" % (dst, src))
            lines.extend(_wrap("v2", _delta(Op.SUB, sm, s)))
            _emit_flags(lines, ctx, "v2")
        return False
    if opcode == Op.TST:
        dst = _emit_value(lines, ctx, dm, dv, "v2")
        _emit_flags(lines, ctx, dst)
        return False

    if opcode in isa.BRANCHES:
        static = s if sm in _STATIC else None
        target = _target_expr(ctx, sm, s)
        if opcode == Op.BRA:
            lines.extend(ctx.transfer(n + 1, static, target))
            return True
        lines.append("if %s:" % _COND[opcode])
        lines.extend("    " + line
                     for line in ctx.transfer(n + 1, static, target))
        return False  # fall through, keep compiling

    if opcode == Op.JSR:
        static = s if sm in _STATIC else None
        target = _target_expr(ctx, sm, s)
        if static is None:
            # capture the target before the push can clobber a7
            lines.append("u = %s" % target)
            target = "u"
        ret = to_unsigned(pc + _ISIZE).to_bytes(4, "little")
        lines.append("t = %s - 4" % ctx.a(7))
        lines.append("if t < %d or t + 4 > %d%s: %s"
                     % (ctx.text_end, ctx.mem_size, ctx.pending(4),
                        ctx.bail()))
        lines.append("mem[t:t + 4] = %r" % ret)
        _emit_dirty(lines, "t", 4)
        lines.append("%s = t" % ctx.al(7))
        lines.extend(ctx.transfer(n + 1, static, target))
        return True
    if opcode == Op.RTS:
        lines.append("t = %s" % ctx.a(7))
        lines.append("if t < 0 or t + 4 > %d%s: %s"
                     % (ctx.mem_size, ctx.pending(4), ctx.bail()))
        lines.append("v = _fb(mem[t:t + 4], 'little')")
        lines.append("%s = t + 4" % ctx.al(7))
        lines.append(ctx.exit(n + 1, "v"))
        return True
    if opcode == Op.PUSH:
        val = _emit_value(lines, ctx, sm, s, "v")
        lines.append("t = %s - 4" % ctx.a(7))
        lines.append("if t < %d or t + 4 > %d%s: %s"
                     % (ctx.text_end, ctx.mem_size, ctx.pending(4),
                        ctx.bail()))
        if val.lstrip("-").isdigit():  # constant: pack it now
            packed = to_unsigned(int(val)).to_bytes(4, "little")
            lines.append("mem[t:t + 4] = %r" % packed)
        else:
            lines.append("mem[t:t + 4] = (%s & 4294967295)"
                         ".to_bytes(4, 'little')" % val)
        _emit_dirty(lines, "t", 4)
        lines.append("%s = t" % ctx.al(7))
        return False
    if opcode == Op.POP:
        if dm not in (Mode.DREG, Mode.AREG):
            raise _Uncompilable  # memory pops keep legacy ordering
        lines.append("t = %s" % ctx.a(7))
        lines.append("if t < 0 or t + 4 > %d%s: %s"
                     % (ctx.mem_size, ctx.pending(4), ctx.bail()))
        lines.append("v = _fb(mem[t:t + 4], 'little')")
        lines.append("if v & 2147483648: v -= 4294967296")
        lines.append("%s = t + 4" % ctx.al(7))
        _emit_store(lines, ctx, dm, dv, "v")
        return False

    raise _Uncompilable  # unknown opcode: interpreter faults on it


# -- block discovery ---------------------------------------------------------


class _BlockIR:
    """One decoded straight-line block plus its static metadata."""

    __slots__ = ("pc", "insts", "terminated", "end_pc", "targets",
                 "dused", "aused", "dwritten", "awritten")


def _decode_block(model, image, start_pc, max_len=MAX_BLOCK_LEN):
    """Decode the straight-line run at ``start_pc``.

    Runs the emitter in probe mode to find where the block must end
    (uncompilable or unsupported instruction, terminator, text end)
    and which registers it touches.  Returns a :class:`_BlockIR`, or
    ``None`` when not even the first instruction is compilable.
    """
    text_end = image.text_base + image.text_size
    if start_pc < image.text_base or start_pc + _ISIZE > text_end:
        return None
    ctx = _Ctx(text_end, image.mem_size)
    mem = image.mem
    opcodes = model.opcodes
    scratch = []
    insts = []
    targets = []
    pc = start_pc
    terminated = False
    while len(insts) < max_len and pc + _ISIZE <= text_end:
        inst = isa.decode(mem, pc)
        if inst[0] not in opcodes:
            break  # illegal-instruction fault: interpreter's job
        ctx.n, ctx.pc = len(insts), pc
        saved = (set(ctx.dused), set(ctx.aused),
                 set(ctx.dwritten), set(ctx.awritten))
        try:
            terminated = _emit_instruction(scratch, ctx, inst)
        except _Uncompilable:
            # forget any registers only the aborted instruction used
            ctx.dused, ctx.aused, ctx.dwritten, ctx.awritten = saved
            break
        insts.append((pc, inst))
        if inst[1] in _STATIC and (inst[0] in isa.BRANCHES
                                   or inst[0] == Op.JSR):
            targets.append(inst[2])
        pc += _ISIZE
        if terminated:
            break
    if not insts:
        return None
    ir = _BlockIR()
    ir.pc = start_pc
    ir.insts = insts
    ir.terminated = terminated
    ir.end_pc = pc
    if not terminated:
        targets.append(pc)  # the fall-through edge is linkable too
    ir.targets = targets
    ir.dused = ctx.dused
    ir.aused = ctx.aused
    ir.dwritten = ctx.dwritten
    ir.awritten = ctx.awritten
    return ir


def _observes_flags(inst, lazy=False):
    """Can anything see the flags as they stand *entering* ``inst``?

    Conditional branches read them; guarded instructions may bail and
    return them to the interpreter; terminators transfer or return
    them.  In the lazy variant a constant (ABS) access is a bail point
    too.  Conservative: marking too much only emits extra flag writes.
    """
    opcode, sm, s, dm, dv = inst
    if opcode in isa.BRANCHES or opcode in (Op.JSR, Op.RTS, Op.TRAP,
                                            Op.HALT, Op.PUSH, Op.POP):
        return True
    if opcode in (Op.DIV, Op.DIVL, Op.MOD) and sm != Mode.IMM:
        return True
    if lazy and Mode.ABS in (sm, dm):
        return True
    return sm in _GUARDED or dm in _GUARDED


def _flag_liveness(insts, lazy=False):
    """Backward pass: ``live[i]`` is False only when instruction i's
    flag writes are provably overwritten before anyone can observe
    them (no branch, bail point or exit in between)."""
    live = [True] * len(insts)
    needed = True  # flags at block end flow to successors/interpreter
    for i in range(len(insts) - 1, -1, -1):
        inst = insts[i][1]
        writes = inst[0] in _FLAG_WRITERS
        if writes:
            live[i] = needed
        if _observes_flags(inst, lazy):
            needed = True
        elif writes:
            needed = False
    return live


# -- trace assembly ----------------------------------------------------------


def _inlinable(members, loop_heads, arm, tpc):
    """Does a transfer to ``tpc`` from the arm of ``arm`` inline a copy
    of that block?  Only small member blocks that head no loop."""
    ir = members.get(tpc)
    return (ir is not None and tpc != arm and tpc not in loop_heads
            and len(ir.insts) <= TAIL_DUP_MAX)


def _reenters(ir, members, loop_heads):
    """Does the arm of member block ``ir`` transfer back to its own
    head, directly or from the copy of a successor it inlines?  Such an
    arm runs as an inner loop."""
    return ir.pc in ir.targets or any(
        ir.pc in members[tpc].targets for tpc in ir.targets
        if _inlinable(members, loop_heads, ir.pc, tpc))


def compile_trace(model, image, entry, lazy=False):
    """Compile the trace rooted at ``entry``.

    Discovers up to :data:`TRACE_MAX_BLOCKS` blocks breadth-first over
    statically-known branch/call/fall-through targets and emits them
    as one function with an internal dispatch loop.  ``lazy`` selects
    the variant for images with chunks pending copy-on-reference fill:
    every memory access also bails when a page it touches is pending
    (``lp[page]`` set), so the interpreter faults the chunk in exactly
    where it would have on its own.  Instruction fetches need no
    check: text pages are never pending while a trace runs (see
    :meth:`~repro.vm.image.ProcessImage.add_lazy_region`).  Returns
    ``(trace_function, n_instructions, n_linked_blocks)``, or
    ``(INTERP, 0, 0)`` when ``entry`` is outside the text segment or
    its first instruction is uncompilable.
    """
    root = _decode_block(model, image, entry)
    if root is None:
        return INTERP, 0, 0
    order = [root]
    seen = {entry}
    frontier = list(root.targets)
    while frontier and len(order) < TRACE_MAX_BLOCKS:
        tpc = frontier.pop(0)
        if tpc in seen:
            continue
        seen.add(tpc)
        ir = _decode_block(model, image, tpc)
        if ir is None:
            continue  # exit edge: CPU._run dispatches it separately
        order.append(ir)
        frontier.extend(ir.targets)
    members = {ir.pc: ir for ir in order}
    # loop heads: self-loops, then, in discovery order (entry first),
    # each block whose arm would re-enter it through an inlined copy
    loop_heads = {ir.pc for ir in order if ir.pc in ir.targets}
    for ir in order:
        if _reenters(ir, members, loop_heads):
            loop_heads.add(ir.pc)
    loop_heads = frozenset(loop_heads)

    dused, aused = set(), set()
    dwritten, awritten = set(), set()
    for ir in order:
        dused |= ir.dused
        aused |= ir.aused
        dwritten |= ir.dwritten
        awritten |= ir.awritten
    dmap = {i: "rd%d" % i for i in dused}
    amap = {i: "ra%d" % i for i in aused}
    parts = ["d[%d] = rd%d" % (i, i) for i in sorted(dwritten)]
    parts += ["a[%d] = ra%d" % (i, i) for i in sorted(awritten)]
    spill = "; ".join(parts) + ("; " if parts else "")

    ctx = _Ctx(image.text_base + image.text_size, image.mem_size,
               dmap, amap, spill, lazy, entry, members, loop_heads)
    # emit the arms some transfer can dispatch to (a block reached
    # only through inlined copies needs none)
    arms = {}
    todo = [entry]
    while todo:
        pc = todo.pop()
        if pc in arms:
            continue
        ctx.arm, ctx.inline, ctx.dispatched = pc, True, []
        ctx.loop = _reenters(members[pc], members, loop_heads)
        arms[pc] = (ctx.loop, ctx.block(members[pc]))
        todo.extend(ctx.dispatched)
    # the dispatcher walks its arms linearly: loop arms first
    rank = {ir.pc: index for index, ir in enumerate(order)}
    body = []
    for index, pc in enumerate(sorted(
            arms, key=lambda pc: (not arms[pc][0], rank[pc]))):
        loop, lines = arms[pc]
        body.append("        %s _pc == %d:"
                    % ("if" if index == 0 else "elif", pc))
        indent = "            "
        if loop:
            body.append(indent + "while 1:")
            indent += "    "
        body.extend(indent + line for line in lines)
    body.append("        else:")
    body.append("            %sreturn _n, _pc, zf, nf, 0" % spill)
    ndecoded = sum(len(ir.insts) for ir in order)

    head = ["def _trace(d, a, mem, dp, lp, budget, zf, nf, "
            "_fb=int.from_bytes):"]
    if ctx.uses_mv4:
        head.append("    mv4 = memoryview(mem).cast('i')")
    head += ["    rd%d = d[%d]" % (i, i) for i in sorted(dused)]
    head += ["    ra%d = a[%d]" % (i, i) for i in sorted(aused)]
    head += ["    _n = 0", "    _pc = %d" % entry, "    while 1:"]
    source = "\n".join(head + body) + "\n"
    namespace = {}
    exec(_compile(source, "<%strace@0x%x>" % ("lazy-" if lazy else "",
                                              entry), "exec"), namespace)
    fn = namespace["_trace"]
    fn.blocks = len(order)
    fn.trace_len = ndecoded
    fn.spill_regs = len(dwritten) + len(awritten)
    fn.source = source  # kept for debugging/tests
    return fn, ndecoded, len(order) - 1
