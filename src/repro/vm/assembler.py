"""A two-pass assembler for the simulated CPU.

Guest programs (the paper's test program, the CPU hogs used by the
load balancer, the raw-mode screen editor, ...) are written in a small
assembly language and assembled into ``a.out`` executables.

Syntax overview::

    ; comment
    NAME = 42                  ; equate
            .text
    start:  move   #0, d2      ; immediate -> data register
    loop:   add    #1, d2
            move   d2, counter ; register -> absolute address
            cmp    #10, d2
            blt    loop
            move   #SYS_EXIT, d0
            trap
            .data
    counter: .word 0
    msg:    .asciz "hello\\n"
    buf:    .space 64

Operands:

``#expr``      immediate; ``expr`` may reference labels and equates
``d0``-``d7``  data registers
``a0``-``a7``  address registers (``sp`` = ``a7``, ``fp`` = ``a6``)
``expr``       absolute memory address
``(aN)``       indirect through an address register
``expr(aN)``   indirect with displacement

Branch and ``jsr`` targets are written bare (``bra loop``) and encoded
as absolute addresses; ``jsr (aN)`` gives computed calls.
"""

import functools
import re
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

from repro.vm import isa
from repro.vm.isa import Op, Mode
from repro.vm.image import TEXT_BASE
from repro.vm.aout import build_aout


class AssemblyError(Exception):
    """A syntax or semantic error in assembly source."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = "line %d: %s" % (lineno, message)
        super().__init__(message)
        self.lineno = lineno


_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):\s*(.*)$")
_EQUATE_RE = re.compile(r"^([A-Za-z_][\w]*)\s*=\s*(.+)$")
_NUMBER_RE = re.compile(r"^-?(0[xX][0-9a-fA-F]+|0[oO][0-7]+|\d+)$")
_DREG_RE = re.compile(r"^d([0-7])$")
_AREG_RE = re.compile(r"^a([0-7])$")
_IND_RE = re.compile(r"^\(\s*(a[0-7]|sp|fp)\s*\)$")
_IND_DISP_RE = re.compile(r"^(.+)\(\s*(a[0-7]|sp|fp)\s*\)$")

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0",
            "\\": "\\", '"': '"', "'": "'", "e": "\x1b"}


def _parse_string(text, lineno):
    """Parse a double-quoted string literal with escapes."""
    text = text.strip()
    if len(text) < 2 or text[0] != '"' or text[-1] != '"':
        raise AssemblyError("expected string literal, got %r" % text, lineno)
    body = text[1:-1]
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            i += 1
            if i >= len(body):
                raise AssemblyError("dangling escape in string", lineno)
            out.append(_ESCAPES.get(body[i], body[i]))
        else:
            out.append(ch)
        i += 1
    return "".join(out)


def _split_operands(text):
    """Split an operand field on commas that are not inside quotes."""
    parts = []
    depth = 0
    current = []
    in_str = False
    for ch in text:
        if ch == '"':
            in_str = not in_str
        if ch == "," and not in_str and depth == 0:
            parts.append("".join(current).strip())
            current = []
            continue
        if ch == "(" and not in_str:
            depth += 1
        elif ch == ")" and not in_str:
            depth -= 1
        current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return [p for p in parts if p]


class _Expr:
    """A deferred integer expression (evaluated in pass 2)."""

    _TOKEN_RE = re.compile(
        r"\s*(?:(0[xX][0-9a-fA-F]+|0[oO][0-7]+|\d+)|('(?:\\.|[^'])')"
        r"|([A-Za-z_.$][\w.$]*)|([+\-]))")

    def __init__(self, text, lineno):
        self.text = text.strip()
        self.lineno = lineno
        if not self.text:
            raise AssemblyError("empty expression", lineno)

    def evaluate(self, symbols):
        tokens = []
        pos = 0
        while pos < len(self.text):
            match = self._TOKEN_RE.match(self.text, pos)
            if not match or match.end() == pos:
                raise AssemblyError(
                    "bad expression %r" % self.text, self.lineno)
            number, char, symbol, operator = match.groups()
            if number is not None:
                tokens.append(int(number, 0))
            elif char is not None:
                body = char[1:-1]
                if body.startswith("\\"):
                    body = _ESCAPES.get(body[1], body[1])
                tokens.append(ord(body))
            elif symbol is not None:
                if symbol not in symbols:
                    raise AssemblyError(
                        "undefined symbol %r" % symbol, self.lineno)
                tokens.append(symbols[symbol])
            else:
                tokens.append(operator)
            pos = match.end()
        # evaluate left-to-right with unary +/- support
        value = None
        pending = None
        sign = 1
        for token in tokens:
            if isinstance(token, str):
                if pending is not None or value is None:
                    sign = -sign if token == "-" else sign
                else:
                    pending = token
            else:
                token = sign * token
                sign = 1
                if value is None:
                    value = token
                elif pending == "+":
                    value += token
                    pending = None
                elif pending == "-":
                    value -= token
                    pending = None
                else:
                    raise AssemblyError(
                        "missing operator in %r" % self.text, self.lineno)
        if value is None or pending is not None:
            raise AssemblyError(
                "incomplete expression %r" % self.text, self.lineno)
        return value


class _Operand:
    """A parsed operand: addressing mode plus a deferred value."""

    def __init__(self, mode, expr=None, reg=None, lineno=None):
        self.mode = mode
        self.expr = expr
        self.reg = reg
        self.lineno = lineno

    @classmethod
    def parse(cls, text, lineno):
        text = text.strip()
        if text.startswith("#"):
            return cls(Mode.IMM, _Expr(text[1:], lineno), lineno=lineno)
        if text == "sp":
            return cls(Mode.AREG, reg=7, lineno=lineno)
        if text == "fp":
            return cls(Mode.AREG, reg=6, lineno=lineno)
        match = _DREG_RE.match(text)
        if match:
            return cls(Mode.DREG, reg=int(match.group(1)), lineno=lineno)
        match = _AREG_RE.match(text)
        if match:
            return cls(Mode.AREG, reg=int(match.group(1)), lineno=lineno)
        match = _IND_RE.match(text)
        if match:
            return cls(Mode.IND, reg=_areg_number(match.group(1)),
                       lineno=lineno)
        match = _IND_DISP_RE.match(text)
        if match:
            return cls(Mode.IND_DISP, _Expr(match.group(1), lineno),
                       reg=_areg_number(match.group(2)), lineno=lineno)
        return cls(Mode.ABS, _Expr(text, lineno), lineno=lineno)

    def encode(self, symbols):
        """Return ``(mode, operand_value)``."""
        if self.mode in (Mode.DREG, Mode.AREG, Mode.IND):
            return self.mode, self.reg
        if self.mode == Mode.IND_DISP:
            disp = self.expr.evaluate(symbols)
            return self.mode, isa.pack_ind_disp(disp, self.reg)
        return self.mode, self.expr.evaluate(symbols)


def _areg_number(name):
    if name == "sp":
        return 7
    if name == "fp":
        return 6
    return int(name[1])


class _Instruction:
    def __init__(self, opcode, operands, lineno):
        self.opcode = opcode
        self.operands = operands
        self.lineno = lineno
        self.size = isa.INSTRUCTION_SIZE

    def encode(self, symbols):
        src_mode = dst_mode = 0
        src = dst = 0
        ops = self.operands
        if self.opcode in isa.ZERO_OPERAND:
            if ops:
                raise AssemblyError("%s takes no operands"
                                    % isa.OP_NAMES[self.opcode], self.lineno)
        elif self.opcode in isa.ONE_OPERAND_SRC:
            if len(ops) != 1:
                raise AssemblyError("%s takes one operand"
                                    % isa.OP_NAMES[self.opcode], self.lineno)
            src_mode, src = ops[0].encode(symbols)
        elif self.opcode in isa.ONE_OPERAND_DST:
            if len(ops) != 1:
                raise AssemblyError("%s takes one operand"
                                    % isa.OP_NAMES[self.opcode], self.lineno)
            dst_mode, dst = ops[0].encode(symbols)
        else:
            if len(ops) != 2:
                raise AssemblyError("%s takes two operands"
                                    % isa.OP_NAMES[self.opcode], self.lineno)
            src_mode, src = ops[0].encode(symbols)
            dst_mode, dst = ops[1].encode(symbols)
        return isa.encode(self.opcode, src_mode, src, dst_mode, dst)


class _Data:
    """A directive that emits bytes into the current section."""

    def __init__(self, kind, payload, lineno):
        self.kind = kind
        self.payload = payload
        self.lineno = lineno
        if kind == "bytes":
            self.size = len(payload)
        elif kind == "space":
            self.size = payload
        elif kind == "words":
            self.size = 4 * len(payload)
        elif kind == "bytevals":
            self.size = len(payload)
        else:
            raise AssemblyError("bad data kind %r" % kind, lineno)

    def encode(self, symbols):
        if self.kind == "bytes":
            return self.payload
        if self.kind == "space":
            return b"\x00" * self.payload
        if self.kind == "words":
            out = bytearray()
            for expr in self.payload:
                out += (expr.evaluate(symbols) & 0xFFFFFFFF).to_bytes(
                    4, "little")
            return bytes(out)
        out = bytearray()
        for expr in self.payload:
            out.append(expr.evaluate(symbols) & 0xFF)
        return bytes(out)


class Assembled(NamedTuple):
    """The output of :func:`assemble`: read-only, since one result is
    shared by every caller assembling the same source."""

    aout: bytes  #: complete a.out file bytes
    symbols: Mapping[str, int]  #: label/equate -> value (read-only)
    text: bytes  #: text segment bytes
    data: bytes  #: data segment bytes
    entry: int
    machine_id: int


def assemble(source, cpu="mc68010", text_base=TEXT_BASE):
    """Assemble ``source`` for the given CPU model.

    Returns an :class:`Assembled`.  Using an instruction the target
    CPU does not implement is an :class:`AssemblyError` — you cannot
    compile 68020 code "for" a 68010 (you *can* run the resulting
    binary on the wrong machine, which is how the paper's
    heterogeneity crash is reproduced).

    Results are cached on (source, CPU, text base): every machine of
    a site installs the same guest programs, and each is assembled
    once per process.
    """
    return _assemble(source, isa.cpu_model(cpu).name, text_base)


@functools.lru_cache(maxsize=256)
def _assemble(source, cpu, text_base):
    model = isa.cpu_model(cpu)
    items = []  # (section, item)
    labels = []  # (name, section, offset, lineno)
    equates = {}
    section = "text"
    offsets = {"text": 0, "data": 0}

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split(";", 1)[0].rstrip()
        while True:
            stripped = line.strip()
            match = _LABEL_RE.match(stripped)
            if not match:
                break
            labels.append((match.group(1), section, offsets[section],
                           lineno))
            line = match.group(2)
        line = line.strip()
        if not line:
            continue

        match = _EQUATE_RE.match(line)
        if match and not line.startswith("."):
            equates[match.group(1)] = _Expr(match.group(2), lineno)
            continue

        if line.startswith("."):
            parts = line.split(None, 1)
            directive = parts[0].lower()
            rest = parts[1] if len(parts) > 1 else ""
            if directive == ".text":
                section = "text"
            elif directive == ".data":
                section = "data"
            elif directive in (".asciz", ".ascii"):
                text = _parse_string(rest, lineno)
                data = text.encode("latin-1")
                if directive == ".asciz":
                    data += b"\x00"
                item = _Data("bytes", data, lineno)
                items.append((section, item))
                offsets[section] += item.size
            elif directive == ".word":
                exprs = [_Expr(p, lineno) for p in _split_operands(rest)]
                item = _Data("words", exprs, lineno)
                items.append((section, item))
                offsets[section] += item.size
            elif directive == ".byte":
                exprs = [_Expr(p, lineno) for p in _split_operands(rest)]
                item = _Data("bytevals", exprs, lineno)
                items.append((section, item))
                offsets[section] += item.size
            elif directive == ".space":
                size = _Expr(rest, lineno).evaluate({})
                item = _Data("space", size, lineno)
                items.append((section, item))
                offsets[section] += item.size
            elif directive == ".align":
                boundary = _Expr(rest, lineno).evaluate({})
                pad = (-offsets[section]) % boundary
                if pad:
                    item = _Data("space", pad, lineno)
                    items.append((section, item))
                    offsets[section] += pad
            else:
                raise AssemblyError("unknown directive %s" % directive,
                                    lineno)
            continue

        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        if mnemonic not in isa.NAME_TO_OP:
            raise AssemblyError("unknown instruction %r" % mnemonic, lineno)
        opcode = isa.NAME_TO_OP[mnemonic]
        if not model.supports(opcode):
            raise AssemblyError(
                "%s is not implemented by %s" % (mnemonic, model.name),
                lineno)
        operand_text = parts[1] if len(parts) > 1 else ""
        operands = [_Operand.parse(p, lineno)
                    for p in _split_operands(operand_text)]
        item = _Instruction(opcode, operands, lineno)
        items.append((section, item))
        offsets[section] += item.size

    text_size = offsets["text"]
    data_base = text_base + text_size

    symbols = {}
    for name, sect, offset, lineno in labels:
        if name in symbols:
            raise AssemblyError("duplicate label %r" % name, lineno)
        base = text_base if sect == "text" else data_base
        symbols[name] = base + offset
    # equates may reference labels and earlier equates
    for name, expr in equates.items():
        if name in symbols:
            raise AssemblyError("symbol %r defined twice" % name,
                                expr.lineno)
        symbols[name] = expr.evaluate(symbols)

    text = bytearray()
    data = bytearray()
    for sect, item in items:
        blob = item.encode(symbols)
        if sect == "text":
            text += blob
        else:
            data += blob

    entry = symbols.get("start", text_base)
    aout = build_aout(model.machine_id, bytes(text), bytes(data),
                      entry=entry, text_base=text_base)
    return Assembled(aout, MappingProxyType(symbols), bytes(text),
                     bytes(data), entry, model.machine_id)
