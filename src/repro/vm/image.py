"""Process images: the machine state that migration captures.

A :class:`ProcessImage` is a flat, byte-addressable memory with the
classic Unix layout (text at ``TEXT_BASE``, data immediately after,
stack growing down from the top) plus a :class:`Registers` file.  The
``SIGDUMP`` dump and the ``rest_proc()`` restore operate directly on
these objects: the ``a.outXXXXX`` file carries the text and data
segments, the ``stackXXXXX`` file carries the stack bytes and the
registers.
"""

import struct

TEXT_BASE = 0x1000
DEFAULT_MEM_SIZE = 256 * 1024

#: granularity of dirty tracking and of copy-on-reference fill, in
#: bytes (one "page"); incremental dump chunks are whole pages
PAGE_SHIFT = 10
PAGE_BYTES = 1 << PAGE_SHIFT

_U32 = 0xFFFFFFFF


def to_signed(value):
    """Interpret a 32-bit pattern as a signed integer."""
    value &= _U32
    return value - (1 << 32) if value & 0x80000000 else value


def to_unsigned(value):
    """Truncate a Python int to a 32-bit pattern."""
    return value & _U32


class SegmentationFault(Exception):
    """Access outside the process's memory."""

    def __init__(self, address, kind="access"):
        self.address = address
        self.kind = kind
        super().__init__("segmentation fault: %s at 0x%x" % (kind, address))


class Registers:
    """The register file: d0-d7, a0-a7 (a7 = sp), pc and flags."""

    FORMAT = struct.Struct("<8i8iII")  # d regs, a regs, pc, sr

    def __init__(self):
        self.d = [0] * 8
        self.a = [0] * 8
        self.pc = 0
        self.zf = False  # zero flag
        self.nf = False  # negative flag

    @property
    def sp(self):
        return self.a[7]

    @sp.setter
    def sp(self, value):
        self.a[7] = value

    @property
    def sr(self):
        """Status register encoding of the flags."""
        return (1 if self.zf else 0) | (2 if self.nf else 0)

    @sr.setter
    def sr(self, value):
        self.zf = bool(value & 1)
        self.nf = bool(value & 2)

    def set_flags(self, result):
        """Update Z/N from a signed 32-bit result."""
        result = to_signed(result)
        self.zf = result == 0
        self.nf = result < 0

    def clear(self):
        self.d = [0] * 8
        self.a = [0] * 8
        self.pc = 0
        self.zf = False
        self.nf = False

    def copy(self):
        other = Registers()
        other.load_from(self)
        return other

    def load_from(self, other):
        self.d = list(other.d)
        self.a = list(other.a)
        self.pc = other.pc
        self.zf = other.zf
        self.nf = other.nf

    def pack(self):
        """Serialize to the fixed binary layout used by stackXXXXX."""
        return self.FORMAT.pack(
            *[to_signed(v) for v in self.d],
            *[to_signed(v) for v in self.a],
            to_unsigned(self.pc),
            self.sr,
        )

    @classmethod
    def unpack(cls, blob, offset=0):
        values = cls.FORMAT.unpack_from(blob, offset)
        regs = cls()
        regs.d = [to_signed(v) for v in values[0:8]]
        regs.a = [to_signed(v) for v in values[8:16]]
        regs.pc = values[16]
        regs.sr = values[17]
        return regs

    def __eq__(self, other):
        if not isinstance(other, Registers):
            return NotImplemented
        return (self.d == other.d and self.a == other.a
                and self.pc == other.pc and self.sr == other.sr)

    def __repr__(self):
        return ("Registers(pc=0x%x sp=0x%x d=%s)"
                % (self.pc, self.sp, self.d))


class _PendingRegion:
    """One registered manifest's chunks and which are still pending."""

    __slots__ = ("base", "chunk_bytes", "length", "digests", "pending",
                 "remaining")

    def __init__(self, base, chunk_bytes, length, digests):
        self.base = base
        self.chunk_bytes = chunk_bytes
        self.length = length
        self.digests = digests
        self.pending = bytearray(b"\x01" * len(digests))
        self.remaining = len(digests)

    def span(self, lo, hi):
        """``(first, end)`` indices of the chunks overlapping bytes
        ``[lo, hi)``; empty (``first >= end``) when none do."""
        lo = max(lo, self.base) - self.base
        hi = min(hi, self.base + self.length) - self.base
        if lo >= hi:
            return 0, 0
        return lo // self.chunk_bytes, (hi - 1) // self.chunk_bytes + 1


class ProcessImage:
    """Memory plus registers for one VM process."""

    def __init__(self, mem_size=DEFAULT_MEM_SIZE):
        self.mem = bytearray(mem_size)
        self.regs = Registers()
        self.text_base = TEXT_BASE
        self.text_size = 0
        self.data_size = 0
        self.bss_size = 0
        self.brk = TEXT_BASE
        self.machine_id = 0  #: a.out machine id the image was built for
        self.entry = TEXT_BASE  #: original entry point (kept for dumps)
        #: bumped on any store into the text segment; the CPU keys its
        #: instruction-decode cache on it (self-modifying code works,
        #: it just flushes the cache)
        self.text_version = 0
        self._decode_cache = None
        #: one flag per page, set on every store (interpreter *and*
        #: predecoded blocks mark identically, so both engines agree);
        #: incremental dumps skip chunks whose pages are all clean
        self.dirty_pages = bytearray(
            (mem_size + PAGE_BYTES - 1) >> PAGE_SHIFT)
        #: manifests of the dump this image was restored from (or the
        #: chunked a.out it was exec'd from): region name ->
        #: ``(base, length, chunk_bytes, digests)``.  A re-dump reuses
        #: these digests for chunks whose pages stayed clean.
        self.chunk_baseline = None
        # -- copy-on-reference state (lazy restart) -----------------
        # _lazy: the registered regions still holding pending chunks
        # (None when nothing is pending, the common case every access
        # checks); _lazy_pages: one byte per page, set while any
        # pending chunk overlaps the page (compiled traces read it)
        self._lazy = None
        self._lazy_pages = None
        self._lazy_fetch = None
        self._lazy_drained = None

    @property
    def mem_size(self):
        return len(self.mem)

    @property
    def stack_top(self):
        return len(self.mem)

    @property
    def data_base(self):
        return self.text_base + self.text_size

    @property
    def stack_size(self):
        """Bytes currently on the stack (top of memory down to sp)."""
        return self.stack_top - self.regs.sp

    # -- memory access (bounds checked) ---------------------------------

    def _check(self, address, nbytes):
        if address < 0 or address + nbytes > len(self.mem):
            raise SegmentationFault(address)
        if self._lazy is not None:
            self._lazy_touch(address, nbytes)

    def read_u8(self, address):
        self._check(address, 1)
        return self.mem[address]

    def _touch_text(self, address):
        if address < self.text_base + self.text_size:
            self.text_version += 1

    def write_u8(self, address, value):
        self._check(address, 1)
        self.mem[address] = value & 0xFF
        self.dirty_pages[address >> PAGE_SHIFT] = 1
        self._touch_text(address)

    def read_i32(self, address):
        self._check(address, 4)
        return to_signed(int.from_bytes(self.mem[address:address + 4],
                                        "little"))

    def write_i32(self, address, value):
        self._check(address, 4)
        self.mem[address:address + 4] = to_unsigned(value).to_bytes(
            4, "little")
        self.dirty_pages[address >> PAGE_SHIFT] = 1
        self.dirty_pages[(address + 3) >> PAGE_SHIFT] = 1
        self._touch_text(address)

    def read_bytes(self, address, nbytes):
        self._check(address, nbytes)
        return bytes(self.mem[address:address + nbytes])

    def write_bytes(self, address, data):
        self._check(address, len(data))
        self.mem[address:address + len(data)] = data
        if data:
            first = address >> PAGE_SHIFT
            last = (address + len(data) - 1) >> PAGE_SHIFT
            self.dirty_pages[first:last + 1] = b"\x01" * (last - first + 1)
        self._touch_text(address)

    def read_cstring(self, address, limit=4096):
        """Read a NUL-terminated string from guest memory."""
        end = address
        while end < len(self.mem) and end - address < limit:
            if self._lazy is not None:
                self._lazy_touch(end, 1)
            if self.mem[end] == 0:
                return bytes(self.mem[address:end]).decode(
                    "latin-1")
            end += 1
        raise SegmentationFault(address, "unterminated string")

    def clear_dirty(self):
        """Reset dirty tracking (after a restore installs a baseline)."""
        self.dirty_pages[:] = bytes(len(self.dirty_pages))

    def write_cstring(self, address, text):
        data = text.encode("latin-1") + b"\x00"
        self.write_bytes(address, data)
        return len(data)

    # -- copy-on-reference (lazy restart) ---------------------------------

    def add_lazy_region(self, base, manifest, fetch=None, on_drained=None):
        """Register a manifest's chunks as pending copy-on-reference.

        Chunk ``i`` covers ``base + i * manifest.chunk_bytes`` for
        ``manifest.chunk_size(i)`` bytes.  The bytes stay
        un-materialised until the first access of any page a chunk
        overlaps; then ``fetch(digest, size)`` is called (charging
        whatever it charges *at access time*) and the chunk is filled
        in.  Chunks fill in registration order, then index order.
        ``on_drained`` fires when the last pending chunk lands
        (immediately, if nothing is pending at all).

        Registration drops the decode cache.  Rebuilding it hashes the
        text through :meth:`_check`, which faults in any chunk sharing
        a text page, so no text page is pending while compiled traces
        run and they need no instruction-fetch checks.
        """
        self.invalidate_decode_cache()
        if fetch is not None:
            self._lazy_fetch = fetch
        if on_drained is not None:
            self._lazy_drained = on_drained
        count = len(manifest.digests)
        if count:
            region = _PendingRegion(base, manifest.chunk_bytes,
                                    manifest.length, manifest.digests)
            if self._lazy is None:
                self._lazy = []
                self._lazy_pages = bytearray(len(self.dirty_pages))
            self._lazy.append(region)
            pages = self._lazy_pages
            first = base >> PAGE_SHIFT
            last = min((base + manifest.length - 1) >> PAGE_SHIFT,
                       len(pages) - 1)
            pages[first:last + 1] = b"\x01" * (last - first + 1)
        elif self._lazy is None and self._lazy_drained is not None:
            callback = self._lazy_drained
            self._lazy_drained = None
            callback()

    def _lazy_touch(self, address, nbytes):
        """Fault in every pending chunk overlapping the pages of the
        access, in registration order, then index order."""
        pages = self._lazy_pages
        first = address >> PAGE_SHIFT
        last = (address + max(nbytes, 1) - 1) >> PAGE_SHIFT
        if pages.find(1, first, last + 1) < 0:
            return
        lo = first << PAGE_SHIFT
        hi = (last + 1) << PAGE_SHIFT
        hits = [(region, index) for region in self._lazy
                for index in range(*region.span(lo, hi))
                if region.pending[index]]
        for region, index in hits:
            self._lazy_fill(region, index)

    def _lazy_fill(self, region, index):
        """Fetch one pending chunk; it stays pending unless it lands."""
        start = region.base + index * region.chunk_bytes
        size = min(region.chunk_bytes, region.length - index
                   * region.chunk_bytes)
        try:
            blob = self._lazy_fetch(region.digests[index], size)
        except SegmentationFault:
            raise
        except Exception as err:
            # a missing/corrupt/unreachable chunk at access time is a
            # demand-paging failure: the process takes SIGSEGV (or the
            # syscall doing the copy fails with EFAULT), exactly like
            # a real pager losing its backing store; the next touch
            # fetches again
            raise SegmentationFault(
                start, "copy-on-reference fetch failed") from err
        if len(blob) != size:
            raise SegmentationFault(start, "short copy-on-reference chunk")
        # direct fill: not a guest store, so no dirty mark and no
        # text_version bump
        self.mem[start:start + size] = blob
        region.pending[index] = 0
        region.remaining -= 1
        if not region.remaining:
            self._lazy.remove(region)
        if not self._lazy:
            self._lazy = None
            self._lazy_pages = None
            callback = self._lazy_drained
            self._lazy_drained = None
            if callback is not None:
                callback()
            return
        # a page stays pending while any other chunk still overlaps it
        pages = self._lazy_pages
        for page in range(start >> PAGE_SHIFT,
                          ((start + size - 1) >> PAGE_SHIFT) + 1):
            lo = page << PAGE_SHIFT
            if not any(other.pending.find(1, *other.span(lo, lo + PAGE_BYTES))
                       >= 0 for other in self._lazy):
                pages[page] = 0

    def drain_lazy(self):
        """Fault in everything still pending (fork, explicit flush)."""
        while self._lazy:
            region = self._lazy[0]
            self._lazy_fill(region, region.pending.find(1))

    # -- decode-cache interface ------------------------------------------

    def invalidate_decode_cache(self):
        """Drop any predecoded instruction cache.

        The CPU keys its cache on ``text_version`` so ordinary text
        writes invalidate implicitly; this explicit hook is for
        whole-image transitions (exec overlays, ``rest_proc``) where
        the old cache must not survive into the new program.
        """
        self._decode_cache = None

    # -- stack helpers ---------------------------------------------------

    def push_i32(self, value):
        self.regs.sp -= 4
        self.write_i32(self.regs.sp, value)

    def pop_i32(self):
        value = self.read_i32(self.regs.sp)
        self.regs.sp += 4
        return value

    # -- segment snapshots (used by the dump machinery) -------------------

    def text_bytes(self):
        return self.read_bytes(self.text_base, self.text_size)

    def data_bytes(self):
        """The *current* data segment, including grown break space."""
        size = max(self.data_size + self.bss_size,
                   self.brk - self.data_base)
        return self.read_bytes(self.data_base, size)

    def stack_bytes(self):
        return self.read_bytes(self.regs.sp, self.stack_size)

    def restore_stack(self, blob):
        """Write ``blob`` back at the top of the stack and point sp at it."""
        sp = self.stack_top - len(blob)
        if sp < self.brk:
            raise SegmentationFault(sp, "stack overflow on restore")
        self.write_bytes(sp, blob)
        self.regs.sp = sp

    def copy(self):
        """Deep copy (used by fork())."""
        # fork wants a complete address space: materialise anything
        # still pending rather than teach the child lazy bookkeeping
        self.drain_lazy()
        other = ProcessImage(mem_size=0)
        other.mem = bytearray(self.mem)
        other.dirty_pages = bytearray(self.dirty_pages)
        other.chunk_baseline = dict(self.chunk_baseline) \
            if self.chunk_baseline is not None else None
        other.regs = self.regs.copy()
        other.text_base = self.text_base
        other.text_size = self.text_size
        other.data_size = self.data_size
        other.bss_size = self.bss_size
        other.brk = self.brk
        other.machine_id = self.machine_id
        other.entry = self.entry
        other.text_version = self.text_version
        other._decode_cache = self._decode_cache
        return other
