"""Binary formats of the ``filesXXXXX`` and ``stackXXXXX`` dump files.

``SIGDUMP`` produces three files in ``/usr/tmp``, named by the pid of
the dumped process:

``a.outXXXXX``
    a runnable executable: the text and data segments with an a.out
    header prepended (see :mod:`repro.vm.aout`).

``filesXXXXX`` (magic octal 445)
    "all the information that is not needed by the kernel to restart
    the process, but must be used at user level": hostname, current
    working directory, one entry per slot of the fixed-size open file
    table (unused / open file with path+flags+offset / socket), and
    the terminal flags.

``stackXXXXX`` (magic octal 444)
    "all the information that is required by the kernel": user
    credentials, the size and contents of the stack, the registers,
    and the signal dispositions.

Strings are length-prefixed (u16 little endian).  All path names in
the files file are *lexically* absolute but may still contain
symbolic links — resolving them is explicitly the job of the
user-level ``dumpproc`` (section 4.3 of the paper).
"""

import struct

from repro.errors import UnixError, EINVAL, ENOEXEC
from repro.kernel.constants import (NOFILE, FILES_MAGIC, STACK_MAGIC,
                                    STACK_CHUNK_MAGIC, CHUNK_MAGIC,
                                    DUMPDIR)
from repro.kernel.cred import Credentials, PACKED_SIZE as CRED_SIZE
from repro.kernel.signals import SigState
from repro.store import DIGEST_BYTES
from repro.vm.aout import AOutHeader, HEADER_SIZE, AOUT_FLAG_CHUNKED
from repro.vm.image import Registers

FD_UNUSED = 0
FD_FILE = 1
FD_SOCKET = 2  #: sockets *and* pipes: neither survives migration
#: extension (paper section 9 future work): a socket that was bound
#: to a well-known port, recorded with the port and whether it was
#: listening, so restart can re-establish the service endpoint
FD_SOCKET_BOUND = 3

_U16 = struct.Struct("<H")
_I32 = struct.Struct("<i")
_U32 = struct.Struct("<I")
#: one digest of a manifest's digest block
_DIGEST_FORMAT = "%ds" % DIGEST_BYTES


class _Writer:
    def __init__(self):
        self.parts = []

    def u16(self, value):
        self.parts.append(_U16.pack(value))

    def i32(self, value):
        self.parts.append(_I32.pack(value))

    def u32(self, value):
        self.parts.append(_U32.pack(value))

    def raw(self, blob):
        self.parts.append(bytes(blob))

    def string(self, text):
        data = text.encode("latin-1")
        if len(data) > 0xFFFF:
            raise UnixError(EINVAL, "string too long for dump format")
        self.u16(len(data))
        self.raw(data)

    def getvalue(self):
        return b"".join(self.parts)


class _Reader:
    def __init__(self, blob, what):
        self.blob = blob
        self.pos = 0
        self.what = what

    def skip(self, size):
        """Claim the next ``size`` bytes; returns their offset."""
        pos = self.pos
        if pos + size > len(self.blob):
            raise UnixError(EINVAL, "truncated %s file" % self.what)
        self.pos = pos + size
        return pos

    def u8(self):
        return self.blob[self.skip(1)]

    def u16(self):
        return _U16.unpack_from(self.blob, self.skip(2))[0]

    def i32(self):
        return _I32.unpack_from(self.blob, self.skip(4))[0]

    def u32(self):
        return _U32.unpack_from(self.blob, self.skip(4))[0]

    def raw(self, size):
        pos = self.skip(size)
        return bytes(self.blob[pos:pos + size])

    def string(self):
        return self.raw(self.u16()).decode("latin-1")


class ChunkManifest:
    """A digest list standing in for a blob in an incremental dump.

    Layout: magic (u16), chunk size (u32), blob length (u32), chunk
    count (u16), then ``count`` raw digests.  The count is fully
    determined by length and chunk size — it is stored anyway and
    cross-checked on unpack, so a truncated or doctored manifest is
    rejected before any chunk is fetched.
    """

    #: magic + chunk_bytes + length + count
    HEADER_SIZE = 2 + 4 + 4 + 2

    def __init__(self, chunk_bytes, length, digests):
        self.chunk_bytes = int(chunk_bytes)
        self.length = int(length)
        self.digests = tuple(digests)
        if self.chunk_bytes <= 0:
            raise UnixError(EINVAL, "bad manifest chunk size %d"
                            % self.chunk_bytes)
        if self.length < 0:
            raise UnixError(EINVAL, "bad manifest length %d" % self.length)
        expected = -(-self.length // self.chunk_bytes)
        if len(self.digests) != expected:
            raise UnixError(EINVAL, "manifest wants %d chunks, has %d"
                            % (expected, len(self.digests)))
        if set(map(len, self.digests)) - {DIGEST_BYTES}:
            raise UnixError(EINVAL, "bad manifest digest width")

    def chunk_size(self, index):
        """Size of chunk ``index`` (the last one may be short)."""
        return min(self.chunk_bytes, self.length - index * self.chunk_bytes)

    def packed_size(self):
        return self.HEADER_SIZE + DIGEST_BYTES * len(self.digests)

    def pack_into(self, writer):
        writer.u16(CHUNK_MAGIC)
        writer.u32(self.chunk_bytes)
        writer.u32(self.length)
        writer.u16(len(self.digests))
        writer.raw(b"".join(self.digests))

    def pack(self):
        writer = _Writer()
        self.pack_into(writer)
        return writer.getvalue()

    @classmethod
    def unpack_from(cls, reader):
        magic = reader.u16()
        if magic != CHUNK_MAGIC:
            raise UnixError(EINVAL, "bad chunk manifest magic 0o%o"
                            % magic)
        chunk_bytes = reader.u32()
        length = reader.u32()
        count = reader.u16()
        if chunk_bytes <= 0:
            raise UnixError(EINVAL, "bad manifest chunk size %d"
                            % chunk_bytes)
        if count != -(-length // chunk_bytes):
            raise UnixError(EINVAL,
                            "manifest count %d does not match length %d"
                            % (count, length))
        block = reader.raw(count * DIGEST_BYTES)
        return cls(chunk_bytes, length,
                   struct.unpack(_DIGEST_FORMAT * count, block))

    @classmethod
    def unpack(cls, blob):
        return cls.unpack_from(_Reader(blob, "chunk manifest"))

    def __eq__(self, other):
        if not isinstance(other, ChunkManifest):
            return NotImplemented
        return (self.chunk_bytes, self.length, self.digests) == \
            (other.chunk_bytes, other.length, other.digests)

    def __repr__(self):
        return ("ChunkManifest(chunk_bytes=%d length=%d chunks=%d)"
                % (self.chunk_bytes, self.length, len(self.digests)))


def pack_chunked_aout(header, text_manifest, data_manifest):
    """An ``a.outXXXXX`` that references its segments by digest.

    The header keeps the *real* segment sizes (so restart can size
    memory before fetching anything) and gains ``AOUT_FLAG_CHUNKED``.
    """
    header.flags |= AOUT_FLAG_CHUNKED
    writer = _Writer()
    writer.raw(header.pack())
    text_manifest.pack_into(writer)
    data_manifest.pack_into(writer)
    return writer.getvalue()


def unpack_chunked_aout(blob):
    """Parse a chunked a.out into (header, text, data) manifests."""
    header = AOutHeader.unpack(blob)
    if not header.flags & AOUT_FLAG_CHUNKED:
        raise UnixError(ENOEXEC, "a.out is not chunked")
    reader = _Reader(blob, "a.out")
    reader.skip(HEADER_SIZE)
    text_manifest = ChunkManifest.unpack_from(reader)
    data_manifest = ChunkManifest.unpack_from(reader)
    if text_manifest.length != header.text_size \
            or data_manifest.length != header.data_size:
        raise UnixError(ENOEXEC, "chunked a.out manifest/header mismatch")
    return header, text_manifest, data_manifest


def stack_is_chunked(blob):
    """Sniff a stackXXXXX prefix for the chunked-variant magic."""
    return len(blob) >= 2 and _U16.unpack_from(blob)[0] == STACK_CHUNK_MAGIC


class FdEntry:
    """One slot of the open file table, as recorded in filesXXXXX."""

    __slots__ = ("kind", "path", "flags", "offset", "port",
                 "listening")

    def __init__(self, kind=FD_UNUSED, path="", flags=0, offset=0,
                 port=0, listening=False):
        self.kind = kind
        self.path = path
        self.flags = flags
        self.offset = offset
        self.port = port
        self.listening = listening

    def is_file(self):
        return self.kind == FD_FILE

    def is_socket(self):
        return self.kind in (FD_SOCKET, FD_SOCKET_BOUND)

    def is_bound_socket(self):
        return self.kind == FD_SOCKET_BOUND

    def is_unused(self):
        return self.kind == FD_UNUSED

    def __eq__(self, other):
        if not isinstance(other, FdEntry):
            return NotImplemented
        return (self.kind, self.path, self.flags, self.offset,
                self.port, self.listening) == \
            (other.kind, other.path, other.flags, other.offset,
             other.port, other.listening)

    def __repr__(self):
        if self.kind == FD_UNUSED:
            return "FdEntry(unused)"
        if self.kind == FD_SOCKET:
            return "FdEntry(socket)"
        if self.kind == FD_SOCKET_BOUND:
            return "FdEntry(socket port=%d listening=%s)" % (
                self.port, self.listening)
        return "FdEntry(%r flags=%o offset=%d)" % (self.path, self.flags,
                                                   self.offset)


class FilesInfo:
    """Contents of the ``filesXXXXX`` file (magic 0445)."""

    def __init__(self, hostname="", cwd="/", entries=None, tty_flags=0):
        self.hostname = hostname
        self.cwd = cwd
        self.entries = list(entries) if entries is not None else \
            [FdEntry() for __ in range(NOFILE)]
        if len(self.entries) != NOFILE:
            raise UnixError(EINVAL, "file table must have %d slots"
                            % NOFILE)
        self.tty_flags = tty_flags

    def pack(self):
        writer = _Writer()
        writer.u16(FILES_MAGIC)
        writer.string(self.hostname)
        writer.string(self.cwd)
        for entry in self.entries:
            writer.raw(bytes([entry.kind]))
            if entry.kind == FD_FILE:
                writer.string(entry.path)
                writer.i32(entry.flags)
                writer.i32(entry.offset)
            elif entry.kind == FD_SOCKET_BOUND:
                writer.i32(entry.port)
                writer.raw(bytes([1 if entry.listening else 0]))
        writer.i32(self.tty_flags)
        return writer.getvalue()

    @classmethod
    def unpack(cls, blob):
        reader = _Reader(blob, "files")
        magic = reader.u16()
        if magic != FILES_MAGIC:
            raise UnixError(EINVAL,
                            "bad files magic 0o%o (want 0o%o)"
                            % (magic, FILES_MAGIC))
        hostname = reader.string()
        cwd = reader.string()
        entries = []
        for __ in range(NOFILE):
            kind = reader.u8()
            if kind == FD_FILE:
                path = reader.string()
                flags = reader.i32()
                offset = reader.i32()
                entries.append(FdEntry(FD_FILE, path, flags, offset))
            elif kind == FD_SOCKET_BOUND:
                port = reader.i32()
                listening = bool(reader.u8())
                entries.append(FdEntry(FD_SOCKET_BOUND, port=port,
                                       listening=listening))
            elif kind in (FD_UNUSED, FD_SOCKET):
                entries.append(FdEntry(kind))
            else:
                raise UnixError(EINVAL, "bad fd entry kind %d" % kind)
        tty_flags = reader.i32()
        return cls(hostname, cwd, entries, tty_flags)


class StackInfo:
    """Contents of the ``stackXXXXX`` file (magic 0444).

    Field order follows the paper: magic, credentials, stack size,
    stack contents, registers, signal dispositions.
    """

    def __init__(self, cred=None, stack=b"", registers=None,
                 sigstate=None, stack_manifest=None):
        self.cred = cred or Credentials()
        self.stack = bytes(stack)
        #: chunked variant (magic 0443): the stack bytes live in the
        #: chunk store and this manifest references them; ``stack``
        #: stays empty
        self.stack_manifest = stack_manifest
        if stack_manifest is not None and self.stack:
            raise UnixError(EINVAL, "stack info cannot carry both "
                            "inline bytes and a manifest")
        self.registers = registers or Registers()
        self.sigstate = sigstate or SigState()

    @property
    def stack_size(self):
        if self.stack_manifest is not None:
            return self.stack_manifest.length
        return len(self.stack)

    def pack(self):
        writer = _Writer()
        if self.stack_manifest is not None:
            # same prefix layout as the classic variant (magic, cred,
            # u32 stack size) so peek_header() serves both
            writer.u16(STACK_CHUNK_MAGIC)
            writer.raw(self.cred.pack())
            writer.u32(self.stack_manifest.length)
            self.stack_manifest.pack_into(writer)
        else:
            writer.u16(STACK_MAGIC)
            writer.raw(self.cred.pack())
            writer.u32(len(self.stack))
            writer.raw(self.stack)
        writer.raw(self.registers.pack())
        writer.raw(self.sigstate.pack())
        return writer.getvalue()

    @classmethod
    def unpack(cls, blob):
        reader = _Reader(blob, "stack")
        magic = reader.u16()
        if magic not in (STACK_MAGIC, STACK_CHUNK_MAGIC):
            raise UnixError(EINVAL,
                            "bad stack magic 0o%o (want 0o%o)"
                            % (magic, STACK_MAGIC))
        cred = Credentials.unpack(reader.raw(CRED_SIZE))
        stack_size = reader.u32()
        stack = b""
        manifest = None
        if magic == STACK_CHUNK_MAGIC:
            manifest = ChunkManifest.unpack_from(reader)
            if manifest.length != stack_size:
                raise UnixError(EINVAL, "stack manifest length %d != %d"
                                % (manifest.length, stack_size))
        else:
            stack = reader.raw(stack_size)
        registers = Registers.unpack(reader.raw(Registers.FORMAT.size))
        sigstate = SigState.unpack(reader.raw(SigState.PACKED_SIZE))
        return cls(cred, stack, registers, sigstate,
                   stack_manifest=manifest)

    @classmethod
    def peek_header(cls, blob):
        """Read only magic, credentials and stack size.

        This is what ``rest_proc()`` does first: "opens the stackXXXXX
        file, checking access permissions and verifying its format by
        checking the magic number ... reads the user credentials and
        the size of the stack".  Both the classic and the chunked
        variant share this prefix, and the size is always the *real*
        stack size, not the manifest size.
        """
        reader = _Reader(blob, "stack")
        magic = reader.u16()
        if magic not in (STACK_MAGIC, STACK_CHUNK_MAGIC):
            raise UnixError(EINVAL, "bad stack magic 0o%o" % magic)
        cred = Credentials.unpack(reader.raw(CRED_SIZE))
        stack_size = reader.u32()
        return cred, stack_size


def dump_file_names(pid, directory=DUMPDIR):
    """The three dump file paths for a pid: (a.out, files, stack)."""
    return ("%s/a.out%d" % (directory, pid),
            "%s/files%d" % (directory, pid),
            "%s/stack%d" % (directory, pid))


#: the archived-dump files of a ledgered migration, in the same
#: (a.out, files, stack) order as ``dump_file_names``; each holds a
#: packed :class:`ChunkManifest` whose payloads live in the cluster
#: chunk store (DESIGN.md section 12)
LEDGER_ARCHIVE_KINDS = ("aout", "files", "stack")


def ledger_archive_names(directory):
    """The three chunk-manifest archive paths of one ledger record."""
    return tuple("%s/dump.%s" % (directory, kind)
                 for kind in LEDGER_ARCHIVE_KINDS)
