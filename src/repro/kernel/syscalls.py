"""System call numbering and marshalling.

One source of truth for syscall numbers (:data:`NR`) — the assembler
library (:mod:`repro.programs.guest.libasm`) generates guest-side
equates from it.

VM convention: syscall number in ``d0``, arguments in ``d1``-``d5``;
on return ``d0`` holds the result (or -1) and ``d1`` the errno.
Strings are NUL-terminated in guest memory; buffers are
(address, length) pairs.

Native programs yield ``(name, *args)`` tuples with Python values and
get Python values back (negative int = errno).
"""

import inspect
import sys

from repro.errors import UnixError, EINVAL, EFAULT
from repro.vm.image import SegmentationFault

#: syscall numbers (loosely after 4.2BSD where sensible)
NR = {
    "exit": 1,
    "fork": 2,
    "read": 3,
    "write": 4,
    "open": 5,
    "close": 6,
    "wait": 7,
    "creat": 8,
    "unlink": 10,
    "execve": 11,
    "chdir": 12,
    "time": 13,
    "sbrk": 17,
    "stat": 18,
    "lseek": 19,
    "getpid": 20,
    "getuid": 24,
    "geteuid": 25,
    "fstat": 28,
    "kill": 37,
    "getppid": 39,
    "dup": 41,
    "pipe": 42,
    "setreuid": 46,
    "getgid": 47,
    "signal": 48,
    "getegid": 49,
    "sigreturn": 51,
    "ioctl": 54,
    "symlink": 57,
    "readlink": 58,
    "mkdir": 59,
    "sleep": 65,
    "gethostname": 66,
    "socket": 67,
    "rest_proc": 68,  #: the new system call
    "dup2": 72,
    "getcwd": 73,
    "isatty": 83,
    "bind": 84,
    "listen": 85,
    "accept": 86,
    "connect": 87,
    # section 7 extension (ablation A5)
    "getpid_real": 90,
    "gethostname_real": 91,
    "set_oldids": 92,
    # observability (DESIGN.md section 9)
    "trace_status": 93,
}

NR_TO_NAME = {number: name for name, number in NR.items()}


# -- VM-side helpers -----------------------------------------------------------


def _image(proc):
    return proc.image.image


def _read_str(kernel, proc, address):
    image = _image(proc)
    try:
        text = image.read_cstring(address)
    except SegmentationFault:
        raise UnixError(EFAULT, "string at 0x%x" % address) from None
    kernel.charge(kernel.costs.copy_byte_us * len(text), proc=proc)
    return text


def _read_strvec(kernel, proc, address):
    """Read a NULL-terminated vector of string pointers."""
    if address == 0:
        return []
    image = _image(proc)
    out = []
    try:
        for slot in range(64):
            ptr = image.read_i32(address + 4 * slot) & 0xFFFFFFFF
            if ptr == 0:
                return out
            out.append(_read_str(kernel, proc, ptr))
    except SegmentationFault:
        raise UnixError(EFAULT, "strvec at 0x%x" % address) from None
    raise UnixError(EINVAL, "argument vector too long")


def _write_guest(kernel, proc, address, data):
    image = _image(proc)
    try:
        image.write_bytes(address, data)
    except SegmentationFault:
        raise UnixError(EFAULT, "buffer at 0x%x" % address) from None
    kernel.charge(kernel.costs.copy_byte_us * len(data), proc=proc)


def _read_guest(kernel, proc, address, nbytes):
    image = _image(proc)
    try:
        data = image.read_bytes(address, nbytes)
    except SegmentationFault:
        raise UnixError(EFAULT, "buffer at 0x%x" % address) from None
    kernel.charge(kernel.costs.copy_byte_us * nbytes, proc=proc)
    return data


def _pack_stat(stat):
    import struct
    return struct.pack("<8i", stat.ino, stat.itype, stat.mode,
                       stat.uid, stat.size, stat.nlink,
                       1 if stat.itype == 0o020000 else 0,
                       1 if stat.is_terminal() else 0)


# -- VM marshalling, one function per syscall ------------------------------------


def vm_syscall(kernel, proc):
    """Decode and execute the trap the current VM process just made."""
    regs = _image(proc).regs
    number = regs.d[0]
    d1, d2, d3 = regs.d[1], regs.d[2], regs.d[3]
    name = NR_TO_NAME.get(number)
    if kernel.tracer.enabled:
        kernel.tracer.emit("syscall", name or "nr%d" % number,
                           kernel.machine, pid=proc.pid)

    if name == "exit":
        return kernel.sys_exit(proc, d1)
    if name == "fork":
        return kernel.sys_fork(proc)
    if name == "read":
        data = kernel.sys_read(proc, d1, d3)
        _write_guest(kernel, proc, d2, data)
        return len(data)
    if name == "write":
        data = _read_guest(kernel, proc, d2, d3)
        return kernel.sys_write(proc, d1, data)
    if name == "open":
        return kernel.sys_open(proc, _read_str(kernel, proc, d1), d2, d3)
    if name == "creat":
        return kernel.sys_creat(proc, _read_str(kernel, proc, d1), d2)
    if name == "close":
        return kernel.sys_close(proc, d1)
    if name == "wait":
        pid, status = kernel.sys_wait(proc)
        if d1:
            import struct
            _write_guest(kernel, proc, d1, struct.pack("<i", status))
        return pid
    if name == "unlink":
        return kernel.sys_unlink(proc, _read_str(kernel, proc, d1))
    if name == "execve":
        path = _read_str(kernel, proc, d1)
        argv = _read_strvec(kernel, proc, d2)
        envp = _read_strvec(kernel, proc, d3) if d3 else None
        return kernel.sys_execve(proc, path, argv, envp)
    if name == "chdir":
        return kernel.sys_chdir(proc, _read_str(kernel, proc, d1))
    if name == "time":
        return kernel.sys_time(proc)
    if name == "sbrk":
        return kernel.sys_sbrk(proc, d1)
    if name == "stat":
        stat = kernel.sys_stat(proc, _read_str(kernel, proc, d1))
        _write_guest(kernel, proc, d2, _pack_stat(stat))
        return 0
    if name == "fstat":
        stat = kernel.sys_fstat(proc, d1)
        _write_guest(kernel, proc, d2, _pack_stat(stat))
        return 0
    if name == "lseek":
        return kernel.sys_lseek(proc, d1, d2, d3)
    if name == "getpid":
        return kernel.sys_getpid(proc)
    if name == "getpid_real":
        return kernel.sys_getpid_real(proc)
    if name == "getppid":
        return kernel.sys_getppid(proc)
    if name == "getuid":
        return kernel.sys_getuid(proc)
    if name == "geteuid":
        return kernel.sys_geteuid(proc)
    if name == "getgid":
        return kernel.sys_getgid(proc)
    if name == "getegid":
        return kernel.sys_getegid(proc)
    if name == "setreuid":
        return kernel.sys_setreuid(proc, d1, d2)
    if name == "kill":
        return kernel.sys_kill(proc, d1, d2)
    if name == "dup":
        return kernel.sys_dup(proc, d1)
    if name == "dup2":
        return kernel.sys_dup2(proc, d1, d2)
    if name == "pipe":
        rfd, wfd = kernel.sys_pipe(proc)
        import struct
        _write_guest(kernel, proc, d1, struct.pack("<ii", rfd, wfd))
        return 0
    if name == "signal":
        return kernel.sys_sigvec(proc, d1, d2)
    if name == "sigreturn":
        return kernel.sys_sigreturn(proc)
    if name == "ioctl":
        if d3:
            import struct
            arg = struct.unpack(
                "<i", _read_guest(kernel, proc, d3, 4))[0]
        else:
            arg = 0
        result = kernel.sys_ioctl(proc, d1, d2, arg)
        if d3 and result is not None:
            import struct
            _write_guest(kernel, proc, d3,
                         struct.pack("<i", result))
            return 0
        return result
    if name == "symlink":
        return kernel.sys_symlink(proc, _read_str(kernel, proc, d1),
                                  _read_str(kernel, proc, d2))
    if name == "readlink":
        target = kernel.sys_readlink(proc, _read_str(kernel, proc, d1))
        blob = target.encode("latin-1")[:max(0, d3)]
        _write_guest(kernel, proc, d2, blob)
        return len(blob)
    if name == "mkdir":
        return kernel.sys_mkdir(proc, _read_str(kernel, proc, d1), d2)
    if name == "sleep":
        return kernel.sys_sleep(proc, d1)
    if name == "gethostname":
        text = kernel.sys_gethostname(proc)
        blob = (text.encode("latin-1") + b"\x00")[:max(0, d2)]
        _write_guest(kernel, proc, d1, blob)
        return 0
    if name == "gethostname_real":
        text = kernel.sys_gethostname_real(proc)
        blob = (text.encode("latin-1") + b"\x00")[:max(0, d2)]
        _write_guest(kernel, proc, d1, blob)
        return 0
    if name == "set_oldids":
        return kernel.sys_set_oldids(proc, d1,
                                     _read_str(kernel, proc, d2))
    if name == "socket":
        return kernel.sys_socket(proc)
    if name == "bind":
        return kernel.sys_bind(proc, d1, d2)
    if name == "listen":
        return kernel.sys_listen(proc, d1)
    if name == "accept":
        return kernel.sys_accept(proc, d1)
    if name == "connect":
        return kernel.sys_connect(proc, d1,
                                  _read_str(kernel, proc, d2), d3)
    if name == "rest_proc":
        return kernel.sys_rest_proc(proc,
                                    _read_str(kernel, proc, d1),
                                    _read_str(kernel, proc, d2))
    if name == "getcwd":
        text = kernel.sys_getcwd(proc)
        blob = (text.encode("latin-1") + b"\x00")[:max(0, d2)]
        _write_guest(kernel, proc, d1, blob)
        return len(blob)
    if name == "isatty":
        return kernel.sys_isatty(proc, d1)
    if name == "trace_status":
        return kernel.sys_trace_status(proc)

    raise UnixError(EINVAL, "bad syscall %d" % number)


# -- native dispatch ------------------------------------------------------------------

#: request names native programs may use; each is served by the kernel
#: method ``sys_<name>`` with the request's remaining items as arguments
NATIVE_CALLS = frozenset({
    "open", "creat", "close", "read", "write", "lseek", "dup", "dup2",
    "chdir", "getcwd", "unlink", "mkdir", "symlink", "readlink",
    "ioctl", "isatty", "pipe", "exit", "wait", "getpid", "getpid_real",
    "getppid", "getuid", "geteuid", "getgid", "getegid", "setreuid",
    "kill", "sigvec", "sleep", "time", "gethostname",
    "gethostname_real", "set_oldids", "spawn", "getproctab",
    "proc_cpu_seconds", "socket", "bind", "listen", "accept",
    "connect", "execve", "rest_proc", "stat", "lstat", "fstat",
    "rsh_setup", "daemon_setup", "chmod", "chown", "access", "link",
    "rename", "read_timeout", "reap", "sysctl", "perf_note",
    "hb_start", "hb_status", "readdir", "trace_status", "trace_mark",
    "trace_span", "migstat", "vmcache", "statgauges", "critpath",
    "fault_point", "fault_data", "dump_ledger", "store_get",
})


def _request_lengths(handler):
    """The request lengths ``handler`` accepts: its name plus every
    argument after ``proc`` that it takes, with or without defaults."""
    function = inspect.unwrap(handler.__func__)
    code = function.__code__
    most = code.co_argcount - 1  # drop self and proc, count the name
    fewest = most - len(function.__defaults__ or ())
    if code.co_flags & inspect.CO_VARARGS:
        return range(fewest, sys.maxsize)
    return range(fewest, most + 1)


def native_table(kernel):
    """``kernel``'s dispatch table: request name -> (bound handler,
    accepted request lengths).  Built once per kernel, so a request
    costs one dict lookup and one range test."""
    table = {}
    for name in NATIVE_CALLS:
        handler = getattr(kernel, "sys_" + name)
        table[name] = (handler, _request_lengths(handler))
    return table


def native_request(kernel, proc, request):
    """Execute one yielded request from a native program."""
    if not isinstance(request, tuple) or not request:
        raise UnixError(EINVAL, "bad native request %r" % (request,))
    name = request[0]
    if kernel.tracer.enabled:
        kernel.tracer.emit("syscall", name, kernel.machine,
                           pid=proc.pid)
    try:
        handler, lengths = kernel.native_calls[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise UnixError(EINVAL,
                        "unknown native request %r" % (name,)) from None
    if len(request) not in lengths:
        raise UnixError(EINVAL, "%s: %d arguments"
                        % (name, len(request) - 1))
    return handler(proc, *request[1:])
