"""File, descriptor, terminal, pipe and socket system calls.

This module contains the paper's **kernel modifications** (section
5.1):

* ``open()``/``creat()`` record the absolute path name of the opened
  file in a dynamically-allocated string hung off the file structure
  (relative names are combined with the cwd name from the user
  structure);
* ``close()`` frees that string;
* ``chdir()`` maintains the fixed-size cwd-name field in the user
  structure (absolute arguments replace it, relative ones are
  combined with the old value; the update is skipped until the field
  has been initialised by a first absolute ``chdir()``).

All of this is conditional on ``costs.track_names`` so the unmodified
kernel of Figure 1's baseline is one configuration flag away, and the
extra work is *charged* (allocator calls, per-byte string handling) so
the overhead is measured rather than asserted.
"""

from repro.errors import (UnixError, EACCES, EBADF, EEXIST, EINVAL,
                          EISDIR, ENOENT, ENOTDIR, ENOTTY, EPERM,
                          EPIPE, ESPIPE, ENOTSOCK, ENAMETOOLONG)
from repro.fs.paths import is_absolute, joinpath, normalize
from repro.kernel.constants import (O_ACCMODE, O_APPEND, O_CREAT,
                                    O_EXCL, O_RDONLY, O_TRUNC,
                                    O_WRONLY, open_mode_readable,
                                    open_mode_writable, SEEK_CUR,
                                    SEEK_END, SEEK_SET, TIOCGETP,
                                    TIOCSETP, MAXPATH)
from repro.kernel.filetable import FFILE, FPIPE, FSOCKET, PipeBuffer
from repro.kernel.flow import WouldBlock
from repro.kernel.signals import SIGPIPE


class FileSyscalls:
    """Mixin: file-related system calls (self is the Kernel)."""

    # -- name tracking (the paper's modification) --------------------------

    def _absolute_name(self, proc, path):
        """Combine ``path`` with the stored cwd name, lexically."""
        if is_absolute(path):
            return normalize(path)
        base = proc.user.cwd_name or "/"
        return joinpath(base, path)

    def _track_open_name(self, proc, entry, path):
        """open()/creat() half of the modification."""
        costs = self.costs
        if not costs.track_names:
            return
        name = self._absolute_name(proc, path)
        # kernel malloc for the dynamic string, copyin of the argument,
        # the cwd combine, and the copy into the allocated buffer (one
        # copy more than chdir, which writes its fixed field in place —
        # hence open's higher Figure 1 overhead, 44% vs 36%)
        self.charge(costs.kmem_alloc_us
                    + costs.kstring_byte_us * (len(path)
                                               + 2 * len(name)))
        self.files.set_name(entry, name)

    def _untrack_name(self, entry):
        """close() half: the dynamic string is freed with the entry."""
        if self.costs.track_names and entry.name is not None \
                and entry.refcount == 1:
            self.charge(self.costs.kmem_free_us)

    # -- open/creat/close ------------------------------------------------------

    def sys_open(self, proc, path, flags, mode=0o644):
        if len(path) >= MAXPATH:
            raise UnixError(ENAMETOOLONG, path)
        cred = proc.user.cred
        want_parent = bool(flags & O_CREAT)
        resolved = self.namei(proc, path, want_parent=want_parent)
        created = False
        if resolved.inode is None:
            # O_CREAT and the file does not exist
            if not resolved.parent.check_access(cred, want_write=True):
                raise UnixError(EACCES, path)
            inode = resolved.parent_fs.create(
                resolved.parent, resolved.name, mode=mode & 0o777,
                uid=cred.euid, gid=cred.egid)
            fs = resolved.parent_fs
            self.meta_charge(fs)
            created = True
        else:
            inode = resolved.inode
            fs = resolved.fs
            if flags & O_CREAT and flags & O_EXCL:
                raise UnixError(EEXIST, path)
        if inode.is_dir() and open_mode_writable(flags):
            raise UnixError(EISDIR, path)
        if inode.is_link():
            raise UnixError(EINVAL, "open of unfollowed symlink")
        if not created:
            if open_mode_readable(flags) and not inode.check_access(
                    cred, want_read=True):
                raise UnixError(EACCES, path)
            if open_mode_writable(flags) and not inode.check_access(
                    cred, want_write=True):
                raise UnixError(EACCES, path)
        if flags & O_TRUNC and inode.is_reg() and not created:
            fs.truncate(inode)
            self.meta_charge(fs)
        if inode.is_chr():
            # opening /dev/tty with no controlling terminal fails now,
            # not at first use (rsh-spawned processes have none)
            self.device_channel(proc, inode)

        entry = self.files.alloc(FFILE)
        entry.fs = fs
        entry.inode = inode
        entry.flags = flags
        entry.offset = inode.size if flags & O_APPEND else 0
        self.charge(self.costs.filetable_op_us + self.costs.inode_op_us)
        fd = proc.user.fd_alloc(entry)
        self._track_open_name(proc, entry, path)
        return fd

    def sys_creat(self, proc, path, mode=0o644):
        """creat() "simply calls the same internal routine that
        open() calls, with slightly different arguments"."""
        return self.sys_open(proc, path, O_WRONLY | O_CREAT | O_TRUNC,
                             mode)

    def sys_close(self, proc, fd):
        entry = proc.user.fd_lookup(fd)
        proc.user.ofile[fd] = None
        self._release_entry(entry)
        self.charge(self.costs.filetable_op_us)
        return 0

    def _release_entry(self, entry):
        self._untrack_name(entry)
        if entry.ftype == FPIPE and entry.refcount == 1:
            buffer, role = entry.pipe
            if role == "r":
                buffer.readers -= 1
            else:
                buffer.writers -= 1
            self.wakeup(buffer)
        if entry.ftype == FSOCKET and entry.refcount == 1 \
                and entry.socket is not None:
            self.machine.cluster.network.sock_close(self.machine,
                                                    entry.socket)
        self.files.release(entry)

    # -- read/write/seek ----------------------------------------------------------

    def sys_read(self, proc, fd, nbytes):
        entry = proc.user.fd_lookup(fd)
        if not open_mode_readable(entry.flags) \
                and entry.ftype == FFILE and not entry.is_device():
            raise UnixError(EBADF, "fd %d not open for reading" % fd)
        if nbytes <= 0:
            return b""

        if entry.ftype == FSOCKET:
            data = self.machine.cluster.network.sock_recv(
                self.machine, entry.socket, nbytes)
            self.charge(self.costs.net_byte_us * len(data))
            return data
        if entry.ftype == FPIPE:
            return self._pipe_read(entry, nbytes)
        if entry.is_device():
            chan = self.device_channel(proc, entry.inode)
            data = chan.read(nbytes)
            if data is None:
                raise WouldBlock(chan)
            self.charge(self.costs.tty_char_us * max(1, len(data)))
            return data
        self.fs_check_reachable(entry.fs)
        site = "fs.read" if self.fs_is_local(entry.fs) else "nfs.read"
        self.fault_check(site, entry.name or "")
        data = entry.fs.read(entry.inode, entry.offset, nbytes)
        data = self.fault_filter(site, data, entry.name or "")
        self.io_charge(entry.fs, max(1, len(data)))
        entry.offset += len(data)
        return data

    def sys_read_timeout(self, proc, fd, nbytes, timeout_s):
        """``read()`` that fails with ``ETIMEDOUT`` instead of
        sleeping past a deadline.

        The deadline is set on the first blocked attempt and armed as
        a wakeup event, so the sleeping reader is re-run at expiry
        even if no data ever arrives; the usual sleep/retry discipline
        then re-executes the whole call, which notices the deadline
        has passed.  A successful read clears the deadline.
        """
        from repro.errors import ETIMEDOUT
        deadlines = proc.io_deadlines
        try:
            data = self.sys_read(proc, fd, nbytes)
        except WouldBlock as blocked:
            now = self.clock.now_us
            deadline = deadlines.get(fd)
            if deadline is None:
                deadlines[fd] = now + timeout_s * 1_000_000
                channel = blocked.channel
                self.machine.post_event(deadlines[fd],
                                        lambda: self.wakeup(channel))
            elif now >= deadline:
                del deadlines[fd]
                self.machine.cluster.perf.note("timeouts")
                raise UnixError(ETIMEDOUT,
                                "read on fd %d" % fd) from None
            raise
        deadlines.pop(fd, None)
        return data

    def sys_write(self, proc, fd, data):
        if isinstance(data, str):
            data = data.encode("latin-1")
        entry = proc.user.fd_lookup(fd)
        if not open_mode_writable(entry.flags) \
                and entry.ftype == FFILE and not entry.is_device():
            raise UnixError(EBADF, "fd %d not open for writing" % fd)

        if entry.ftype == FSOCKET:
            count = self.machine.cluster.network.sock_send(
                self.machine, entry.socket, data)
            self.charge(self.costs.net_byte_us * len(data))
            return count
        if entry.ftype == FPIPE:
            return self._pipe_write(proc, entry, data)
        if entry.is_device():
            chan = self.device_channel(proc, entry.inode)
            count = chan.write(data)
            self.charge(self.costs.tty_char_us * max(1, len(data)))
            return count
        self.fs_check_reachable(entry.fs)
        if entry.flags & O_APPEND:
            entry.offset = entry.inode.size
        count = entry.fs.write(entry.inode, entry.offset, data)
        self.io_charge(entry.fs, max(1, count), write=True)
        entry.offset += count
        return count

    def sys_lseek(self, proc, fd, offset, whence=SEEK_SET):
        entry = proc.user.fd_lookup(fd)
        if entry.ftype != FFILE or entry.is_device():
            raise UnixError(ESPIPE, "seek on non-file")
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = entry.offset + offset
        elif whence == SEEK_END:
            new = entry.inode.size + offset
        else:
            raise UnixError(EINVAL, "whence %d" % whence)
        if new < 0:
            raise UnixError(EINVAL, "negative offset")
        entry.offset = new
        return new

    # -- pipes ----------------------------------------------------------------------

    def sys_pipe(self, proc):
        buffer = PipeBuffer()
        buffer.readers = 1
        buffer.writers = 1
        rend = self.files.alloc(FPIPE)
        rend.pipe = (buffer, "r")
        rend.flags = O_RDONLY
        wend = self.files.alloc(FPIPE)
        wend.pipe = (buffer, "w")
        wend.flags = O_WRONLY
        rfd = proc.user.fd_alloc(rend)
        wfd = proc.user.fd_alloc(wend)
        self.charge(2 * self.costs.filetable_op_us)
        return rfd, wfd

    def _pipe_read(self, entry, nbytes):
        buffer, role = entry.pipe
        if role != "r":
            raise UnixError(EBADF, "read on pipe write end")
        if buffer.data:
            take = min(nbytes, len(buffer.data))
            data = bytes(buffer.data[:take])
            del buffer.data[:take]
            self.wakeup(buffer)
            self.charge(self.costs.copy_byte_us * take)
            return data
        if buffer.writers == 0:
            return b""
        raise WouldBlock(buffer)

    def _pipe_write(self, proc, entry, data):
        buffer, role = entry.pipe
        if role != "w":
            raise UnixError(EBADF, "write on pipe read end")
        if buffer.readers == 0:
            self.post_signal(proc, SIGPIPE)
            raise UnixError(EPIPE)
        space = buffer.space()
        if space <= 0:
            raise WouldBlock(buffer)
        take = min(space, len(data))
        buffer.data.extend(data[:take])
        self.wakeup(buffer)
        self.charge(self.costs.copy_byte_us * take)
        return take

    # -- descriptor duplication -------------------------------------------------------

    def sys_dup(self, proc, fd):
        entry = proc.user.fd_lookup(fd)
        entry.refcount += 1
        new = proc.user.fd_alloc(entry)
        self.charge(self.costs.filetable_op_us)
        return new

    def sys_dup2(self, proc, fd, fd2):
        entry = proc.user.fd_lookup(fd)
        from repro.kernel.constants import NOFILE
        if not 0 <= fd2 < NOFILE:
            raise UnixError(EBADF, "fd2 %d" % fd2)
        if fd == fd2:
            return fd2
        if proc.user.ofile[fd2] is not None:
            self.sys_close(proc, fd2)
        entry.refcount += 1
        proc.user.ofile[fd2] = entry
        self.charge(self.costs.filetable_op_us)
        return fd2

    # -- chdir (the other half of the modification) ------------------------------------

    def sys_chdir(self, proc, path):
        resolved = self.namei(proc, path)
        if not resolved.inode.is_dir():
            raise UnixError(ENOTDIR, path)
        if not resolved.inode.check_access(proc.user.cred,
                                           want_exec=True):
            raise UnixError(EACCES, path)
        proc.user.cdir = (resolved.fs, resolved.inode)
        costs = self.costs
        if costs.track_names:
            # copyin of the argument string
            self.charge(costs.kstring_byte_us * len(path))
            if is_absolute(path):
                name = normalize(path)
                self.charge(costs.kstring_byte_us * len(name))
                proc.user.set_cwd_name(name)
            elif proc.user.cwd_name:
                name = joinpath(proc.user.cwd_name, path)
                self.charge(costs.kstring_byte_us * len(name))
                proc.user.set_cwd_name(name)
            # else: field not initialised yet; skip the update
        return 0

    def sys_getcwd(self, proc):
        """Return the kernel-tracked cwd name.

        Not in the paper's kernel (4.2BSD's getwd() was a library
        routine walking ".."); exposed here because the tracked name
        exists anyway.  Fails on the unmodified kernel.
        """
        if not self.costs.track_names or not proc.user.cwd_name:
            raise UnixError(EINVAL, "cwd name not tracked")
        return proc.user.cwd_name

    # -- metadata ------------------------------------------------------------------------

    def sys_stat(self, proc, path, follow=True):
        resolved = self.namei(proc, path, follow=follow)
        self.charge(self.costs.inode_op_us)
        return resolved.inode.stat(dev=resolved.fs.hostname)

    def sys_lstat(self, proc, path):
        """stat() that does not follow a final symbolic link."""
        return self.sys_stat(proc, path, follow=False)

    def sys_fstat(self, proc, fd):
        entry = proc.user.fd_lookup(fd)
        self.charge(self.costs.inode_op_us)
        if entry.inode is None:
            from repro.fs.inode import Stat
            return Stat(0, 0, 0, 0, 0, 0, 0, self.hostname)
        return entry.inode.stat(dev=entry.fs.hostname
                                if entry.fs else self.hostname)

    def sys_readdir(self, proc, path):
        """List a directory's entry names, sorted.

        The whole listing is returned at once (a native-program
        convenience; the VM side has no getdents), charged as one
        block read of the directory.
        """
        resolved = self.namei(proc, path)
        inode = resolved.inode
        if not inode.is_dir():
            raise UnixError(ENOTDIR, path)
        if not inode.check_access(proc.user.cred, want_read=True):
            raise UnixError(EACCES, path)
        names = tuple(sorted(resolved.fs.entry_names(inode)))
        self.io_charge(resolved.fs, max(1, sum(map(len, names))))
        return names

    def sys_unlink(self, proc, path):
        resolved = self.namei(proc, path, follow=False,
                              want_parent=True)
        if resolved.inode is None:
            raise UnixError(ENOENT, path)
        if not resolved.parent.check_access(proc.user.cred,
                                            want_write=True):
            raise UnixError(EACCES, path)
        resolved.parent_fs.unlink(resolved.parent, resolved.name)
        self.meta_charge(resolved.parent_fs)
        return 0

    def sys_mkdir(self, proc, path, mode=0o755):
        resolved = self.namei(proc, path, want_parent=True)
        if resolved.inode is not None:
            raise UnixError(EEXIST, path)
        if not resolved.parent.check_access(proc.user.cred,
                                            want_write=True):
            raise UnixError(EACCES, path)
        cred = proc.user.cred
        resolved.parent_fs.mkdir(resolved.parent, resolved.name,
                                 mode=mode & 0o777, uid=cred.euid,
                                 gid=cred.egid)
        self.meta_charge(resolved.parent_fs)
        return 0

    def sys_symlink(self, proc, target, path):
        resolved = self.namei(proc, path, want_parent=True)
        if resolved.inode is not None:
            raise UnixError(EEXIST, path)
        if not resolved.parent.check_access(proc.user.cred,
                                            want_write=True):
            raise UnixError(EACCES, path)
        cred = proc.user.cred
        resolved.parent_fs.symlink(resolved.parent, resolved.name,
                                   target, uid=cred.euid, gid=cred.egid)
        self.meta_charge(resolved.parent_fs)
        return 0

    def sys_chmod(self, proc, path, mode):
        resolved = self.namei(proc, path)
        cred = proc.user.cred
        if not cred.is_superuser() and cred.euid != resolved.inode.uid:
            raise UnixError(EPERM, path)
        resolved.inode.mode = mode & 0o7777
        self.meta_charge(resolved.fs)
        return 0

    def sys_chown(self, proc, path, uid, gid):
        resolved = self.namei(proc, path)
        if not proc.user.cred.is_superuser():
            raise UnixError(EPERM, path)  # BSD: chown is root-only
        if uid != -1:
            resolved.inode.uid = uid
        if gid != -1:
            resolved.inode.gid = gid
        self.meta_charge(resolved.fs)
        return 0

    def sys_access(self, proc, path, mode):
        """Check permissions against the *real* uid (like access(2));
        mode bits: 4 read, 2 write, 1 exec, 0 existence."""
        resolved = self.namei(proc, path)
        cred = proc.user.cred
        real = type(cred)(cred.uid, cred.gid, cred.uid, cred.gid)
        if not resolved.inode.check_access(
                real, want_read=bool(mode & 4),
                want_write=bool(mode & 2), want_exec=bool(mode & 1)):
            raise UnixError(EACCES, path)
        self.charge(self.costs.inode_op_us)
        return 0

    def sys_link(self, proc, target, path):
        """Hard link (same filesystem only, like the real thing)."""
        source = self.namei(proc, target)
        if source.inode.is_dir():
            raise UnixError(EISDIR, target)
        destination = self.namei(proc, path, want_parent=True)
        if destination.inode is not None:
            raise UnixError(EEXIST, path)
        if destination.parent_fs is not source.fs:
            from repro.errors import EXDEV
            raise UnixError(EXDEV, "%s -> %s" % (path, target))
        if not destination.parent.check_access(proc.user.cred,
                                               want_write=True):
            raise UnixError(EACCES, path)
        destination.parent.entries[destination.name] = source.inode
        source.inode.nlink += 1
        self.meta_charge(source.fs)
        return 0

    def sys_rename(self, proc, old, new):
        source = self.namei(proc, old, follow=False, want_parent=True)
        if source.inode is None:
            raise UnixError(ENOENT, old)
        destination = self.namei(proc, new, want_parent=True)
        cred = proc.user.cred
        if not source.parent.check_access(cred, want_write=True) or \
                not destination.parent.check_access(cred,
                                                    want_write=True):
            raise UnixError(EACCES, new)
        if destination.parent_fs is not source.parent_fs:
            from repro.errors import EXDEV
            raise UnixError(EXDEV, "%s -> %s" % (old, new))
        if destination.inode is not None:
            if destination.inode.is_dir():
                raise UnixError(EISDIR, new)
            del destination.parent.entries[destination.name]
        del source.parent.entries[source.name]
        destination.parent.entries[destination.name] = source.inode
        source.inode.parent = destination.parent
        self.meta_charge(source.parent_fs)
        return 0

    def sys_readlink(self, proc, path):
        """Returns the link target (the Sun 3.0 call the user tools
        iterate to resolve symbolic links)."""
        resolved = self.namei(proc, path, follow=False)
        if not resolved.inode.is_link():
            raise UnixError(EINVAL, "%s is not a symlink" % path)
        self.charge(self.costs.inode_op_us)
        return resolved.inode.target

    # -- terminal control ---------------------------------------------------------------

    def _terminal_channel(self, proc, fd):
        entry = proc.user.fd_lookup(fd)
        if entry.is_device():
            chan = self.device_channel(proc, entry.inode)
            if hasattr(chan, "get_flags"):
                return chan
        raise UnixError(ENOTTY, "fd %d" % fd)

    def sys_ioctl(self, proc, fd, request, arg=0):
        chan = self._terminal_channel(proc, fd)
        self.charge(self.costs.tty_ioctl_us)
        if request == TIOCGETP:
            return chan.get_flags()
        if request == TIOCSETP:
            chan.set_flags(arg)
            return 0
        raise UnixError(EINVAL, "ioctl 0x%x" % request)

    def sys_isatty(self, proc, fd):
        entry = proc.user.fd_lookup(fd)
        if entry.is_device():
            chan = self.device_channel(proc, entry.inode)
            return 1 if getattr(chan, "isatty", lambda: False)() else 0
        return 0

    # -- sockets --------------------------------------------------------------------------

    def _socket_entry(self, proc, fd):
        entry = proc.user.fd_lookup(fd)
        if entry.ftype != FSOCKET or entry.socket is None:
            raise UnixError(ENOTSOCK, "fd %d" % fd)
        return entry

    def sys_socket(self, proc):
        network = self.machine.cluster.network
        entry = self.files.alloc(FSOCKET)
        entry.socket = network.sock_create(self.machine)
        entry.flags = 2  # O_RDWR
        fd = proc.user.fd_alloc(entry)
        self.charge(self.costs.filetable_op_us)
        return fd

    def sys_bind(self, proc, fd, port):
        entry = self._socket_entry(proc, fd)
        self.machine.cluster.network.sock_bind(self.machine,
                                               entry.socket, port)
        return 0

    def sys_listen(self, proc, fd):
        entry = self._socket_entry(proc, fd)
        self.machine.cluster.network.sock_listen(self.machine,
                                                 entry.socket)
        return 0

    def sys_accept(self, proc, fd):
        entry = self._socket_entry(proc, fd)
        conn = self.machine.cluster.network.sock_accept(self.machine,
                                                        entry.socket)
        new_entry = self.files.alloc(FSOCKET)
        new_entry.socket = conn
        new_entry.flags = 2
        return proc.user.fd_alloc(new_entry)

    def sys_connect(self, proc, fd, host, port):
        entry = self._socket_entry(proc, fd)
        self.machine.cluster.network.sock_connect(self.machine,
                                                  entry.socket, host,
                                                  port)
        return 0
