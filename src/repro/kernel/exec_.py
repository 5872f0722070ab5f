"""``execve()`` — including the paper's migration-flag modification.

"The execve() system call has been slightly modified, to check a
global flag which, if set, indicates that it is called from within
rest_proc().  In that case, instead of calculating how much initial
stack to allocate for the process, based on the command line arguments
and the environment, it simply allocates as many bytes as are
indicated in another global variable."

Two binary formats are understood:

* real ``a.out`` executables (VM programs, and ``a.outXXXXX`` dumps);
* native system programs: a file beginning ``#!native <name>`` whose
  implementation is a registered Python generator.  These stand in for
  compiled user-level tools (dumpproc, restart, rsh, ...).

Exec does **not** check the a.out machine id against the CPU — real
4.2BSD loaders didn't either — so running a Sun-3 binary on a Sun-2
succeeds at exec time and dies with SIGILL at the first 68020-only
instruction, exactly the crash mode of the paper's section 7.
"""

from repro.errors import UnixError, EACCES, ENOEXEC, ENOMEM, E2BIG
from repro.fs.paths import basename
from repro.kernel.flow import ProcessOverlaid
from repro.kernel.proc import NativeState, VMImageState
from repro.vm.aout import parse_aout, AOutHeader, AOUT_FLAG_CHUNKED
from repro.vm.image import ProcessImage, DEFAULT_MEM_SIZE

NATIVE_MAGIC = b"#!native "

#: stack space reserved for the argument/environment block
ARG_MAX = 8192


class ExecSupport:
    """Mixin: program loading (self is the Kernel)."""

    def sys_execve(self, proc, path, argv, envp=None):
        """Overlay ``proc`` with the program at ``path``.

        ``argv`` is a list of strings; ``envp`` a list of ``"K=V"``
        strings or None.  On success raises :class:`ProcessOverlaid`
        (there is no return to the old image); on failure raises
        :class:`~repro.errors.UnixError` and the caller continues.
        """
        real0 = self.clock.now_us
        cpu0 = proc.cpu_us()

        resolved = self.namei(proc, path)
        inode = resolved.inode
        if not inode.is_reg():
            raise UnixError(EACCES, path)
        if not inode.check_access(proc.user.cred, want_exec=True):
            raise UnixError(EACCES, path)
        site = "fs.read" if self.fs_is_local(resolved.fs) else "nfs.read"
        self.fault_check(site, path)
        data = bytes(inode.data)
        data = self.fault_filter(site, data, path)
        self.io_charge(resolved.fs, max(1, len(data)))

        if data.startswith(NATIVE_MAGIC):
            self._exec_native(proc, path, data, argv, envp)
        else:
            self._exec_aout(proc, path, data, argv, envp)

        self.charge(self.costs.exec_base_us)
        self.record_timing("execve", self.clock.now_us - real0,
                           proc.cpu_us() - cpu0)
        raise ProcessOverlaid()

    # -- native programs ----------------------------------------------------

    def _exec_native(self, proc, path, data, argv, envp):
        name = data[len(NATIVE_MAGIC):].split(b"\n", 1)[0] \
            .decode("latin-1").strip()
        factory = self.machine.programs.get(name)
        if factory is None:
            raise UnixError(ENOEXEC, "unregistered native program %r"
                            % name)
        env = {}
        for item in envp or []:
            key, __, value = item.partition("=")
            env[key] = value
        proc.image = NativeState(name, factory,
                                 list(argv) if argv else [name], env)
        proc.command = name
        proc.user.sig.exec_reset()

    # -- a.out programs ------------------------------------------------------

    def _exec_aout(self, proc, path, data, argv, envp):
        if AOutHeader.unpack(data).flags & AOUT_FLAG_CHUNKED:
            # an incremental dump: segments live in the chunk store
            return self._exec_chunked_aout(proc, path, data, argv, envp)
        header, text, segment = parse_aout(data)
        image = ProcessImage(DEFAULT_MEM_SIZE)
        total = (image.text_base + header.text_size + header.data_size
                 + header.bss_size)
        if total + ARG_MAX >= image.mem_size:
            raise UnixError(ENOMEM, "program too large")

        image.text_size = header.text_size
        image.data_size = header.data_size
        image.bss_size = header.bss_size
        image.machine_id = header.machine_id
        image.entry = header.entry
        image.write_bytes(image.text_base, text)
        image.write_bytes(image.data_base, segment)
        self.charge(self.costs.copy_byte_us * (len(text) + len(segment)))
        if header.bss_size:
            self.charge(self.costs.zero_byte_us * header.bss_size)
        image.brk = image.data_base + header.data_size + header.bss_size

        self._finish_exec_image(proc, path, image, header, argv, envp)

    def _exec_chunked_aout(self, proc, path, data, argv, envp):
        """Load an incremental (manifest-bearing) a.outXXXXX.

        Text restores eagerly — the process resumes executing it
        immediately, and sharing it through the store is what dedupes
        migrations of processes running the same binary.  The data
        segment restores eagerly too unless ``lazy_restart`` is on,
        in which case its chunks stay pending and fault in on first
        touch, charged at access time instead of here.
        """
        from repro.core.formats import unpack_chunked_aout
        from repro.kernel.dump import _baseline_entry
        header, text_man, data_man = unpack_chunked_aout(data)
        image = ProcessImage(DEFAULT_MEM_SIZE)
        total = (image.text_base + header.text_size + header.data_size
                 + header.bss_size)
        if total + ARG_MAX >= image.mem_size:
            raise UnixError(ENOMEM, "program too large")

        image.text_size = header.text_size
        image.data_size = header.data_size
        image.bss_size = header.bss_size
        image.machine_id = header.machine_id
        image.entry = header.entry
        text = self.fetch_manifest(text_man)
        image.write_bytes(image.text_base, text)
        self.charge(self.costs.copy_byte_us * len(text))
        if self.costs.lazy_restart:
            image.add_lazy_region(image.data_base, data_man,
                                  fetch=self.chunk_lazy_fetch)
        else:
            segment = self.fetch_manifest(data_man)
            image.write_bytes(image.data_base, segment)
            self.charge(self.costs.copy_byte_us * len(segment))
        if header.bss_size:
            self.charge(self.costs.zero_byte_us * header.bss_size)
        image.brk = image.data_base + header.data_size + header.bss_size
        # the manifests double as the image's re-dump baseline; every
        # page is clean until the process runs (rest_proc re-clears
        # after it fills the stack in)
        image.chunk_baseline = {
            "text": _baseline_entry(image.text_base, text_man),
            "data": _baseline_entry(image.data_base, data_man),
        }
        self._finish_exec_image(proc, path, image, header, argv, envp)
        image.clear_dirty()

    def _finish_exec_image(self, proc, path, image, header, argv, envp):
        if self.migrating:
            # the modification: allocate exactly the dumped stack size;
            # rest_proc() fills the contents in afterwards
            size = self.migrate_stack_size
            if image.stack_top - size <= image.brk:
                raise UnixError(ENOMEM, "restored stack too large")
            image.regs.clear()
            image.regs.sp = image.stack_top - size
        else:
            image.regs.clear()
            self._build_arg_block(image, argv or [path], envp or [])
        image.regs.pc = header.entry
        # exec is a whole-image transition: no stale predecoded
        # instructions may survive into the new program
        image.invalidate_decode_cache()
        # ... but the new program's text may already be compiled in the
        # shared content-keyed code cache (a re-exec, or a binary a
        # peer already ran before a migration) — account the arrival
        # now so warm-vs-cold lands in telemetry at exec time
        if image._lazy is None:
            self.machine.cpu.warm_code_cache(image)

        proc.image = VMImageState(image)
        proc.command = basename(path)
        proc.user.sig.exec_reset()

    @staticmethod
    def _build_arg_block(image, argv, envp):
        """Lay out args and environment at the top of the stack.

        Layout (top down): the string bytes, then the envp pointer
        array (NULL terminated), the argv pointer array (NULL
        terminated), and finally argc at the stack pointer.  Because
        the whole block lives *in the stack*, it is captured by the
        stack dump and "automatically restored when the stack is read
        in" — which is how the environment survives migration.
        """
        pos = image.stack_top
        addresses = {}
        for text in list(argv) + list(envp):
            blob = text.encode("latin-1") + b"\x00"
            pos -= len(blob)
            if image.stack_top - pos > ARG_MAX:
                raise UnixError(E2BIG)
            image.write_bytes(pos, blob)
            addresses[id(text)] = pos
        pos &= ~3  # align

        words = []
        words.append(len(argv))
        words.extend(addresses[id(a)] for a in argv)
        words.append(0)
        words.extend(addresses[id(e)] for e in envp)
        words.append(0)
        pos -= 4 * len(words)
        sp = pos
        for word in words:
            image.write_i32(pos, word)
            pos += 4
        image.regs.sp = sp
