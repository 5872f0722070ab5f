"""The new ``rest_proc()`` system call.

Section 5.2's recipe, implemented step for step:

1. open the ``stackXXXXX`` file, checking access permissions and the
   magic number;
2. read the user credentials and the stack size;
3. set the global migration flag and the stack-size variable;
4. call ``execve()`` on the ``a.outXXXXX`` file with a null
   environment (the old environment lives in the dumped stack);
5. reset the flag so later execs behave normally;
6. establish the credentials read in step 2 (the *old* credentials
   were used for the exec permission check, so only the owner or the
   superuser can do this);
7. read in the stack contents and the registers;
8. read and establish the signal dispositions;
9. return — "at this point, the process running is a copy of the old
   process".

One defensive deviation: the stack file is parsed and validated in
full *before* the exec, because once the caller has been overlaid
there is nothing to return an error to.  The paper's kernel had the
same constraint implicitly (a truncated stack file after exec would
have been unrecoverable).
"""

from repro.errors import UnixError, EINVAL, ENOMEM
from repro.kernel.flow import ProcessOverlaid
from repro.obs import dump_migration_id


class RestProcSupport:
    """Mixin: the rest_proc() system call (self is the Kernel)."""

    def sys_rest_proc(self, proc, aout_path, stack_path):
        """Overlay ``proc`` with the dumped process.

        On success raises :class:`ProcessOverlaid`; "normally, there
        is no return from this system call".  If it *does* return (an
        exception carrying an errno), "either the system didn't have
        enough resources ... or something was wrong with the two
        files".
        """
        # the restart span covers reading the dump files (the
        # transfer, when they live on the source) and the overlay
        mig = dump_migration_id(aout_path, self.hostname)
        self.tracer.span_begin("restart", "rest_proc", mig,
                               self.machine, pid=proc.pid)
        try:
            self._rest_proc_body(proc, aout_path, stack_path)
        except ProcessOverlaid:
            self.machine.cluster.perf.metrics.inc(
                "restarts", host=self.hostname)
            self.tracer.span_end("restart", "rest_proc", mig,
                                 self.machine, ok=True, pid=proc.pid)
            raise
        except BaseException:
            self.tracer.span_end("restart", "rest_proc", mig,
                                 self.machine, ok=False, pid=proc.pid)
            raise

    def _rest_proc_body(self, proc, aout_path, stack_path):
        from repro.core.formats import StackInfo
        real0 = self.clock.now_us
        cpu0 = proc.cpu_us()

        # steps 1-2: open + verify + read credentials and stack size.
        # (kread_file performs the access check with the caller's
        # current credentials.)
        blob = self.kread_file(proc, stack_path)
        try:
            info = StackInfo.unpack(blob)
        except UnixError as err:
            raise UnixError(EINVAL, "stackXXXXX: %s" % err.context)

        # step 3: the global flag and the stack-size variable
        self.migrating = True
        self.migrate_stack_size = info.stack_size
        overlaid = False
        try:
            # step 4: exec the a.out with a null environment
            try:
                self.sys_execve(proc, aout_path, [aout_path], None)
            except ProcessOverlaid:
                overlaid = True
        finally:
            # step 5: "so that further calls to execve() will work"
            self.migrating = False
            self.migrate_stack_size = 0
        if not overlaid:  # pragma: no cover - execve raises or errors
            raise UnixError(EINVAL, "exec did not complete")

        try:
            self.fault_check("restproc.overlay", aout_path)
        except UnixError:
            # past the point of no return: the caller's image is gone,
            # so a mid-overlay failure can only kill the process (the
            # same discipline as the stack-collision check below)
            self.do_exit(proc, status=1)
            raise

        image = proc.image.image
        if image.stack_top - info.stack_size <= image.brk:
            # should have been caught by exec's allocation check
            self.do_exit(proc, status=1)
            raise UnixError(ENOMEM, "restored stack collides with data")

        # step 6: establish the old credentials
        proc.user.cred = info.cred.copy()

        # step 7: stack contents and registers
        if info.stack_manifest is not None:
            self._restore_chunked_stack(proc, image, info.stack_manifest,
                                        aout_path)
        else:
            image.restore_stack(info.stack)
            self.charge(self.costs.copy_byte_us * info.stack_size)
        image.regs.load_from(info.registers)
        # the overlay replaced text and stack wholesale; any decode
        # cache predating the overlay must not be resumed into
        image.invalidate_decode_cache()
        # a migrated process usually lands with text this cluster has
        # seen before: the shared code cache already holds its traces,
        # so the restart pays no recompilation (zero cache_rebuilds
        # for re-arrivals of unchanged text)
        if image._lazy is None:
            self.machine.cpu.warm_code_cache(image)
        if info.stack_manifest is not None and image.chunk_baseline is not None:
            # the stack manifest completes the re-dump baseline the
            # chunked exec started; every page is clean until the
            # process runs again
            from repro.kernel.dump import _baseline_entry
            image.chunk_baseline["stack"] = _baseline_entry(
                image.regs.sp, info.stack_manifest)
            image.clear_dirty()

        # step 8: signal dispositions
        sigstate = info.sigstate.copy()
        sigstate.pending = set()
        proc.user.sig = sigstate

        self.record_timing("rest_proc", self.clock.now_us - real0,
                           proc.cpu_us() - cpu0)
        self.log("rest_proc: pid %d resumed at pc=0x%x"
                 % (proc.pid, image.regs.pc))
        # the dump files have served their purpose; consuming them
        # here (a) keeps /usr/tmp clean without trusting user-level
        # cleanup and (b) gives migrate its success signal — the
        # a.outXXXXX file disappears exactly when the restart took
        self._consume_dump_files(proc, aout_path, stack_path)
        # step 9: "the process running is a copy of the old process"
        raise ProcessOverlaid()

    def _restore_chunked_stack(self, proc, image, manifest, aout_path):
        """Fill the restored stack from the chunk store.

        Eagerly unless ``lazy_restart`` is on, in which case the
        chunks stay pending and fault in on first touch — the
        ``fault_in`` span measures how long the deferred transfer
        trails the (much shorter) freeze window.
        """
        sp = image.stack_top - manifest.length
        if self.costs.lazy_restart:
            mig = dump_migration_id(aout_path, self.hostname)
            tracer, machine, pid = self.tracer, self.machine, proc.pid
            tracer.span_begin("restart", "fault_in", mig, machine, pid=pid)

            def _drained():
                tracer.span_end("restart", "fault_in", mig, machine,
                                ok=True, pid=pid)
            # covers the data chunks the chunked exec left pending too:
            # the span closes when the *last* chunk of either region
            # lands (immediately, if nothing is pending at all)
            image.add_lazy_region(sp, manifest,
                                  fetch=self.chunk_lazy_fetch,
                                  on_drained=_drained)
        else:
            blob = self.fetch_manifest(manifest)
            image.restore_stack(blob)
            self.charge(self.costs.copy_byte_us * manifest.length)

    def _consume_dump_files(self, proc, aout_path, stack_path):
        """Unlink the three dump files after a successful overlay."""
        head, sep, tail = stack_path.rpartition("/")
        paths = [aout_path, stack_path]
        if tail.startswith("stack"):
            paths.append(head + sep + "files" + tail[len("stack"):])
        for path in paths:
            self._kunlink_quiet(proc, path)
