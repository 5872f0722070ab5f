"""Outside-in host-time layer trace.

:func:`install` wraps the public entry points of each layer's module
from outside (no file under ``src/`` knows about it) and
:meth:`LayerTrace.remove` puts the originals back.  Every wrapped call
is a span; a layer's *self time* is its spans' duration minus the part
covered by spans of other layers nested inside them.  A call into the
layer that is already innermost is counted but opens no new span, which
leaves self time unchanged.

Time spent outside every span (the benchmark's own code between calls
into the system) is kept apart, so the share of a phase the named
layers cover can be reported.
"""

import functools
import importlib
import pkgutil
import sys
import time

#: layer -> [(module, class or None, entry points)]
LAYERS = {
    "machine.cluster": [("repro.machine.cluster", "Cluster",
                         ("run", "run_until"))],
    "machine.machine": [("repro.machine.machine", "Machine", ("step",))],
    "kernel.scheduler": [("repro.kernel.scheduler", "Scheduler",
                          ("run_slot",))],
    "vm.cpu": [("repro.vm.cpu", "CPU", ("run",))],
    "vm.predecode": [("repro.vm.predecode", None, ("compile_trace",))],
    "vm.assembler": [("repro.vm.assembler", None, ("assemble",))],
    "kernel.syscalls": [("repro.kernel.syscalls", None,
                         ("vm_syscall", "native_request"))],
    # native tools are generators: their resumptions are the spans
    "programs": [],
    "fs.namei": [("repro.fs.namei", "Namespace", ("resolve",))],
    "kernel.exec_": [("repro.kernel.kernel", "Kernel", ("sys_execve",))],
    "kernel.dump": [("repro.kernel.kernel", "Kernel", ("dump_process",))],
    "kernel.restproc": [("repro.kernel.kernel", "Kernel",
                         ("sys_rest_proc",))],
    "core.formats": [("repro.core.formats", cls, ("pack", "unpack"))
                     for cls in ("FilesInfo", "StackInfo",
                                 "ChunkManifest")],
    "net.network": [("repro.net.network", "Network",
                     ("deliver", "sock_create", "sock_bind", "sock_listen",
                      "sock_accept", "sock_connect", "sock_send",
                      "sock_recv", "sock_close"))],
    "store.chunkstore": [("repro.store.chunkstore", "ChunkStore",
                          ("put", "get"))],
}


def import_all():
    """Import every ``repro`` module, so that a wrapper is never bound
    by a module-level ``from ... import`` and outlives :func:`install`."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


class LayerTrace:
    """Per-layer self time and call counts, split by phase."""

    def __init__(self):
        self.phase = "setup"
        self.self_s = {}  #: (phase, layer or None) -> seconds
        self.calls = dict.fromkeys(LAYERS, 0)
        self._stack = [None]
        self._mark = time.perf_counter()
        self._restore = []

    def mark_phase(self, phase):
        self._charge(time.perf_counter())
        self.phase = phase

    def _charge(self, now):
        key = (self.phase, self._stack[-1])
        self.self_s[key] = self.self_s.get(key, 0.0) + now - self._mark
        self._mark = now

    def enter(self, layer):
        self._charge(time.perf_counter())
        self._stack.append(layer)

    def leave(self):
        self._charge(time.perf_counter())
        self._stack.pop()

    def layer_self_s(self, layer):
        """Self time of ``layer`` over every phase."""
        return sum(seconds for (__, name), seconds in self.self_s.items()
                   if name == layer)

    def covered_s(self, phase):
        """Time of ``phase`` spent inside some named layer."""
        return sum(seconds for (when, name), seconds in self.self_s.items()
                   if when == phase and name is not None)

    def remove(self):
        """Put back every entry point :func:`install` wrapped."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _span(trace, layer, fn):
    stack = trace._stack
    calls = trace.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[layer] += 1
        if stack[-1] == layer:
            return fn(*args, **kwargs)
        trace.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            trace.leave()
    return wrapper


class _TracedGenerator:
    """A native tool's generator whose every resumption is a span."""

    __slots__ = ("_generator", "_trace")

    def __init__(self, generator, trace):
        self._generator = generator
        self._trace = trace

    def send(self, value):
        trace = self._trace
        trace.calls["programs"] += 1
        trace.enter("programs")
        try:
            return self._generator.send(value)
        finally:
            trace.leave()


def _patch(trace, owner, attr, replacement):
    trace._restore.append((owner, attr, vars(owner)[attr]))
    setattr(owner, attr, replacement)


def install():
    """Wrap every layer's entry points; returns the live trace."""
    import_all()
    trace = LayerTrace()
    modules = [module for name, module in sorted(sys.modules.items())
               if name == "repro" or name.startswith("repro.")]
    for layer, targets in LAYERS.items():
        for module_name, class_name, entries in targets:
            module = importlib.import_module(module_name)
            if class_name is None:
                for entry in entries:
                    original = getattr(module, entry)
                    wrapped = _span(trace, layer, original)
                    # rebind every module that imported the function
                    for other in modules:
                        if getattr(other, entry, None) is original:
                            _patch(trace, other, entry, wrapped)
                continue
            cls = getattr(module, class_name)
            for entry in entries:
                # patch the class that defines the method, so an
                # inherited method is restored in place, not shadowed
                owner = next(klass for klass in cls.__mro__
                             if entry in vars(klass))
                raw = vars(owner)[entry]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(_span(trace, layer, raw.__func__))
                else:
                    wrapped = _span(trace, layer, raw)
                _patch(trace, owner, entry, wrapped)

    from repro.kernel.proc import NativeState
    start = NativeState.start

    def traced_start(state):
        start(state)
        state.generator = _TracedGenerator(state.generator, trace)
    _patch(trace, NativeState, "start", traced_start)
    return trace
