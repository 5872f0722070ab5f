"""The native system-call path: table dispatch, argument checks,
free ``sysctl0`` reads, signal checks between requests, clock charging
and the assembled-image cache."""

import pytest

from repro.errors import EINVAL
from repro.fs.inode import IFLNK
from repro.kernel.signals import SIGTERM
from tests.conftest import run_native


def test_malformed_requests_fail_only_that_call(brick, cluster):
    out = []

    def prog(argv, env):
        out.append((yield ("frobnicate", 1)))  # unknown name
        out.append((yield "getpid"))  # not a tuple
        out.append((yield ()))  # empty
        out.append((yield ("lstat",)))  # too few arguments
        out.append((yield ("close",)))
        out.append((yield ("getpid", 1)))  # too many
        out.append((yield ([], 1)))  # unhashable name
        out.append((yield ("sysctl0", [])))  # unhashable knob
        out.append((yield ("getpid",)))
        return 0

    handle = run_native(brick, prog)
    assert out[:8] == [-EINVAL] * 8
    assert out[8] == handle.pid
    assert handle.exit_status == 0
    # the cluster is still alive and runs the next program
    again = run_native(brick, prog, name="again")
    assert again.exit_status == 0


def test_optional_arguments_are_accepted(brick, cluster):
    out = []

    def prog(argv, env):
        out.append((yield ("stat", "/tmp")))
        out.append((yield ("stat", "/tmp", False)))
        out.append((yield ("stat", "/tmp", False, 1)))
        return 0

    run_native(brick, prog)
    assert out[0].ino == out[1].ino
    assert out[2] == -EINVAL


def test_lstat_does_not_follow_a_final_symlink(brick, cluster):
    out = []

    def prog(argv, env):
        yield ("mkdir", "/tmp/target", 0o755)
        yield ("symlink", "/tmp/target", "/tmp/link")
        out.append((yield ("stat", "/tmp/link")))
        out.append((yield ("lstat", "/tmp/link")))
        return 0

    run_native(brick, prog)
    followed, link = out
    assert followed.itype != IFLNK
    assert link.itype == IFLNK
    assert link.ino != followed.ino


def _cpu_us(machine, requests, name):
    """CPU time charged to a native tool yielding ``requests``."""
    def prog(argv, env):
        for request in requests:
            yield request
        return 0

    handle = run_native(machine, prog, name=name)
    return handle.proc.stime_us + handle.proc.utime_us


def test_sysctl0_is_free_and_sysctl_is_charged(brick, cluster):
    cluster.tracer.enable("syscall")
    base = _cpu_us(brick, [("getpid",)], "base")
    before = len(cluster.tracer.events)
    free = _cpu_us(brick, [("sysctl0", "dump_poll_tries")] * 3
                   + [("getpid",)], "free")
    events = cluster.tracer.events[before:]
    assert free == base
    assert [e["name"] for e in events if e["cat"] == "syscall"] \
        == ["getpid"]
    charged = _cpu_us(brick, [("sysctl", "dump_poll_tries"),
                              ("getpid",)], "charged")
    assert charged > base


def test_kill_self_stops_before_the_next_request(brick, cluster):
    reached = []

    def prog(argv, env):
        pid = yield ("getpid",)
        yield ("kill", pid, SIGTERM)
        reached.append(True)
        yield ("getpid",)
        return 0

    handle = run_native(brick, prog)
    assert handle.term_signal == SIGTERM
    assert not reached


def test_one_syscall_event_per_request(brick, cluster):
    cluster.tracer.enable("syscall")
    requests = [("getpid",), ("getuid",), ("time",), ("frobnicate",),
                ("close",), ("isatty", 0)]

    def prog(argv, env):
        for request in requests:
            yield request
        return 0

    handle = run_native(brick, prog)
    names = [e["name"] for e in cluster.tracer.events
             if e["cat"] == "syscall" and e.get("pid") == handle.pid]
    assert names == [request[0] for request in requests]


def test_negative_charges_are_refused(brick):
    kernel = brick.kernel
    before = brick.clock.now_us
    with pytest.raises(ValueError):
        kernel.charge(-1)
    with pytest.raises(ValueError):
        kernel.charge_user(-1)
    assert brick.clock.now_us == before
    kernel.charge(2.5)
    kernel.charge_user(0.5)
    assert brick.clock.now_us == before + 3.0


def test_image_cache_shares_identical_images():
    from repro.core.api import MigrationSite
    from repro.vm import assembler

    images = []
    for __ in range(2):
        site = MigrationSite(daemons=False)
        fs = site.machine("brick").fs
        images.append(bytes(fs.resolve_local("/bin/counter").data))
    assert images[0] == images[1]

    source = "start: move #1, d0\n trap\n"
    info = assembler._assemble.cache_info()
    first = assembler.assemble(source)
    assert assembler.assemble(source, cpu="MC68010") is first
    assert assembler._assemble.cache_info().hits == info.hits + 1
    changed = assembler.assemble(source.replace("#1", "#2"))
    assert changed.text != first.text
    assert assembler._assemble.cache_info().misses == info.misses + 2
    with pytest.raises(TypeError):
        first.symbols["start"] = 0
    with pytest.raises(AttributeError):
        first.aout = b""
