"""The ``LOADREPORT`` wire format and loadd's shared constants.

Section 8 of the paper: "CPU bound jobs can be moved from busy nodes
of the network to others that are idle".  Knowing which nodes are
busy and which are idle takes a cluster-wide load view, and this
module defines the datagram ``loadd`` broadcasts to build one: a
compact, versioned snapshot of one host's runnable VM jobs and its
best migration candidates.

Framing is connection-per-report: the sender connects to the
receiver's well-known port, writes one packed report, and closes.
Like the dump file formats (:mod:`repro.core.formats`), the blob is
magic-checked and length-prefixed; a truncated or doctored report
raises :class:`~repro.errors.UnixError` (``EINVAL``) on unpack — the
receiving daemon drops it and keeps running, it never crashes.

Layout (little endian)::

    magic      u16   LOADREPORT_MAGIC (octal 447)
    version    u8    LOADREPORT_VERSION
    host       u16-prefixed string (the reporting host)
    time_s     u32   sender's virtual clock, whole seconds
    runnable   u16   runnable (non-zombie) VM jobs on the host
    count      u16   number of candidate entries (<= MAX_CANDIDATES)
    count x:
      pid      i32   candidate process id
      cpu_ms   u32   CPU consumed by that process, milliseconds

Staleness, not sequence numbers, handles reordered or lost reports:
every report carries the sender's virtual-time stamp and the view
builder drops anything older than the ``load_stale_s`` knob — a
crashed or partitioned peer simply ages out of the view (its absence
is also cross-checked against the heartbeat detector by the daemon).
"""

from repro.errors import UnixError, EINVAL
from repro.kernel.constants import LOADREPORT_MAGIC
from repro.core.formats import _Reader, _Writer

#: loadd's well-known report port (migrationd owns 515, rshd 514)
LOADD_PORT = 517

LOADREPORT_VERSION = 1

#: cap on candidates per report: the balancer only ever moves a few
#: jobs per round, so shipping the whole process table is waste
MAX_CANDIDATES = 8

#: where loadd spools the newest report from each peer (and itself)
SPOOL_DIR = "/tmp/loadd"


class LoadReport:
    """One host's load snapshot, as broadcast on the wire."""

    def __init__(self, host, time_s, runnable, candidates=()):
        self.host = host
        self.time_s = int(time_s)
        self.runnable = int(runnable)
        #: ``(pid, cpu_ms)`` pairs, busiest first
        self.candidates = tuple((int(pid), int(cpu_ms))
                                for pid, cpu_ms in candidates)
        if len(self.candidates) > MAX_CANDIDATES:
            raise UnixError(EINVAL, "too many loadreport candidates")

    def pack(self):
        writer = _Writer()
        writer.u16(LOADREPORT_MAGIC)
        writer.raw(bytes((LOADREPORT_VERSION,)))
        writer.string(self.host)
        writer.u32(self.time_s)
        writer.u16(self.runnable)
        writer.u16(len(self.candidates))
        for pid, cpu_ms in self.candidates:
            writer.i32(pid)
            writer.u32(cpu_ms)
        return writer.getvalue()

    @classmethod
    def unpack(cls, blob):
        reader = _Reader(blob, "loadreport")
        if reader.u16() != LOADREPORT_MAGIC:
            raise UnixError(EINVAL, "bad loadreport magic")
        version = reader.u8()
        if version != LOADREPORT_VERSION:
            raise UnixError(EINVAL,
                            "loadreport version %d" % version)
        host = reader.string()
        time_s = reader.u32()
        runnable = reader.u16()
        count = reader.u16()
        if count > MAX_CANDIDATES:
            raise UnixError(EINVAL, "too many loadreport candidates")
        candidates = []
        for __ in range(count):
            pid = reader.i32()
            cpu_ms = reader.u32()
            candidates.append((pid, cpu_ms))
        return cls(host, time_s, runnable, candidates)

    def __eq__(self, other):
        return (isinstance(other, LoadReport)
                and self.host == other.host
                and self.time_s == other.time_s
                and self.runnable == other.runnable
                and self.candidates == other.candidates)

    def __repr__(self):
        return ("LoadReport(%s t=%d runnable=%d candidates=%r)"
                % (self.host, self.time_s, self.runnable,
                   self.candidates))


def fresh_hosts(reports, now_s, stale_s):
    """Filter ``{host: LoadReport}`` down to the usably fresh ones.

    A report from the future (a peer's clock running slightly ahead
    of ours at the instant it sampled) counts as age zero — clocks
    across the cluster are only loosely synchronized.
    """
    fresh = {}
    for host, report in reports.items():
        age_s = max(0, int(now_s) - report.time_s)
        if age_s <= stale_s:
            fresh[host] = report
    return fresh
