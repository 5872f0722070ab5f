"""The benchmark's three workloads.

Each workload is built from a seed, which drives only the inputs it
generates (placements, destinations, iteration counts, which
migrations go over ``migrate -d``).  An *episode* builds a fresh site
(set-up), runs the timed phase, then checks the outputs.  Episodes of
one workload and seed are identical in virtual time, so every episode
must produce the same virtual fingerprint.

Why each workload exists, and the layers it should and should not
move (host time; virtual time never moves under a speed-only change):

``cpu_storm``
    The guest-execution workload.  N hosts x K ``cpuhog``s; every hog
    is dumped mid-run and restarted one host over, then runs to
    completion.  Should move: ``vm.cpu``, ``vm.predecode``,
    ``machine.cluster`` (``run_s``, ``guest_mips``).  Should not move:
    the migration layers (``kernel.dump``, ``kernel.restproc``,
    ``fs.namei``), which take under 3% here.  There is no
    ``site.migrate()`` call here, so ``mig_host_ms_*`` is *storm
    elapsed* time: host time from the start of the storm until each
    hog resumes.  It holds every other hog's dump and restart and the
    guest execution of the hogs already resumed, so it moves with VM
    speed and queue position and is not a migration latency.
``migrate_storm``
    The migration-path workload.  4 workstations + file server with
    daemons; G ``counter`` guests block at their tty read while one
    closed-loop client migrates them one at a time (seeded guest,
    destination, and which call of each round goes over ``-d``).
    Should move: ``kernel.scheduler``, ``kernel.syscalls``,
    ``fs.namei``, ``programs``, ``kernel.exec_``, ``kernel.dump``,
    ``net.network`` (``mig_host_ms_p50``).  Should not move:
    ``vm.cpu`` (under 1%), ``vm.predecode`` (about 2%) and
    ``store.chunkstore`` (unused).
``lazy_storm``
    The chunked dump/restore workload: the same closed loop with
    ``incremental_dumps`` + ``lazy_restart``, on data-heavy counters
    carrying a 160 KB static buffer; after each round a line is typed
    at every guest's terminal so pending chunks fault in.  Should
    move: ``store.chunkstore``, ``core.formats``, ``kernel.dump``,
    ``kernel.restproc`` (``mig_host_ms_p50``).  A dump/restore change
    that speeds eager migration but slows chunked migration shows
    here and not on ``migrate_storm``.
"""

import random
import time

from repro.core.api import MigrationSite
from repro.costmodel import CostModel
from repro.programs.guest import counter, cpuhog
from repro.programs.guest.libasm import program

#: the big mostly-clean static buffer of the data-heavy counter
BIG_BYTES = 160 * 1024
#: one leader word per 1 KB chunk, so every chunk digests differently
CHUNK_STRIDE = 1024


class Episode:
    """What one episode measured and found wrong."""

    def __init__(self):
        self.setup_s = 0.0
        self.run_s = 0.0
        #: (host seconds, virtual microseconds, whether it went over
        #: migrationd) per completed migration
        self.migrations = []
        self.attempted = 0
        self.failures = []
        self.fingerprint = None
        self.instructions = 0
        #: host seconds at the nominal host speed per host second
        #: measured (1.0 where the speed was not measured)
        self.speed = 1.0

    def op(self, ok, what):
        """Count one operation; remember it if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def run_episode(workload, engine="fast", trace=None):
    """Set up, run and check one episode of ``workload``.

    ``trace`` (a :class:`layers.LayerTrace`) marks the set-up/run
    boundary so its coverage can be reported per phase.
    """
    episode = Episode()
    start = time.perf_counter()
    site = workload.setup(engine)
    episode.setup_s = time.perf_counter() - start
    if trace is not None:
        trace.mark_phase("run")
    start = time.perf_counter()
    workload.run(site, episode)
    episode.run_s = time.perf_counter() - start
    cluster = site.cluster
    episode.instructions = cluster.perf.vm_instructions
    episode.fingerprint = {
        "virtual_makespan_us": cluster.wall_time_us(),
        "mig_virtual_us": [virtual for __, virtual, __ in
                           episode.migrations],
        "net_bytes": cluster.network.bytes_moved,
        "net_messages": cluster.network.messages_sent,
    }
    workload.check(site, episode)
    _check_no_dump_leaks(site, episode)
    return episode, site


def _check_no_dump_leaks(site, episode):
    for name, machine in site.cluster.machines.items():
        left = sorted(machine.fs.resolve_local("/usr/tmp").entries)
        episode.op(not left, "%s:/usr/tmp holds %s" % (name, left))


class CpuStorm:
    """N hosts x K cpuhogs, all dumped mid-run, restarted one host over.

    Every host runs K/N hogs.  The seed deals the hogs to the hosts,
    orders the hosts around the restart ring, jitters each hog's
    iteration count and deals out the lengths of an argument the hogs
    ignore (so their stacks, and dumps, differ in size).  Placements
    differ while the total work stays within a few percent: an uneven
    load per host would make the slowest host's tail, and so the p90,
    depend on the seed.
    """

    name = "cpu_storm"
    SIZES = {
        # hosts, hogs per host, iterations, jitter
        "full": (8, 4, 50_000, 1_000),
        "small": (4, 2, 20_000, 500),
    }
    #: step between the lengths of the hogs' ignored argument, bytes
    ARG_STEP = 24
    #: virtual time at which the storm strikes (hogs are mid-loop)
    STORM_AT_US = 150_000.0

    def __init__(self, seed, size="full"):
        hosts, per_host, iterations, jitter = self.SIZES[size]
        rng = random.Random(seed)
        self.names = ["w%d" % i for i in range(hosts)]
        self.placement = self.names * per_host
        rng.shuffle(self.placement)
        ring = list(self.names)
        rng.shuffle(ring)
        self.next_host = {host: ring[(i + 1) % hosts]
                          for i, host in enumerate(ring)}
        self.iterations = [iterations + rng.randint(-jitter, jitter)
                           for __ in self.placement]
        self.arg_bytes = [self.ARG_STEP * k
                          for k in range(len(self.placement))]
        rng.shuffle(self.arg_bytes)

    def setup(self, engine):
        site = MigrationSite(workstations=self.names, server=None,
                             daemons=False, engine=engine)
        # each hog prints to a terminal of its own (several hogs on one
        # console may interleave their writes) on its home and on its
        # destination
        for k, host in enumerate(self.placement):
            for name in (host, self.next_host[host]):
                site.machine(name).add_terminal(self.tty(k))
        return site

    @staticmethod
    def tty(hog):
        return "th%d" % hog

    def terminal(self, site, host, hog):
        return site.machine(host).terminals[self.tty(hog)]

    def run(self, site, episode):
        hogs = [site.start(host, "/bin/cpuhog",
                           ["cpuhog", str(n), "x" * self.arg_bytes[k]],
                           tty=self.terminal(site, host, k))
                for k, (host, n) in enumerate(zip(self.placement,
                                                  self.iterations))]
        site.run(until_us=self.STORM_AT_US)
        for hog in hogs:
            episode.op(not hog.exited, "hog %d finished before the storm"
                       % hog.pid)
        # every migration is issued at once: its virtual latency runs
        # from its dumpproc's start to the moment its restart resumes
        # the hog; its host time runs from the storm's start to then
        host0 = time.perf_counter()
        dumps = [site.start(host, "/bin/dumpproc",
                            ["dumpproc", "-p", str(hog.pid)])
                 for host, hog in zip(self.placement, hogs)]
        site.run_until(lambda: all(d.exited for d in dumps),
                       max_steps=200_000_000)
        self.restarts = [
            site.start(self.next_host[host], "/bin/restart",
                       ["restart", "-p", str(hog.pid), "-h", host],
                       tty=self.terminal(site, self.next_host[host], k))
            for k, (host, hog) in enumerate(zip(self.placement, hogs))]
        pending = list(zip(self.restarts, dumps))

        def all_resumed():
            for handle, dump in list(pending):
                if handle.exited or handle.proc.is_vm():
                    pending.remove((handle, dump))
                    episode.migrations.append(
                        (time.perf_counter() - host0,
                         handle.machine.clock.now_us
                         - dump.proc.start_us, False))
            return not pending

        site.run_until(all_resumed, max_steps=200_000_000)
        site.run(max_steps=200_000_000)
        for dump in dumps:
            episode.op(dump.exit_status == 0, "dumpproc -p %d exited %r"
                       % (dump.pid, dump.exit_status))

    def check(self, site, episode):
        for k, (host, n, handle) in enumerate(zip(
                self.placement, self.iterations, self.restarts)):
            expected = "checksum=%d\n" % cpuhog.expected_checksum(n)
            text = self.terminal(site, self.next_host[host], k).output_text()
            episode.op(handle.exit_status == 0 and expected in text,
                       "hog from %s (%d iterations) did not finish with "
                       "its checksum" % (host, n))


class MigrationLoop:
    """G counters migrated one at a time by a closed-loop client.

    Each guest owns a terminal of its own name on every workstation,
    and every migrate of it is typed at that terminal on the
    destination, so the restarted copy reads the guest's own terminal
    and can be told apart from the others.  Each round migrates every
    guest once in a seeded order, to a seeded destination.  The
    paper's ``migrate`` runs its halves over rsh, and Figure 4 times
    that; migrationd (``migrate -d``) is only the alternative its
    section 6.4 suggests.  So all but one call of each round go over
    rsh, and one call per round, in a seeded position, goes over
    ``-d`` so that the daemon path is exercised and checked too.  The
    migration percentiles are taken over the rsh calls only.  Guests
    differ in stack size by an argument they ignore; the seed deals
    the argument lengths to the guests.
    """

    WORKSTATIONS = ("w0", "w1", "w2", "w3")
    SIZES = {"full": (8, 32), "small": (4, 4)}  # guests, rounds
    #: per-guest argument lengths, bytes (the first G are dealt out)
    ARG_BYTES = (64, 192, 320, 448, 576, 704, 832, 960)
    name = None
    program = "counter"
    overrides = {}
    type_each_round = False

    def __init__(self, seed, size="full"):
        guests, rounds = self.SIZES[size]
        rng = random.Random(seed)
        self.guests = guests
        self.arg_bytes = list(self.ARG_BYTES[:guests])
        rng.shuffle(self.arg_bytes)
        self.home = [self.WORKSTATIONS[g % len(self.WORKSTATIONS)]
                     for g in range(guests)]
        self.plan = []  #: (round, guest, destination, use_daemon)
        where = list(self.home)
        for round_ in range(rounds):
            order = list(range(guests))
            rng.shuffle(order)
            daemon_at = rng.randrange(guests)
            for position, g in enumerate(order):
                destination = rng.choice(
                    [w for w in self.WORKSTATIONS if w != where[g]])
                where[g] = destination
                self.plan.append((round_, g, destination,
                                  position == daemon_at))

    def setup(self, engine):
        costs = CostModel().with_overrides(**self.overrides) \
            if self.overrides else None
        site = MigrationSite(costs, workstations=self.WORKSTATIONS,
                             engine=engine)
        aout = self.image()
        for name in self.WORKSTATIONS:
            machine = site.machine(name)
            if aout is not None:
                machine.install_aout(self.program, aout)
            for g in range(self.guests):
                machine.add_terminal(self.tty(g))
        site.run_quiet()
        return site

    def image(self):
        """An a.out the workload assembles itself, or None."""
        return None

    @staticmethod
    def tty(guest):
        return "tg%d" % guest

    def copies(self, site, guest):
        """Every live VM process reading ``guest``'s terminal."""
        name = self.tty(guest)
        return [(host, proc)
                for host in self.WORKSTATIONS
                for proc in site.machine(host).kernel.procs.all_procs()
                if proc.is_vm() and not proc.zombie()
                and proc.user.tty is not None
                and proc.user.tty.name == name]

    def run(self, site, episode):
        self.where = list(self.home)
        self.lines = [0] * self.guests
        pids = []
        for g, host in enumerate(self.home):
            terminal = site.machine(host).terminals[self.tty(g)]
            argv = [self.program, "x" * self.arg_bytes[g]]
            pids.append(site.start(host, "/bin/" + self.program, argv,
                                   tty=terminal).pid)
        site.run_quiet()
        for step, (round_, g, destination, daemon) in enumerate(self.plan):
            source = self.where[g]
            terminal = site.machine(destination).terminals[self.tty(g)]
            # the client types each command at the cluster's wall time,
            # not at the lagging clock of a host that sat idle
            site.cluster.sync_clocks()
            host0 = time.perf_counter()
            handle = site.migrate(pids[g], source, destination,
                                  use_daemon=daemon, tty=terminal)
            host_s = time.perf_counter() - host0
            ok = handle.exit_status == 0
            episode.op(ok, "migrate -p %d -f %s -t %s%s exited %r"
                       % (pids[g], source, destination,
                          " -d" if daemon else "", handle.exit_status))
            if not ok:
                continue
            # migrate runs on the destination: its clock times the
            # command, as the paper's Figure 4 does
            episode.migrations.append(
                (host_s, handle.machine.clock.now_us
                 - handle.proc.start_us, daemon))
            moved = [proc for host, proc in self.copies(site, g)
                     if host == destination]
            episode.op(len(moved) == 1, "guest %d: %d copies on %s"
                       % (g, len(moved), destination))
            if moved:
                pids[g] = moved[0].pid
                self.where[g] = destination
            last_of_round = step + 1 == len(self.plan) \
                or self.plan[step + 1][0] != round_
            if self.type_each_round and last_of_round:
                self.type_line_at_every_guest(site)

    def type_line_at_every_guest(self, site):
        for g, host in enumerate(self.where):
            site.machine(host).terminals[self.tty(g)].feed("line\n")
            self.lines[g] += 1
        site.run_quiet()

    def check(self, site, episode):
        self.type_line_at_every_guest(site)
        for g, host in enumerate(self.where):
            copies = self.copies(site, g)
            episode.op(len(copies) == 1, "guest %d: %d live copies"
                       % (g, len(copies)))
            # r= register, s= static, k= stack counter: each must have
            # counted every typed line across every hop
            n = self.lines[g] + 1
            text = site.machine(host).terminals[self.tty(g)].output_text()
            episode.op("r=%d s=%d k=%d\n" % (n, n, n) in text,
                       "guest %d on %s lost a typed line" % (g, host))


class MigrateStorm(MigrationLoop):
    name = "migrate_storm"


class LazyStorm(MigrationLoop):
    name = "lazy_storm"
    program = "dcounter"
    overrides = {"incremental_dumps": True, "lazy_restart": True}
    type_each_round = True
    SIZES = {"full": (8, 16), "small": (4, 4)}

    def image(self):
        chunks = []
        for i in range(BIG_BYTES // CHUNK_STRIDE):
            chunks.append("big%d: .word %d" % (i, 0x5ABE0001 + i))
            chunks.append("        .space %d" % (CHUNK_STRIDE - 4))
        data = counter.DATA + "\n" + "\n".join(chunks) + "\n"
        return program(counter.BODY, data).aout


WORKLOADS = {w.name: w for w in (CpuStorm, MigrateStorm, LazyStorm)}
