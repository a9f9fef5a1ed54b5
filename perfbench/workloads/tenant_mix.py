"""tenant-mix: a closed-loop client issuing everyday tenant operations.

64 compute nodes, 64 users in 8 project groups plus two staff accounts,
the LLSC preset with every plane armed.  Each user holds one
long-running job whose shell listens on TCP port 7000 — under the
user's private egid, or (for half of each project) the project egid —
and every other user also serves a portal web app from the job.

One closed-loop client issues a seeded mix of tenant operations, each
against the actor's own resources or someone else's:

* ``ssh`` to a job node (PAM + pam_slurm);
* ``file``: create + unlink in the own home (smask strips world bits);
* ``read`` of an own or foreign home file;
* ``acl``: setfacl naming an own project group or a foreign uid;
* ``ps`` on the login node (hidepid: only own processes visible);
* ``connect`` to an own, project or foreign listener (per-packet UBF +
  ident);
* ``portal`` connect to an own or foreign web app.

The relative weights of the kinds (:data:`MIX`) and the 30% share of
project-mate targets among own connects are an unverified assumption:
neither the paper nor any source in the repository gives the frequency
of these operations on a real system.  The report prints each kind's
count, latency percentiles and share of the measured time, so the
effect of a different weighting can be worked out from one run.

About half the operations cross users and must be refused.  Sessions
exit, files are unlinked and connections closed, so state stays flat.
The UBF verdict-cache working set is a few thousand principal triples,
far below the 65,536-entry cache; set-up connects every user once to
every listener and app, so the measured region runs all-hit.  ``ops_per_s`` is
operations per second of time spent in them; ``op_p50_us`` /
``op_p90_us`` time each operation.
"""

from __future__ import annotations

import time

from repro import LLSC, Cluster
from repro.kernel.errors import KernelError
from repro.kernel.vfs import AclEntry
from repro.obs import attach_forensics
from repro.oracle import attach_oracle
from repro.oracle.oracle import SeparationViolation
from repro.persist import attach_persistence
from repro.portal import launch_webapp
from repro.sched.health import attach_health

from common import (WALL_CAP_S, HostClock, PassResult, SetupClock, Slicer,
                    count, ratio, rng_for, run_rounds)
from expect import ACCEPT, Model
from layers import patch_cluster
from spans import percentile, recording

NAME = "tenant-mix"
LISTEN_PORT = 7000
APP_PORT = 8888

SIZES = {
    "full": dict(nodes=64, projects=8, ops=40_000, oracle_rate=0.01),
    "smoke": dict(nodes=8, projects=2, ops=400, oracle_rate=1.0),
}

#: operation kind -> relative weight (an assumption, see module doc)
MIX = (("ssh", 2), ("file", 1), ("read", 2), ("acl", 2), ("ps", 1),
       ("connect", 4), ("portal", 2))
_KINDS = [k for k, w in MIX for _ in range(w)]
#: share of "own" connects aimed at a project-mate's listener (assumed)
PROJECT_CONNECT = 0.3
#: operations per host-clock slice
SLICE_OPS = 1000


class _World:
    """A built cluster plus everything the model knows about it."""

    def __init__(self, sz: dict, tracer):
        n = sz["nodes"]
        self.names = [f"t{i:02d}" for i in range(n)]
        projects = {f"grp{p}": tuple(self.names[p::sz["projects"]])
                    for p in range(sz["projects"])}
        c = self.cluster = Cluster.build(
            LLSC, n_compute=n, users=tuple(self.names),
            staff=("ops0", "ops1"), projects=projects)
        attach_persistence(c)
        attach_health(c).start()
        attach_forensics(c)
        attach_oracle(c, sampling_rate=sz["oracle_rate"], fail_fast=True)
        if tracer is not None:
            patch_cluster(tracer, c)

        self.model = Model()
        self.uid = [c.user(u).uid for u in self.names]
        self.project_gid = [0] * n
        for p in range(sz["projects"]):
            gid = c.userdb.group(f"grp{p}").gid
            for i in range(p, n, sz["projects"]):
                self.model.add_member(self.uid[i], gid)
                self.project_gid[i] = gid

        jobs = [c.submit(u, duration=1e7, name="session-host")
                for u in self.names]
        c.run(until=1.0)
        self.job_node = [job.allocations[0].node for job in jobs]
        if len(set(self.job_node)) != n:
            raise RuntimeError(f"{NAME}: jobs share nodes {self.job_node}")

        # listeners: (host, socket, owner uid, egid) per user
        self.listener = []
        self.app_id = {}
        for i, job in enumerate(jobs):
            shell = c.job_session(job)
            if (i // sz["projects"]) % 2 == 0:
                shell.sg(f"grp{i % sz['projects']}")
            sock = shell.socket().listen(LISTEN_PORT)
            self.listener.append((self.job_node[i], sock, self.uid[i],
                                  shell.creds.egid))
            if i % 2 == 0:
                app_proc = c.job_session(job)
                app = launch_webapp(app_proc.node, app_proc.process,
                                    APP_PORT, f"notebook-{self.names[i]}")
                self.app_id[i] = c.portal.register(app)
        self.apps = sorted(self.app_id)

        # one login shell per user (the client), a home file, a token
        self.login = [c.login(u) for u in self.names]
        self.data = [f"results of {u}".encode() for u in self.names]
        for i, sess in enumerate(self.login):
            sess.sys.create(self.home_file(i), mode=0o600,
                            data=self.data[i])
        self.token = [c.portal.login(u).token for u in self.names]
        self.tmp_seq = 0

    def home_file(self, i: int) -> str:
        return f"/home/{self.names[i]}/data.txt"


def _other(rng, n: int, i: int) -> int:
    j = rng.randrange(n - 1)
    return j + (j >= i)


def _plan(w: _World, rng) -> tuple:
    """Draw one operation: (kind, actor, target)."""
    n = len(w.names)
    kind = rng.choice(_KINDS)
    actor = rng.randrange(n)
    own = rng.random() < 0.5
    if kind in ("file", "ps"):
        return kind, actor, actor
    if kind == "portal":
        if own and actor in w.app_id:
            return kind, actor, actor
        return kind, actor, rng.choice(w.apps)
    if kind == "connect" and own and rng.random() < PROJECT_CONNECT:
        # a project-mate's listener (project egid where it runs one)
        mates = [j for j in range(n)
                 if w.project_gid[j] == w.project_gid[actor] and j != actor]
        return kind, actor, rng.choice(mates)
    return kind, actor, actor if own else _other(rng, n, actor)


def _preload(w: _World) -> list[tuple]:
    """Every principal triple the mix can produce, once: each user
    connects to every listener and to every portal app."""
    n = len(w.names)
    return ([("connect", a, t) for a in range(n) for t in range(n)]
            + [("portal", a, t) for a in range(n) for t in w.apps])


def _expected(w: _World, kind: str, actor: int, target: int) -> bool:
    """Is the operation allowed, according to the model alone?"""
    m, a_uid = w.model, w.uid[actor]
    if kind == "ssh":
        return m.ssh_allowed(a_uid, {w.uid[target]})
    if kind == "read":
        return m.home_readable(a_uid, w.uid[target])
    if kind == "acl":
        if target == actor:
            return m.acl_grant_allowed(a_uid, "group", w.project_gid[actor])
        return m.acl_grant_allowed(a_uid, "user", w.uid[target])
    if kind == "connect":
        _, _, owner, egid = w.listener[target]
        return m.ubf_verdict(a_uid, owner, egid) == ACCEPT
    if kind == "portal":
        return m.portal_allowed(a_uid, w.uid[target])
    return True  # file, ps: own resources only


def _execute(w: _World, kind: str, actor: int, target: int):
    """Run one operation; returns (allowed, detail) where *detail* is
    what the output check inspects."""
    c, sess = w.cluster, w.login[actor]
    try:
        if kind == "ssh":
            shell = c.ssh(w.names[actor], w.job_node[target])
            shell.sys.exit()
            return True, None
        if kind == "file":
            w.tmp_seq += 1
            path = f"/home/{w.names[actor]}/scratch-{w.tmp_seq}"
            st = sess.sys.create(path, mode=0o666)
            sess.sys.unlink(path)
            return True, st.mode
        if kind == "read":
            return True, sess.sys.open_read(w.home_file(target))
        if kind == "acl":
            entry = (AclEntry("group", w.project_gid[actor], 4)
                     if target == actor
                     else AclEntry("user", w.uid[target], 4))
            sess.sys.setfacl(w.home_file(actor), entry)
            return True, None
        if kind == "ps":
            return True, sess.sys.ps()
        if kind == "connect":
            host, sock, _, _ = w.listener[target]
            end = sess.socket().connect(host, LISTEN_PORT)
            server = c.node(host).net.accept(sock)
            peer = server.peer_uid
            end.close()
            return True, peer
        page = c.portal.connect(w.token[actor], w.app_id[target])
        return True, page
    except KernelError:
        return False, None


def _check(res: PassResult, w: _World, op, allowed: bool, detail) -> None:
    """Compare one outcome with the model; a wrongly allowed operation or
    any UBF verdict mismatch is a breach, a wrongly refused own
    operation an error."""
    kind, actor, target = op
    expected = _expected(w, kind, actor, target)
    if allowed != expected:
        if allowed or kind in ("connect", "portal"):
            res.breach(f"{NAME}: {kind} by {w.names[actor]} on "
                       f"{w.names[target]}: allowed={allowed}, "
                       f"expected {expected}")
        res.failed += 1
        return
    if not allowed:
        return
    a_uid = w.uid[actor]
    bad = None
    if kind == "file" and not w.model.created_mode_ok(detail):
        bad = f"created mode {detail:o} keeps world bits"
    elif kind == "read" and detail != w.data[target]:
        bad = "read returned the wrong content"
    elif kind == "ps" and (not detail
                           or any(e.uid != a_uid for e in detail)):
        bad = "ps shows foreign processes (or none)"
    elif kind == "connect" and detail != a_uid:
        bad = f"listener sees peer uid {detail}, not {a_uid}"
    elif kind == "portal" and f"[uid={w.uid[target]}]".encode() not in detail:
        bad = "portal served another page"
    if bad is not None:
        res.breach(f"{NAME}: {kind} by {w.names[actor]}: {bad}")


def run(seed: int, seconds: float, *, tracer=None, size: str = "full",
        rounds: int | None = None, wall_cap: float = WALL_CAP_S
        ) -> PassResult:
    sz = SIZES[size]
    res = PassResult(NAME)
    tally = {"ops": 0, "denied": 0, "cross": 0, "audit": 0}
    #: kind of every measured op, in the order of ``res.latencies_ns``
    kinds: list[str] = []

    clock = HostClock()

    def one_round(index: int) -> None:
        rng = rng_for(NAME, seed, index)
        setup = SetupClock(res, clock)
        w = _World(sz, tracer)
        ops = [_plan(w, rng) for _ in range(sz["ops"])]
        base = count(w.cluster.metrics)
        slicer = Slicer(res, clock, SLICE_OPS)
        try:
            setup.lap()
            for k, op in enumerate(_preload(w), 1):
                _check(res, w, op, *_execute(w, *op))
                if k % SLICE_OPS == 0:
                    setup.lap()
            setup.done()
            base = count(w.cluster.metrics)
            with recording(tracer):
                for k, op in enumerate(ops):
                    if tracer is not None:
                        tracer.rid = k
                    t0 = time.perf_counter_ns()
                    allowed, detail = _execute(w, *op)
                    ns = time.perf_counter_ns() - t0
                    slicer.add(ns / 1e9, ns)
                    kinds.append(op[0])
                    res.digest.add(op, allowed)
                    _check(res, w, op, allowed, detail)
                    tally["denied"] += not allowed
                    tally["cross"] += op[1] != op[2]
        except SeparationViolation as exc:
            res.oracle_violations += 1
            res.breach(f"{NAME}: oracle violation: {exc}")
        finally:
            slicer.close()
        tally["ops"] += len(ops)
        res.work += len(ops)
        res.attempted += len(ops)
        tally["audit"] += len(w.cluster.forensics.audit)
        res.oracle_checks += w.cluster.oracle.total_checks
        res.oracle_violations += len(w.cluster.oracle.violations)
        res.add_counters(w.cluster.metrics, base)

    run_rounds(res, seconds, one_round, rounds=rounds, wall_cap=wall_cap)
    c = res.counters
    decided = c.get("nfqueue_decisions", 0)
    res.props = {
        "denial_share": ratio(tally["denied"], tally["ops"]),
        "cross_user_share": ratio(tally["cross"], tally["ops"]),
        "ubf_cache_hit_share": ratio(c.get("ubf_cache_hits", 0), decided),
        "ident_rtt_per_decision": ratio(c.get("ident_round_trips", 0),
                                        decided),
    }
    res.layer = {
        "props.denial_share": res.props["denial_share"],
        "obs.audit_records": ratio(tally["audit"], res.rounds),
    }
    res.named = {"op_p99_us": (res.pct_us(99), "us")}
    res.named.update(_per_kind(kinds, res.latencies_ns))
    return res


def _per_kind(kinds: list[str], lat_ns) -> dict[str, tuple[float, str]]:
    """Each kind's op count, host-scaled p50/p90 latency and share of the
    measured op time (``lat_ns`` holds one sample per op of *kinds*)."""
    by_kind: dict[str, list[int]] = {k: [] for k, _ in MIX}
    for kind, ns in zip(kinds, lat_ns):
        by_kind[kind].append(ns)
    total = sum(lat_ns)
    out = {}
    for kind, lat in by_kind.items():
        out[f"{kind}.ops"] = (len(lat), "count")
        out[f"{kind}.p50_us"] = (percentile(lat, 50) / 1e3 if lat else 0.0,
                                 "us")
        out[f"{kind}.p90_us"] = (percentile(lat, 90) / 1e3 if lat else 0.0,
                                 "us")
        out[f"{kind}.time_share"] = (ratio(sum(lat), total), "ratio")
    return out
