"""The three workloads of the layer-ladder benchmark, measured and traced.

Every measured number comes from the built programs driven as a user
would drive them: tools/sweep for fig1-fabric and fig2-crash, and a
three-daemon tools/coordd fleet plus ladder_probe's closed-loop client for
svc-mix. Traced runs re-run each path in ladder_probe with spans around
the calls into each layer.
"""

import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import threading
import time
from pathlib import Path

import gate
import metrics
import spans

FIG2_PLAN = "fp1;seed=1;crash=0@2;recover=0@8"
SETUP_PER_COMMAND = 8   # 1-seed sweeps timed for setup_s before each command
FLEET_SETUPS = 3        # fleet launches timed for setup_s
COMMAND_TIMEOUT_S = 150
STOP_GRACE_S = 10       # SIGTERM to SIGKILL for a daemon
FLEET_READY_S = 30      # launch to elected leader, at most
SVC_CHUNK = 512         # coordd's default progress chunk = fleet shard size


class Env:
    """Paths and knobs shared by every workload in one invocation."""

    def __init__(self, build, work, seed, seconds):
        self.work = Path(work)
        self.seconds = seconds
        self.rng = random.Random(seed)
        self.nproc = len(os.sched_getaffinity(0))
        self.sweep = str(Path(build) / "cilcoord" / "tools" / "sweep")
        self.coordd = str(Path(build) / "cilcoord" / "tools" / "coordd")
        self.probe = str(Path(build) / "ladder_probe")
        self._next_dir = 0

    def fresh_dir(self, tag):
        self._next_dir += 1
        d = self.work / f"{tag}{self._next_dir}"
        d.mkdir(parents=True)
        return d

    def first_seed(self):
        """A random 40-bit seed base; ranges of one run never overlap."""
        return self.rng.randrange(1, 1 << 40)


class Proc:
    """A started program whose resource usage is collected when reaped.
    A command is killed after COMMAND_TIMEOUT_S; a daemon (`timeout` None)
    runs until terminate()."""

    def __init__(self, argv, log, timeout=COMMAND_TIMEOUT_S):
        self._log = open(log, "w")
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(argv, stdout=self._log,
                                  stderr=subprocess.STDOUT)
        self._watchdog = None
        if timeout is not None:
            self._arm(timeout)

    def _arm(self, seconds):
        self._watchdog = threading.Timer(seconds, self.p.kill)
        self._watchdog.start()

    def _disarm(self):
        if self._watchdog is not None:
            self._watchdog.cancel()

    def terminate(self):
        """SIGTERM now, SIGKILL if still running after STOP_GRACE_S."""
        self._disarm()
        self._arm(STOP_GRACE_S)
        self.p.send_signal(signal.SIGTERM)

    def reap(self):
        """Wait; return (exit code, wall seconds, peak RSS in MB). The peak
        covers the program and every child it waited for."""
        _, status, ru = os.wait4(self.p.pid, 0)
        wall = time.perf_counter() - self.t0
        self._disarm()
        self._log.close()
        self.p.returncode = os.waitstatus_to_exitcode(status)
        return self.p.returncode, wall, ru.ru_maxrss / 1024.0


def run(argv, log):
    return Proc(argv, log).reap()


def probe_json(env, args, log):
    """Run a ladder_probe subcommand; its last stdout line is JSON."""
    out = subprocess.run([env.probe, *args], capture_output=True, text=True,
                         timeout=COMMAND_TIMEOUT_S)
    Path(log).write_text(out.stdout + out.stderr)
    if out.returncode != 0:
        raise RuntimeError(f"ladder_probe {args[0]} failed: {out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# The sweep workloads.

class SweepWorkload:
    """One tools/sweep command over `seeds` seeds, repeated on fresh ranges
    for the run's seconds."""

    def __init__(self, name, seeds, shape, extra, threads, forked):
        self.name = name
        self.seeds = seeds
        self.shape = shape        # ladder_probe shape flags
        self.extra = extra        # sweep-only flags
        self.threads = threads    # BatchRunner threads (or forked workers)
        self.forked = forked

    def argv(self, env, first, count, d):
        argv = [env.sweep, *self.shape, "--engine=lane", *self.extra,
                f"--seeds={count}",
                f"--first-seed={first}", f"--out={d}/summary.json"]
        if self.forked:
            argv.append(f"--checkpoint={d}/ckpt")
        return argv

    def setup_walls(self, env, k):
        """Wall seconds of k runs of the command over one seed. The sync
        first, untimed, keeps them from paying for an earlier command's
        disk writes."""
        os.sync()
        walls = []
        for _ in range(k):
            d = env.fresh_dir("setup")
            code, wall, _ = run(self.argv(env, env.first_seed(), 1, d),
                                d / "log")
            if code != 0:
                raise RuntimeError(f"1-seed {self.name} sweep exited {code}")
            shutil.rmtree(d, ignore_errors=True)
            walls.append(wall)
        return walls

    def measure(self, env):
        tally = metrics.Tally()
        # The 1-seed starts are spread over the run, a few before each
        # command, so that a slow stretch of the host does not hit them all.
        setup = []
        cmds = []
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < env.seconds or len(cmds) < 2:
            setup += self.setup_walls(env, SETUP_PER_COMMAND)
            d = env.fresh_dir("cmd")
            first = env.first_seed()
            code, wall, rss = run(self.argv(env, first, self.seeds, d),
                                  d / "log")
            shutil.rmtree(d / "ckpt", ignore_errors=True)
            cmds.append({"dir": d, "first": first, "code": code,
                         "wall": wall, "rss": rss})

        # Everything below is outside the timed commands.
        verify_code = self.verify_against(env, cmds[0])
        refs = gate.reference(env.probe, self.shape,
                              [(c["first"], self.seeds) for c in cmds])
        mismatched = []
        for c, ref in zip(cmds, refs):
            c["ok"] = False
            art = c["dir"] / "summary.json"
            if c["code"] != 0 or not art.exists():
                tally.fail("exit")
                continue
            c["bytes"] = art.stat().st_size
            bad = gate.mismatches(gate.fields_of(json.loads(art.read_text())),
                                  ref)
            if c is cmds[0] and verify_code != 0:
                bad.append(f"sweep --verify-against exit {verify_code}")
            if bad:
                tally.fail("mismatch")
                mismatched.append({"first_seed": c["first"], "fields": bad})
                continue
            tally.ok()
            c["ok"] = True
            shutil.rmtree(c["dir"], ignore_errors=True)

        walls = [c["wall"] for c in cmds]
        ok = [c for c in cmds if c["ok"]]
        values = {
            "setup_s": statistics.median(setup),
            "runs_per_s": statistics.median(
                (self.seeds if c["ok"] else 0) / c["wall"] for c in cmds),
            "ok_frac": 1.0 - tally.fail_frac,
            "peak_rss_mb": max(c["rss"] for c in cmds),
            "result_bytes_per_run": statistics.median(
                c["bytes"] / self.seeds for c in ok) if ok else 0.0,
            "jobs_per_s": statistics.median(
                (1.0 if c["ok"] else 0.0) / c["wall"] for c in cmds),
            "job_p50_ms": statistics.median(walls) * 1e3,
        }
        detail = {
            "fail_frac": {"value": tally.fail_frac, "unit": "frac",
                          "n": tally.attempted},
            "failures": tally.failed,
            "mismatches": mismatched,
            "seeds_per_command": self.seeds,
            "command_ms": metrics.timing([w * 1e3 for w in walls]),
            "setup_ms": dict(metrics.timing([w * 1e3 for w in setup]),
                             p25=statistics.quantiles(setup, n=4)[0] * 1e3,
                             min=min(setup) * 1e3),
        }
        counts = {"setup_s": len(setup), "runs_per_s": len(cmds),
                  "ok_frac": tally.attempted, "peak_rss_mb": len(cmds),
                  "result_bytes_per_run": len(ok), "jobs_per_s": len(cmds),
                  "job_p50_ms": len(cmds)}
        return values, counts, tally, detail

    def verify_against(self, env, cmd):
        """tools/sweep's own bit-identity check: the same range on the scalar
        engine in one process must match the artifact in every field."""
        art = cmd["dir"] / "summary.json"
        if cmd["code"] != 0 or not art.exists():
            return cmd["code"]
        d = env.fresh_dir("verify")
        argv = [env.sweep, "--serial", "--engine=scalar",
                f"--threads={env.nproc}", *self.shape, f"--seeds={self.seeds}",
                f"--first-seed={cmd['first']}", f"--out={d}/summary.json",
                f"--verify-against={art}"]
        code, _, _ = run(argv, d / "log")
        shutil.rmtree(d, ignore_errors=True)
        return code

    def trace(self, env):
        """The sweep's path re-run in ladder_probe with and without spans,
        then the per-layer probes and a short svc-mix for svc and fleet."""
        first = env.first_seed()
        kind = "fabric" if self.forked else "serial"
        # Untraced and traced in ABBA order, so drift in the host's speed
        # cancels out of the overhead.
        runs = []
        for tracing in (0, 1, 1, 0):
            d = env.fresh_dir("pipe")
            r = probe_json(env, [
                "pipeline", f"--kind={kind}", *self.shape,
                f"--first-seed={first}", f"--seeds={self.seeds}",
                f"--threads={1 if self.forked else self.threads}",
                f"--dir={d}", f"--tracing={tracing}",
                f"--spans-out={d}/spans.jsonl"], d / "log")
            r["tracing"], r["spans"] = tracing, d / "spans.jsonl"
            runs.append(r)
        tally = metrics.Tally()
        ref = gate.reference(env.probe, self.shape, [(first, self.seeds)])[0]
        for r in runs:
            art = json.loads((r["spans"].parent / "summary.json").read_text())
            if gate.mismatches(gate.fields_of(art), ref):
                tally.fail("mismatch")
            else:
                tally.ok()
        span_list = load_spans(runs[1]["spans"])
        root = next(s for s in span_list if s["parent"] == 0)
        walls = {t: statistics.mean(r["wall_s"] for r in runs
                                    if r["tracing"] == t) for t in (0, 1)}
        layer = layer_probe(env, self.shape, self.probe_seeds())
        values = {**layer, **table_metrics(span_list, root),
                  "trace.overhead_s": walls[1] - walls[0],
                  "trace.overhead_frac": (walls[1] - walls[0]) / walls[0]}
        svc_values, svc_tally, svc_info, _ = svc_probe(env, 5.0, False)
        values.update(svc_values)
        detail = {"pipeline_wall_s": [(r["tracing"], r["wall_s"]) for r in runs],
                  "span_count": len(span_list),
                  "svc_probe": svc_info}
        merge_tally(tally, svc_tally)
        return values, tally, detail

    def probe_seeds(self):
        return 400_000 if self.forked else 100_000


FIG1 = SweepWorkload(
    "fig1-fabric", 2_000_000, ["--protocol=two"],
    ["--workers=2"], threads=2, forked=True)
FIG2 = SweepWorkload(
    "fig2-crash", 1_000_000,
    ["--protocol=unbounded", "--n=3", f"--fault-plan={FIG2_PLAN}"],
    ["--serial", "--threads=2"], threads=2, forked=False)


# ---------------------------------------------------------------------------
# The service workload.

def free_ports(k):
    socks = []
    for _ in range(k):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def status_leader(port):
    """The leader a daemon reports via a peer status_req, or None."""
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=1.0) as s:
            s.sendall(b'{"peer":"cilcoord.peer.v1","type":"status_req",'
                      b'"from":-1}\n')
            f = s.makefile("r")
            for _ in range(4):
                doc = json.loads(f.readline())
                if doc.get("type") == "status":
                    leader = doc["leader"]
                    alive = doc.get("info", {}).get("alive", [])
                    if 0 <= leader < len(alive) and alive[leader]:
                        return leader
                    return None
    except (OSError, ValueError, KeyError):
        return None
    return None


def accepting(port):
    try:
        socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
        return True
    except OSError:
        return False


class Fleet:
    """Three coordd --engine=lane daemons on loopback. Daemon 0 is the
    frontend every client session talks to; daemons 1 and 2 serve its
    fleet shards. Job workers total at most nproc."""

    def __init__(self, env, d):
        self.d = d
        self.ports = free_ports(3)
        peers = ",".join(f"127.0.0.1:{p}" for p in self.ports)
        workers = [max(1, env.nproc - 2), 1, 1]
        t0 = time.perf_counter()
        self.procs = [
            Proc([env.coordd, f"--port={p}", f"--fleet-id={i}",
                  f"--peers={peers}", f"--workers={w}", "--engine=lane",
                  f"--stats-file={d}/stats{i}.json"],
                 d / f"coordd{i}.log", timeout=None)
            for i, (p, w) in enumerate(zip(self.ports, workers))]
        deadline = t0 + FLEET_READY_S
        while not all(accepting(p) for p in self.ports):
            self._check(deadline)
        t_accept = time.perf_counter()
        while True:
            leaders = {status_leader(p) for p in self.ports}
            if len(leaders) == 1 and None not in leaders:
                break
            self._check(deadline)
        t_ready = time.perf_counter()
        self.setup_s = t_ready - t0
        self.elect_ms = (t_ready - t_accept) * 1e3

    def _check(self, deadline):
        if time.perf_counter() > deadline:
            self.stop()
            raise RuntimeError("fleet did not elect a leader in time")
        time.sleep(0.005)

    def stop(self):
        """SIGTERM every daemon; return (peak RSS MB per daemon, stats)."""
        for p in self.procs:
            if p.p.returncode is None:
                p.terminate()
        rss, stats = [], []
        for i, p in enumerate(self.procs):
            if p.p.returncode is None:
                rss.append(p.reap()[2])
            f = self.d / f"stats{i}.json"
            stats.append(json.loads(f.read_text()) if f.exists() else {})
        return rss, stats


def run_mix(env, fleet, seconds, d):
    summary = probe_json(env, [
        "mix", f"--port={fleet.ports[0]}", f"--seed={env.rng.randrange(1 << 30)}",
        f"--first-seed={env.first_seed()}", f"--seconds={seconds}",
        f"--out={d}/jobs.jsonl"], d / "mix.log")
    jobs = [json.loads(line) for line in (d / "jobs.jsonl").open()]
    return summary, jobs


def gate_jobs(jobs, tally):
    """Count each job once: verified, or failed by its kind."""
    for j in jobs:
        if j["status"] != "ok":
            tally.fail(j["status"] if j["status"] in tally.KINDS else "error")
        elif gate.mismatches(gate.fields_of(j["summary"]), j["ref"]):
            j["status"] = "mismatch"
            tally.fail("mismatch")
        else:
            tally.ok()


def class_ms(jobs, cls, key="latency_ms"):
    return [j[key] for j in jobs if j["class"] == cls and j["status"] == "ok"
            and j[key] >= 0]


def measure_svc(env):
    setups, elects = [], []
    fleet = None
    for i in range(FLEET_SETUPS):
        fleet = Fleet(env, env.fresh_dir("fleet"))
        setups.append(fleet.setup_s)
        elects.append(fleet.elect_ms)
        if i + 1 < FLEET_SETUPS:
            fleet.stop()
    try:
        summary, jobs = run_mix(env, fleet, env.seconds, env.fresh_dir("mix"))
    finally:
        rss, stats = fleet.stop()
    tally = metrics.Tally()
    gate_jobs(jobs, tally)
    ok = [j for j in jobs if j["status"] == "ok"]
    loop_s = summary["loop_s"]
    bulk = class_ms(jobs, "bulk")
    values = {
        "setup_s": statistics.median(setups),
        "runs_per_s": sum(j["seeds"] for j in ok) / loop_s,
        "ok_frac": 1.0 - tally.fail_frac,
        "peak_rss_mb": max(rss),
        "result_bytes_per_run":
            sum(j["result_bytes"] for j in ok) / sum(j["seeds"] for j in ok),
        "jobs_per_s": len(ok) / loop_s,
        "job_p50_ms": statistics.median(bulk) if bulk else 0.0,
    }
    counts = {"setup_s": len(setups), "runs_per_s": len(ok),
              "ok_frac": tally.attempted, "peak_rss_mb": len(rss),
              "result_bytes_per_run": len(ok), "jobs_per_s": len(ok),
              "job_p50_ms": len(bulk)}
    detail = svc_detail(jobs, summary, tally, stats)
    detail["elect_ms"] = metrics.timing(elects)
    return values, counts, tally, detail


def svc_detail(jobs, summary, tally, stats):
    return {
        "fail_frac": {"value": tally.fail_frac, "unit": "frac",
                      "n": tally.attempted},
        "failures": tally.failed,
        "loop_s": summary["loop_s"],
        "reconnects": summary["reconnects"],
        **latency_rows("small", class_ms(jobs, "small")),
        **latency_rows("bulk", class_ms(jobs, "bulk")),
        **latency_rows("fleet", class_ms(jobs, "fleet")),
        "huge_outcomes": {s: sum(1 for j in jobs if j["class"] == "huge"
                                 and j["status"] == s)
                          for s in ("ok", "evicted", "error", "timeout")},
        "daemon_jobs_completed": [s.get("jobs_completed") for s in stats],
        "daemon_sessions_evicted": [s.get("sessions_evicted") for s in stats],
    }


def latency_rows(cls, values):
    """<cls>_p50_ms and <cls>_tail_ms report rows: the median and the
    highest percentile with at least ten samples beyond it."""
    t = metrics.timing(values)
    rows = {f"{cls}_p50_ms": {"value": t.get("p50"), "unit": "ms",
                              "n": t["n"]}}
    if "tail" in t:
        rows[f"{cls}_tail_ms"] = {"value": t["tail"], "unit": "ms",
                                  "n": t["n"], "percentile": t["tail_p"]}
    return rows


def svc_layer_values(env, fleet, jobs, stats, inproc):
    """svc.* and fleet.* per-layer numbers from one mix and the in-process
    run_job timings of its job classes."""
    small, bulk, fl = (class_ms(jobs, c) for c in ("small", "bulk", "fleet"))
    med = lambda v: statistics.median(v) if v else 0.0
    delivered = [j for j in jobs if j["status"] in ("ok", "mismatch")]
    fleet_jobs = [j for j in jobs if j["class"] == "fleet"
                  and j["status"] in ("ok", "mismatch")]
    shards = sum(-(-j["seeds"] // SVC_CHUNK) for j in fleet_jobs)
    peer_attempts = sum(s.get("jobs_submitted", 0) for s in stats[1:])
    peer_done = sum(s.get("jobs_completed", 0) for s in stats[1:])
    local = max(0, shards - peer_done)
    return {
        "svc.run_job_ms.small": inproc["svc.run_job_ms.small"],
        "svc.run_job_ms.bulk": inproc["svc.run_job_ms.bulk"],
        "svc.wait_ms.small": med(small) - inproc["svc.run_job_ms.small"],
        "svc.wait_ms.bulk": med(bulk) - inproc["svc.run_job_ms.bulk"],
        "svc.first_progress_ms": med(
            [j["first_progress_ms"] for j in delivered
             if j["first_progress_ms"] >= 0]),
        "svc.frames_per_job": statistics.mean(j["frames"] for j in jobs),
        "svc.bytes_per_job": statistics.mean(j["bytes"] for j in jobs),
        "svc.delivered_ratio":
            len(delivered) / max(1, stats[0].get("jobs_completed", 0)),
        "fleet.fanout_ratio": med(fl) / med(bulk) if bulk else 0.0,
        "fleet.shard_attempts_per_shard":
            (peer_attempts + local) / shards if shards else 0.0,
        "fleet.elect_ms": fleet.elect_ms,
    }


def svc_probe(env, seconds, replay):
    """A svc-mix run for the svc and fleet per-layer numbers, plus the
    in-process job timings (`ladder_probe jobs`), with the traced replay of
    one mix round when `replay` is set. Returns the values, the tally, the
    report detail and the jobs probe's output."""
    fleet = Fleet(env, env.fresh_dir("fleet"))
    d = env.fresh_dir("mix")
    try:
        summary, jobs = run_mix(env, fleet, seconds, d)
    finally:
        _, stats = fleet.stop()
    tally = metrics.Tally()
    gate_jobs(jobs, tally)
    inproc = probe_json(env, ["jobs", f"--first-seed={env.first_seed()}",
                              f"--replay={int(replay)}",
                              f"--spans-out={d}/jobs.spans"], d / "jobs.log")
    if replay:
        inproc["spans"] = load_spans(d / "jobs.spans")
    values = svc_layer_values(env, fleet, jobs, stats, inproc)
    return values, tally, svc_detail(jobs, summary, tally, stats), inproc


def trace_svc(env):
    """The live mix for svc.* and fleet.*; the layer split and the tracing
    overhead from the in-process replay of one mix round, which runs the
    library calls a job makes in the daemons (the sockets excepted)."""
    values, tally, detail, inproc = svc_probe(env, env.seconds, replay=True)
    span_list = inproc["spans"]
    root = next(s for s in span_list if s["parent"] == 0)
    values.update(table_metrics(span_list, root))
    walls = {t: statistics.mean(r["wall_s"] for r in inproc["replay"]
                                if r["traced"] == t) for t in (0, 1)}
    values["trace.overhead_s"] = walls[1] - walls[0]
    values["trace.overhead_frac"] = (walls[1] - walls[0]) / walls[0]
    values.update(layer_probe(env, ["--protocol=two"], 400_000))
    detail["replay_wall_s"] = [(r["traced"], r["wall_s"])
                               for r in inproc["replay"]]
    detail["span_count"] = len(span_list)
    return values, tally, detail


# ---------------------------------------------------------------------------
# Shared trace helpers.

def load_spans(path):
    return [json.loads(line) for line in Path(path).open() if line.strip()]


def check_nesting(span_list):
    errors = spans.nesting_errors(span_list)
    if errors:
        raise RuntimeError("badly nested spans: " + "; ".join(errors[:5]))


def table_metrics(span_list, root):
    check_nesting(span_list)
    out = {}
    for layer, row in spans.layer_table(span_list, root).items():
        out[f"{layer}.self_share"] = row["self_share"]
        out[f"{layer}.path_share"] = row["path_share"]
    out["trace.root_wall_s"] = (root["end_ns"] - root["start_ns"]) * 1e-9
    return out


def layer_probe(env, shape, seeds):
    d = env.fresh_dir("layers")
    values = probe_json(env, [
        "layers", *shape, f"--first-seed={env.first_seed()}",
        f"--seeds={seeds}", f"--dir={d}/work",
        f"--spans-out={d}/spans.jsonl"], d / "log")
    check_nesting(load_spans(d / "spans.jsonl"))
    return values


def merge_tally(into, other):
    into.attempted += other.attempted
    for k, v in other.failed.items():
        into.failed[k] += v
