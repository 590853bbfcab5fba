#!/usr/bin/env python3
"""Benchmark of rarsim, the paper-reproduction batch simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 50 --trace 0

It builds cmd/rarsim once, then runs the workload as a closed loop: one
fresh rarsim child process at a time, each a whole batch job at -p 2,
timed from outside. Every run's report is checked against a reference
digest. With --trace 1 it also builds the traced pass (perfbench/layers),
which calls each layer in-process and reports per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
# The metric names, units and directions the result line uses.
BENCHMARK = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
PARALLELISM = "2"
CHILD_TIMEOUT_S = 160  # one child; the whole run must end within 180 s
# setup_s is the median of a run's set-ups: at least MIN_SETUPS, and more
# while they have taken under SETUP_SECONDS in all, up to MAX_SETUPS. A
# set-up of a few milliseconds is thus sampled dozens of times.
MIN_SETUPS, SETUP_SECONDS, MAX_SETUPS = 5, 2.0, 41

# exps: rarsim -exp; args: extra flags of the timed run.
WORKLOADS = {
    "suite": {"exps": "all", "args": []},
    "timing": {"exps": "fig9,fig10,ablmemspec,ablrecovery", "args": ["-size", "30"]},
}

# Simulated statistics of the traced pass over the 18 analogs: they
# depend only on the inputs and must match reference.json exactly.
PINNED_SIMULATED = [
    "funcsim.insts", "trace.events", "trace.raw_mib", "trace.resident_mib",
    "trace.compression_ratio", "cloak.loads", "cloak.coverage",
    "cloak.misspec", "pipeline.ipc", "store.encoded_mib",
    "experiments.cells", "experiments.cells_failed",
]

# The per-experiment wall-clock footer rarsim prints after each report,
# the only bytes of stdout that differ between runs.
TIMING_LINE = re.compile(rb"^\[[a-z0-9]+ in [0-9.]+s\]\n?", re.MULTILINE)


class BenchError(Exception):
    """A failure that leaves no result to print."""


def normalise(report):
    """Drop the per-experiment timing lines from a rarsim report."""
    return TIMING_LINE.sub(b"", report)


def report_digest(report):
    return hashlib.sha256(normalise(report)).hexdigest()


def report_matches(report, workload, refs):
    return report_digest(report) == refs["report_sha256"][workload]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Runner:
    """Owns the checkout's paths and the one child process running."""

    def __init__(self, root, build_dir):
        self.root = root
        self.build = os.path.join(root, build_dir)
        self.bin = os.path.join(self.build, "bin")
        self.child = None
        self.started = time.monotonic()
        self.go_env = dict(os.environ,
                           GOCACHE=os.path.join(self.build, "gocache"),
                           GOMODCACHE=os.path.join(self.build, "gomodcache"),
                           GOPATH=os.path.join(self.build, "gopath"),
                           XDG_CONFIG_HOME=os.path.join(self.build, "config"),
                           GOTOOLCHAIN="local", GOFLAGS="")

    def go_build(self, pkg_dir, out):
        os.makedirs(self.bin, exist_ok=True)
        res = subprocess.run(["go", "build", "-o", os.path.join(self.bin, out), "."],
                             cwd=pkg_dir, env=self.go_env,
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if res.returncode != 0:
            raise BenchError("go build %s failed:\n%s" % (pkg_dir, res.stdout.decode(errors="replace")))
        return os.path.join(self.bin, out)

    def spawn(self, argv, stdout_path, stderr_path):
        """Run one child to completion from the checkout root.

        Returns (exit code, wall seconds, rusage). The rusage comes from
        wait4 on this child alone, so max RSS is the child's own peak,
        not a running maximum over every child this process reaped.
        """
        budget = CHILD_TIMEOUT_S - (time.monotonic() - self.started)
        if budget <= 5:
            raise BenchError("out of time before starting %s" % argv[0])
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            t0 = time.monotonic()
            self.child = subprocess.Popen(argv, cwd=self.root, stdout=out, stderr=err)
            timer = threading.Timer(budget, self.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(self.child.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - t0
        code = os.waitstatus_to_exitcode(status)
        self.child.returncode = code
        self.child = None
        return code, wall, ru

    def kill(self):
        child = self.child
        if child is not None and child.returncode is None:
            try:
                child.kill()
            except ProcessLookupError:
                pass

    def stop(self, *_):
        """SIGTERM: kill the running child, reap it, and exit."""
        child = self.child
        self.kill()
        if child is not None and child.returncode is None:
            try:
                os.waitpid(child.pid, 0)
            except ChildProcessError:
                pass
            child.returncode = -signal.SIGKILL
        sys.exit(1)


# ---------------------------------------------------------------- checks


def check_inputs(runner, rarsim, rundir, exps):
    """The preparation every workload shares: the binary starts and the
    fixed inputs are there (the 18 analogs and the requested experiments).
    Returns (seconds, number of cells one run attempts)."""
    t0 = time.monotonic()
    out = os.path.join(rundir, "inputs.out")
    code_w, _, _ = runner.spawn([rarsim, "-workloads"], out, out + ".err")
    with open(out, "rb") as f:
        analogs = [l for l in f.read().decode().splitlines() if l and not l.startswith(" ")]
    code_l, _, _ = runner.spawn([rarsim, "-list"], out, out + ".err")
    with open(out, "rb") as f:
        known = [l.split()[0] for l in f.read().decode().splitlines() if l.strip()]
    elapsed = time.monotonic() - t0
    want = known if exps == "all" else exps.split(",")
    if code_w or code_l or len(analogs) != 18 or not set(want) <= set(known):
        raise BenchError("rarsim inputs: %d analogs, experiments %s (want 18 and %s)"
                         % (len(analogs), known, want))
    return elapsed, len(want) * len(analogs)


def fresh(path):
    """A -benchjson path must not exist yet: rarsim would read it as its
    cell-cost source, so a rerun could reorder the next run's cells."""
    if os.path.exists(path):
        raise BenchError("-benchjson path %s already exists" % path)
    return path


def cost_source(root):
    """Which file rarsim's scheduler reads its cell costs from. With a
    fresh -benchjson path it is BENCH_suite.json in the working directory
    when that file exists, and none otherwise."""
    path = os.path.join(root, "BENCH_suite.json")
    if not os.path.exists(path):
        return "none"
    with open(path, "rb") as f:
        return "BENCH_suite.json sha256:" + hashlib.sha256(f.read()).hexdigest()[:16]


def count_cells(benchjson_path, expected):
    """(attempted, failed) cells from a run's -benchjson. Cells missing
    from the payload (an experiment that failed or never ran) count as
    failed; so does a missing or unreadable payload."""
    try:
        with open(benchjson_path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return expected, expected
    cells = [c for e in doc.get("experiments", []) for c in e.get("cells") or []]
    failed = sum(1 for c in cells if c.get("failed"))
    return expected, min(expected, failed + max(0, expected - len(cells)))


# ------------------------------------------------------------- workloads


class Workload:
    def __init__(self, name, runner, rarsim, rundir, refs):
        self.name = name
        self.spec = WORKLOADS[name]
        self.runner = runner
        self.rarsim = rarsim
        self.rundir = rundir
        self.refs = refs
        self.setups = []  # preparation seconds
        self.reps = []  # one dict per timed run
        self.problems = []  # correctness failures
        self.cells = None

    def path(self, name):
        return os.path.join(self.rundir, name)

    def prepare(self):
        """One preparation step: the input check."""
        secs, self.cells = check_inputs(self.runner, self.rarsim, self.rundir, self.spec["exps"])
        self.setups.append(secs)

    def timed_run(self):
        i = len(self.reps) + 1
        bj = fresh(self.path("run%d.json" % i))
        out = self.path("run%d.out" % i)
        argv = [self.rarsim, "-exp", self.spec["exps"], "-p", PARALLELISM, "-benchjson", bj]
        argv += self.spec["args"]
        source = cost_source(self.runner.root)
        code, wall, ru = self.runner.spawn(argv, out, self.path("run%d.err" % i))
        if cost_source(self.runner.root) != source:
            self.problems.append("run %d rewrote BENCH_suite.json" % i)
        with open(out, "rb") as f:
            digest_ok = report_matches(f.read(), self.name, self.refs)
        attempted, failed = count_cells(bj, self.cells)
        if code != 0 or not digest_ok:
            failed = attempted
            self.problems.append("run %d: exit %d, report digest %s"
                                 % (i, code, "ok" if digest_ok else "MISMATCH"))
        rep = {"wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
               "peak_rss_mib": ru.ru_maxrss / 1024.0, "exit": code,
               "digest_ok": digest_ok, "attempted": attempted, "failed": failed,
               "cost_source": source}
        self.reps.append(rep)
        log("%s run %d: %.3f s wall, %.3f s cpu, %.1f MiB, exit %d, digest %s, cells %d/%d failed, costs from %s"
            % (self.name, i, wall, rep["cpu_s"], rep["peak_rss_mib"], code,
               "ok" if digest_ok else "MISMATCH", failed, attempted, source))
        return rep

    def measure(self, seconds):
        """Timed runs until the next one would overrun the measuring time
        (at least one), then enough extra preparations for a median."""
        measured = 0.0
        while True:
            self.prepare()
            self.timed_run()
            measured += self.reps[-1]["wall_s"]
            if measured + statistics.median([r["wall_s"] for r in self.reps]) > seconds:
                break
        while len(self.setups) < MIN_SETUPS or (
                sum(self.setups) < SETUP_SECONDS and len(self.setups) < MAX_SETUPS):
            self.prepare()

    def end_to_end(self):
        attempted = sum(r["attempted"] for r in self.reps)
        failed = sum(r["failed"] for r in self.reps)
        return {
            "wall_s": statistics.median([r["wall_s"] for r in self.reps]),
            "cpu_s": statistics.median([r["cpu_s"] for r in self.reps]),
            "peak_rss_mib": statistics.median([r["peak_rss_mib"] for r in self.reps]),
            "setup_s": statistics.median(self.setups),
            "cells_ok_frac": 1.0 - failed / attempted,
        }


def traced_pass(wl, layers, seed):
    """Run perfbench/layers over the workload's inputs and check it."""
    argv = [layers, "-exp", wl.spec["exps"], "-p", PARALLELISM] + wl.spec["args"]
    argv += ["-seed", str(seed), "-spans", wl.path("spans.json")]
    code, wall, _ = wl.runner.spawn(argv, wl.path("layers.out"), wl.path("layers.err"))
    if code != 0:
        with open(wl.path("layers.err"), errors="replace") as f:
            raise BenchError("traced pass exited %d:\n%s" % (code, f.read()[-2000:]))
    with open(wl.path("layers.out")) as f:
        res = json.loads(f.read().splitlines()[-1])
    ref = wl.refs["simulated"][wl.name]
    for k in PINNED_SIMULATED:
        if res["simulated"].get(k) != ref.get(k):
            wl.problems.append("traced pass: simulated %s = %r, reference %r"
                               % (k, res["simulated"].get(k), ref.get(k)))
    if res["report_sha256"] != wl.refs["report_sha256"][wl.name]:
        wl.problems.append("traced pass: in-process report digest mismatch")
    res["wall_s"] = wall
    log("%s traced pass: %.3f s, spans in %s" % (wl.name, wall, wl.path("spans.json")))
    return res


# ----------------------------------------------------------- fingerprint


def fingerprint(runner):
    """The machine and code a result was measured on."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    go = subprocess.run(["go", "env", "GOVERSION"], env=runner.go_env,
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.decode().strip()
    commit, dirty = None, None
    git_dir = os.path.join(runner.root, ".git")
    if os.path.isdir(git_dir) and shutil.which("git"):
        env = dict(os.environ, GIT_DIR=git_dir, GIT_WORK_TREE=runner.root)
        rev = subprocess.run(["git", "rev-parse", "HEAD"], env=env, cwd=runner.root,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if rev.returncode == 0:
            commit = rev.stdout.decode().strip()
            st = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                env=env, cwd=runner.root, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
            dirty = bool(st.stdout.strip())
    return {
        "cpu_model": cpu,
        "nproc": nproc,
        "gomaxprocs": int(os.environ.get("GOMAXPROCS") or nproc),
        "go_version": go,
        "commit": commit,
        "dirty": dirty,
        "source_sha256": source_digest(runner.root),
        "loadavg_before": list(os.getloadavg()),
    }


def cpu_ticks():
    """(steal, total) clock ticks of all CPUs so far, from /proc/stat.
    Steal is time the hypervisor gave this machine's CPUs to others."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def source_digest(root):
    """Hash of the program's sources: identifies the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(".") and d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".go", ".mod", ".sum")):
                p = os.path.join(dirpath, name)
                h.update(os.path.relpath(p, root).encode() + b"\0")
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


# ------------------------------------------------------------------ main


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "cmd", "rarsim"))):
        log("run.py: %s is not a rarsim source checkout (no go.mod or cmd/rarsim)" % root)
        return 2
    with open(REFERENCE) as f:
        refs = json.load(f)
    with open(BENCHMARK) as f:
        bench = json.load(f)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    runner = Runner(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    signal.signal(signal.SIGTERM, runner.stop)
    try:
        rarsim = runner.go_build(os.path.join(root, "cmd", "rarsim"), "rarsim")
        layers = runner.go_build(os.path.join(BENCH_DIR, "layers"), "layers") if args.trace else None
        runner.started = time.monotonic()  # the time limit covers the runs, not a cold build
        rundir = os.path.join(runner.build, "runs", "%s-seed%d-trace%d-%d"
                              % (args.workload, args.seed, args.trace, time.time_ns()))
        os.makedirs(rundir)
        fp = fingerprint(runner)
        ticks = cpu_ticks()
        wl = Workload(args.workload, runner, rarsim, rundir, refs)
        traced_s = None
        if args.trace:
            # One untraced run of the same workload gives the base the
            # tracing overhead is measured against.
            wl.prepare()
            wl.timed_run()
            res = traced_pass(wl, layers, args.seed)
            metrics = dict(res["metrics"])
            metrics["bench.trace_overhead_frac"] = \
                metrics["experiments.suite_s"] / wl.reps[0]["wall_s"] - 1
            fp["gomaxprocs"] = res["gomaxprocs"]
            traced_s = res["wall_s"]
            attempted = wl.reps[0]["attempted"] + int(metrics["experiments.cells"])
            failed = wl.reps[0]["failed"] + int(metrics["experiments.cells_failed"])
        else:
            wl.measure(args.seconds)
            metrics = wl.end_to_end()
            attempted = sum(r["attempted"] for r in wl.reps)
            failed = sum(r["failed"] for r in wl.reps)
        if set(metrics) != set(units):
            raise BenchError("metrics differ from BENCHMARK.json %s: extra %s, missing %s"
                             % (kind, sorted(set(metrics) - set(units)), sorted(set(units) - set(metrics))))
        metrics = {name: metrics[name] for name in units}
    except BenchError as e:
        log("run.py: %s" % e)
        return 1
    fp["loadavg_after"] = list(os.getloadavg())
    steal, total = (b - a for a, b in zip(ticks, cpu_ticks()))
    fp["cpu_steal_frac"] = steal / total if total else None
    correct = not wl.problems and failed == 0
    for p in wl.problems:
        log("run.py: INCORRECT: " + p)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "fingerprint": fp, "setups_s": wl.setups, "runs": wl.reps,
               "traced_pass_s": traced_s, "problems": wl.problems, "metrics": metrics}
    with open(os.path.join(rundir, "result.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print("fingerprint " + json.dumps(fp))
    print("samples: %d timed run(s), %d set-up(s); cells_failed_frac %.6f"
          % (len(wl.reps), len(wl.setups), failed / attempted))
    for name, value in metrics.items():
        print("%-36s %14.6f %s" % (name, value, units[name]))
    if args.trace:
        print("traced pass: %.3f s wall" % traced_s)
        print("note: store.encode_s and store.decode_s time in-memory EncodeStream/DecodeStream; no disk I/O")
    print(result_line(correct, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
