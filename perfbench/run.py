#!/usr/bin/env python3
"""The repo benchmark: `compile`, `interp` and `native` workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

It builds `mmc` and the harness `mmbench` from ../src (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), generates the
seeded inputs under that build directory, measures one workload for
--seconds in a closed loop with one client, checks every program output
against the oracle in harness/oracle.cpp, and prints one line per metric
followed by a JSON result as the last line. --trace 1 runs the per-layer
ledger instead (see NOTES.md for what each metric should move).
"""
import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("compile", "interp", "native")
RUNNABLE = ("tmean", "eddy", "chain", "hostloop", "matmul")
CORPUS = RUNNABLE + ("large",)
# Emitted-C eddy fails with more than one OpenMP thread (NOTES.md).
NATIVE = ("tmean", "chain", "hostloop", "matmul")
# setup_s is the median of at least SETUP_REPS set-ups spanning at least
# SETUP_SECONDS, so cheap set-ups are repeated until their median is steady.
SETUP_REPS = 3
SETUP_SECONDS = 1.0
# `native` inputs are this much larger (harness/programs.hpp), so the
# emitted code, not process start-up, dominates a binary's run time.
NATIVE_SCALE = 2
THREADS = min(4, os.cpu_count() or 1)
# The emitted binaries run one OpenMP thread. With more, the barriers of
# their parallel regions made `native` follow the host's load: spinning
# threads stall behind any neighbour (two CPU hogs: `hostloop` 4.5 ms ->
# 4.2 s), and sleeping ones wait for the VM to wake a vCPU, which took twice
# as long one hour as the next (NOTES.md).
NATIVE_THREADS = 1
CC = ["cc", "-O2", "-msse4.2", "-fopenmp"]
# Phase timers of `mmc --stats-json` cross-checked against the ledger.
XCHECK = {"compose": "compose.total_ms", "parse": "parse.ms",
          "optimizer": "optimizer.ms", "shapecheck": "shapecheck.ms",
          "depend": "depend.ms", "emit": "cemit.ms"}

END_TO_END = {"op_ms.p50": "ms", "op_ms.p90": "ms", "setup_s": "s",
              "peak_rss_mb": "MiB", "emitted_c_kb": "KiB"}
PER_LAYER = {
    "compose.grammar_ms": "ms", "compose.lalr_ms": "ms",
    "compose.scanner_ms": "ms", "compose.total_ms": "ms",
    "compose.lalr_states": "count",
    "parse.ms": "ms", "parse.kb_per_s": "KiB/s", "lower.ms": "ms",
    "ir.stmts": "count",
    "optimizer.ms": "ms", "optimizer.rewrites": "count",
    "optimizer.autopar_ratio": "ratio", "ir.stmts_o1": "count",
    "parsafe.ms": "ms", "shapecheck.ms": "ms", "depend.ms": "ms",
    "shapecheck.elided_ratio": "ratio", "depend.unknown": "count",
    "cemit.ms": "ms", "cemit.kb": "KiB", "cc.s": "s",
    **{f"interp.run_ms.{p}": "ms" for p in RUNNABLE},
    **{f"interp.stmts.{p}": "count" for p in RUNNABLE},
    "kernel.matmul_ms": "ms", "kernel.matmul_count": "count",
    **{f"memsys.allocs.{p}": "count" for p in RUNNABLE},
    "memsys.alloc_mb": "MiB", "memsys.cache_hit_ratio": "ratio",
    "pool.regions": "count", "pool.inlined_ratio": "ratio",
    "pool.busy_ratio": "ratio", "pool.stopwait_ms": "ms",
    **{f"native.run_ms.{p}": "ms" for p in NATIVE},
    "native.allocs": "count", "native.matmul_ms": "ms",
    "native.omp_busy_ratio": "ratio",
    "trace.op_ms": "ms", "trace.untraced_op_ms": "ms",
    "trace.overhead_ratio": "ratio",
    **{f"xcheck.{phase}_ratio": "ratio" for phase in XCHECK},
}


class Failure(Exception):
    """The benchmark cannot produce a result (build or set-up failed)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(cmd, cwd, env=None, timeout=120):
    """Runs `cmd` to completion. Returns (exit code, stdout, stderr, wall
    seconds, peak RSS in KiB) of that one child."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(errors="replace"),
                err.read().decode(errors="replace"), wall, usage.ru_maxrss)


def checksum(text):
    """The number on the last line a program printed, or None."""
    try:
        return float(text.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


def pinned_env():
    """Clears every MMX_* and OMP_* variable so an ambient MMX_ALLOC,
    MMX_BACKEND or OMP_NUM_THREADS cannot change what is measured. Returns
    the cleared values for the host stamp."""
    cleared = {k: v for k, v in os.environ.items()
               if k.startswith(("MMX_", "OMP_"))}
    for k in cleared:
        del os.environ[k]
    return cleared


class Bench:
    def __init__(self, args):
        self.args = args
        self.root = os.getcwd()
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.build_dir = os.path.join(self.root, target, "perfbench")
        self.mmc = os.path.join(self.build_dir, "mmext", "driver", "mmc")
        self.mmbench = os.path.join(self.build_dir, "mmbench")
        self.work = os.path.join(self.build_dir, "work", args.workload)
        # cc and the harness write temporaries here, not to /tmp.
        self.tmp = os.path.join(self.build_dir, "tmp")
        self.threads = THREADS
        self.rng = random.Random(args.seed)
        self.attempted = 0
        self.failed = 0
        self.refs = {}

    # ---- build and set-up ------------------------------------------------

    def build(self):
        if not os.path.exists(os.path.join(self.root, "src", "CMakeLists.txt")):
            raise Failure("no translator sources under src/; run from the "
                          "root of a source checkout")
        os.makedirs(self.tmp, exist_ok=True)
        os.environ["TMPDIR"] = self.tmp
        tempfile.tempdir = self.tmp
        steps = []
        if not os.path.exists(os.path.join(self.build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", self.build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", self.build_dir, "-j",
                      str(self.threads), "--target", "mmc", "mmbench"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                raise Failure("build failed: " + " ".join(cmd))

    def harness(self, *argv, timeout=170):
        code, out, err, _, _ = run([self.mmbench, *argv, "--dir", self.work],
                                   self.work, timeout=timeout)
        if code:
            raise Failure(f"mmbench {argv[0]} failed ({code}): {err.strip()}")
        return json.loads(out) if out.strip() else None

    def fresh_work(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)

    def gen(self, scale=1):
        self.harness("gen", "--seed", str(self.args.seed), "--scale", str(scale))

    def load_refs(self):
        self.harness("refs")
        with open(os.path.join(self.work, "refs.json")) as f:
            self.refs = json.load(f)

    def mmc_emit(self, prog, *flags):
        code, out, err, _, _ = run([self.mmc, prog + ".xc", "-O1", "--emit-c",
                                    *flags], self.work)
        if code or not out:
            raise Failure(f"mmc --emit-c {prog} failed ({code}): {err.strip()}")
        return out

    def build_native(self, prog, instrument="off"):
        """Emits and compiles one program; returns (binary, C size, cc s)."""
        code = self.mmc_emit(prog, "--instrument=" + instrument)
        base = os.path.join(self.work, f"{prog}.{instrument}")
        with open(base + ".c", "w") as f:
            f.write(code)
        rc, _, err, wall, _ = run(CC + [base + ".c", "-o", base, "-lm"],
                                  self.work, timeout=170)
        if rc:
            raise Failure(f"cc {prog} failed: {err.strip()}")
        return base, len(code), wall

    # ---- output checks -----------------------------------------------------

    def agrees(self, prog, text, expected):
        """True when `text` prints a checksum within the program's tolerance
        of `expected` (printFloat keeps six significant digits)."""
        got = checksum(text)
        if got is None or expected is None:
            return False
        ref = self.refs[prog]
        slack = ref["rtol"] * ref["mag"] + 1e-5 * abs(expected)
        return abs(got - expected) <= slack

    def correct(self, prog, text):
        return self.agrees(prog, text, self.refs[prog]["value"])

    def count(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("perfbench: failed: " + what)

    # ---- workloads ---------------------------------------------------------

    def timed_setup(self, setup):
        times = []
        start = time.perf_counter()
        while (len(times) < SETUP_REPS or
               time.perf_counter() - start < SETUP_SECONDS):
            self.fresh_work()
            t0 = time.perf_counter()
            setup()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def closed_loop(self, op):
        """Runs `op` back to back for --seconds after one untimed warm-up
        op; returns the wall times, in ms, of the ops that succeeded."""
        self.count(op(), "warm-up op")
        times = []
        start = time.perf_counter()
        while time.perf_counter() - start < self.args.seconds:
            t0 = time.perf_counter()
            ok = op()
            ms = (time.perf_counter() - t0) * 1e3
            self.count(ok, "op")
            if ok:
                times.append(ms)
        return times

    def workload_compile(self):
        """Each op: one cold `mmc -O1 --emit-c` process per program."""
        setup_s = self.timed_setup(self.gen)
        emitted, peak = {}, [0]

        def op():
            ok = True
            for prog in self.rng.sample(CORPUS, len(CORPUS)):
                code, out, err, _, rss = run(
                    [self.mmc, prog + ".xc", "-O1", "--emit-c"], self.work)
                peak[0] = max(peak[0], rss)
                digest = hashlib.sha256(out.encode()).hexdigest()
                # Every compile of a program must give byte-identical C.
                same = emitted.setdefault(prog, (digest, len(out)))[0] == digest
                if code or not out or not same:
                    log(f"perfbench: compile {prog}: exit {code} {err.strip()}")
                    ok = False
            return ok

        times = self.closed_loop(op)
        for prog in CORPUS:
            self.count(self.deterministic(prog, emitted[prog][0]),
                       f"{prog}: compiles differ")
        kb = sum(size for _, size in emitted.values()) / 1024
        return times, setup_s, peak[0], kb

    def deterministic(self, prog, digest):
        """Two more compiles with --stats-json: same C, same opt.* counters."""
        counters = []
        for i in range(2):
            stats = os.path.join(self.work, f"{prog}.det{i}.json")
            out = self.mmc_emit(prog, "--stats-json", stats)
            with open(stats) as f:
                counters.append({k: v for k, v in json.load(f).items()
                                 if k.startswith("opt.")})
            if hashlib.sha256(out.encode()).hexdigest() != digest:
                return False
        return counters[0] == counters[1]

    def workload_interp(self):
        """Each op: Machine::runMain of every runnable program, in-process."""
        self.fresh_work()
        res = self.harness("interp", "--seed", str(self.args.seed),
                           "--seconds", str(self.args.seconds),
                           "--threads", str(self.threads),
                           "--setups", str(SETUP_REPS),
                           "--setup-seconds", str(SETUP_SECONDS))
        with open(os.path.join(self.work, "refs.json")) as f:
            self.refs = json.load(f)
        times = []
        for op in res["ops"]:
            ok = (len(op["outs"]) == len(RUNNABLE) and
                  all(self.correct(p, out) for p, out in op["outs"].items()))
            self.count(ok, f"interp outputs {op['outs']}")
            if ok:
                times.append(op["ms"])
        return (times, statistics.median(res["setup_s"]), res["peak_rss_kb"],
                res["emitted_c_bytes"] / 1024)

    def interp_outputs(self, progs):
        """Each program's output on the interpreter via `mmc`, checked."""
        outs = {}
        for prog in progs:
            code, out, err, _, _ = run([self.mmc, prog + ".xc", "-O1",
                                        "--threads", str(self.threads)],
                                       self.work)
            self.count(code == 0 and self.correct(prog, out),
                       f"interp {prog}: exit {code} {out!r} {err.strip()}")
            outs[prog] = out
        return outs

    def native_env(self, **extra):
        return dict(os.environ, OMP_NUM_THREADS=str(NATIVE_THREADS), **extra)

    def run_native(self, prog, binary, interp_out, env, peak=None):
        code, out, err, _, rss = run([binary], self.work, env=env)
        if peak is not None:
            peak[0] = max(peak[0], rss)
        ok = (code == 0 and self.correct(prog, out) and
              self.agrees(prog, out, checksum(interp_out)))
        if not ok:
            log(f"perfbench: native {prog}: exit {code} {out!r} {err.strip()}")
        return ok

    def workload_native(self):
        """Each op: one run of every emitted-C binary on NATIVE_THREADS."""
        built = {}

        def setup():
            self.gen(NATIVE_SCALE)
            for prog in NATIVE:
                built[prog] = self.build_native(prog)

        setup_s = self.timed_setup(setup)
        self.load_refs()
        interp = self.interp_outputs(NATIVE)
        env, peak = self.native_env(), [0]

        def op():
            ok = True
            for prog in self.rng.sample(NATIVE, len(NATIVE)):
                ok &= self.run_native(prog, built[prog][0], interp[prog], env,
                                      peak)
            return ok

        times = self.closed_loop(op)
        kb = sum(size for _, size, _ in built.values()) / 1024
        return times, setup_s, peak[0], kb

    # ---- traced per-layer run ------------------------------------------------

    def traced(self):
        self.fresh_work()
        self.gen()
        self.load_refs()
        seconds = self.args.seconds if self.args.workload != "native" else 0
        led = self.harness("ledger", "--seed", str(self.args.seed),
                           "--seconds", str(seconds),
                           "--threads", str(self.threads),
                           "--workload", self.args.workload)
        for prog, out in led["outs"].items():
            self.count(self.correct(prog, out), f"ledger {prog}: {out!r}")
        self.attempted += int(led["attempted"])
        self.failed += int(led["failed"])
        m = dict(led["metrics"])
        self.gen(NATIVE_SCALE)
        self.load_refs()
        m.update(self.native_ledger())
        m.update(self.cross_check(m))
        return m

    def native_ledger(self):
        """Emitted-runtime layers: cc time, per-program run time of the
        uninstrumented binaries, and the counters of --instrument=counters
        builds ($MMX_PROF_JSON)."""
        m, plain, counted = {"cc.s": 0.0}, {}, {}
        for prog in NATIVE:
            plain[prog], _, cc_s = self.build_native(prog)
            counted[prog] = self.build_native(prog, "counters")[0]
            m["cc.s"] += cc_s
        interp = self.interp_outputs(NATIVE)
        env = self.native_env()
        for prog in NATIVE:
            walls = []
            for _ in range(5):
                code, out, _, wall, _ = run([plain[prog]], self.work, env=env)
                self.count(code == 0 and self.correct(prog, out),
                           f"native {prog}: {out!r}")
                walls.append(wall * 1e3)
            m[f"native.run_ms.{prog}"] = statistics.median(walls)

        allocs = matmul_ns = busy = busy_cap = 0
        for prog in NATIVE:
            prof = os.path.join(self.work, prog + ".prof.json")
            self.count(self.run_native(prog, counted[prog], interp[prog],
                                       self.native_env(MMX_PROF_JSON=prof)),
                       f"instrumented {prog}")
            with open(prof) as f:
                stats = json.load(f)
            allocs += stats.get("rt.alloc.count", 0)
            matmul_ns += stats.get("kernel.matmul.ns", 0)
            per_thread = [v for k, v in stats.items()
                          if k.startswith("omp.t") and k.endswith(".busy_ns")]
            if per_thread:
                busy += sum(per_thread)
                busy_cap += NATIVE_THREADS * max(per_thread)
        m["native.allocs"] = allocs
        m["native.matmul_ms"] = matmul_ns / 1e6
        m["native.omp_busy_ratio"] = busy / busy_cap if busy_cap else 0.0

        if self.args.workload == "native":
            traced, untraced = [], []
            start = time.perf_counter()
            while time.perf_counter() - start < self.args.seconds:
                for bins, extra, sink in ((counted, True, traced),
                                          (plain, False, untraced)):
                    t0 = time.perf_counter()
                    ok = True
                    for prog in self.rng.sample(NATIVE, len(NATIVE)):
                        env = self.native_env(**(
                            {"MMX_PROF_JSON": os.path.join(
                                self.work, prog + ".op.json")} if extra else {}))
                        ok &= self.run_native(prog, bins[prog], interp[prog],
                                              env)
                    sink.append((time.perf_counter() - t0) * 1e3)
                    self.count(ok, "traced native op")
            m["trace.op_ms"] = statistics.median(traced)
            m["trace.untraced_op_ms"] = statistics.median(untraced)
            m["trace.overhead_ratio"] = m["trace.op_ms"] / m["trace.untraced_op_ms"]
        return m

    def cross_check(self, m):
        """Ledger phase times over mmc's own --stats-json phase timers for
        the same corpus (compose: one composition; others: corpus sums)."""
        mmc = {phase: 0.0 for phase in XCHECK}
        compose = []
        for prog in CORPUS:
            runs = []
            for i in range(3):
                stats = os.path.join(self.work, f"{prog}.xcheck{i}.json")
                self.mmc_emit(prog, "--stats-json", stats)
                with open(stats) as f:
                    runs.append(json.load(f))
            compose += [r["compose.ns"] / 1e6 for r in runs]
            for phase in XCHECK:
                if phase != "compose":
                    mmc[phase] += statistics.median(
                        r.get(phase + ".ns", 0) / 1e6 for r in runs)
        mmc["compose"] = statistics.median(compose)
        return {f"xcheck.{phase}_ratio": m[key] / mmc[phase] if mmc[phase] else 0.0
                for phase, key in XCHECK.items()}

    # ---- result --------------------------------------------------------------

    def host_stamp(self, cleared):
        cpu = ""
        try:
            with open("/proc/cpuinfo") as f:
                cpu = next((line.split(":", 1)[1].strip() for line in f
                            if line.startswith("model name")), "")
        except OSError:
            pass
        cc = subprocess.run(["cc", "--version"], capture_output=True, text=True)
        host = {"nproc": os.cpu_count(), "cpu": cpu,
                "cc": cc.stdout.splitlines()[0] if cc.stdout else "",
                "threads": self.threads, "native_threads": NATIVE_THREADS,
                "cleared_env": cleared}
        host.update(self.harness("host"))
        return host

    def measure(self):
        if self.args.trace:
            values = self.traced()
            units = PER_LAYER
        else:
            times, setup_s, peak_kb, kb = getattr(
                self, "workload_" + self.args.workload)()
            if not times:
                raise Failure("no op succeeded")
            values = {"op_ms.p50": statistics.median(times),
                      "op_ms.p90": statistics.quantiles(times, n=10)[-1]
                      if len(times) > 1 else times[0],
                      "setup_s": setup_s, "peak_rss_mb": peak_kb / 1024,
                      "emitted_c_kb": kb}
            units = END_TO_END
            print(f"{self.args.workload}  ops={len(times)}")
        missing = set(units) - set(values)
        if missing:
            raise Failure("metrics not measured: " + ", ".join(sorted(missing)))
        return {name: {"value": values[name], "unit": unit}
                for name, unit in units.items()}


def smoke(seed):
    """Runs every workload briefly, untraced and traced; fails when an op
    fails or a named metric is missing."""
    names = {0: set(END_TO_END), 1: set(PER_LAYER)}
    declared = os.path.join(os.getcwd(), "BENCHMARK.json")
    if os.path.exists(declared):
        with open(declared) as f:
            spec = json.load(f)
        names = {0: {m["name"] for m in spec["end_to_end"]},
                 1: {m["name"] for m in spec["per_layer"]}}
        if names != {0: set(END_TO_END), 1: set(PER_LAYER)}:
            log("perfbench smoke: BENCHMARK.json and run.py name different metrics")
            return 1
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   workload, "--seed", str(seed), "--seconds", "1",
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
                problem = ("failed ops" if res["failed"] or not res["correct"]
                           else "missing " + ", ".join(
                               sorted(names[trace] - set(res["metrics"])))
                           if names[trace] - set(res["metrics"]) else "")
            except (IndexError, ValueError, KeyError):
                problem = f"no result (exit {proc.returncode}): {proc.stderr[-500:]}"
            print(f"smoke {workload} trace={trace}: {problem or 'ok'}")
            bad += bool(problem)
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="short run of every workload; fails on any failed "
                         "op or missing metric")
    args = ap.parse_args()
    if args.smoke:
        return smoke(args.seed)
    if not args.workload:
        ap.error("--workload is required")
    cleared = pinned_env()
    bench = Bench(args)
    try:
        bench.build()
        os.makedirs(bench.work, exist_ok=True)
        print("host " + json.dumps(bench.host_stamp(cleared)))
        metrics = bench.measure()
    except Failure as e:
        log(f"perfbench: {e}")
        return 1
    for name, m in metrics.items():
        print(f"{args.workload}  {name}  {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  failed_ratio  "
          f"{bench.failed / max(bench.attempted, 1):.6g} "
          f"({bench.failed}/{bench.attempted})")
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": max(bench.attempted, 1),
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
