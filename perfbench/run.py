"""Benchmark of the nodalwitness decision engine: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the measured package is the `src/` next to this
directory, never an installed copy.  The load is a closed loop with a single
caller and no threads: each operation starts when the previous one ends.
Instances come from the seed and are parsed in set-up; the timed loop
cycles over them for S seconds and every answer is checked (see
workloads.py).

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports per-layer metrics from a separate traced run: the
first half of the time runs untraced, then the same operations run again
with spans around the package's public functions, and `trace.overhead` is
1 - traced ops/s / untraced ops/s.  Earlier lines print every metric with
its unit, the error rate, the tail percentile, the machine-speed scale the
end-to-end times are divided by (see Speed) with the measured values, and
the environment.  The exit code is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter, thread_time
from typing import Optional

sys.dont_write_bytecode = True  # the benchmark's own modules leave no caches

import spans  # noqa: E402
import workloads as W  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = tuple(W.LIBRARY)
# the highest percentile with at least ten samples beyond it at the usual
# operation counts of a run
TAIL_PERCENTILE = {"nodal-dvr": 99, "witness-dvr": 98, "bivariate": 99}
SETUP_REPEATS = 3
WARMUP_OPS = 5
LAYER_REPEATS = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "decided_ratio": "ratio",
    "witness_bytes_per_op": "bytes",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
STAT_UNITS = {"calls": "count", "fail": "count", "undecidable": "count", "rejected": "count",
              "basis_max": "count", "total_s": "s", "self_s": "s",
              "true_ratio": "ratio", "hit_ratio": "ratio"}


def per_layer_units() -> dict:
    units = {}
    for mod, path, stats in spans.TARGETS:
        for stat in stats:
            units[f"{mod}.{path}.{stat}"] = STAT_UNITS[stat]
    for mod, path in spans.COUNTED:
        units[f"{mod}.{path}.calls"] = "count"
    for mod in spans.MODULES + ("untraced",):
        units[f"{mod}.self_share"] = "ratio"
    units["trace.overhead"] = "ratio"
    for key in ("interpreter_ms", "import_ms", "compile_ms"):
        units[f"cli.{key}"] = "ms"
    return units


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


# --- the measured checkout -----------------------------------------------------


def check_package_path(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"measured nodalwitness is {path}, not under {SRC}")


def source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "nodalwitness").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


# --- the timed loop ------------------------------------------------------------


CALIBRATE_EVERY_S = 0.1
KERNEL_RUNS = 3
REFERENCE_KERNEL_MS = 0.4  # a fixed reference: the kernel's time on an uncontended core of a 2-core x86-64 VM


def kernel() -> None:
    """A fixed piece of the engine's kind of work, without the engine: a
    truncated product of Fraction series and a sparse product of dict
    polynomials.  It slows on a contended core about as the engine does
    (closer than a plain Fraction loop)."""
    a = [Fraction(i + 1, 2 * i + 3) for i in range(10)]
    b = [Fraction(3 - i, i + 2) for i in range(10)]
    [sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0)) for n in range(10)]
    p = {(i, j): Fraction(i - j, i + j + 1) for i in range(3) for j in range(3)}
    q: dict = {}
    for (i, j), x in p.items():
        for (k, m), y in p.items():
            q[i + k, j + m] = q.get((i + k, j + m), 0) + x * y


class Speed:
    """How fast the machine runs, moment by moment, while the benchmark runs.

    On a shared machine each core, on its own, switches every second or so
    between speeds up to 1.8 times apart.  Every CALIBRATE_EVERY_S seconds,
    between operations (and between rounds of set-up), the benchmark times
    `kernel` (the fastest of KERNEL_RUNS runs, so that one
    interruption does not count) on its core and on the next allowed one,
    and pins itself to the faster.  A stretch is the time between two
    samples, spent on one core; its scale is the mean of that core's kernel
    times at the stretch's start and end over REFERENCE_KERNEL_MS, and the
    latencies measured in it, and its share of the elapsed time, are
    divided by it.  The kernel does not touch the package, so a change to
    the package moves the reported times as it moves the measured ones.
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock  # the clock stretches are measured on
        self.start_ms: list = []  # kernel ms at each sample, on the core then chosen
        self.end_ms: list = []  # kernel ms at each sample, on the core of the stretch before
        self.stretches: list = []  # seconds on `clock` between consecutive samples
        self.spent = 0.0  # seconds spent in the kernel
        self._mark = 0.0
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu = self.cpus[0]
        self._probe = 0
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpu})
        self.sample()

    @staticmethod
    def _time_kernel() -> float:
        best = float("inf")
        for _ in range(KERNEL_RUNS):
            k0 = perf_counter()
            kernel()
            best = min(best, perf_counter() - k0)
        return best * 1e3

    def sample(self) -> None:
        t0 = self.clock()
        if self.start_ms:
            self.stretches.append(t0 - self._mark)
        here = self._time_kernel()
        self.end_ms.append(here)
        if len(self.cpus) > 1:
            # each core slows down and recovers on its own: try the next
            # allowed core and stay on the faster one
            self._probe = (self._probe + 1) % len(self.cpus)
            cpu = self.cpus[self._probe]
            if cpu != self.cpu:
                os.sched_setaffinity(0, {cpu})
                there = self._time_kernel()
                if there < here:
                    self.cpu, here = cpu, there
                else:
                    os.sched_setaffinity(0, {self.cpu})
        self.start_ms.append(here)
        self._mark = self.clock()
        self.spent += self._mark - t0

    def tick(self) -> None:
        if self.clock() - self._mark >= CALIBRATE_EVERY_S:
            self.sample()

    def close(self) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, self.cpus)

    @property
    def stretch(self) -> int:
        """The index of the stretch that starts at the latest sample."""
        return len(self.start_ms) - 1

    def scale(self, j: int) -> float:
        return (self.start_ms[j] + self.end_ms[j + 1]) / 2 / REFERENCE_KERNEL_MS

    def scaled_elapsed(self, since: int = 0) -> float:
        """Seconds at the reference speed of the stretches from `since` on."""
        return sum(self.stretches[j] / self.scale(j) for j in range(since, len(self.stretches)))

    @property
    def median_scale(self) -> float:
        return statistics.median(self.start_ms) / REFERENCE_KERNEL_MS


class Tally:
    """Latencies and errors of every operation run; decisions and witness
    sizes of each distinct pool operation once, so that they do not depend
    on how many passes over the pool a run completes."""

    def __init__(self):
        self.latencies: list = []
        self.indices: list = []  # the pool index of each operation run
        self.stretches: list = []  # the Speed stretch each operation ran in
        self.errors: list = []
        self.first: dict = {}  # pool index -> Outcome

    def add(self, index: int, latency: float, out: W.Outcome, kind: str, stretch=0) -> None:
        self.latencies.append(latency)
        self.indices.append(index)
        self.stretches.append(stretch)
        if out.error:
            self.errors.append(f"{kind}: {out.error}")
        self.first.setdefault(index, out)

    def merge(self, other: "Tally") -> None:
        self.latencies += other.latencies
        self.indices += other.indices
        self.stretches += other.stretches
        self.errors += other.errors
        for index, out in other.first.items():
            self.first.setdefault(index, out)

    def scaled(self, speed: Speed) -> list:
        return [t / speed.scale(j) for t, j in zip(self.latencies, self.stretches)]


def _running(t_start, seconds, done, count) -> bool:
    """Run for `seconds`, or for exactly `count` operations when one is given."""
    return perf_counter() - t_start < seconds if count is None else done < count


def measure_library(E, pool, seconds=None, count=None, tracer=None, speed=None) -> Tally:
    """Run the closed loop; latencies on the clock of `speed` (wall time without one)."""
    tally = Tally()
    clock = speed.clock if speed else perf_counter
    n, i = len(pool), 0
    t_start = perf_counter()
    while _running(t_start, seconds, i, count):
        if speed:
            speed.tick()
        op = pool[i % n]
        E.P.set_spair_cap(None)
        if tracer:
            tracer.op, tracer.enabled = i, True
        t0 = clock()
        try:
            result, exc = op.run(), None
        except Exception as e:  # every failure is counted against the run
            result, exc = None, e
        t1 = clock()
        if tracer:
            tracer.enabled = False
        tally.add(i % n, t1 - t0, op.check(result, exc), op.kind,
                  speed.stretch if speed else 0)
        i += 1
    if speed:
        speed.sample()  # closes the last stretch
    return tally


# --- child processes -----------------------------------------------------------


def child_env(pycache: Path, write_bytecode: bool = True) -> dict:
    """The environment of an installed package: the checkout's src on the path,
    bytecode written to (and read from) a cache the benchmark owns."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd, env) -> float:
    """Seconds one child process took; it is waited for, and killed on timeout."""
    t0 = perf_counter()
    subprocess.run(cmd, capture_output=True, env=env, timeout=60, check=True)
    return perf_counter() - t0


def import_probe(env) -> tuple:
    """(seconds `import nodalwitness.cli` took inside a child, the file it loaded)."""
    code = ("import time; t = time.perf_counter(); import nodalwitness.cli, nodalwitness; "
            "print(time.perf_counter() - t); print(nodalwitness.__file__)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    secs, path = out.split("\n")[:2]
    return float(secs), path


# --- set-up --------------------------------------------------------------------


def import_library(tmp: Path, speed: Optional[Speed] = None):
    """Import the checkout's package with a warm, benchmark-owned bytecode cache;
    the seconds the import took (one Speed stretch when `speed` is given)."""
    pycache = tmp / "pycache"
    _, path = import_probe(child_env(pycache))
    check_package_path(path)
    sys.pycache_prefix = str(pycache)
    sys.path.insert(0, str(SRC))
    if speed:
        speed.sample()
    t0 = perf_counter()
    importlib.import_module("nodalwitness.cli")
    import_s = perf_counter() - t0
    if speed:
        speed.sample()
    check_package_path(sys.modules["nodalwitness"].__file__)
    return W.Engine(), import_s


def warm_up(pool, tick=lambda: None) -> None:
    for op in pool[:WARMUP_OPS]:
        tick()
        try:
            op.run()
        except Exception:  # checked when the operation comes round in the loop
            pass


def cli_layer_ms(tmp: Path) -> dict:
    """Interpreter start, warm package import, and compile cost of a cold import."""
    warm_dir = tmp / "pycache-layer"
    warm_env = child_env(warm_dir)
    import_probe(warm_env)
    interp = [run_child([sys.executable, "-c", "pass"], warm_env) for _ in range(LAYER_REPEATS)]
    warm = [import_probe(warm_env)[0] for _ in range(LAYER_REPEATS)]
    cold = []
    for i in range(LAYER_REPEATS):
        # the warm cache minus the package's own entries: only the package compiles
        cold_dir = tmp / f"pycache-cold-{i}"
        shutil.copytree(warm_dir, cold_dir)
        shutil.rmtree(cold_dir / str(SRC.resolve()).lstrip(os.sep))
        cold.append(import_probe(child_env(cold_dir, write_bytecode=False))[0])
    warm_ms = statistics.median(warm) * 1e3
    return {"cli.interpreter_ms": statistics.median(interp) * 1e3,
            "cli.import_ms": warm_ms,
            "cli.compile_ms": statistics.median(cold) * 1e3 - warm_ms}


# --- metrics -------------------------------------------------------------------


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(tally: Tally, setup_s: float, rss_mb: float, tail_p: int,
               speed: Optional[Speed] = None) -> dict:
    """The end-to-end metrics; with `speed`, times at the reference speed."""
    lat_ms = [x * 1e3 for x in (tally.scaled(speed) if speed else tally.latencies)]
    # a closed loop's rate over the pool: each operation run counts once, with
    # its mean latency, wherever the run's end falls among the long ones
    per_op: dict = {}
    for index, ms in zip(tally.indices, lat_ms):
        per_op.setdefault(index, []).append(ms)
    ops_per_s = len(per_op) * 1e3 / sum(statistics.fmean(v) for v in per_op.values())
    firsts = tally.first.values()
    decisions = sum(o.decisions for o in firsts)
    wb = [b for o in firsts for b in o.witness_bytes]
    return {
        "ops_per_s": ops_per_s,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": percentile(lat_ms, tail_p),
        "decided_ratio": sum(o.decided for o in firsts) / decisions if decisions else 1.0,
        "witness_bytes_per_op": sum(wb) / len(wb) if wb else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def per_layer(summary: dict, op_time: float, overhead: float, cli_ms: dict) -> dict:
    out = {}
    for mod, path, stats in spans.TARGETS:
        st = summary["functions"][f"{mod}.{path}"]
        done = st["calls"] - st["fail"]
        for stat in stats:
            value = {
                "calls": st["calls"], "total_s": st["total_s"], "self_s": st["self_s"],
                "fail": st["fail"], "undecidable": st["outcome"], "rejected": st["outcome"],
                "basis_max": st["max"],
                "true_ratio": st["outcome"] / done if done else 0.0,
                "hit_ratio": st["outcome"] / done if done else 0.0,
            }[stat]
            out[f"{mod}.{path}.{stat}"] = value
    for key, n in summary["counts"].items():
        out[f"{key}.calls"] = n
    shares = {m: s / op_time for m, s in summary["module_self_s"].items()}
    for mod, share in shares.items():
        out[f"{mod}.self_share"] = share
    out["untraced.self_share"] = 1.0 - sum(shares.values())
    out["trace.overhead"] = overhead
    out.update(cli_ms)
    return out


# --- runs ----------------------------------------------------------------------


def timed_setups(build, speed: Speed) -> tuple:
    """(median seconds at the reference speed of SETUP_REPEATS set-ups, the
    measured median, the last set-up's result)."""
    setups, scaled, result = [], [], None
    for _ in range(SETUP_REPEATS):
        result = None
        gc.collect()  # each set-up starts from the same heap
        speed.sample()
        since, spent = speed.stretch, speed.spent
        t0 = perf_counter()
        result = build(speed.tick)
        setups.append(perf_counter() - t0 - (speed.spent - spent))
        speed.sample()
        scaled.append(speed.scaled_elapsed(since))
    return statistics.median(scaled), statistics.median(setups), result


def run_library(name, seed, seconds, trace, tmp) -> tuple:
    if not trace:
        setup_speed = Speed()
        E, import_s = import_library(tmp, setup_speed)
        scaled_import_s = setup_speed.scaled_elapsed(setup_speed.stretch - 1)

        def build(tick):
            pool = W.LIBRARY[name](E, seed, tick=tick)
            warm_up(pool, tick)
            return pool

        setup_s, measured_setup_s, pool = timed_setups(build, setup_speed)
        setup_speed.close()
        gc.freeze()  # the pool is the harness's, not the engine's: keep it out of collections
        # the loop runs on this thread's CPU clock: the operations are single-threaded
        # and do no I/O, and the time other processes take the core from it is left out
        speed = Speed(clock=thread_time)
        try:
            tally = measure_library(E, pool, seconds, speed=speed)
        finally:
            speed.close()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tail_p = TAIL_PERCENTILE[name]
        return tally, (end_to_end(tally, scaled_import_s + setup_s, rss, tail_p, speed),
                       end_to_end(tally, import_s + measured_setup_s, rss, tail_p),
                       speed.median_scale)
    E, _ = import_library(tmp)
    tracer = spans.Tracer()
    tracer.install()  # set-up is traced too: parsing belongs to it
    pool = W.LIBRARY[name](E, seed)
    tracer.uninstall()
    warm_up(pool)
    gc.freeze()
    # the overhead compares the same operations run untraced, then traced,
    # at the reference speed
    speed = Speed()
    try:
        plain = measure_library(E, pool, seconds / 2, speed=speed)
    finally:
        speed.close()
    plain_rate = len(plain.latencies) / speed.scaled_elapsed()
    speed = Speed()
    tracer.install()
    try:
        traced = measure_library(E, pool, count=len(plain.latencies), tracer=tracer, speed=speed)
    finally:
        tracer.uninstall()
        speed.close()
    traced_rate = len(traced.latencies) / speed.scaled_elapsed()
    metrics = per_layer(tracer.summary(), sum(traced.latencies), 1 - traced_rate / plain_rate,
                        cli_layer_ms(tmp))
    traced.merge(plain)
    return traced, metrics


def report(args, tally: Tally, metrics: dict, units: dict) -> None:
    attempted = len(tally.latencies)
    p = TAIL_PERCENTILE[args.workload]
    print(f"nodalwitness benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  commit={commit()} src_sha256={source_digest()} "
          f"python={platform.python_version()} nproc={os.cpu_count()}")
    print(f"  loop=closed callers=1 operations={attempted} "
          f"latency_tail_ms=p{p} over {attempted} samples")
    print(f"  {'error_rate':28s} {len(tally.errors) / max(attempted, 1):.6g} ratio "
          f"({len(tally.errors)} of {attempted} operations)")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    for err in tally.errors[:5]:
        print(f"error: {err}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "nodalwitness" / "__init__.py").is_file():
        print(f"error: no nodalwitness package under {SRC}", file=sys.stderr)
        return 2

    # a terminated run still removes its cache and kills its running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build_dir))
    try:
        tally, metrics = run_library(args.workload, args.seed, args.seconds, args.trace, tmp)
        if not args.trace:
            metrics, measured, scale = metrics
            print(f"  machine speed scale={scale:.4f}, measured: " + " ".join(
                f"{k}={v:.6g}" for k, v in measured.items() if v != metrics[k]))
    except (BenchError, RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END
    report(args, tally, metrics, units)
    result = {
        "correct": not tally.errors,
        "attempted": len(tally.latencies),
        "failed": len(tally.errors),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not tally.errors else 1


if __name__ == "__main__":
    sys.exit(main())
