"""Benchmark runner for commitment_games.

    python3 bench/run.py --workload grid-2p --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from `src/` next to
this directory.  One run sets the workload up several times and takes
medians for `setup_s`, then repeats whole passes of its jobs for about
`--seconds` seconds and reports medians over passes.  Timed metrics are in
reference seconds: raw seconds divided by the host slowdown that
`HostClock` samples during each pass.  `--trace 0` prints the end-to-end
metrics; `--trace 1` alternates untraced and traced passes and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPS = 3
# Fixed second seed for confirming a claim on a seed not used while the
# change was written; never tune on it.
HOLDOUT_SEED = 424242

END_TO_END = (
    ("wall_s", "s"),
    ("dev_games_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import commitment_games; "
                "print(time.perf_counter() - t)")


def import_library():
    sys.path.insert(0, str(SRC))
    try:
        import commitment_games
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import commitment_games from {SRC}: {exc}")
    if Path(commitment_games.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: commitment_games resolved to "
                         f"{commitment_games.__file__}, not under {SRC}")


def import_seconds() -> float:
    """Median time to import commitment_games in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return median(times)


def run_info(workload: str, seed: int) -> dict:
    from commitment_games import equilibria

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "workload": workload, "seed": seed, "holdout_seed": HOLDOUT_SEED,
        "commit": commit, "cpu": cpu, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "COMMITMENT_GAMES_THREADS": os.environ.get("COMMITMENT_GAMES_THREADS"),
        "worker_count": equilibria.worker_count(),
    }


# Host-speed calibration.  On a shared 2-core virtual machine the speed of
# one core changes by tens of percent within seconds and drifts over
# minutes, as other tenants load its sibling threads; medians within a run
# cannot remove that.  So while a pass runs, a timer signal every
# CAL_PERIOD_S runs a fixed loop that uses no library code (small LAPACK solves, ufuncs
# on tiny arrays and Python object churn, the instruction mix of the
# verifier's hot path) and records how much slower than REF_CAL_S it ran.
# Samples are evenly spaced in time, so their mean is the pass's average
# slowdown; timed end-to-end metrics divide by it and are thus seconds at
# the reference speed.  Raw seconds are printed and kept in the result file.
CAL_ITERS = 30
CAL_PERIOD_S = 0.1
REF_CAL_S = 0.0006


class HostClock:
    """Samples the host's slowdown against the reference from a timer signal."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((6, 6)) + 6 * np.eye(6)
        self._b = rng.random(6)
        self._t = rng.random((3, 2, 2, 2))
        self.samples: list[float] = []

    def _loop(self) -> None:
        a, b, t = self._a, self._b, self._t
        for i in range(CAL_ITERS):
            x = np.linalg.solve(a, b)
            z = float(np.max(np.abs(a @ x - b)))
            u = np.take(t, 1, axis=1) - np.take(t, 0, axis=1)
            z += float((u @ x[:2]).sum())
            tuple(sorted({(i, j): z * j for j in range(6)}))

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self._loop()
        self.samples.append((perf_counter() - t0) / REF_CAL_S)

    def __enter__(self) -> "HostClock":
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), perf_counter()

    def since(self, mark) -> tuple[float, float]:
        """(seconds since `mark`, mean slowdown over them).  The samples
        themselves, about 0.6% of the time, are included."""
        n, t0 = mark
        window = self.samples[n:] or self.samples[-1:]
        return perf_counter() - t0, sum(window) / len(window)


class Runner:
    """Runs passes of one workload's jobs and applies the cross-pass gates."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.clock = HostClock()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def run_pass(self, tracer=None) -> dict:
        from workloads import JobResult

        results = []
        with self.clock as clock:
            start = clock.mark()
            for name, fn in self.jobs:
                if tracer is not None:
                    tracer.job = name
                job = clock.mark()
                try:
                    res = fn()
                except Exception as exc:  # a crash is a failed job, not a crashed run
                    res = JobResult([f"raised {type(exc).__name__}: {exc}"])
                results.append((name, res, clock.since(job)[1]))
            raw_wall, slowdown = clock.since(start)
        for name, res, _ in results:
            if res.digest is not None:
                first = self.digests.setdefault(name, res.digest)
                res.expect(res.digest == first, "report differs from the first pass")
            self.attempted += 1
            if res.problems:
                self.failed += 1
                self.failures.append(f"{name}: {'; '.join(res.problems)}")
        dev_games = sum(res.dev_games for _, res, _ in results)
        verify_s = sum(res.verify_s for _, res, _ in results)
        verify_ref = sum(res.verify_s / s for _, res, s in results)
        return {"wall_s": raw_wall / slowdown,
                "dev_games_per_s": dev_games / verify_ref if verify_ref else 0.0,
                "raw_wall_s": raw_wall,
                "raw_dev_games_per_s": dev_games / verify_s if verify_s else 0.0,
                "slowdown": slowdown}


def traced_pass(runner: Runner) -> tuple[dict, list[tuple]]:
    """One pass with the tracer installed; the wrappers are removed after."""
    import layertrace

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        stats = runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    return stats, tracer.take_spans()


def keep_going(elapsed: float, walls: list[float], seconds: float) -> bool:
    # Start another pass while it is expected to end within half a pass of
    # the budget; at least one pass always runs.
    return elapsed + 0.5 * median(walls) < seconds


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import layertrace as tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        t_import = import_seconds()
        gen = []
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            jobs = workloads.WORKLOADS[workload](seed, workdir)
            gen.append(perf_counter() - t0)

        runner = Runner(jobs)
        start = perf_counter()
        plain, traced, layers = [], [], []
        spans = []
        while True:
            plain.append(runner.run_pass())
            if trace:
                stats, spans = traced_pass(runner)
                traced.append(stats)
                layers.append(tracing.layer_metrics(spans, stats["slowdown"]))
            walls = [p["raw_wall_s"] + (t["raw_wall_s"] if trace else 0.0)
                     for p, t in zip(plain, traced or plain)]
            if not keep_going(perf_counter() - start, walls, seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Set-up mostly waits on import subprocesses, which the timer cannot
    # sample, so it is scaled by the run's median pass slowdown.
    slowdown = median(p["slowdown"] for p in plain)
    raw_setup_s = t_import + median(gen)
    setup_s = raw_setup_s / slowdown
    result = {"passes": plain, "failures": runner.failures, "failed": runner.failed,
              "attempted": runner.attempted, "traced_passes": traced}
    if trace:
        leftovers = tracing.leftover_wrappers()
        if leftovers:
            runner.failures.append(f"tracing wrappers left installed: {leftovers}")
        metrics = {k: median(p[k] for p in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = (median(t["wall_s"] for t in traced)
                                       - median(p["wall_s"] for p in plain))
        result["metrics"] = {name: {"value": metrics[name], "unit": unit}
                             for name, unit, _ in tracing.PER_LAYER}
        result["spans_file"] = str(OUT / f"spans-{workload}-seed{seed}.jsonl")
        tracing.write_spans(result["spans_file"], spans)
    else:
        values = {
            "wall_s": median(p["wall_s"] for p in plain),
            "dev_games_per_s": median(p["dev_games_per_s"] for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END}
    result["setup"] = {"raw_setup_s": raw_setup_s, "import_s": t_import,
                       "generate_s": gen}
    result["raw"] = {
        "wall_s": median(p["raw_wall_s"] for p in plain),
        "dev_games_per_s": median(p["raw_dev_games_per_s"] for p in plain),
        "setup_s": raw_setup_s,
        "host_slowdown": slowdown,
    }
    return result


def run_one(args) -> int:
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads.WORKLOADS)}, all")
    info = run_info(args.workload, args.seed)
    print("info " + json.dumps(info, sort_keys=True))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload:16s} {name:48s} {m['value']:.6g} {m['unit']}")
    for name, value in result["raw"].items():
        print(f"{args.workload:16s} {'raw ' + name:48s} {value:.6g}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"info": info, **result}, fh, indent=2, sort_keys=True)
    print(json.dumps({"correct": not result["failures"],
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    import_library()
    import workloads

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"bench: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        correct = correct and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
