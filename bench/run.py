"""Benchmark for epinverse: EP and MH runs, timed end to end and traced layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload eit_ep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One run sets up its inputs from the seed several times (``setup_s`` is the
median), then repeats the workload's timed calls until ``--seconds`` have
passed, at least twice.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it runs one untraced and one traced set-up plus
repeat and reports the per-layer metrics.  Every repeat's outputs are
checked against the acceptance thresholds and must be bit-identical across
the repeats of a run, the traced one included.  ``--workload all`` runs each
workload untraced and then traced, each in a fresh process.

Each repeat is timed in seconds (``wall_s``: the workload's timed calls;
``ep_sweeps_per_s`` on eit_ep and linear_ep_large, ``mh_steps_per_s``,
pilots included, on linear_ep_mcmc and eit_mcmc) and also in units of a
fixed kernel timed throughout the repeat (see ``SpeedProbe``).  The
end-to-end metrics are ``wall_ref``, ``throughput_per_ref`` (the same rate
per kernel time), ``setup_s`` (making the inputs) and ``peak_rss_mb``; the
seconds are printed and saved beside them.  Timings are medians over the
repeats or set-ups of a run.  The load is a closed loop: one process, one
call at a time.  No layer queues work, so there is no wait-time metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A repeat that exits
nonzero, reports ``ok: false`` or fails a check counts as failed.  Detailed
results, the environment and the spans go to ``.bench_out/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Never more than nproc; on a 2-core VM the 282-node forward solve was also
# faster with one BLAS thread than with two.
BLAS_THREADS = 1
MIN_REPEATS = 2
# No repeat starts when the last one would end past this many seconds from
# process start, so a run ends within 180 s even if the program slows down.
DEADLINE_S = 140.0
T_START = time.perf_counter()
WORKLOAD_NAMES = ("eit_ep", "linear_ep_mcmc", "eit_mcmc", "linear_ep_large")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_blas_threads() -> None:
    # must happen before numpy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Import epinverse from this checkout's source tree, never from elsewhere."""
    if not (SRC / "epinverse" / "__init__.py").is_file():
        sys.exit(f"error: no epinverse source under {SRC}")
    sys.path.insert(0, str(SRC))
    import epinverse

    if Path(epinverse.__file__).resolve().parent != SRC / "epinverse":
        sys.exit(f"error: imported epinverse from {epinverse.__file__}, not {SRC}")


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs between numpy versions
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "isolation": "cores are not pinned or isolated; steal time is not controlled",
        "load": "closed loop, one process, one request at a time; chains in-process",
    }


def steal_s() -> float:
    """Host steal time since boot, summed over CPUs, from /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def declared_metrics(trace: int) -> dict | None:
    """Metric names and units that BENCHMARK.json declares for this mode."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """One workload in this process: set-ups, repeats, checks."""

    def __init__(self, workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: set[str] = set()
        self.gates: dict[str, bool] = {}
        self._n = 0
        self.prepared = workload.prepare(work / "configs", seed)

    def _dir(self, kind: str) -> Path:
        self._n += 1
        return self.work / f"{kind}{self._n}"

    def setup(self) -> tuple[dict, float]:
        d = self._dir("setup")
        t0 = time.perf_counter()
        inputs = self.w.setup(d, self.seed, self.prepared)
        return inputs, time.perf_counter() - t0

    def execute(self, inputs: dict, root=None):
        """One timed repeat, inside ``root`` when given.  Returns the Timed
        result (None if it failed), the seconds spent in run() and the
        output directory for verify()."""
        out = self._dir("out")
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            with root or contextlib.nullcontext():
                timed = self.w.run(inputs, out, self.seed)
            return timed, time.perf_counter() - t0, out
        except Exception as exc:  # a failed operation: record it and go on
            self._fail(exc)
            return None, 0.0, out

    def verify(self, inputs: dict, timed, out: Path):
        """The repeat's checks; returns ``timed``, or None if it failed."""
        import workloads

        if timed is None:
            shutil.rmtree(out, ignore_errors=True)
            return None
        try:
            gates = self.w.check(inputs, out, timed)
            digest = workloads.outputs_digest(out)
        except Exception as exc:  # unreadable outputs fail the repeat
            self._fail(exc)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        for k, ok in gates.items():
            self.gates[k] = self.gates.get(k, True) and ok
        bad = [k for k, ok in gates.items() if not ok]
        if bad:
            self._fail("gates failed: " + ", ".join(bad))
            return None
        self.digests.add(digest)
        return timed

    def _fail(self, why) -> None:
        if isinstance(why, Exception):
            traceback.print_exc(file=sys.stderr)
            why = f"{type(why).__name__}: {why}"
        self.failed += 1
        self.failures.append(why)
        print(f"{self.w.name}: repeat {self.attempted} failed: {why}", file=sys.stderr)


class SpeedProbe:
    """Samples the host's speed while a repeat runs.

    Every ``PERIOD_S`` of wall time a SIGALRM handler times a fixed ~1 ms
    kernel that uses no package code: an interpreter loop, small-array
    numpy arithmetic and a small Cholesky factorization, the three kinds of
    work the workloads are made of.  On a shared 2-core VM the same repeat
    ran up to 1.7x slower for minutes at a time, and bursts of a few seconds
    came and went within one repeat; the mean kernel time over a repeat
    slows down with the host, so the repeat's time divided by it changes
    with the program, not the host.  The handler costs about 1 % of the
    repeat, on every repeat alike.
    """

    PERIOD_S = 0.1

    def __init__(self):
        import numpy as np
        from scipy.linalg import cho_factor

        rng = np.random.default_rng(0)
        m = rng.standard_normal((80, 80))
        self._spd = m @ m.T + 80.0 * np.eye(80)
        self._vec = rng.standard_normal(300)
        self._np = np
        self._cho_factor = cho_factor
        self.samples: list[float] = []

    def _kernel(self) -> None:
        acc = 0
        for i in range(4000):
            acc += i * i
        x = self._vec.copy()
        for k in range(60):
            x = (x + 0.5 * self._vec) / 1.0001
            x[k] = self._np.sqrt(abs(x[k]))
        for _ in range(4):
            self._cho_factor(self._spd, lower=True)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def sampling(self):
        """Sample during the block; ``samples`` holds this block's kernel times."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict, dict]:
    """Set-ups, then repeats until ``seconds`` have passed, each sampled by
    the speed probe."""
    setups = []
    inputs = None
    for _ in range(runner.w.setup_repeats):
        inputs, dt = runner.setup()
        setups.append(dt)
    probe = SpeedProbe()
    refs = []
    walls, rates, walls_ref, rates_ref = [], [], [], []
    t_start = time.perf_counter()
    last_s = 0.0
    while runner.attempted < MIN_REPEATS or time.perf_counter() - t_start < seconds:
        if time.perf_counter() - T_START + last_s > DEADLINE_S:
            break
        with probe.sampling():
            timed, last_s, out = runner.execute(inputs)
        if runner.verify(inputs, timed, out) is not None and probe.samples:
            ref = statistics.fmean(probe.samples)
            rate = timed.work / timed.work_s
            refs.append(ref)
            walls.append(timed.wall_s)
            rates.append(rate)
            walls_ref.append(timed.wall_s / ref)
            rates_ref.append(rate * ref)
    metrics, raw = {}, {}
    if walls:
        metrics = {
            "wall_ref": (statistics.median(walls_ref), "ref"),
            "setup_s": (statistics.median(setups), "s"),
            "throughput_per_ref": (statistics.median(rates_ref), "1/ref"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        raw = {
            "wall_s": (statistics.median(walls), "s"),
            f"{runner.w.work_unit}_per_s": (statistics.median(rates), "1/s"),
            "reference_s": (statistics.median(refs), "s"),
        }
    detail = {
        "repeats": len(walls),
        "raw": {k: v for k, (v, _) in raw.items()},
        "wall_s": walls,
        "setup_s": setups,
        "throughput_per_s": rates,
        "reference_s": refs,
    }
    return metrics, detail, raw


def run_traced(runner: Runner) -> tuple[dict, dict]:
    """One untraced set-up and repeat, then the same traced; the checks run
    after the wrappers are removed, so they add no spans."""
    import layers
    from tracer import Tracer

    inputs, plain_setup_s = runner.setup()
    plain, plain_run_s, out = runner.execute(inputs)
    plain = runner.verify(inputs, plain, out)
    tracer = Tracer()
    tally = layers.register(tracer)
    with tracer.installed():
        with tracer.root("bench.setup"):
            inputs, _ = runner.setup()
        traced, _, out = runner.execute(inputs, root=tracer.root("bench.repeat"))
    traced = runner.verify(inputs, traced, out)
    if plain is None or traced is None:
        return {}, {}
    return layers.metrics(tracer, tally, plain_setup_s + plain_run_s)


def single(args) -> int:
    pin_blas_threads()
    import_package()
    import workloads

    env = environment(args.seed)
    print("env " + json.dumps(env))
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    steal0 = steal_s()
    try:
        runner = Runner(workload, args.seed, work)
        raw = {}
        if args.trace:
            metrics, detail = run_traced(runner)
        else:
            metrics, detail, raw = run_untraced(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = dict(runner.gates)
    checks["outputs_identical_across_repeats"] = len(runner.digests) == 1
    if args.trace and metrics:
        checks["layer_times_reconcile"] = detail.pop("reconciled")
    declared = declared_metrics(args.trace)
    if declared is not None and metrics:
        checks["metrics_match_benchmark_json"] = declared == {k: u for k, (_, u) in metrics.items()}
    detail["steal_s_during_run"] = steal_s() - steal0
    correct = bool(metrics) and runner.failed == 0 and all(checks.values())
    for name, (value, unit) in {**raw, **metrics}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if raw:
        print(f"{args.workload} timings are medians of {detail['repeats']} repeats "
              f"and {workload.setup_repeats} set-ups")
    print(f"{args.workload} checks " + json.dumps(checks))

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "checks": checks,
        "failures": runner.failures,
        "detail": detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced and then traced, each in a fresh process."""
    merged: dict = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            try:
                res = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name} trace={trace}: no result (exit {proc.returncode})", file=sys.stderr)
                correct, failed, attempted = False, failed + 1, attempted + 1
                continue
            correct = correct and res["correct"] and proc.returncode == 0
            attempted += res["attempted"]
            failed += res["failed"]
            merged.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else single(args)


if __name__ == "__main__":
    sys.exit(main())
