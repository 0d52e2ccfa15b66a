"""Benchmark harness for infeig.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Runs one workload (see workloads.py and README.md) through the public CLI
entry point ``infeig.cli.main(argv)``, in-process, one command at a time
(a closed loop with one client), and checks every output. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced CLI passes with a traced replay (traced.py) and reports
the per-layer metrics and the tracing overhead. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

The host's speed drifts by up to 1.4x over tens of seconds, so ``wall_s`` is
the pass time scaled to a fixed reference speed: during each timed pass a
timer signal runs a fixed probe every CAL_INTERVAL_S, and the pass time
(minus the probes' own time) is divided by the probes' mean time over
CAL_REF_S. The raw pass time is printed as ``wall_raw_s``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads; children inherit.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
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

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 4  # taken twice: before the warm-up and after the passes
CAL_INTERVAL_S = 0.2  # host-speed probe period during timed passes
CAL_REF_S = 3.5e-3    # probe time at the reference host speed
PASS_SEED_STRIDE = 1000  # pass i of a run with --seed s uses s * 1000 + i
KERNEL_REPS = 7
P_ALL = (4, 8, 16, 32, 64)
LAYERS = ("config", "grid", "weight", "geometry", "eigen", "viscosity",
          "fieldio", "cli")
SETUP_SNIPPET = ("import sys\nimport infeig.cli\n"
                 "from infeig.config import load_config\n"
                 "for p in sys.argv[1:]:\n    load_config(p)\n")


def tail_percentile(samples):
    """Highest of the usual percentiles with at least ten samples above it,
    as (q, value), or None when there are too few samples."""
    n = len(samples)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(q * n / 100)  # nearest-rank, 1-based
        if n - rank >= 10:
            return q, sorted(samples)[rank - 1]
    return None


class HostSpeed:
    """Samples the host's speed during a timed stretch of code. A SIGALRM
    handler times a fixed probe (interpreter loop plus small numpy calls,
    the kind of work the solver's per-call overhead is made of) every
    CAL_INTERVAL_S, in the benchmark's own thread, so it sees the same core
    in the same state as the code around it."""

    def __init__(self):
        import numpy as np
        self._np = np
        self._x0 = np.random.default_rng(12345).random((64, 64))
        self.samples = []

    def _probe(self, signum=None, frame=None):
        np = self._np
        t = time.perf_counter()
        s = 0
        for i in range(20000):
            s += i & 7
        x = self._x0
        for _ in range(100):
            y = np.maximum(x, 0.5) * self._x0
            x = 0.5 * np.abs(y - y.mean()) + self._x0  # stays below 2
        self.samples.append(time.perf_counter() - t)

    @contextlib.contextmanager
    def sampling(self):
        """Probe once now and then every CAL_INTERVAL_S until the block
        ends; self.samples holds this block's probe times."""
        self.samples = []
        old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        try:
            self._probe()
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def scaled(self, wall):
        """`wall` measured inside a sampling() block, without the probes'
        own time and scaled to the reference host speed. The first probe
        runs before the block's body, so it is not part of `wall`."""
        mean = sum(self.samples) / len(self.samples)
        return (wall - sum(self.samples[1:])) * CAL_REF_S / mean


def call_cli(cli, argv):
    """One CLI invocation; returns its exit code (None if it raised) and
    its stderr."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:  # a crash is a failed operation, not a dead run
            traceback.print_exc()
            rc = None
    return rc, err.getvalue()


class Run:
    """State of one benchmark run: inputs, counters and samples."""

    def __init__(self, wl, seed, workdir):
        from workloads import Checker, config_sha256, load_refs
        self.wl, self.workdir = wl, workdir
        self.base_seed = self.seed = seed
        shutil.rmtree(workdir, ignore_errors=True)
        self.paths = wl.write_inputs(workdir)
        refs = load_refs()
        if any(c.kind == "sweep" for c in wl.commands):
            want = refs["workloads"].get(wl.name, {}).get("config_sha256")
            if want != config_sha256(wl.configs[wl.commands[0].config]):
                raise SystemExit(f"refs.json has no roots for this {wl.name} "
                                 "config; rerun bench/make_refs.py")
        self.checker = Checker(wl, self.paths, refs)
        self.attempted = 0
        self.failed = 0
        self.values = []  # per checked pass: accuracy values per command

    def start_pass(self, i):
        """Pass i passes --seed base * PASS_SEED_STRIDE + i to the CLI. The
        k = 3 packing's restarts, and so its time, depend on that seed, so a
        run averages over many seeds; pass 0 of seed 0 is the acceptance
        config."""
        self.seed = self.base_seed * PASS_SEED_STRIDE + i

    def argv(self, cmd, tag):
        outdir = self.workdir / tag
        outdir.mkdir(exist_ok=True)
        return self.wl.argv(cmd, self.paths, self.workdir,
                            str(outdir / cmd.config), self.seed)

    def fail(self, msg):
        self.failed += 1
        sys.stderr.write(f"FAILED: {msg}\n")

    def cli_pass(self, cli, commands=None, check=True, speed=None):
        """Run the command list once; returns (wall, per-command walls).
        Unchecked (warm-up) passes write apart from the checked outputs.
        With a HostSpeed, the pass is timed under its sampling()."""
        commands = self.wl.commands if commands is None else commands
        argvs = [self.argv(c, "cli" if check else "warmup") for c in commands]
        rcs, walls = [], []
        with speed.sampling() if speed else contextlib.nullcontext():
            t0 = time.perf_counter()
            for argv in argvs:
                t = time.perf_counter()
                rcs.append(call_cli(cli, argv))
                walls.append(time.perf_counter() - t)
            wall = time.perf_counter() - t0
        if check:
            self.values.append([])
            for cmd, argv, (rc, err) in zip(commands, argvs, rcs):
                self.attempted += 1
                if rc != 0:
                    self.fail(f"{cmd.label}: exit code {rc}: {err[-2000:]}")
                    continue
                problems, values = self.checker.check(
                    cmd, argv[argv.index("--out") + 1])
                self.values[-1].append(values)
                if problems:
                    self.fail(f"{cmd.label}: {'; '.join(problems)}")
        return wall, list(zip(commands, walls))

    def traced_pass(self, tracer, run_id):
        from traced import run_command
        tracer.run = run_id
        tracer.solves = []
        t0 = time.perf_counter()
        for cmd in self.wl.commands:
            self.attempted += 1
            try:
                run_command(tracer, self.argv(cmd, "traced"))
            except Exception:
                traceback.print_exc()
                self.fail(f"traced {cmd.label} raised")
        return time.perf_counter() - t0

    def compare_outputs(self):
        """The traced replay must reproduce the CLI outputs byte for byte."""
        for name in sorted(os.listdir(self.workdir / "cli")):
            a = (self.workdir / "cli" / name).read_bytes()
            b = self.workdir / "traced" / name
            if not b.exists() or b.read_bytes() != a:
                self.fail(f"traced output {name} differs from the CLI output")

    def accuracy(self):
        """Worst value over the checked commands of a pass, median over the
        passes. The k = 3 packing's quality depends on the pass's seed, and
        the worst packing over a run's seeds is a tail statistic that
        jumps from run to run; the median is not."""
        out = {}
        for key in ("residual", "lambda_ratio", "limits_relerr", "pack3_ratio"):
            worst = min if key == "pack3_ratio" else max
            per_pass = [worst(vals) for vals in
                        ([v[key] for v in cmds if key in v]
                         for cmds in self.values) if vals]
            if per_pass:
                out[key] = statistics.median(per_pass)
        return out


def measure_setup(paths, warm):
    """Wall times of fresh interpreters that import infeig.cli and load the
    workload's configs; with `warm`, one untimed interpreter first fills
    the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", SETUP_SNIPPET] + [str(p) for p in paths]
    samples = []
    for i in range(SETUP_SAMPLES + warm):
        t = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
        if i >= warm:
            samples.append(time.perf_counter() - t)
    return samples


def loop(seconds, body):
    """Call body() until the next call would end past `seconds`, judging by
    the median call so far; at least once. Returns the body results."""
    out, walls = [], []
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        out.append(body())
        walls.append(time.perf_counter() - t)
        if time.perf_counter() - t0 + statistics.median(walls) > seconds:
            return out


def run_record(args, samples):
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "infeig").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": int(BLAS_THREADS),
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "samples": samples}


def end_to_end(args, run, cli):
    # Host speed drifts over tens of seconds, so setup samples bracket the
    # passes rather than sit at one end of the run.
    configs = list(dict.fromkeys(run.paths[c.config] for c in run.wl.commands))
    setup = measure_setup(configs, warm=1)
    run.cli_pass(cli, run.wl.warmup, check=False)
    speed = HostSpeed()
    counter = itertools.count()

    def timed_pass():
        run.start_pass(next(counter))
        wall, _ = run.cli_pass(cli, speed=speed)
        return wall, speed.scaled(wall), len(speed.samples)

    passes = loop(args.seconds, timed_pass)
    setup += measure_setup(configs, warm=0)
    raw = [p[0] for p in passes]
    walls = [p[1] for p in passes]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    acc = run.accuracy()
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "residual_max": (acc.get("residual"), "1"),
        "lambda_ratio_max": (acc.get("lambda_ratio"), "1"),
        "limits_relerr_max": (acc.get("limits_relerr"), "1"),
    }
    samples = {"wall_s": len(walls), "setup_s": len(setup), "peak_rss_mb": 1,
               "residual_max": len(walls), "lambda_ratio_max": len(walls),
               "limits_relerr_max": len(walls)}
    tail = tail_percentile(walls)
    print(f"wall_s median = {statistics.median(walls):.4f} s over n = "
          f"{len(walls)} passes; " + (f"p{tail[0]:g} = {tail[1]:.4f} s" if tail
          else "no tail percentile (needs >= 40 passes for p75)")
          + "; passes " + " ".join(f"{w:.3f}" for w in walls))
    print(f"wall_raw_s median = {statistics.median(raw):.4f} s; passes "
          + " ".join(f"{w:.3f}" for w in raw) + "; host-speed probes per pass "
          + " ".join(str(p[2]) for p in passes))
    print("setup_s samples " + " ".join(f"{s:.3f}" for s in setup))
    packs = [v["pack3_ratio"] for cmds in run.values for v in cmds
             if "pack3_ratio" in v]
    if packs:
        print(f"pack3_ratio = {packs[0]:.6f} at CLI seed "
              f"{args.seed * PASS_SEED_STRIDE}; lowest over {len(packs)} "
              f"passes {min(packs):.6f}")
    if run.wl.name.startswith("sweep") and "residual" in acc:
        print(f"kkt_max = {acc['residual']:.6f}")
    return metrics, samples


def per_layer(args, run, cli):
    from traced import Tracer, self_times
    from workloads import kkt_residual
    from infeig import eigen, viscosity

    tracer = Tracer()
    run.cli_pass(cli, run.wl.warmup, check=False)
    runs = []

    def pair():  # alternate which side goes first
        rid = len(runs)
        run.start_pass(rid)
        if rid % 2:
            wall_tr = run.traced_pass(tracer, rid)
            wall_cli, cmd_walls = run.cli_pass(cli)
        else:
            wall_cli, cmd_walls = run.cli_pass(cli)
            wall_tr = run.traced_pass(tracer, rid)
        run.compare_outputs()
        runs.append((wall_cli, cmd_walls, wall_tr))

    loop(args.seconds, pair)
    spans = tracer.spans
    selft = self_times(spans)
    per_pass = []
    for rid, (wall_cli, cmd_walls, wall_tr) in enumerate(runs):
        m = {f"cli.{k}_s": 0.0 for k in ("limits", "sweep", "pack", "check")}
        for cmd, w in cmd_walls:
            m[f"cli.{cmd.kind}_s"] += w
        mine = [s for s in spans if s["run"] == rid]
        dur = {}
        for s in mine:
            dur[s["name"]] = dur.get(s["name"], 0.0) + s["end"] - s["start"]
        for name in ("config.load", "grid.rasterize", "grid.edt",
                     "weight.regions", "geometry.pack2", "geometry.r_plus",
                     "geometry.pack3", "eigen.cone_bound", "viscosity.check",
                     "fieldio.load", "fieldio.save"):
            m[f"{name}_s"] = dur.get(name, 0.0)
        for geom in ("uniform", "center_ball", "strip", "two_balls"):
            m[f"geometry.limits_s.{geom}"] = dur.get(f"geometry.limits.{geom}", 0.0)
        for p in P_ALL:
            m[f"eigen.solve_s.p{p}"] = dur.get(f"eigen.solve.p{p}", 0.0)
        iters = [1e3 * (s["end"] - s["start"]) for s in mine
                 if s["name"] == "eigen.iter"]
        m["eigen.iter_ms_p50"] = statistics.median(iters) if iters else 0.0
        m["eigen.iter_ms_p99"] = (statistics.quantiles(iters, n=100)[98]
                                  if len(iters) >= 1000 else 0.0)
        for layer in LAYERS:
            m[f"self_s.{layer}"] = sum(selft[s["id"]] for s in mine
                                       if s["name"].split(".")[0] == layer)
        m["trace.wall_s"], m["trace.untraced_wall_s"] = wall_tr, wall_cli
        per_pass.append(m)
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - metrics["trace.untraced_wall_s"])

    # Deterministic solver figures and single kernel calls, on the final
    # fields of the last traced pass.
    def timed_us(fn, *a):
        ts = []
        for _ in range(KERNEL_REPS):
            t = time.perf_counter()
            fn(*a)
            ts.append(1e6 * (time.perf_counter() - t))
        return ts

    kern = {"energy": [], "energy_grad": [], "mass": [], "mass_grad": []}
    for p in P_ALL:
        for key in ("iters", "iter_ms", "kkt"):
            metrics[f"eigen.{key}.p{p}"] = 0.0
    for s in tracer.solves:
        p, res, w, C = s["p"], s["result"], s["w"], s["C"]
        u = res.field
        metrics[f"eigen.iters.p{p:g}"] = res.iterations
        metrics[f"eigen.iter_ms.p{p:g}"] = (
            1e3 * metrics[f"eigen.solve_s.p{p:g}"] / res.iterations)
        metrics[f"eigen.kkt.p{p:g}"] = kkt_residual(
            u, w, p, math.exp(p * math.log(res.lambda_root)), C)
        kern["energy"] += timed_us(eigen.dirichlet_energy_p, u, p, C)
        kern["energy_grad"] += timed_us(eigen.dirichlet_energy_grad, u, p, C)
        kern["mass"] += timed_us(eigen.weighted_mass_p, u, w, p)
        kern["mass_grad"] += timed_us(eigen.weighted_mass_grad, u, w, p)
    for k, ts in kern.items():
        metrics[f"eigen.{k}_us"] = statistics.median(ts) if ts else 0.0
    metrics["viscosity.regime_labels_s"] = 0.0
    metrics["viscosity.inf_laplacian_s"] = 0.0
    if tracer.check_inputs is not None:
        u, w, opts = tracer.check_inputs
        metrics["viscosity.regime_labels_s"] = 1e-6 * statistics.median(
            timed_us(viscosity.regime_labels, u, w, opts))
        metrics["viscosity.inf_laplacian_s"] = 1e-6 * statistics.median(
            timed_us(viscosity.inf_laplacian, u))

    with open(run.workdir / "spans.jsonl", "w") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")
    print(f"tracing overhead = {metrics['trace.overhead_s']:.4f} s "
          f"(traced {metrics['trace.wall_s']:.4f} s, untraced "
          f"{metrics['trace.untraced_wall_s']:.4f} s, {len(per_pass)} pairs)")
    out = {k: (v, layer_unit(k)) for k, v in metrics.items()}
    return out, {k: len(per_pass) for k in out}


def layer_unit(name):
    if ".iters." in name:
        return "count"
    if "iter_ms" in name:
        return "ms"
    if ".kkt." in name:
        return "1"
    return "us" if name.endswith("_us") else "s"


def self_test():
    """Each workload once: one checked CLI pass and one traced pass whose
    outputs must match it byte for byte; plus the harness helpers."""
    from infeig import cli
    from traced import Tracer, self_times
    from workloads import WORKLOADS

    ok = True
    spans = [{"id": 0, "parent": None, "start": 0.0, "end": 10.0},
             {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
             {"id": 2, "parent": 1, "start": 2.0, "end": 3.0},
             {"id": 3, "parent": 0, "start": 5.0, "end": 6.0}]
    ok &= self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    ok &= tail_percentile(list(range(39))) is None
    ok &= tail_percentile(list(range(100))) == (90.0, 89)
    speed = HostSpeed()
    with speed.sampling():
        t = time.perf_counter()
        while time.perf_counter() - t < 3 * CAL_INTERVAL_S:
            sum(range(1000))
        wall = time.perf_counter() - t
    ok &= len(speed.samples) >= 3 and 0 < speed.scaled(wall) < 10 * wall
    print(f"harness helpers: {'PASS' if ok else 'FAIL'}")
    for name, wl in WORKLOADS.items():
        run = Run(wl, 0, WORK / f"selftest-{name}")
        t = time.perf_counter()
        run.cli_pass(cli)
        run.traced_pass(Tracer(), 0)
        run.compare_outputs()
        good = run.failed == 0 and run.attempted == 2 * len(wl.commands)
        print(f"{name}: {'PASS' if good else 'FAIL'} ({run.attempted} "
              f"operations, {run.failed} failed, {time.perf_counter() - t:.1f} s)"
              f" accuracy {run.accuracy()}")
        ok &= good
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "infeig" / "cli.py").is_file():
        print(f"error: no infeig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()

    from infeig import cli
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed, WORK / args.workload)
    measure = per_layer if args.trace else end_to_end
    metrics, samples = measure(args, run, cli)

    record = run_record(args, samples)
    record["fail_rate"] = run.failed / max(run.attempted, 1)
    (run.workdir / "run_record.json").write_text(json.dumps(record, indent=1))
    print("run_record " + json.dumps(record, sort_keys=True))
    for k, (v, unit) in metrics.items():
        print(f"{k} = {v} {unit}")
    print(f"fail_rate = {run.failed}/{run.attempted}")
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
