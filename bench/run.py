"""tcurve-lab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's problem files are
made from the seed under bench/out/.  With --trace 0 the runner sends them
through `tcurve-lab` processes one at a time (a closed loop, one client),
in whole passes until S seconds are spent, checks every output and prints
the end-to-end metrics.  With --trace 1 it makes the same calls in this
process, alternating untraced and traced passes, and prints the per-layer
metrics.  The last line of standard output is one JSON object; the full
record, with the environment, goes to bench/out/result-*.json.

Metric names and units come from BENCHMARK.json.
"""

import argparse
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
OUT = os.path.join(ROOT, "bench", "out")

# The body of the `tcurve-lab` console script, plus a report of the peak
# RSS on the way out.  The child reads its own VmHWM because the max RSS
# that wait4 returns also counts the parent's pages, which the child
# shares until exec.
ENTRY = """import sys
from tcurve_lab.cli import main
try:
    sys.exit(main())
finally:
    with open("/proc/self/status") as fh:
        sys.stderr.write(next(line for line in fh if line.startswith("VmHWM:")))
"""
SETUP = """import sys
from tcurve_lab.cli import parse_problem
from tcurve_lab.surface import build_ambient_surface
from tcurve_lab.triangulation import incidence_graphs
for path in sys.argv[1:]:
    problem = parse_problem(path)
    incidence_graphs(build_ambient_surface(problem.polygon),
                     problem.build_triangulation())
"""
IMPORT = """import time
t = time.perf_counter()
import tcurve_lab.cli
print(time.perf_counter() - t)
"""
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
# On a shared 2-vCPU virtual machine the speed of the cores drifts by up
# to 2x over minutes.  A fixed pure-Python loop, timed before and after
# every child process, tracks that drift: over 150 s of CLI runs the raw
# wall times spread 28% (IQR over median), their ratio to the loop 8%.
# End-to-end times are scaled to the speed at which the loop (the median
# of CAL_REPEATS runs) takes CAL_REF_S.
CAL_LOOPS = 10_000
CAL_REPEATS = 3
CAL_REF_S = 0.010
TIMES = ("_ms", "_us_per_vector")   # per-layer metrics that are times

PYTHON = [sys.executable] + ["-O"] * sys.flags.optimize
# Children cache bytecode as an installed package does, so that they do not
# compile every module on each start, and keep the cache in the checkout.
CHILD_ENV = {name: value for name, value in os.environ.items()
             if name != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV.update(PYTHONPATH=SRC, PYTHONPYCACHEPREFIX=os.path.join(OUT, "pycache"))


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def spawn(args: list) -> tuple[float, str, int]:
    """Run one child interpreter; (wall s, its stderr, exit code)."""
    with open(os.path.join(OUT, "child-stderr.txt"), "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(PYTHON + args, env=CHILD_ENV,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        err.seek(0)
        text = err.read()
    if proc.returncode != 0:
        log(f"exit {proc.returncode}: {text.strip()}")
    return wall, text, proc.returncode


def peak_kib(stderr: str) -> int:
    for line in stderr.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def warm_up():
    """Fill the bytecode cache before anything is timed."""
    subprocess.run(PYTHON + ["-c", IMPORT], env=CHILD_ENV, check=True,
                   stdout=subprocess.DEVNULL)


def calibrate() -> float:
    """Seconds the fixed dict-and-tuple loop takes now."""
    times = []
    gc.disable()
    try:
        for _ in range(CAL_REPEATS):
            t0 = time.perf_counter()
            table = {}
            for i in range(CAL_LOOPS):
                key = (i % 97, i * 7 % 101)
                table[key] = table.get(key, 0) + 1
            sorted(table.items())
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


class Speed:
    """Calibration samples taken between child processes; scales a wall
    time by the mean of the samples just before and just after it."""

    def __init__(self):
        self.samples = [calibrate()]

    def scale(self, wall: float) -> float:
        self.samples.append(calibrate())
        return wall * CAL_REF_S / statistics.mean(self.samples[-2:])


def cli_pass(invocations, speed: Speed) -> dict:
    """One pass over the workload, one `tcurve-lab` process at a time."""
    raw, walls, peak, failed = [], [], 0, 0
    for inv in invocations:
        wall, stderr, code = spawn(["-c", ENTRY, inv.subcommand,
                                    "--input", inv.problem, "--out", inv.out])
        raw.append(wall)
        walls.append(speed.scale(wall))
        peak = max(peak, peak_kib(stderr))
        if code != 0:
            failed += 1
            continue
        with open(inv.out) as fh:
            text = fh.read()
        if not inv.passes(text, log):
            failed += 1
    vectors = sum(inv.vectors for inv in invocations)
    return {"wall_s": sum(walls), "vectors_per_s": vectors / sum(walls),
            "peak_rss_mb": peak / 1024, "failed": failed,
            "invocation_wall_s": walls, "raw_invocation_wall_s": raw}


def setup_seconds(problems, speed: Speed) -> tuple[float, float]:
    """A fresh interpreter that imports the CLI and brings every problem
    to the point where signs are applied; (scaled, raw) seconds."""
    wall, _, code = spawn(["-c", SETUP] + problems)
    if code != 0:
        sys.exit("set-up failed; the program cannot be benchmarked")
    return speed.scale(wall), wall


def import_ms(speed: Speed) -> list:
    """`import tcurve_lab.cli` timed inside fresh interpreters."""
    out = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(PYTHON + ["-c", IMPORT], env=CHILD_ENV,
                              capture_output=True, text=True, check=True)
        out.append(speed.scale(1000 * float(proc.stdout)))
    return out


def yaml_loader(problem_path: str) -> str:
    """The loader class `parse_problem` hands to `yaml.load`."""
    import yaml
    from tcurve_lab.cli import parse_problem
    seen = []
    load = yaml.load

    def spy(stream, Loader):
        seen.append(f"{Loader.__module__}.{Loader.__name__}")
        return load(stream, Loader)

    yaml.load = spy
    try:
        parse_problem(problem_path)
    finally:
        yaml.load = load
    return seen[0] if seen else "not loaded through yaml.load"


def environment(problem_path: str) -> dict:
    sha = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True).stdout.strip()
        except OSError:
            pass
    import yaml
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "optimize": sys.flags.optimize,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_sha": sha or None,
        "yaml_loader": yaml_loader(problem_path),
        "libyaml_available": bool(yaml.__with_libyaml__),
        "platform": platform.platform(),
    }


def measure_cli(invocations, args, record) -> tuple[dict, int, int]:
    """Whole passes of `tcurve-lab` processes until the time is spent,
    with one set-up probe before each pass; end-to-end metrics."""
    problems = list(dict.fromkeys(inv.problem for inv in invocations))
    warm_up()
    speed = Speed()
    setup, passes = [], []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        setup.append(setup_seconds(problems, speed))
        passes.append(cli_pass(invocations, speed))
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_seconds(problems, speed))
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in ("wall_s", "vectors_per_s", "peak_rss_mb")}
    # the slowest invocation by its median: a per-pass maximum over many
    # short invocations would report the largest noise spike instead
    metrics["max_wall_s"] = max(
        statistics.median(p["invocation_wall_s"][k] for p in passes)
        for k in range(len(invocations)))
    metrics["setup_s"] = statistics.median(s for s, _ in setup)
    record.update(setup_s=[s for s, _ in setup],
                  raw_setup_s=[r for _, r in setup], passes=passes,
                  calibration_s=speed.samples)
    failed = sum(p["failed"] for p in passes)
    return metrics, len(passes) * len(invocations), failed


def measure_traced(invocations, args, record) -> tuple[dict, int, int]:
    """Alternate untraced and traced in-process passes until the time is
    spent; per-layer metrics over the traced passes, and the tracing
    overhead as the median difference within each adjacent pair.  Times
    are scaled by the calibration samples around each pass."""
    import tracing
    warm_up()
    speed = Speed()
    imports = import_ms(speed)
    spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
    plain, traced, raw, passes, failed = [], [], [], [], 0
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        spent, bad = tracing.inprocess_pass(invocations, None, log)
        plain.append(speed.scale(spent))
        tracer = tracing.Tracer()
        spent_traced, bad_traced = tracing.inprocess_pass(invocations, tracer, log)
        tracer.dump(spans_path)
        traced.append(speed.scale(spent_traced))
        factor = traced[-1] / spent_traced
        raw.append((spent, spent_traced))
        passes.append({name: v * factor if name.endswith(TIMES) else v
                       for name, v in tracer.metrics().items()})
        failed += bad + bad_traced
    # the lower middle value, so that counts stay whole numbers
    metrics = {name: statistics.median_low(p[name] for p in passes)
               for name in passes[0]}
    metrics["cli.import_ms"] = statistics.median(imports)
    metrics["trace.overhead_ms"] = 1000 * statistics.median(
        t - u for t, u in zip(traced, plain))
    record.update(import_ms=imports, untraced_pass_s=plain, traced_pass_s=traced,
                  raw_pass_s=raw, calibration_s=speed.samples, passes=passes,
                  per_invocation_ms={
                      label: {name: v * factor for name, v in layers.items()}
                      for label, layers in tracer.self_ms_by_root().items()},
                  distinct_twist_vectors={label: len(s) for label, s
                                          in tracer.twist_vectors.items()},
                  spans=os.path.relpath(spans_path, ROOT))
    return metrics, 2 * len(traced) * len(invocations), failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for need in ("BENCHMARK.json", "src/tcurve_lab/cli.py", "tests/helpers.py"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            log(f"not a tcurve-lab checkout: {need} is missing under {ROOT}")
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path[:0] = [SRC, TESTS]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload}; have {sorted(WORKLOADS)}")
        return 2

    work = os.path.join(OUT, f"{args.workload}-{args.seed}")
    os.makedirs(work, exist_ok=True)
    invocations = WORKLOADS[args.workload](
        random.Random(f"{args.workload}:{args.seed}"), work)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(invocations[0].problem),
              "invocations": [inv.label for inv in invocations]}

    measure = measure_cli if args.trace == 0 else measure_traced
    metrics, attempted, failed = measure(invocations, args, record)
    wanted = spec["end_to_end" if args.trace == 0 else "per_layer"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record.update(result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
