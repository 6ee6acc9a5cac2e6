"""slicereg benchmark: one seeded workload per run, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the library is imported from ./src
and the CLI is run as `python -m slicereg` with that source tree.  All load
comes from this one process, one request at a time (closed loop, one
caller); CLI subprocesses run one at a time.

With --trace 0 the run measures for S seconds with tracing off and prints
the end-to-end metrics.  With --trace 1 it alternates untraced and traced
rounds for S seconds and prints the per-layer metrics from the traced
ones, the deterministic quadrature accuracy section and the tracing
overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A copy with the environment (Python, cores, commit) goes to
.bench_out/, together with the spans of a traced run.  Request and
set-up times are scaled to a fixed host speed measured by a probe
between requests (speed.py).
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from algebra import Algebra
from commands import Commands
from quadrature import FAMILIES, Quadrature, accuracy_names, accuracy_section
from spans import Recorder
from speed import PROBE_BURST, Speed, pin

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_DIR = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 15
SETUP_PROBES = 9        # speed probes before and after each set-up
PROBE_REPEATS = 7
# Tail percentile per workload: the highest with at least ten samples
# beyond it even in a run at half the speed seen when the benchmark was
# defined, and inside the slowest group of its request mix (the 8192-node
# lemniscate calls, degree-48 expansions, verify-cauchy).  It is fixed so that different commits compare the same
# percentile; a run with too few samples steps down the ladder and says so.
TAIL_PERCENTILE = {"quadrature": 97.0, "algebra": 99.0, "cli": 85.0}
TAIL_LADDER = (99.0, 97.0, 95.0, 90.0, 85.0, 75.0, 50.0)
CLI_SUBCOMMANDS = ("eval", "star", "expand", "deriv", "jacobian", "mult",
                   "verify-cauchy", "lemniscate")

END_TO_END = {"setup_s": "s", "round_s": "s", "req_per_s": "1/s",
              "p50_ms": "ms", "tail_ms": "ms", "peak_rss_mb": "MB"}

# Library functions whose spans become per-layer metrics, with whether a
# p50 is reported besides calls and busy time.
TIMED_FUNCTIONS = (
    ("polynomial.star", True), ("polynomial.horner", True),
    ("polynomial.remainder_div", True), ("polynomial.quadratic_div", True),
    ("expansion.expand_pair", True), ("expansion.expand_at", True),
    ("expansion.eval_expansion", True),
    ("contour.lemniscate_contour", False), ("contour.circle_contour", False),
    ("contour.coefficient_integral", False), ("contour.cauchy_eval", False),
    ("contour.coefficient_bound_report", False),
    ("calculus.directional_derivative", False),
    ("calculus.complex_jacobian", False),
    ("zeros.analyze_sphere", False), ("zeros.expansion_multiplicity", False),
)
NODE_FUNCTIONS = ("contour.coefficient_integral", "contour.cauchy_eval",
                  "contour.coefficient_bound_report")


def per_layer_units():
    """{per-layer metric: (unit, better)}, in output order."""
    spec = {"quaternion.construct_ns": ("ns", "lower"),
            "quaternion.mul_ns": ("ns", "lower"),
            "quaternion.products_computed": ("count", "higher")}
    for name, with_p50 in TIMED_FUNCTIONS:
        spec[f"{name}.calls"] = ("count", "higher")
        spec[f"{name}.busy_s"] = ("s", "lower")
        if with_p50:
            spec[f"{name}.p50_us"] = ("us", "lower")
    spec["contour.nodes_evaluated"] = ("count", "higher")
    spec["contour.node_us"] = ("us", "lower")
    for family in FAMILIES:
        spec[f"contour.{family}.nodes_to_tol"] = ("count", "lower")
        spec[f"contour.{family}.tta_s"] = ("s", "lower")
    for name in accuracy_names():
        spec[name] = ("rel", "lower")
    spec["cli.interp_ms"] = ("ms", "lower")
    spec["cli.import_ms"] = ("ms", "lower")
    for sub in CLI_SUBCOMMANDS:
        spec[f"cli.{sub}.p50_ms"] = ("ms", "lower")
    spec["trace.overhead_ratio"] = ("ratio", "lower")
    return spec


def make_workload(name):
    return {"quadrature": Quadrature,
            "algebra": Algebra,
            "cli": lambda: Commands(ROOT, WORK_DIR)}[name]()


WORKLOADS = ("quadrature", "algebra", "cli")


# -- measurement ----------------------------------------------------------

def fresh_import():
    for name in [m for m in sys.modules
                 if m == "slicereg" or m.startswith("slicereg.")]:
        del sys.modules[name]
    return importlib.import_module("slicereg")


def timed_setup(name, seed, smoke):
    """Import plus seeded input generation (references included), repeated;
    returns the last set-up and the median time, scaled to the probe's
    nominal host speed and as measured.  Each set-up starts from a
    collected heap, so that the modules dropped by earlier ones do not
    pile up."""
    speed, times = Speed(), []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        speed.sample(SETUP_PROBES)
        t0 = perf_counter()
        lib = fresh_import()
        workload = make_workload(name)
        workload.setup(lib, seed, smoke)
        t1 = perf_counter()
        speed.sample(SETUP_PROBES)
        times.append((t1 - t0, speed.scale(t0, t1)))
    return (lib, workload, statistics.median(t * k for t, k in times),
            statistics.median(t for t, _ in times))


def measure(workload, seconds, recorders):
    """Whole rounds until the next one would overrun `seconds` (at least
    one per recorder), round k recorded by recorders[k % len(recorders)].
    The recorders share one speed probe.  Returns the number of rounds
    per recorder."""
    counts = [0] * len(recorders)
    k = 0
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        workload.run_round(recorders[k % len(recorders)])
        t1 = perf_counter()
        counts[k % len(recorders)] += 1
        k += 1
        if k >= len(recorders) and t1 + (t1 - t0) > deadline:
            recorders[0].speed.sample(PROBE_BURST)
            return counts


def tail(typical, samples, percentile):
    """(percentile used, value) over the per-request typical latencies:
    `percentile`, or the highest lower ladder step with at least ten of
    the run's samples beyond it."""
    for p in (percentile,) + tuple(q for q in TAIL_LADDER if q < percentile):
        if samples * (100.0 - p) / 100.0 >= 10.0:
            cuts = statistics.quantiles(typical, n=200, method="inclusive")
            return p, cuts[round(p * 2) - 1]
    return 50.0, statistics.median(typical)


def peak_rss_mb(with_children):
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / 1024.0


def probe_ns(fn, inner=20000):
    """Median per-call time of a direct call, in ns."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(inner):
            fn()
        times.append((perf_counter() - t0) / inner * 1e9)
    return statistics.median(times)


def subprocess_ms(argv, env):
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True,
                       capture_output=True, timeout=60)
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


# -- the two kinds of run ---------------------------------------------------

def typical_of_rounds(latencies, rounds):
    """Each request's median latency over the rounds.

    Every round sends the same requests in the same order.  On a shared
    host the speed of the same call swings both ways for seconds at a time
    (a call measured at 36 ms drops to 21 ms in rare quiet stretches), so
    a request's fastest repetition depends on whether a quiet stretch
    happened to fall in the run, and its median does not.
    """
    per_round = len(latencies) // rounds
    if per_round * rounds != len(latencies):
        raise RuntimeError("rounds sent different numbers of requests")
    return [statistics.median(latencies[j::per_round])
            for j in range(per_round)]


def round_time(workload, typical):
    """The round's time from its requests' typical latencies: the sweeps on
    the quadrature workloads (their time to accuracy), else every
    request."""
    slots = getattr(workload, "tta_slots", None) or range(len(typical))
    return sum(typical[j] for j in slots)


def end_to_end(name, workload, seconds, setup_s):
    rec = Recorder(tracing=False, speed=Speed())
    [rounds] = measure(workload, seconds, [rec])
    typical = typical_of_rounds(rec.scaled(), rounds)
    tail_p, tail_s = tail(typical, len(rec.latencies), TAIL_PERCENTILE[name])
    metrics = {
        "setup_s": setup_s,
        "round_s": round_time(workload, typical),
        "req_per_s": len(typical) / sum(typical),
        "p50_ms": statistics.median(typical) * 1e3,
        "tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb(with_children=(name == "cli")),
    }
    notes = {"rounds": rounds, "requests": len(rec.latencies),
             "requests_per_round": len(typical), "tail_percentile": tail_p,
             "speed_probes": len(rec.speed.costs),
             "round_s_unscaled": round_time(
                 workload, typical_of_rounds(rec.latencies, rounds))}
    return metrics, len(rec.latencies), notes


def per_layer(lib, workload, seconds):
    accuracy = accuracy_section(lib)
    # Untraced and traced rounds alternate, so that other load on the host
    # falls on both alike.
    speed = Speed()
    plain = Recorder(tracing=False, speed=speed)
    rec = Recorder(tracing=True, speed=speed)
    plain_rounds, traced_rounds = measure(workload, seconds, [plain, rec])
    stats = rec.layer_stats()

    metrics = {}
    one = lib.Quaternion(1.0, 2.0, 3.0, 4.0)
    other = lib.Quaternion(0.5, -1.5, 2.5, -3.5)
    metrics["quaternion.construct_ns"] = probe_ns(
        lambda: lib.Quaternion(1.0, 2.0, 3.0, 4.0))
    metrics["quaternion.mul_ns"] = probe_ns(lambda: one * other)
    metrics["quaternion.products_computed"] = rec.counts.get("products", 0)
    for fn_name, with_p50 in TIMED_FUNCTIONS:
        calls, busy, p50 = stats.get(fn_name, (0, 0.0, 0.0))
        metrics[f"{fn_name}.calls"] = calls
        metrics[f"{fn_name}.busy_s"] = busy
        if with_p50:
            metrics[f"{fn_name}.p50_us"] = p50
    nodes = rec.counts.get("nodes", 0)
    node_busy = sum(stats.get(n, (0, 0.0, 0.0))[1] for n in NODE_FUNCTIONS)
    metrics["contour.nodes_evaluated"] = nodes
    metrics["contour.node_us"] = node_busy / nodes * 1e6 if nodes else 0.0
    plain_typical = typical_of_rounds(plain.scaled(), plain_rounds)
    for family in FAMILIES:
        quad = isinstance(workload, Quadrature)
        metrics[f"contour.{family}.nodes_to_tol"] = \
            workload.nodes_to_tol(family) if quad else 0
        metrics[f"contour.{family}.tta_s"] = sum(
            plain_typical[j] for j in workload.sweep_slots[family]) if quad else 0.0
    env = dict(os.environ, PYTHONPATH=SRC)
    metrics["cli.interp_ms"] = subprocess_ms([sys.executable, "-c", "pass"],
                                             env)
    metrics["cli.import_ms"] = subprocess_ms(
        [sys.executable, "-c", "import slicereg"], env)
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.p50_ms"] = \
            stats.get(f"cli.{sub}", (0, 0.0, 0.0))[2] / 1e3
    metrics["trace.overhead_ratio"] = (
        round_time(workload, typical_of_rounds(rec.scaled(), traced_rounds))
        / round_time(workload, plain_typical))
    repeat = accuracy_section(lib)
    metrics.update(accuracy)
    # The accuracy section must repeat bit for bit.
    accuracy_failed = int(repeat != accuracy)
    notes = {"rounds_untraced": plain_rounds,
             "rounds_traced": traced_rounds,
             "spans": len(rec.spans),
             "accuracy_repeats": not accuracy_failed}
    attempted = len(plain.latencies) + len(rec.latencies) + 1
    return metrics, attempted, accuracy_failed, notes, rec


def commit_id():
    """The checked-out commit, read from .git when there is one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as handle:
            for line in handle:
                if line.strip().endswith(ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(name, seed, seconds, trace, smoke=False):
    """One run; returns the result object, notes for the log, the
    recorder of a traced run (else None) and the workload."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pin()
    lib, workload, setup_s, setup_unscaled = timed_setup(name, seed, smoke)
    try:
        if trace:
            metrics, attempted, extra_failed, notes, rec = per_layer(
                lib, workload, seconds)
            units = {k: u for k, (u, _) in per_layer_units().items()}
        else:
            metrics, attempted, notes = end_to_end(name, workload, seconds,
                                                   setup_s)
            notes["setup_s_unscaled"] = setup_unscaled
            extra_failed, rec = 0, None
            units = END_TO_END
        failed = workload.check() + extra_failed
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    return result, notes, rec, workload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "slicereg", "__init__.py")):
        print(f"error: no slicereg source tree under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    result, notes, rec, _ = run(args.workload, args.seed, args.seconds,
                                args.trace)
    environment = {"python": platform.python_version(),
                   "cores": os.cpu_count(), "commit": commit_id(),
                   "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({"environment": environment, "notes": notes,
                   "result": result}, handle, indent=1)
    if rec is not None:
        rec.dump(stem + "-spans.json")

    for key, value in environment.items():
        print(f"# {key}: {value}")
    for key, value in notes.items():
        print(f"# {key}: {value}")
    for key, entry in result["metrics"].items():
        print(f"{key:<48} {entry['value']:>16.6g} {entry['unit']}")
    print(f"# attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_ratio {result['failed'] / result['attempted']:.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
