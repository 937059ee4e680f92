#!/usr/bin/env python3
"""Repo benchmark: host time and memory of the simulator on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list-metrics
    python3 perfbench/run.py --workload NAME --pin   # rewrite a reference

Run from the root of a checkout. Every run configures and builds
perfbench/CMakeLists.txt (the library from src/ plus perfbench/driver.cc)
under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
incrementally after the first time. Each driver process measures one
sample; this script runs rounds of them, one per CPU, for --seconds, each
round between two rounds of host-speed probes, checks every sample's
simulated outputs, rescales host times by the probe, computes the medians
and prints human-readable lines, then as its last stdout line one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
measured with profiling off; with --trace 1 they are the per-layer ones,
from a run that spends half its time untraced and half with obs::Profiler
on.
perfbench/NOTES.md explains the workloads, metrics and checks.
"""

import argparse
import concurrent.futures
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("train_scaleout", "serve_stream", "serve_paged_jsq",
             "paper_repro")
# These two take no seed: their inputs are fixed, so every run is checked
# against the pinned reference. The serving workloads derive the request
# stream's seed from --seed; the pinned reference holds for DEFAULT_SEED.
SEEDLESS = ("train_scaleout", "paper_repro")
DEFAULT_SEED = 0
# setup + run + collect must tile each sample's measured total.
SPAN_TOLERANCE = 1e-3
SETUP_PROCESSES = 4
# Samples run side by side, one per CPU (see sample_cpus()).
MAX_CPUS = 4
# Host times are reported in reference seconds: seconds on a host where one
# repetition of the host-speed probe (probe.cc) takes PROBE_REF_S. The probe
# does fixed work that nothing in src/ touches, so its checksum never moves.
PROBE_REF_S = 0.125
PROBE_CHECKSUM = 46351898558
# Seconds every driver process must end within, counted after the build.
BUDGET_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure and build incrementally. Returns the driver path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_driver")


def git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                           text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(driver):
    """Where the numbers come from. Wall numbers compare only within one."""
    status = git("status", "--porcelain")
    return {
        "commit": git("rev-parse", "HEAD") or "unknown (not a git checkout)",
        "dirty": None if status is None else bool(status),
        "compiler": driver["compiler"],
        "build_type": driver["build_type"],
        "flags": " ".join(driver["flags"].split()),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "jobs": driver["jobs"],
    }


def median(values):
    return statistics.median(values)


def tail(values):
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns (percentile, value), or (100, max) when fewer than eleven
    samples leave no such percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100, ordered[-1]
    pct = (100 * (n - 10)) // n
    rank = max(1, -(-pct * n // 100))  # ceil(pct * n / 100)
    return pct, ordered[rank - 1]


def check(workload, seed, samples):
    """Count the samples whose simulated outputs are wrong.

    Every sample must equal the first (repeated and traced runs are
    bit-identical), serving dispositions must add up, the benchmark's own
    spans must tile the sample, and where the reference applies the
    fingerprint must equal it exactly.
    """
    pinned = workload in SEEDLESS or seed == DEFAULT_SEED
    reference = None
    if pinned:
        with open(REFERENCE) as f:
            reference = json.load(f)["workloads"].get(workload)
    first = samples[0]["fingerprint"]
    failed = 0
    for i, s in enumerate(samples):
        fp = s["fingerprint"]
        problems = []
        if fp != first:
            problems.append("differs from the first sample")
        if pinned and reference is None:
            problems.append(f"no pinned reference for {workload}")
        elif pinned and fp != reference:
            problems += [f"{k} = {fp.get(k)!r}, pinned {v!r}"
                         for k, v in reference.items() if fp.get(k) != v]
        if "requests.expected" in fp:
            disposed = (fp["requests.served"] + fp["requests.shed"] +
                        fp["requests.rejected"])
            if disposed != fp["requests.expected"]:
                problems.append(f"served+shed+rejected = {disposed}, "
                                f"expected {fp['requests.expected']}")
        spans = s["setup_s"] + s["run_s"] + s["collect_s"]
        if abs(spans - s["total_s"]) > SPAN_TOLERANCE * s["total_s"]:
            problems.append(f"spans sum to {spans}, total {s['total_s']}")
        if problems:
            failed += 1
            log(f"sample {i}: " + "; ".join(problems))
    return failed


def run_driver(driver, deadline, cpu, *args):
    """One process of `driver` (the driver or the probe) pinned to CPU
    `cpu`, with `args` after it. It is killed if still running at
    `deadline`."""
    cmd = [driver, "--cpu", str(cpu), *map(str, args)]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True,
                         timeout=max(1.0, deadline - time.monotonic()))
    if run.returncode:
        raise RuntimeError(f"driver exited with {run.returncode}")
    return json.loads(run.stdout)


def run_probe(driver, deadline, cpu):
    """Median seconds of one perfbench_probe process's repetitions on CPU
    `cpu`. The probe is built beside the driver."""
    probe = os.path.join(os.path.dirname(driver), "perfbench_probe")
    doc = run_driver(probe, deadline, cpu)
    if doc["checksum"] != PROBE_CHECKSUM:
        raise RuntimeError(f"probe checksum {doc['checksum']}, expected "
                           f"{PROBE_CHECKSUM}")
    return median(doc["probe_s"])


def sample_cpus():
    """The CPUs samples run on: every CPU this process may use, up to
    MAX_CPUS. On a shared virtual machine each vCPU's speed drifts by
    itself over seconds (whatever shares its physical core), so a median
    pooled over several CPUs drifts less than one CPU's."""
    return sorted(os.sched_getaffinity(0))[:MAX_CPUS]


def run_phase(driver, deadline, workload, seed, trace, seconds):
    """Rounds of samples until `seconds` have passed, starting another round
    only while the median round so far still fits; at least one.

    A round runs one sample on every CPU of sample_cpus() side by side,
    then one probe process on every CPU side by side; one such probe round
    also comes before the first round. Probes never run beside a sample:
    the vCPUs share the host's cores, caches and power, so a probe beside
    samples could slow with their load and divide a slower program back
    out. Each
    sample's doc, and the set-up-only docs after it, carry the mean of the
    two probes around it on its CPU as "probe_s". An untraced round ends
    with SETUP_PROCESSES rounds of set-up-only processes: a sub-microsecond
    set-up runs at one of several speeds fixed per process (CPU and memory
    placement), so setup_s pools many processes, not just the samples.
    Returns (sample docs, set-up-only docs). Each driver process is
    single-threaded or pinned to its CPU, so no round asks for more CPUs
    than the run was given.
    """
    cpus = sample_cpus()
    args = ["--workload", workload, "--seed", seed, "--trace", trace]
    docs, setup_docs, durations = [], [], []
    with concurrent.futures.ThreadPoolExecutor(len(cpus)) as pool:
        def probes():
            return list(pool.map(
                lambda cpu: run_probe(driver, deadline, cpu), cpus))

        def on_every_cpu(*extra):
            return list(pool.map(
                lambda cpu: run_driver(driver, deadline, cpu, *args, *extra),
                cpus))

        start = time.monotonic()
        before = probes()
        while True:
            began = time.monotonic()
            samples = on_every_cpu()
            after = probes()
            durations.append(time.monotonic() - began)
            probe_s = [(b + a) / 2 for b, a in zip(before, after)]
            docs += [dict(d, probe_s=p) for d, p in zip(samples, probe_s)]
            if not trace:
                for _ in range(SETUP_PROCESSES):
                    setup_docs += [dict(d, probe_s=p) for d, p in
                                   zip(on_every_cpu("--setup-only"), probe_s)]
            before = after
            if time.monotonic() - start + median(durations) > seconds:
                return docs, setup_docs


def host_scale(doc):
    """Factor that turns the doc's host seconds into reference seconds:
    PROBE_REF_S over the probe time measured around its sample."""
    return PROBE_REF_S / doc["probe_s"]


def end_to_end(docs, setup_docs):
    """Every host time is rescaled by host_scale(), sample by sample."""
    return {
        "wall_s": [d["sample"]["run_s"] * host_scale(d) for d in docs],
        "events_per_s": [d["sample"]["fingerprint"]["events"] /
                         (d["sample"]["run_s"] * host_scale(d))
                         for d in docs],
        "cpu_s": [d["sample"]["cpu_s"] * host_scale(d) for d in docs],
        "peak_rss_mb": [max(d["peak_rss_kb"] for d in docs) / 1024.0],
        "setup_s": [t * host_scale(d)
                    for d in docs + setup_docs for t in d["setup_s"]],
    }


def raw_times(docs):
    """Measured host seconds, before rescaling: the probe and wall time."""
    return {
        "probe_s": [d["probe_s"] for d in docs],
        "wall_s": [d["sample"]["run_s"] for d in docs],
    }


def per_layer(untraced_docs, traced_docs, error_rate):
    """Per-layer metrics. Profiler sections and bench.* spans are measured
    host seconds; obs.overhead_frac compares rescaled wall times."""
    untraced = [d["sample"] for d in untraced_docs]
    traced = [d["sample"] for d in traced_docs]
    layers = {}
    for name in traced[0]["layers"]:
        values = [s["layers"][name] for s in traced]
        # Times vary run to run: take the median. Counts are exact.
        layers[name] = median(values) if name.endswith("_s") else values[0]
    wall = [s["run_s"] for s in untraced]
    pct, tail_s = tail(wall)
    scaled = [d["sample"]["run_s"] * host_scale(d)
              for d in untraced_docs + traced_docs]
    layers.update({
        "sim.events": traced[0]["fingerprint"]["events"],
        "bench.setup_s": median(s["setup_s"] for s in untraced),
        "bench.run_s": median(wall),
        "bench.collect_s": median(s["collect_s"] for s in untraced),
        "bench.samples": len(untraced),
        "bench.wall_tail_s": tail_s,
        "bench.wall_tail_pct": pct,
        "error_rate": error_rate,
        "host.probe_s": median(d["probe_s"]
                               for d in untraced_docs + traced_docs),
        "obs.overhead_frac": (median(scaled[len(untraced):]) /
                              median(scaled[:len(untraced)]) - 1.0),
    })
    return layers


def describe(name, unit, values):
    if len(values) == 1:
        return f"  {name:<26} {values[0]:.6g} {unit}"
    pct, t = tail(values)
    label = f"p{pct}" if pct < 100 else "max (n<11)"
    return (f"  {name:<26} median {median(values):.6g} {unit}, "
            f"{label} {t:.6g} {unit}, n={len(values)}")


def list_metrics(spec):
    for m in spec["end_to_end"]:
        print(f"end_to_end {m['name']:<36} {m['unit']:<16} "
              f"{m['better']} is better, bound {m['bound']}")
    for m in spec["per_layer"]:
        print(f"per_layer  {m['name']:<36} {m['unit']:<16} "
              f"{m['better']} is better")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list-metrics", action="store_true",
                    help="print every metric with its unit and exit")
    ap.add_argument("--pin", action="store_true",
                    help="rewrite the workload's pinned reference from a "
                         "default-seed run (only for an intended change "
                         "of simulated outputs)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.list_metrics:
        list_metrics(spec)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    seed = DEFAULT_SEED if args.pin else args.seed

    driver = build()
    deadline = time.monotonic() + BUDGET_S
    if args.pin:
        fingerprint = run_driver(
            driver, deadline, sample_cpus()[0], "--workload", args.workload,
            "--seed", seed, "--trace", 0)["sample"]["fingerprint"]
        pinned = {"default_seed": DEFAULT_SEED, "workloads": {}}
        if os.path.exists(REFERENCE):
            with open(REFERENCE) as f:
                pinned = json.load(f)
        pinned["workloads"][args.workload] = fingerprint
        with open(REFERENCE, "w") as f:
            json.dump(pinned, f, indent=1, sort_keys=True)
            f.write("\n")
        log(f"pinned {args.workload} in {REFERENCE}")
        return 0

    # Untraced samples also give obs.overhead_frac and the bench.* spans.
    phase = args.seconds / 2 if args.trace else args.seconds
    untraced, setup_docs = run_phase(driver, deadline, args.workload, seed,
                                     0, phase)
    traced = (run_phase(driver, deadline, args.workload, seed, 1,
                        phase)[0] if args.trace else [])
    samples = [d["sample"] for d in untraced + traced]
    failed = check(args.workload, seed, samples)
    attempted = len(samples)

    info = manifest(untraced[0]["manifest"])
    print("manifest " + json.dumps(info, sort_keys=True))
    seeding = ("takes no seed" if args.workload in SEEDLESS
               else f"serving seed from --seed {seed}")
    print(f"workload {args.workload} ({seeding}); {attempted} samples "
          f"checked, {failed} failed")
    e2e = end_to_end(untraced, setup_docs)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print("measured host times (profiling off):")
    for name, values in raw_times(untraced).items():
        print(describe(name, "s", values))
    print(f"end-to-end (profiling off; times in reference seconds, "
          f"rescaled to a {PROBE_REF_S} s probe):")
    for name, values in e2e.items():
        print(describe(name, units[name], values))
    metrics = {name: (units[name], median(values))
               for name, values in e2e.items()}

    if args.trace:
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = per_layer(untraced, traced, failed / attempted)
        print("per-layer (profiled sections are inclusive; never sum "
              "them; bench.* spans are exclusive):")
        metrics = {}
        for name, unit in layer_units.items():
            value = layers.get(name, 0)  # 0: layer not on this workload
            print(f"  {name:<36} {value:.6g} {unit}")
            metrics[name] = (unit, value)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (unit, value) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
