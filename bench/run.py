"""Run one qkit benchmark workload and print its metrics.

    python3 bench/run.py --workload codec-1021 --seed 1 --seconds 30 --trace 0

One process, one thread, one caller in a closed loop: each operation
starts when the previous one returns.  Passes repeat while another one
is expected to finish within `--seconds`; there is at least one.  Each
timing is the slowest of the run's samples and `setup_s` the median of
its set-ups: the sizing host is mostly in a slow state, with faster
stretches of varying length that move the minimum and the median from
run to run, while the slowest sample follows the common state.  Inputs
come from `--seed` alone.  Every
output is checked; failed operations are counted against attempted ones.

`--trace 0` prints the end-to-end metrics, measured with tracing off.
`--trace 1` alternates untraced and traced passes and prints the
per-layer metrics of the median traced pass, plus the tracing overhead;
its spans are written to `.bench_out/<workload>.spans.jsonl`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0
whenever that line is printed, and 2 when the checkout holds no qkit
sources to measure.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import SRC, WORKLOADS, import_qkit

ROOT = SRC.parent
SETUP_REPEATS = 5


def source_digest() -> str:
    """sha256 over qkit's sources: identifies the code measured without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "qkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _median_index(values) -> int:
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run passes for `seconds`, and return the run's result."""
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            t0 = perf_counter()
            mods = import_qkit()
            inputs = workload.make_inputs(mods, seed, Path(tmp))
            setups.append(perf_counter() - t0)

        tracer = Tracer() if trace else None
        plain, traced, layers = [], [], []
        start = perf_counter()
        # Stop before a further pass (or traced and untraced pair) would
        # overrun the measuring time.
        while not plain or (perf_counter() - start) * (len(plain) + 1) / len(plain) <= seconds:
            if tracer is None:
                gc.collect()
                plain.append(workload.run_pass(mods, inputs, None))
                continue
            # Pairs alternate which pass runs first, starting with the
            # traced one, so a cold first pass never makes the overhead
            # look smaller than it is.
            for use_tracer in (True, False) if len(traced) % 2 == 0 else (False, True):
                gc.collect()
                if not use_tracer:
                    plain.append(workload.run_pass(mods, inputs, None))
                    continue
                first = len(tracer.spans)
                tracer.run_id = f"{workload.name}/{seed}/{len(traced)}"
                tracer.install(mods)
                try:
                    p = workload.run_pass(mods, inputs, tracer)
                finally:
                    tracer.uninstall()
                traced.append(p)
                layers.append(tracer.layers(first, p.wall_s))

    ops = [op for p in plain + traced for op in p.ops]
    failures = [op for op in ops if op.problems]
    if tracer is None:
        walls = [p.wall_s for p in plain]
        metrics = {
            "wall_s": max(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "step1_s": max(t for p in plain for t in p.steps[0]),
            "step2_s": max(t for p in plain for t in p.steps[1]),
            "work_per_s": min(p.work / p.wall_s for p in plain),
        }
    else:
        walls = [p.wall_s for p in traced]
        metrics = dict(layers[_median_index(walls)])
        metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(
            p.wall_s for p in plain
        )
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"{workload.name}.spans.jsonl")
    return {
        "passes": len(plain) + len(traced),
        "walls": walls,
        "work": plain[0].work,
        "failures": failures,
        "attempted": len(ops),
        "metrics": metrics,
    }


def declared(trace: bool) -> list:
    """The metrics BENCHMARK.json declares for an untraced or a traced run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def report(workload, seed, seconds, trace, result) -> None:
    """Print the run in readable lines, then the one-line JSON result.

    Metric names, order and units come from BENCHMARK.json; a declared
    metric the run did not compute raises KeyError.
    """
    attempted, failed = result["attempted"], len(result["failures"])
    print(f"qkit benchmark: workload {workload.name}, seed {seed}, {seconds} s, trace {int(trace)}")
    print(
        f"environment: python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"qkit src sha256 {source_digest()[:16]}"
    )
    print(
        f"passes {result['passes']}, operations attempted {attempted}, "
        f"failed {failed}, failed_ratio {failed / attempted}"
    )
    print("timed pass walls (s): " + " ".join(f"{w:.4f}" for w in result["walls"]))
    print(f"work per pass: {result['work']} {workload.work_unit}")
    for op in result["failures"][:10]:
        print(f"FAILED {op.name}: {'; '.join(op.problems)}")
    notes = {
        "step1_s": workload.steps[0],
        "step2_s": workload.steps[1],
        "work_per_s": f"{workload.work_unit} per second",
    }
    metrics = {}
    for m in declared(trace):
        name, value = m["name"], result["metrics"][m["name"]]
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value} {m['unit']}{note}")
        metrics[name] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "qkit" / "__init__.py").is_file():
        print(f"error: no qkit sources in {SRC}; run from a qkit checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    result = measure(workload, args.seed, args.seconds, trace)
    report(workload, args.seed, args.seconds, trace, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
