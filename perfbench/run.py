"""colored-ssc benchmark: time to verdict through the real CLI entry point.

Run from the repository root:

    python3 perfbench/run.py --workload forcing-mid --seed 1 --seconds 12 --trace 0

Set-up times fresh interpreters importing ``colored_ssc.cli`` (setup_s)
and checks ``check --json`` on the bundled figures against a hand-written
table.  The timed phase writes each seeded graph file and calls
``colored_ssc.cli.main`` on it in this process, once per graph, until
``--seconds`` of calls have been measured, ending on a whole composition
block.  Every
answer is checked; CONTROLLABLE answers are re-verified by sampling after
the clock stops.  With ``--trace 1`` the layer boundaries are wrapped (see
tracing.py) and a fresh untraced process repeats the same graphs to give
the tracing overhead and to confirm identical verdicts.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # One BLAS thread: the benchmark is a single-threaded process.  Must be
    # set before numpy is imported.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import harness
import tracing
from workloads import WORKLOADS, make_case

SETUP_REPEATS = 5
WORK_DIR = ".perfbench_work"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: untraced pass over exactly this many graphs (traced runs
    # start it in a fresh process to measure the tracing overhead).
    p.add_argument("--graphs", type=int, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_setup(src: Path) -> float:
    """Median wall time of a fresh interpreter importing colored_ssc.cli."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-c", "import colored_ssc.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        if i:  # the first start only warms the file cache
            times.append(perf_counter() - start)
    return statistics.median(times)


def timed_pass(main, workload, seed: int, directory: Path, seconds: float, exact: int | None, tracer, floor: int):
    """Analyse graphs in order until ``seconds`` of measured calls, ending on
    a whole block and never before ``floor`` graphs; ``exact`` fixes the
    count instead.  Each graph file is written just before its call,
    off the clock.  A run three times longer than asked stops wherever it
    is, to stay inside its time budget.

    Also returns the peak RSS in MB once ``floor`` graphs are done.  The
    caches grow with the number of graphs analysed, and a faster program
    gets through more of them in the same seconds, so the peak is read at
    a fixed count: a speed-up must not read as memory growth."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    outcomes, paths = [], []
    peak_rss_mb = None
    measured = 0.0
    start = perf_counter()
    while True:
        i = len(outcomes)
        if exact is not None:
            done = i == exact
        else:
            done = i >= floor and i % workload.block == 0 and measured >= seconds
        if done or perf_counter() - start >= 3 * seconds:
            break
        case = make_case(workload.name, seed, i)
        path = directory / f"g{i:05d}.json"
        path.write_text(json.dumps(case.doc))
        paths.append(path)
        if tracer is not None:
            tracer.graph_index = i
            tracer.known_controllable = case.expected == "CORROBORATED"
        outcome = harness.run_graph(main, list(workload.argv), case, path, workload.time_limit)
        outcomes.append(outcome)
        measured += outcome.seconds
        if len(outcomes) == floor:
            peak_rss_mb = _peak_rss_mb()
    return outcomes, paths, peak_rss_mb or _peak_rss_mb()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_child(args, seconds: float, graphs: int) -> dict:
    cmd = [
        sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", "0", "--graphs", str(graphs),
    ]
    limit = 3 * seconds + WORKLOADS[args.workload].time_limit + 30
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=limit)
    if done.returncode != 0:
        raise RuntimeError(f"untraced pass failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "colored_ssc" / "cli.py").is_file():
        print(f"error: {src}/colored_ssc not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import colored_ssc
    from colored_ssc import cli

    if Path(colored_ssc.__file__).resolve().parent != (src / "colored_ssc").resolve():
        print(f"error: imported colored_ssc from {colored_ssc.__file__}, not {src}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, harness._alarm)
    workload = WORKLOADS[args.workload]
    child = args.graphs is not None
    directory = root / WORK_DIR / (workload.name + ("-untraced" if child else ""))
    problems: list[str] = []

    setup_s = None
    clock = perf_counter()
    if not child:
        setup_s = measure_setup(src)
        problems += harness.corpus_gate(cli.main)
    phases = {"set-up": perf_counter() - clock}
    clock = perf_counter()
    # A traced run gives half its time to the traced pass and the rest to
    # the untraced repeat of the same graphs.  Its figures are per graph, so
    # it needs only whole blocks, not the end-to-end floor of min_graphs.
    seconds = args.seconds / 2 if args.trace else args.seconds
    floor = workload.block if args.trace else workload.min_graphs
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer)
    try:
        outcomes, paths, peak_rss_mb = timed_pass(cli.main, workload, args.seed, directory, seconds, args.graphs, tracer, floor)
    finally:
        if tracer is not None:
            tracer.restore()
    phases["timed pass"] = perf_counter() - clock
    clock = perf_counter()

    costs = harness.charged(outcomes, workload.time_limit)
    stats = harness.timing_stats(costs)
    core = harness.digest(outcomes[: workload.min_graphs])
    if child:
        print(json.dumps({"par2_s": stats["par2_s"], "verdicts": [o.digest_line() for o in outcomes]}))
        shutil.rmtree(directory, ignore_errors=True)
        return 0

    problems += [f"graph {o.index}: {o.wrong}" for o in outcomes if o.wrong]
    if workload.argv[0] == "check":
        unsound = harness.soundness(outcomes, paths)
        if unsound:
            problems.append(f"unsound: {unsound}")
    phases["soundness"] = perf_counter() - clock

    n = len(outcomes)
    failures = Counter(o.failure for o in outcomes if o.failure)
    positive = sum(o.positive for o in outcomes)
    output_bytes = sum(o.output_bytes for o in outcomes)
    print(f"workload {workload.name} seed {args.seed}: {n} graphs "
          f"({n // workload.block} blocks of {workload.block}), T = {workload.time_limit} s")
    print(f"failures: {dict(failures) or 'none'}; positive answers {positive}")
    print(f"p90 has {stats['tail_samples']} samples above it; verdict digest of the first "
          f"{min(n, workload.min_graphs)} graphs: {core}")
    print("wall seconds: " + ", ".join(f"{k} {v:.1f}" for k, v in phases.items())
          + f"; measured calls {sum(o.seconds for o in outcomes):.1f}")

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "graph_s_p50": (stats["graph_s_p50"], "s"),
            "graph_s_p90": (stats["graph_s_p90"], "s"),
            "par2_s": (stats["par2_s"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "uncertified_share": (1.0 - positive / n, "ratio"),
        }
        print(f"failed_share {sum(failures.values()) / n:.4f}; "
              f"controllable_share {positive / n:.4f}")
    else:
        spans_path = root / WORK_DIR / f"spans-{workload.name}.npz"
        tracer.save(spans_path)
        try:
            untraced = untraced_child(args, seconds, n)
        except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
            problems.append(f"untraced repeat: {exc}")
            untraced = {"par2_s": stats["par2_s"], "verdicts": []}
        differing, skipped = harness.verdict_mismatches([o.digest_line() for o in outcomes], untraced["verdicts"])
        if differing:
            problems.append(f"traced and untraced passes differ on {differing} graph(s)")
        layers = tracing.layer_metrics(tracer, n, output_bytes)
        layers["failed_share"] = sum(failures.values()) / n
        layers["controllable_share"] = positive / n
        layers["trace.top_span_share"] = tracer.top_level_seconds("cli.main") / sum(o.seconds for o in outcomes)
        layers["trace.overhead_s"] = stats["par2_s"] - untraced["par2_s"]
        print(f"{len(tracer)} spans written to {spans_path.relative_to(root)}; "
              f"untraced par2_s {untraced['par2_s']:.6f}, traced {stats['par2_s']:.6f}; "
              f"verdicts equal on {n - skipped - differing} graphs, {skipped} timed out in a pass")
        units = dict(tracing.PER_LAYER)
        metrics = {name: (layers[name], units[name]) for name, _ in tracing.PER_LAYER}

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    shutil.rmtree(directory, ignore_errors=True)
    result = {
        "correct": not problems,
        "attempted": n,
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
