"""One workload in one process: set up, time whole rounds, then check.

run.py starts this script once per measurement; by hand:

    python3 perfbench/worker.py --workload diag6 --seed 1 --seconds 10

It prints `READY` once valgebra is imported and the first round's inputs
are built, so that the parent can time set-up from process start.  The
last line it prints is a JSON report.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pickle
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import valgebra  # noqa: E402

if Path(valgebra.__file__).resolve().parent != ROOT / "src" / "valgebra":
    sys.exit(f"valgebra was imported from {valgebra.__file__}, not from this checkout")

import workloads  # noqa: E402


def run_rounds(build, args, ops, out) -> tuple[dict[str, list[float]], list[float]]:
    """Run whole rounds until --seconds (or --rounds) is used up.

    Returns the wall times of the operations, by kind, and of the rounds.
    A round's time is the sum of its operations' wall times; pickling each
    output between operations is not timed.
    """
    op_times: dict[str, list[float]] = {}
    round_times: list[float] = []
    started = time.perf_counter()
    while True:
        round_s = 0.0
        for op in ops:
            t = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as e:  # noqa: BLE001 - a failed operation is counted, not fatal
                result, error = None, f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t
            op_times.setdefault(op.kind, []).append(dt)
            round_s += dt
            pickle.dump((result, error), out)
        round_times.append(round_s)
        if args.rounds:
            if len(round_times) >= args.rounds:
                break
        elif time.perf_counter() - started + sum(round_times) / len(round_times) > args.seconds:
            break  # another round would end past --seconds
        ops = build(args.seed, len(round_times))
    return op_times, round_times


def check_rounds(build, seed: int, outputs) -> tuple[int, list[str]]:
    """Check every output, rebuilding each round's operations from the seed.

    Returns the number of failed operations (known faults only) and a
    description of every other wrong output.
    """
    import oracles  # only now: checking code must not count in peak memory

    failed = 0
    problems = []
    for round_index in itertools.count():
        try:
            first = pickle.load(outputs)
        except EOFError:
            break
        verdicts = {}  # id(op.call) -> (result, problem): repeated requests are checked once
        for i, op in enumerate(build(seed, round_index)):
            result, error = first if i == 0 else pickle.load(outputs)
            seen = verdicts.get(id(op.call))
            if error:
                problem = error
            elif seen is not None and seen[0] == result:
                problem = seen[1]
            else:
                try:
                    problem = op.check(result, oracles)
                except Exception as e:  # noqa: BLE001 - an unreadable output is a wrong output
                    problem = f"output not as expected ({type(e).__name__}: {e})"
                verdicts[id(op.call)] = (result, problem)
            if problem is None:
                continue
            if op.fault:
                failed += 1
            else:
                problems.append(f"{op.kind}: {problem}")
    return failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.BUILDERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=0, help="run exactly this many rounds instead of --seconds")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    build = workloads.BUILDERS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    ops = build(args.seed, 0)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    # Outputs go to a scratch file as they come, so that peak memory is the
    # program's and not a growing list of the harness's.
    scratch = HERE / "results" / f".outputs-{os.getpid()}.pickle"
    scratch.parent.mkdir(exist_ok=True)
    try:
        with scratch.open("wb") as out:
            op_times, round_times = run_rounds(build, args, ops, out)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        layers = tracer.metrics(len(round_times)) if tracer else None
        with scratch.open("rb") as outputs:
            failed, problems = check_rounds(build, args.seed, outputs)
    finally:
        scratch.unlink(missing_ok=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(round_times),
        "round_times": round_times,
        "op_times": op_times,
        "attempted": sum(map(len, op_times.values())),
        "failed": failed,
        "correct": not problems,
        "problems": problems[:10],
        "peak_rss_mib": peak_rss_mib,
        "layers": layers,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
