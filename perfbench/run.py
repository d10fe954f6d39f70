"""Benchmark of valgebra's exact pipeline; see perfbench/README.md.

    python3 perfbench/run.py --workload diag6 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload runs in fresh
single-threaded worker processes (perfbench/worker.py).  With `--trace 0`
the last line of output is a JSON object with the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run, which never
shares a process with a timed one.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("diag6", "density", "requests")
# Set-up is timed in processes that only set up, half of them before and
# half after the measured one, which is timed too: 20 samples a run.
SETUP_ONLY_BEFORE = 10
SETUP_ONLY_AFTER = 9
DEADLINE_S = 170.0  # the whole command must end within 180 s

# One thread per worker: valgebra's pool, BLAS and OpenMP pinned to 1, and a
# fixed hash seed so that set and dict orders repeat.
WORKER_ENV = {
    "VALGEBRA_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run worker.py; return seconds from start to READY, and its report."""
    env = dict(os.environ, **WORKER_ENV)
    env.pop("PYTHONPATH", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env, stdout=subprocess.PIPE
    )
    try:
        head = b""
        while b"\n" not in head:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
                raise WorkerError(f"worker {args} passed the deadline")
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                break
            head += chunk
        setup_s = time.perf_counter() - t0
        if not head.startswith(b"READY\n"):
            raise WorkerError(f"worker {args} did not start: {head[:300]!r}")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as e:
        raise WorkerError(f"worker {args} passed the deadline") from e
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited {proc.returncode}")
    lines = (head[len(b"READY\n"):] + rest).decode().strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def round_p50(op_times: dict[str, list[float]], rounds: int) -> float:
    """A round at each kind of operation's median time.

    Every round runs the same operations, so a kind's count per round is its
    number of times over the number of rounds.  Taking the median within
    each kind keeps every kind of work in the figure in its share of a
    round; with 4 to 8 samples of a kind in a run, the median is steadier
    than a low percentile.
    """
    return sum(statistics.median(times) * len(times) / rounds for times in op_times.values())


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    setup_only = base + ["--setup-only"]
    setups = [run_worker(setup_only, deadline)[0] for _ in range(SETUP_ONLY_BEFORE)]
    setup_s, rep = run_worker(base + ["--seconds", str(seconds)], deadline)
    setups.append(setup_s)
    setups += [run_worker(setup_only, deadline)[0] for _ in range(SETUP_ONLY_AFTER)]
    metrics = {
        "round_p50_s": (round_p50(rep["op_times"], rep["rounds"]), "s"),
        "peak_rss_mib": (rep["peak_rss_mib"], "MiB"),
        "setup_s": (min(setups), "s"),
    }
    # Printed for reading, not reported (README).
    ops = [t for times in rep["op_times"].values() for t in times]
    info = {
        "setup_samples_s": setups,
        "round_best_s": min(rep["round_times"]),
        "whole_round_p50_s": statistics.median(rep["round_times"]),
        "op_p50_s": statistics.median(ops),
    }
    if len(ops) >= 100:  # a 90th percentile with at least ten samples beyond it
        info["op_p90_s"] = statistics.quantiles(ops, n=10)[-1]
    return {"report": rep, "metrics": metrics, "info": info}


def traced(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    """Per-layer figures: an untimed traced rerun of the rounds of a plain run."""
    base = ["--workload", workload, "--seed", str(seed)]
    _, plain = run_worker(base + ["--seconds", str(seconds)], deadline)
    _, rep = run_worker(base + ["--rounds", str(plain["rounds"]), "--trace"], deadline)
    rep["correct"] = rep["correct"] and plain["correct"]
    rep["problems"] += plain["problems"]
    overhead = statistics.median(rep["round_times"]) - statistics.median(plain["round_times"])
    metrics = {name: (value, _unit(name)) for name, value in rep["layers"].items()}
    metrics["trace.overhead_s"] = (overhead, "s")
    return {"report": rep, "metrics": metrics, "info": {"untraced_run_s": statistics.median(plain["round_times"])}}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "valgebra" / "__init__.py").is_file():
        print(f"no valgebra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    measure = traced if args.trace else end_to_end
    try:
        out = measure(args.workload, args.seed, args.seconds, deadline)
    except WorkerError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    rep = out["report"]
    for problem in rep["problems"]:
        print(f"WRONG {problem}", file=sys.stderr)
    for name, (value, unit) in out["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for name, value in out["info"].items():
        print(f"{args.workload} ({name} = {value})")
    print(f"{args.workload} attempted {rep['attempted']} in {rep['rounds']} rounds, failed {rep['failed']}")
    result = {
        "correct": rep["correct"],
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()},
    }
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"result": result, "info": out["info"], "report": rep}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
