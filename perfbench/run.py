"""Benchmark of mambatab: one workload per call, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload train_c7 --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout. It generates the workload's inputs from
``--seed`` under ``.perfbench_run/``, then starts measuring child processes
one at a time, each single-threaded and fresh, and deletes the inputs at the
end. The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

A workload whose inputs need mambatab itself (score_50k's trained
checkpoint) first builds them in a child of its own, outside all timings.

``--trace 0`` starts three children that share ``--seconds`` of timed body
and reports the end-to-end metrics:

- ``setup_s``: from a child's start to its first timed call: interpreter
  start, ``import mambatab`` and the workload's set-up, less the probes'
  time, scaled to the reference machine speed by the pure-Python kernel
  sampled during it; median of the three children.
- ``ref_rows_per_s``: rows the body processes per second, scaled to the
  reference machine speed: each repeat's rate times the median time of the
  workload's reference kernel sampled during it (``child.SpeedProbe``) over
  its ``child.REFERENCE_KERNEL_S``; median over every timed repeat. Training
  rows count once per epoch run, summed over phases. The unscaled rate is
  printed beside it.
- ``peak_rss_mb``: a child's peak resident memory, median of the children.

``--trace 1`` starts one untraced and one traced child, half the seconds
each, and reports the per-layer metrics of ``spans.LAYER_UNITS`` from the
traced child, per timed repeat, plus the tracing overhead: traced minus
untraced median wall time. Times are scaled to the reference machine speed
like ``ref_rows_per_s``; per-layer times by the traced child's median
speed over its repeats, and they include the probes' 2.5% or so;
``package.import_s`` by its set-up speed, like ``setup_s``. The traced child
writes its spans to ``.perfbench_out/<workload>-seed<seed>.trace.json.gz``.

Exit code 2, with no result, when the directory holds no mambatab source.
Exit code 1 when a child completed no timed repeat; the result line is then
printed with ``correct`` false and no metrics.
"""

import os

from child import BLAS_THREAD_VARS

for _var in BLAS_THREAD_VARS:   # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILDREN = 3
DEADLINE_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "ref_rows_per_s": "1/s", "peak_rss_mb": "MB"}


def start_child(name: str, work: Path, seconds: float, trace: int, index: int | str,
                deadline: float, extra: tuple = ()) -> dict:
    """Run one child to completion; a crash or timeout is one failed operation."""
    result = work / f"child_{index}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name, "--work", str(work),
           "--seconds", repr(seconds), "--trace", str(trace), "--result", str(result), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.monotonic()))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    if code != 0 or not result.is_file():
        print(f"child {index} of {name} ended with {code}", file=sys.stderr)
        return {"attempted": 1, "failed": 1, "problems": [f"child ended with {code}"],
                "body_s": [], "rows": []}
    out = json.loads(result.read_text(encoding="utf-8"))
    if "first_call_ns" in out:
        setup_s = (out["first_call_ns"] - spawn_ns) * 1e-9 - out["setup_probe_s"]
        out["setup_s"] = setup_s * out["setup_speed"]
    return out


def reference_walls(child: dict) -> list[float]:
    """Each timed repeat's wall time scaled to the reference machine speed."""
    return [s * v for s, v in zip(child["body_s"], child["speed"])]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "mambatab" / "__init__.py").is_file():
        print(f"no mambatab source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload]
    build = {"attempted": 0, "failed": 0, "problems": []}
    try:
        workload.generate(args.seed, work)
        if workload.needs_build:
            build.update(start_child(args.workload, work, 0.0, 0, "build", deadline, ("--build",)))
        if args.trace:
            trace_out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}.trace.json.gz"
            children = [start_child(args.workload, work, args.seconds / 2, 0, 0, deadline),
                        start_child(args.workload, work, args.seconds / 2, 1, 1, deadline,
                                    ("--trace-out", str(trace_out)))]
        else:
            children = [start_child(args.workload, work, args.seconds / CHILDREN, 0, i, deadline)
                        for i in range(CHILDREN)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        runs_dir = work.parent
        if runs_dir.is_dir() and not any(runs_dir.iterdir()):
            runs_dir.rmdir()

    attempted = build["attempted"] + sum(c["attempted"] for c in children)
    failed = build["failed"] + sum(c["failed"] for c in children)
    problems = sorted({msg for c in [build, *children] for msg in c["problems"]})
    if any(not c["body_s"] for c in children):
        print(f"{args.workload}: a child completed no timed repeat; no metrics to report",
              file=sys.stderr)
        for msg in problems:
            print(f"  check failed: {msg}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    env = children[0]["env"]
    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']}, nproc {env['nproc']}, BLAS threads "
          f"{env['blas_thread_vars']['OPENBLAS_NUM_THREADS']}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(children)} children, {sum(len(c['body_s']) for c in children)} timed repeats")
    for key, value in children[-1]["info"].items():
        print(f"  {key}: {value}")
    print(f"  fail_ratio: {failed}/{attempted} = {failed / attempted:.4f}")

    if args.trace:
        untraced, traced = children
        units = spans.LAYER_UNITS
        speed = statistics.median(traced["speed"])
        metrics = {name: value * speed if units[name] in ("s", "ms") else value
                   for name, value in traced["layers"].items()}
        metrics["package.import_s"] = traced["import_s"] * traced["setup_speed"]
        metrics["trace.untraced_wall_s"] = statistics.median(reference_walls(untraced))
        metrics["trace.traced_wall_s"] = statistics.median(reference_walls(traced))
        metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
        nodes = metrics["tensor.nodes_per_step"]
        if args.workload == "train_c7" and nodes != spans.BASELINE_NODES_PER_STEP:
            print(f"  note: tensor.nodes_per_step {nodes} differs from the baseline "
                  f"{spans.BASELINE_NODES_PER_STEP}", file=sys.stderr)
    else:
        every_setup = [c["setup_s"] for c in children]
        raw_setup = [c["setup_s"] / c["setup_speed"] for c in children]
        every_rate = [r / s for c in children for r, s in zip(c["rows"], c["body_s"])]
        metrics = {
            "setup_s": statistics.median(every_setup),
            "ref_rows_per_s": statistics.median(
                r / s for c in children for r, s in zip(c["rows"], reference_walls(c))),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        }
        units = END_TO_END_UNITS
        print(f"  wall_s per repeat (median): "
              f"{statistics.median(s for c in children for s in c['body_s']):.4f}")
        print(f"  rows_per_s unscaled over {len(every_rate)} repeats: median "
              f"{statistics.median(every_rate):.6g}, min {min(every_rate):.6g}, "
              f"max {max(every_rate):.6g}; machine speed median "
              f"{statistics.median(v for c in children for v in c['speed']):.4g}")
        setup_speeds = [c["setup_speed"] for c in children]
        print(f"  setup_s unscaled: {', '.join(f'{t:.4f}' for t in raw_setup)}; set-up speed "
              f"{', '.join(f'{v:.4g}' for v in setup_speeds)}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    for msg in problems:
        print(f"  check failed: {msg}")

    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
