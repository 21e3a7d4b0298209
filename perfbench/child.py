"""One measuring process of the benchmark; ``run.py`` starts it, one at a time.

    python3 perfbench/child.py --workload NAME --work DIR --seconds S --trace 0|1 --result FILE

It imports mambatab from the checkout's ``src``, runs the workload's
set-up, then repeats the timed body until about ``S`` seconds of body time
have passed (at least once), checking every call's output outside the timed
region. SpeedProbes sample the machine's speed during set-up and every repeat. With
``--trace 1`` each repeat runs with the span recorder installed. The result,
and the environment it ran in, go to ``FILE`` as JSON. With ``--build`` it
only runs the workload's one-off ``build`` step.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:   # one BLAS thread; must precede the numpy import
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Median time of one call of each reference kernel on the machine the bounds
# were set on (2 vCPUs, Python 3.11.7, numpy 2.4.6).
REFERENCE_KERNEL_S = {"tensor": 0.0058, "parse": 0.0013}
# A probe every 40 kernel times, so probes take about 2.5% of the body.
PROBE_EVERY = 40


def tensor_kernel() -> None:
    """Fixed work shaped like an autograd forward pass: a chain of
    elementwise ufuncs on [128, 12, 16] arrays that keeps every
    intermediate alive, about 8 MB in all. Its working set is what lets
    it track a training step's slowdown when other tenants load the
    caches: on a shared 2-vCPU host, step time over this kernel's time
    varied half as much (IQR/median 0.05 against 0.11 over 5 s windows)
    as over a kernel of small matrix products that fits in L2."""
    import numpy as np
    a = np.full((128, 12, 16), 0.5)
    kept = [a]
    for i in range(40):
        a = a * 1.0001 + kept[i // 2]
        kept.append(a)


_PARSE_LINES = [f"{i * 0.3711!r},{i},{i * 7 % 1000 / 100!r},v{i % 7:02d},{'' if i % 9 else '?'},"
                f"{i / 3.0!r}" for i in range(240)]


def parse_kernel() -> None:
    """Fixed work shaped like CSV ingest, in builtins only: split lines,
    strip cells, parse floats, count the cells that are not numbers.
    It imports nothing, so it can run while a module is being imported."""
    counts: dict[str, int] = {}
    total = 0.0
    for line in _PARSE_LINES:
        for tok in [t.strip() for t in line.split(",")]:
            if tok in ("", "?"):
                continue
            try:
                total += float(tok)
            except ValueError:
                counts[tok] = counts.get(tok, 0) + 1
    s = 0
    for i in range(3_600):
        s += i * i


KERNELS = {"tensor": tensor_kernel, "parse": parse_kernel}


class SpeedProbe:
    """Times one reference kernel every PROBE_EVERY kernel times while a body runs.

    The host's speed drifts by tens of percent within seconds when other
    tenants load it. The kernel runs from a SIGALRM handler between the
    body's bytecodes, so its times sample the machine's speed during the
    body; ``spent_s`` is the time the probes took, which the caller
    subtracts from the body's wall time (about 2.5%). ``speed()`` is the
    reference time over the median sampled time: below 1 on a slower machine.
    """

    def __init__(self, kernel: str):
        self.kernel = kernel

    def __enter__(self):
        self.times: list[float] = []
        self.spent_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        period = PROBE_EVERY * REFERENCE_KERNEL_S[self.kernel]
        signal.setitimer(signal.ITIMER_REAL, period, period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.times:   # a body shorter than one period
            self._probe()
            self.spent_s = 0.0

    def _probe(self, *_):
        start = time.perf_counter()
        KERNELS[self.kernel]()
        took = time.perf_counter() - start
        self.times.append(took)
        self.spent_s += took

    def speed(self) -> float:
        return REFERENCE_KERNEL_S[self.kernel] / statistics.median(self.times)


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--work", required=True, type=Path)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True, type=Path)
    p.add_argument("--trace-out", type=Path)
    p.add_argument("--build", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    # Set-up runs under a pure-Python probe (safe while modules import), so
    # set-up time can be scaled like body time.
    with SpeedProbe("parse") as setup_probe:
        t0 = time.perf_counter()
        import mambatab
        import_s = time.perf_counter() - t0 - setup_probe.spent_s
        if Path(mambatab.__file__).resolve().parent != ROOT / "src" / "mambatab":
            print(f"mambatab imported from {mambatab.__file__}, not this checkout",
                  file=sys.stderr)
            return 2

        import spans
        import workloads

        wl = workloads.WORKLOADS[args.workload](args.work)
        if not args.build:
            wl.prepare()
            recorder = spans.Recorder(mambatab) if args.trace else None
    if args.build:
        args.result.write_text(json.dumps({"problems": wl.build()}), encoding="utf-8")
        return 0

    body_s, speed, rows, problems, info = [], [], [], [], {}
    attempted = failed = 0
    first_ns = time.monotonic_ns()
    # Repeat until the body time reaches --seconds, without starting a repeat
    # that would likely end more than half a repeat past it.
    while not body_s or sum(body_s) * (1.0 + 0.5 / len(body_s)) < args.seconds:
        attempted += 1
        outcome = None   # free the previous output first: peak memory must not grow with repeats
        try:
            with recorder.installed() if recorder else contextlib.nullcontext(), \
                    SpeedProbe(wl.probe_kernel) as probe:
                start = time.perf_counter_ns()
                outcome = wl.run(attempted)
                elapsed = (time.perf_counter_ns() - start) * 1e-9
            result = wl.measure(outcome)
        except Exception:   # a failed operation is counted and reported; the run goes on
            traceback.print_exc()
            result = workloads.Measured(0.0, failed=True)
        problems += result.problems
        if result.failed:
            failed += 1
            if failed >= 3:
                break
            continue
        body_s.append(elapsed - probe.spent_s)
        speed.append(probe.speed())
        rows.append(result.rows)
        info = info or result.info

    out = {
        "first_call_ns": first_ns,
        "setup_probe_s": setup_probe.spent_s,
        "setup_speed": setup_probe.speed(),
        "import_s": import_s,
        "body_s": body_s,
        "rows": rows,
        "speed": speed,
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "info": info,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if recorder and body_s:
        layers, details = spans.layer_metrics(recorder.names, recorder.spans,
                                              recorder.counts, len(body_s))
        out["layers"] = layers
        out["info"] = {**out["info"], **details}
        if args.trace_out:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            with gzip.open(args.trace_out, "wt", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "env": out["env"], "repeats": len(body_s),
                           "names": recorder.names, "spans": recorder.spans,
                           "counts": recorder.counts, "layers": layers}, fh)
    args.result.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
