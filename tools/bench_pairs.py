"""Run alternating parent/change perfbench pairs and record them in BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent REV --label NAME --workload score_50k \\
        --seed 0 --pairs 10 [--seconds 20] [--scratch DIR] [--note TEXT]

The parent is commit REV, exported with ``git archive`` into a new
directory under ``--scratch`` (made if missing; a new temporary directory
by default) and removed when the script ends, also on an error, Ctrl-C or
SIGTERM; an existing directory there is refused, not overwritten. An
exported tree needs no ``git worktree`` bookkeeping, so an interrupted run
leaves nothing in ``.git`` to prune. The change is the working tree of the
checkout that holds this file, uncommitted edits included.

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` from the root of its tree; pair i runs the parent first when i
is even. Every run prints one line: ``ref_rows_per_s``, the unscaled rows/s
and the machine speed median that scales it, then ``setup_s`` and
``peak_rss_mb``. At the end each side's medians are printed, with the
quartiles of ``ref_rows_per_s``, ``setup_s`` and ``peak_rss_mb`` where a
side has 4 runs or more; then the change's median over the parent's for
those three and for the unscaled rate, beside both sides' machine speed
medians, since the probe can read the program's heap state as machine
speed, and a ``probe drift:`` line when the change's machine speed median
over the parent's falls outside [0.8, 1.25], saying that only the unscaled
rate compares; then the number of pairs in which the change wins on
``ref_rows_per_s`` and ``unscaled_rows_per_s`` (higher) and on
``setup_s`` and ``peak_rss_mb`` (lower).

The record goes to ``BENCH_<label>.json`` at the root of this checkout and
is rewritten after every pair. Runs accumulate across calls under the key
``"<workload> seed <seed>"``, so one file can hold several workloads and
seeds; a call with another ``--parent`` than the file's is refused.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("ref_rows_per_s", "unscaled_rows_per_s", "machine_speed", "setup_s", "peak_rss_mb")
# The end-to-end metrics whose quartiles and change/parent median ratio the summary prints.
END_TO_END = ("ref_rows_per_s", "setup_s", "peak_rss_mb")
# Metrics the change wins a pair on: +1 where higher is better, -1 where lower is.
WINS = {"ref_rows_per_s": 1, "unscaled_rows_per_s": 1, "setup_s": -1, "peak_rss_mb": -1}
# Change/parent machine speed medians outside this band mean the probe read a
# heap change as machine speed: within one session the probe reads 0.87-1.18,
# while an allocator change moved it 2.2-2.4x.
PROBE_BAND = (0.8, 1.25)
UNSCALED = re.compile(r"rows_per_s unscaled over \d+ repeats: median ([0-9.e+-]+),.*"
                      r"machine speed median ([0-9.e+-]+)")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the files of commit ``rev`` into the empty directory ``dest``."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run: its end-to-end metrics and what it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{tree}: perfbench printed no result (exit {proc.returncode})\n"
                           f"{proc.stderr}") from None
    run = {name: entry["value"] for name, entry in result["metrics"].items()}
    run.update(correct=result["correct"], failed=result["failed"],
               attempted=result["attempted"], printed={})
    for line in lines:
        if match := UNSCALED.search(line):
            run["unscaled_rows_per_s"] = float(match.group(1))
            run["machine_speed"] = float(match.group(2))
        elif line.startswith("env: "):
            run["env"] = line[len("env: "):]
    # The workload's own info lines sit between the repeats line and fail_ratio.
    start = next((i for i, line in enumerate(lines) if "timed repeats" in line), len(lines))
    for line in lines[start + 1:]:
        key, _, value = line.strip().partition(": ")
        if key == "fail_ratio":
            break
        run["printed"][key] = value
    return run


def side_stats(runs: list[dict]) -> dict:
    out = {"median": {}, "quartiles": {}}
    for name in METRICS:
        values = [r[name] for r in runs if name in r]
        if values:
            out["median"][name] = statistics.median(values)
            if len(values) >= 4:
                out["quartiles"][name] = statistics.quantiles(values, n=4, method="inclusive")
    return out


def summarize(entry: dict) -> str:
    """Add each side's medians and quartiles and the change's wins to ``entry``;
    return them as text."""
    parent, change = entry["parent"]["runs"], entry["change"]["runs"]
    nan = float("nan")   # a run that failed has no metrics and wins nothing
    for name, sign in WINS.items():
        wins = sum(sign * c.get(name, nan) > sign * p.get(name, nan)
                   for p, c in zip(parent, change))
        entry[f"change_wins_{name}"] = f"{wins} of {min(len(parent), len(change))}"
    lines = []
    for side in ("parent", "change"):
        stats = entry[side] | side_stats(entry[side]["runs"])
        entry[side] = stats
        med, quart = stats["median"], stats["quartiles"]
        text = ", ".join(f"{name} {med[name]:.6g}" for name in METRICS if name in med)
        spreads = [f"{name} {quart[name][0]:.6g}-{quart[name][2]:.6g}"
                   for name in END_TO_END if name in quart]
        if spreads:
            text += f" (quartiles: {', '.join(spreads)})"
        lines.append(f"  {side} median over {len(stats['runs'])} runs: {text}")
    # The probe that scales ref_rows_per_s can read the program's heap state as
    # machine speed, so a claim shows the unscaled rate and both probe medians too.
    med_p, med_c = entry["parent"]["median"], entry["change"]["median"]
    ratios = [f"{name} {med_c[name] / med_p[name]:.4g}x"
              for name in WINS if name in med_p and name in med_c]
    speeds = [f"{side} {med['machine_speed']:.4g}"
              for side, med in (("parent", med_p), ("change", med_c)) if "machine_speed" in med]
    lines.append(f"  change/parent medians: {', '.join(ratios)}; machine speed {', '.join(speeds)}")
    if len(speeds) == 2:
        drift = med_c["machine_speed"] / med_p["machine_speed"]
        if not PROBE_BAND[0] <= drift <= PROBE_BAND[1]:
            lines.append(f"  probe drift: machine speed median {med_c['machine_speed']:.4g} "
                         f"(change) against {med_p['machine_speed']:.4g} (parent); the scaled "
                         f"ref_rows_per_s cannot be compared, read unscaled_rows_per_s")
    lines.append("  change wins in pairs: " + ", ".join(
        f"{name} {entry[f'change_wins_{name}']} ({'higher' if sign > 0 else 'lower'})"
        for name, sign in WINS.items()))
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="commit to compare against")
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=3)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--scratch", type=Path, help="directory for the parent's tree")
    p.add_argument("--note", help="free text stored with the record")
    args = p.parse_args(argv)
    if args.pairs < 1 or not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        p.error("--pairs must be >= 1 and --label a plain file-name word")

    out = ROOT / f"BENCH_{args.label}.json"
    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    record = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else {
        "label": args.label,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "parent": parent, "workloads": {}}
    if record["parent"] != parent:
        print(f"error: {out.name} records parent {record['parent']}, not {parent}", file=sys.stderr)
        return 1
    record["change"] = git("describe", "--always", "--dirty")
    if args.note:
        record["note"] = args.note
    key = f"{args.workload} seed {args.seed}"
    entry = record["workloads"].setdefault(key, {"parent": {"runs": []}, "change": {"runs": []}})

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))   # so the finally below runs
    made_scratch = args.scratch is None
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_")) if made_scratch else args.scratch
    scratch.mkdir(parents=True, exist_ok=True)
    tree = scratch / f"parent-{parent[:12]}"
    try:
        tree.mkdir()
    except FileExistsError:   # the cleanup below would delete it
        print(f"error: {tree} exists; remove it or pick another --scratch", file=sys.stderr)
        return 1
    try:
        export(parent, tree)
        first_pair = len(entry["parent"]["runs"])
        for i in range(first_pair, first_pair + args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(tree if side == "parent" else ROOT, args.workload, args.seed,
                               args.seconds)
                run.update(pair=i, ran_first=side == order[0], seconds=args.seconds)
                entry[side]["runs"].append(run)
                shown = {name: run.get(name, float("nan")) for name in METRICS}
                print(f"pair {i} {side:6s}: ref_rows_per_s {shown['ref_rows_per_s']:.6g} "
                      f"(unscaled {shown['unscaled_rows_per_s']:.6g}, machine speed "
                      f"{shown['machine_speed']:.4g}), setup_s {shown['setup_s']:.4g}, "
                      f"peak_rss_mb {shown['peak_rss_mb']:.4g}, correct {run['correct']}, "
                      f"failed {run['failed']}", flush=True)
            summarize(entry)
            out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"{key}:\n{summarize(entry)}")
    finally:
        shutil.rmtree(tree, ignore_errors=True)
        if made_scratch:
            shutil.rmtree(scratch, ignore_errors=True)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
