"""Run a fixed CLI protocol and print a digest of every deterministic artifact.

    python3 tools/parity_gate.py --out DIR > digests.txt

Writes the criterion-7 table (1000 rows, 6 informative and 6 noise
columns, seed 0), its schema and a run config file (``c7.cfg``) into
DIR, and a small mixed table (``mixed.csv``: categorical text, '' and
'?' cells, integer text, a column pinned categorical, padded cells and
-0.0 beside 0) and its schema, then runs through ``mambatab.cli.main``:

- ``train --seeds 0,1`` into ``sup/``;
- ``train --regime ssl --max-epochs 40 --seeds 0`` into ``ssl/``;
- ``train --regime incremental --seeds 0`` into ``inc/``;
- ``eval`` of ``sup/seed_1/model.ckpt``, its stdout saved to ``eval.txt``;
- ``sweep --knob state-size --values 4,8 --seeds 0 --max-epochs 5`` into
  ``sweep/``;
- ``train --seeds 0 --max-epochs 5`` on the mixed table into ``mixed/``,
  whose checkpoint holds the fitted categories, modes and ranges;
- ``train --regime incremental --seeds 0 --max-epochs 5`` on the mixed
  table into ``mixed_inc/``, whose stages take columns of encoded splits
  holding every kind of cell;
- ``train --config c7.cfg`` into ``cfg/``, its run options (embed dim,
  block count, layer norm, seeds, epochs) all read from the config file.

It then prints ``sha256  path`` for every file under DIR except
``timing.json``, sorted by path. Progress goes to stderr. It exits with
the failing command's code if any command fails.

The package is imported from the ``src/`` next to this file's ``tools/``,
so a copy of this file dropped into another checkout runs that
checkout's code. A change meant to keep every artifact byte-identical
passes when both checkouts print the same digests for the same DIR path
(``runspec.json`` records the paths). The protocol takes about 10 s on
a 2-core x86-64 host.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mambatab import cli, synthetic  # noqa: E402


def write_mixed(out: Path) -> None:
    """``mixed.csv`` (300 rows) and ``mixed.schema``: each kind of cell the encoder handles."""
    m, rng = 300, np.random.default_rng(7)
    dose = rng.normal(size=m)
    count = rng.integers(0, 20, size=m)
    colour = rng.choice(["red", "green", "blue", " red", ""], size=m, p=[.3, .3, .3, .05, .05])
    zips = rng.choice(["02139", "10001", "94103", "?"], size=m, p=[.4, .3, .25, .05])
    offset = rng.choice(["0", "-0.0", "0.0", "-0", "1.5", "-2", "?"], size=m)
    flag = rng.choice(["yes", "no", "?"], size=m, p=[.45, .45, .1])
    logit = 1.5 * dose + (colour == "red") - 0.1 * (count - 10) + 0.5 * (flag == "yes")
    label = np.where(rng.random(m) < 1.0 / (1.0 + np.exp(-logit)), "pos", "neg")
    dose_cells = [repr(round(v, 3)) if rng.random() > 0.05 else "" for v in dose.tolist()]
    lines = ["dose,count,colour,zip,offset,flag,label"]
    lines += [",".join(row) for row in zip(dose_cells, map(str, count.tolist()), colour, zips,
                                           offset, flag, label)]
    (out / "mixed.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / "mixed.schema").write_text("label_column = label\npositive_label = pos\n"
                                      "kind.zip = categorical\n", encoding="utf-8")


def protocol(out: Path) -> list[list[str]]:
    data = ["--dataset", str(out / "c7.csv"), "--schema", str(out / "c7.schema")]
    mixed = ["--dataset", str(out / "mixed.csv"), "--schema", str(out / "mixed.schema")]
    return [
        ["train", *data, "--out", str(out / "sup"), "--seeds", "0,1", "--quiet"],
        ["train", *data, "--out", str(out / "ssl"), "--regime", "ssl", "--max-epochs", "40",
         "--seeds", "0", "--quiet"],
        ["train", *data, "--out", str(out / "inc"), "--regime", "incremental", "--seeds", "0",
         "--quiet"],
        ["eval", "--checkpoint", str(out / "sup" / "seed_1" / "model.ckpt"), *data],
        ["sweep", *data, "--out", str(out / "sweep"), "--knob", "state-size", "--values", "4,8",
         "--seeds", "0", "--max-epochs", "5", "--quiet"],
        ["train", *mixed, "--out", str(out / "mixed"), "--seeds", "0", "--max-epochs", "5",
         "--quiet"],
        ["train", *mixed, "--out", str(out / "mixed_inc"), "--regime", "incremental",
         "--seeds", "0", "--max-epochs", "5", "--quiet"],
        ["train", *data, "--out", str(out / "cfg"), "--config", str(out / "c7.cfg"), "--quiet"],
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="empty or absent directory")
    out = parser.parse_args(argv).out
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return cli.EXIT_USAGE
    out.mkdir(parents=True, exist_ok=True)
    synthetic.write_csv(synthetic.logistic_table(1000, 6, 6, seed=0), out / "c7.csv")
    (out / "c7.schema").write_text("label_column = label\npositive_label = 1\n",
                                   encoding="utf-8")
    (out / "c7.cfg").write_text("embed_dim = 16\nn_blocks = 2\nno_layer_norm = yes\nseeds = 0\n"
                                "max_epochs = 5\n", encoding="utf-8")
    write_mixed(out)

    for args in protocol(out):
        print("mambatab", " ".join(args), file=sys.stderr)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main(args)
        if args[0] == "eval":
            (out / "eval.txt").write_text(captured.getvalue(), encoding="utf-8")
        if code != cli.EXIT_OK:
            print(f"error: {args[0]} exited {code}", file=sys.stderr)
            return code

    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "timing.json"):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
