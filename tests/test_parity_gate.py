import hashlib
import importlib.util
import json
import shutil
from dataclasses import asdict
from pathlib import Path

import pytest

from mambatab import tabular

_PATH = Path(__file__).resolve().parent.parent / "tools" / "parity_gate.py"
_spec = importlib.util.spec_from_file_location("parity_gate", _PATH)
parity_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity_gate)


def one_train(out: Path) -> list[list[str]]:
    return [["train", "--dataset", str(out / "mixed.csv"), "--schema", str(out / "mixed.schema"),
             "--out", str(out / "mixed"), "--seeds", "0", "--max-epochs", "1", "--quiet"]]


def test_gate_refuses_a_used_dir_and_digests_a_rerun_identically(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(parity_gate, "protocol", one_train)
    out = tmp_path / "gate"
    out.mkdir()
    (out / "stray.txt").write_text("left over\n")
    assert parity_gate.main(["--out", str(out)]) == 1
    assert capsys.readouterr().out == ""

    (out / "stray.txt").unlink()
    assert parity_gate.main(["--out", str(out)]) == 0
    first = capsys.readouterr().out
    paths = [line.split("  ", 1)[1] for line in first.splitlines()]
    assert (out / "mixed" / "timing.json").exists()
    assert not any(p.endswith("timing.json") for p in paths)
    assert {"mixed.csv", "mixed/runspec.json", "mixed/seed_0/model.ckpt"} <= set(paths)

    shutil.rmtree(out)
    out.mkdir()
    assert parity_gate.main(["--out", str(out)]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("seed,digest", [
    (0, "3501e0459f14b911ac7f3a58b4a40690a9921c11ae9e531a11ccd2110774bcaa"),
    (1, "2824ec32bfe8ae350766ef444c57dd30257f4249021a112c67d711077aefabcc"),
    (2, "6c79d8a718061db215d01f7cc5dbb6f0fce390a244afabd52b5ab73442024175"),
    (3, "2a348dae58faecacec5cad3960f3b28b611b0824af44fd14a6d21df0c8a36081"),
    (4, "2d4d15d4795ce61569da06e517785ce47489e4a8c9c4807e3c3a87cac62038b1"),
])
def test_mixed_table_encodings_are_pinned(tmp_path, seed, digest):
    # Digests taken when split copied every cell into three new tables and fit
    # and transform read each split's cells one by one; row views must move no bit.
    parity_gate.write_mixed(tmp_path)
    schema = tabular.SchemaConfig.from_file(tmp_path / "mixed.schema")
    parts = tabular.split(tabular.load_csv(tmp_path / "mixed.csv", schema), seed)
    pre = tabular.fit(parts[0], overrides=schema.kinds)
    h = hashlib.sha256(json.dumps(asdict(pre), sort_keys=True).encode())
    for part in parts:
        enc = tabular.transform(pre, part)
        h.update(enc.values.tobytes())
        h.update(enc.labels.tobytes())
    assert h.hexdigest() == digest
