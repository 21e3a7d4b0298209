import importlib.util
import shutil
from pathlib import Path

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
