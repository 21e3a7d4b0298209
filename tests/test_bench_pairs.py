import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def run(ref, unscaled, speed, setup, rss):
    return {"ref_rows_per_s": ref, "unscaled_rows_per_s": unscaled, "machine_speed": speed,
            "setup_s": setup, "peak_rss_mb": rss}


def test_summarize_counts_wins_in_each_metrics_own_direction():
    entry = {
        "parent": {"runs": [run(100.0, 110.0, 1.10, 0.20, 50.0),
                            run(100.0, 100.0, 1.00, 0.20, 50.0),
                            run(120.0, 96.0, 0.80, 0.30, 52.0)]},
        "change": {"runs": [run(110.0, 121.0, 1.10, 0.25, 49.0),   # wins ref, unscaled, rss
                            {"correct": False},                      # a failed run wins nothing
                            run(110.0, 99.0, 0.90, 0.10, 52.0)]},   # wins unscaled, setup
    }
    text = bench_pairs.summarize(entry)
    assert entry["change_wins_ref_rows_per_s"] == "1 of 3"
    assert entry["change_wins_unscaled_rows_per_s"] == "2 of 3"
    assert entry["change_wins_setup_s"] == "1 of 3"
    assert entry["change_wins_peak_rss_mb"] == "1 of 3"
    assert entry["parent"]["median"]["machine_speed"] == 1.00
    assert entry["change"]["median"]["machine_speed"] == pytest.approx(1.00)
    assert "ref_rows_per_s 1.1x, unscaled_rows_per_s 1.1x" in text
    assert "machine speed parent 1, change 1" in text
    assert ("change wins in pairs: ref_rows_per_s 1 of 3 (higher), unscaled_rows_per_s 2 of 3 "
            "(higher), setup_s 1 of 3 (lower), peak_rss_mb 1 of 3 (lower)") in text
    assert "setup_s 0.875x, peak_rss_mb 1.01x" in text   # a failed run is left out


def test_summarize_prints_each_end_to_end_metrics_quartiles_and_ratio():
    entry = {
        "parent": {"runs": [run(100.0 + 10 * i, 100.0, 1.0, 0.2 + 0.1 * i, 50.0 + 2 * i)
                            for i in range(4)]},
        "change": {"runs": [run(100.0 + 10 * i, 100.0, 1.0, 0.2 + 0.1 * i, 45.0 + i)
                            for i in range(4)]},
    }
    text = bench_pairs.summarize(entry)
    assert entry["parent"]["quartiles"]["peak_rss_mb"] == [51.5, 53.0, 54.5]
    assert ("parent median over 4 runs: ref_rows_per_s 115, unscaled_rows_per_s 100, "
            "machine_speed 1, setup_s 0.35, peak_rss_mb 53 (quartiles: ref_rows_per_s "
            "107.5-122.5, setup_s 0.275-0.425, peak_rss_mb 51.5-54.5)") in text
    assert "change median over 4 runs" in text and "peak_rss_mb 45.75-47.25)" in text
    assert ("change/parent medians: ref_rows_per_s 1x, unscaled_rows_per_s 1x, setup_s 1x, "
            "peak_rss_mb 0.8774x; machine speed parent 1, change 1") in text
    assert entry["change_wins_peak_rss_mb"] == "4 of 4"


def test_summarize_flags_probe_drift_outside_its_band():
    for change_speed, drift in ((0.8, False), (1.25, False), (0.79, True), (2.3, True)):
        entry = {"parent": {"runs": [run(100.0, 100.0, 1.0, 0.2, 50.0) for _ in range(3)]},
                 "change": {"runs": [run(100.0 / change_speed, 100.0, change_speed, 0.2, 50.0)
                                     for _ in range(3)]}}
        lines = bench_pairs.summarize(entry).splitlines()
        line = (f"  probe drift: machine speed median {change_speed:.4g} (change) against 1 "
                f"(parent); the scaled ref_rows_per_s cannot be compared, "
                f"read unscaled_rows_per_s")
        assert (line in lines) is drift
        assert sum("probe drift" in text for text in lines) == drift


def stub_main(monkeypatch, tmp_path, argv):
    """``bench_pairs.main(argv)`` with git, the export and perfbench stubbed,
    writing its record under ``tmp_path``; returns its exit code and the
    trees the stub export was asked to fill."""
    exported = []
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0123456789abcdef")
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: exported.append(dest))
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, *a: run(1.0, 1.0, 1.0, 0.1, 50.0)
                        | {"correct": True, "failed": 0})
    code = bench_pairs.main(["--parent", "HEAD", "--label", "stub", "--workload", "train_c7",
                             "--pairs", "1", *argv])
    return code, exported


def test_missing_scratch_directory_is_made_and_its_tree_removed(monkeypatch, tmp_path):
    scratch = tmp_path / "new" / "scratch"
    code, exported = stub_main(monkeypatch, tmp_path, ["--scratch", str(scratch)])
    assert code == 0
    assert exported == [scratch / "parent-0123456789ab"]
    assert scratch.is_dir() and not any(scratch.iterdir())
    assert (tmp_path / "BENCH_stub.json").is_file()


def test_existing_parent_tree_is_refused_and_kept(monkeypatch, tmp_path, capsys):
    tree = tmp_path / "scratch" / "parent-0123456789ab"
    tree.mkdir(parents=True)
    (tree / "keep.txt").write_text("mine")
    code, exported = stub_main(monkeypatch, tmp_path, ["--scratch", str(tree.parent)])
    assert code == 1 and exported == []
    assert (tree / "keep.txt").read_text() == "mine"
    assert "exists" in capsys.readouterr().err
