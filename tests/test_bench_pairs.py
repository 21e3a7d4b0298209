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
