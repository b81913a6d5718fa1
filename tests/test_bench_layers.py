import importlib.util
import json
import sys
from pathlib import Path

import relconv
from relconv import check_almost_convex_anchored, estimate_sup, load_catalog, read_csv

_spec = importlib.util.spec_from_file_location("bench_layers", Path(__file__).parents[1] / "tools" / "bench_layers.py")
bench_layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_layers)

TINY = {"kernel": ["Z2xZ3"], "float_scan": [8], "exact_scan": [8], "sup": [(1.0, 9), (2.0, 8)], "report": 8}


def test_every_layer_at_tiny_sizes(tmp_path):
    got = bench_layers.bench(relconv, 2, TINY)
    rows = [*got["layers"].values(), [got["end_to_end"]["verify_catalog"]], [got["end_to_end"]["report"]]]
    assert [len(r) for r in rows] == [1, 1, 1, 2, 1, 1]
    for row in (x for r in rows for x in r):
        assert len(row["seconds"]) == 2 and row["min_s"] == min(row["seconds"]) > 0
    (kernel,), (fl,), (ex,), sup = (got["layers"][k] for k in ("kernel", "float_scan", "exact_scan", "sup"))
    # the identity-holding nonempty proper subsets of Z2xZ3; the triples a < b < c of 0..8
    assert kernel["subsets"] == 2**5 - 1 and kernel["ns_per_subset"] == kernel["min_s"] * 1e9 / 31
    assert fl["triples"] == ex["triples"] == 84 and fl["ns_per_triple"] == fl["min_s"] * 1e9 / 84
    for row, (p, N) in zip(sup, TINY["sup"]):
        stats: dict = {}
        estimate_sup(p, N, stats=stats)
        assert (row["sweeps"], row["triples_read"]) == (stats["iterations"], sum(stats["triples_read"]))
        assert row["ns_per_triple_read"] == row["min_s"] * 1e9 / row["triples_read"]
    assert got["end_to_end"]["verify_catalog"]["reports"] == len(load_catalog())
    tent = tmp_path / "tent.csv"
    bench_layers.same_outputs.float_tent_csv(tent, 8)
    report = got["end_to_end"]["report"]
    assert report["records"] == len(check_almost_convex_anchored(read_csv(tent))) > 0
    assert report["report_bytes"] > report["records"] * 100 and report["tracemalloc_peak_bytes"] > 0
    json.dumps(got)  # plain JSON types


def test_machine_commit_and_load(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    info = bench_layers.machine()
    assert info["cores"] >= 1 and info["python"].count(".") == 2
    assert bench_layers.commit(Path(__file__).parent) is None  # no .git there
    assert bench_layers.load(Path(__file__).parents[1]) is relconv
