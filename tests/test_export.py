"""Tests for the figure-data exporter."""

import json
import os

from repro.analysis.export import export_results, write_csv


def _make_results(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    (results / "tab01.json").write_text(json.dumps({
        "gate": {"n_samples": 200_000},
        "rows": [{"bucket": "[1e-08, 1e-05)", "published_%": 47.23,
                  "sampled_%": 47.3}],
    }))
    (results / "fig10.json").write_text(json.dumps({
        "gate": {"trials": 3_000},
        "rows": [{"transport": "dctcp", "scenario": "lg", "p50_us": 28.7},
                 {"transport": "rdma", "scenario": "lg", "p50_us": 12.1}],
    }))
    # the claim record and the obs-overhead record have no rows
    (results / "paper_claims.json").write_text(json.dumps(
        {"fig10": {"dctcp: p99.9 LG / no loss": 1.16}}))
    (results / "fig10_obs_overhead.json").write_text(json.dumps(
        {"trials": 1_500, "overhead_pct": 120.0}))
    return str(results)


class TestExport:
    def test_exports_known_results(self, tmp_path):
        results = _make_results(tmp_path)
        out = str(tmp_path / "figures")
        written = export_results(results, out)
        assert [os.path.basename(p) for p in written] == \
            ["fig10.csv", "tab01.csv"]
        lines = open(os.path.join(out, "fig10.csv")).read().splitlines()
        assert lines == ["transport,scenario,p50_us", "dctcp,lg,28.7",
                         "rdma,lg,12.1"]

    def test_csv_format(self, tmp_path):
        path = str(tmp_path / "x.csv")
        write_csv(path, [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        lines = open(path).read().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,x"

    def test_partial_results_ok(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = str(tmp_path / "figures")
        assert export_results(str(empty), out) == []
        assert export_results(str(tmp_path / "missing"), out) == []
