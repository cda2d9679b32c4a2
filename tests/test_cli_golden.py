"""Golden outputs of the ``repro`` CLI: stdout and exit code, verb by verb.

Every verb and sub-verb is run through ``main()`` at the smallest scale
that still exercises its row shaping, in table and ``--json`` form, and
compared byte for byte against ``tests/data/cli_golden.json``.  The file
was recorded at the commit before the CLI became one verb table, so a
refactor of ``repro.cli`` that changes what a user sees fails here.

Wall-clock fields (``done in 0.12s``, ``wall_s`` columns) are masked on
the cases marked ``timed``; temp paths and the probe port are masked
everywhere.  Re-record with ``PYTHONPATH=src python
tests/test_cli_golden.py`` — and say why in the commit.
"""

import contextlib
import http.server
import io
import json
import re
import threading
from pathlib import Path

import pytest

from repro.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"
FLEET = ["--fleet-pods", "1", "--fleet-tors", "2", "--fleet-spines", "2",
         "--mttf-hours", "300", "--days", "8", "--seed", "3"]


def _both(name, *argv, **opts):
    """One verb in table and ``--json`` form."""
    return [(name, list(argv), opts), (name + "-json", [*argv, "--json"], opts)]


#: (case id, argv, options).  ``{tmp}``/``{data}``/``{port}`` are filled
#: in per run; order matters where a case reads a file an earlier one
#: wrote.  ``timed`` masks wall-clock output, ``stub_goodput`` replaces
#: Table 3's seven-second simulation with a formula (the CLI's row
#: shaping is what is pinned, not the simulator).
CASES = [
    *_both("list", "list"),
    *_both("fig01", "fig01"),
    *_both("fig02", "fig02"),
    *_both("tab01", "tab01"),
    *_both("fig08", "fig08", "--duration-ms", "0.05"),
    *_both("fig09", "fig09", "--duration-ms", "0.2"),
    ("fig09-paper-threshold",
     ["fig09", "--duration-ms", "0.2", "--resume-kb", "0"], {}),
    *_both("fig10", "fig10", "--trials", "10"),
    *_both("fig11", "fig11", "--trials", "5", "--seed", "2"),
    *_both("fig12", "fig12", "--trials", "1"),
    *_both("fig13", "fig13", "--trials", "30", "--loss-rate", "0.02"),
    *_both("tab02", "tab02", "--trials", "10"),
    *_both("tab03", "tab03", stub_goodput=True),
    *_both("tab04", "tab04", "--duration-ms", "0.05"),
    *_both("fig14", "fig14", "--duration-ms", "0.05"),
    *_both("fig15", "fig15", "--days", "5", "--mttf-hours", "300"),
    *_both("fig16", "fig16", "--days", "5", "--mttf-hours", "300"),
    *_both("fig19", "fig19", "--duration-ms", "0.5"),
    *_both("fig20", "fig20"),
    *_both("fig21", "fig21", "--duration-ms", "0.2"),
    *_both("incremental", "incremental", "--days", "5"),
    ("export", ["export", "--results-dir", "{tmp}/results",
                "--out-dir", "{tmp}/figures"], {}),
    *_both("metrics", "metrics", "--duration-ms", "0.2", timed=True),
    ("metrics-artifacts",
     ["metrics", "--duration-ms", "0.5", "--spans",
      "--trace-out", "{tmp}/trace.json", "--metrics-out", "{tmp}/m.prom",
      "--timeline-out", "{tmp}/timeline.json",
      "--timeline-interval-us", "50"], {"timed": True}),
    ("metrics-jsonl",
     ["metrics", "--duration-ms", "0.5", "--spans",
      "--trace-out", "{tmp}/events.jsonl", "--json"], {"timed": True}),
    ("fig09-artifacts",
     ["fig09", "--duration-ms", "0.2", "--trace-out", "{tmp}/fig09.json",
      "--metrics-out", "{tmp}/fig09-metrics.json"], {}),
    *_both("sweep", "sweep", "--kind", "fct", "--axis", "scenario=noloss,loss",
           "--trials", "10", "--sweep-seed", "7", timed=True),
    *[(name, ["sweep", "--kind", "fct", "--axis", "scenario=noloss,loss",
              "--trials", "10", "--checkpoint", "{tmp}/sweep.jsonl"],
       {"timed": True}) for name in ("sweep-checkpoint", "sweep-resume")],
    *_both("fleet", "fleet", "--fleet-pods", "1", "--fleet-tors", "2",
           "--fleet-spines", "2", "--days", "3", "--seed", "3", timed=True),
    ("fleet-sharded",
     ["fleet", "--fleet-pods", "1", "--fleet-tors", "2", "--fleet-spines",
      "2", "--days", "3", "--seed", "3", "--shards", "3", "--policy",
      "greedy-worst", "--backend", "fastpath", "--json"], {}),
    # -- check -----------------------------------------------------------------
    *_both("check-fuzz", "check", "fuzz", "--seed", "7", "--trials", "3"),
    *_both("check-fuzz-defect", "check", "fuzz", "--seed", "7", "--trials",
           "6", "--defect", "era_bit", "--shrink-out", "{tmp}/shrunk.json"),
    *_both("check-run", "check", "run", "{tmp}/scenario.json"),
    *_both("check-run-violation", "check", "run", "{tmp}/violation.json"),
    *_both("check-replay", "check", "replay",
           "{data}/checker_era_bit_repro.json"),
    # -- fastpath --------------------------------------------------------------
    *_both("fastpath-scan", "fastpath", "scan", "--kind", "fct",
           "--axis", "scenario=loss,lg", "--trials", "50", timed=True),
    *_both("fastpath-validate", "fastpath", "validate", "--cells", "2",
           "--out", "{tmp}/validation.json", timed=True),
    # -- obs -------------------------------------------------------------------
    *_both("obs-spans", "obs", "spans", "{tmp}/trace.json"),
    *_both("obs-spans-jsonl", "obs", "spans", "{tmp}/events.jsonl"),
    *_both("obs-timeline", "obs", "timeline", "{tmp}/timeline.json"),
    *_both("obs-top", "obs", "top", "{tmp}/checkpoint.jsonl", "--limit", "1"),
    # -- lifecycle -------------------------------------------------------------
    ("lifecycle-generate", ["lifecycle", "generate", *FLEET], {}),
    ("lifecycle-generate-out",
     ["lifecycle", "generate", *FLEET, "--out", "{tmp}/lc-trace.json"], {}),
    ("lifecycle-replay-trace",
     ["lifecycle", "replay", "--trace", "{tmp}/lc-trace.json", "--chunks",
      "2", "--out", "{tmp}/rollup.json"], {"timed": True}),
    *_both("lifecycle-replay", "lifecycle", "replay", *FLEET, "--repair",
           "exponential", "--repair-param", "mean_hours=12", "--backend",
           "packet", timed=True),
    ("lifecycle-replay-fail-under",
     ["lifecycle", "replay", *FLEET, "--goodput-target", "0.9999999",
      "--fail-under", "1.01"], {"timed": True}),
    *_both("lifecycle-report", "lifecycle", "report", "{tmp}/rollup.json",
           "--days-table"),
    ("lifecycle-report-fail-under",
     ["lifecycle", "report", "{tmp}/rollup.json", "--fail-under", "1.01"],
     {}),
    # -- serve (client mode; the server itself is driven as a subprocess
    # by tests/test_service_shutdown.py) ---------------------------------------
    ("serve-probe", ["serve", "--probe", "/healthz", "--port", "{port}"], {}),
    ("serve-probe-404", ["serve", "--probe", "/nope", "--port", "{port}"], {}),
    # -- blame -----------------------------------------------------------------
    *_both("blame-report", "blame", "report", "--days", "3", "--window", "60",
           "--top", "3"),
    ("blame-report-at", ["blame", "report", "--days", "3", "--at", "600",
                         "--coverage", "0.5", "--flows-per-s", "200"], {}),
    *_both("blame-eval", "blame", "eval", "--trials", "2", "--window", "60",
           "--coverages", "1.0,0.5"),
    ("blame-eval-fail-under", ["blame", "eval", "--trials", "2", "--coverage",
                               "0.2", "--fail-under", "1.01"], {}),
    ("blame-eval-trace", ["blame", "eval", "--mode", "trace", "--trials", "2",
                          "--trace-days", "2"], {}),
    *_both("blame-optimize", "blame", "optimize", "--days", "2",
           "--budgets", "4,8"),
    # -- usage errors: nothing on stdout, exit 2 --------------------------------
    ("err-unknown-verb", ["fig99"], {}),
    ("err-no-verb", [], {}),
    ("err-sweep-kind", ["sweep", "--kind", "bogus"], {}),
    ("err-sweep-axis", ["sweep", "--axis", "badaxis"], {}),
    ("err-scan-kind", ["fastpath", "scan", "--kind", "timeline"], {}),
    ("err-fleet-policy", ["fleet", "--policy", "oracle"], {}),
    ("err-metrics-duration", ["metrics", "--duration-ms", "0"], {}),
    ("err-timeline-interval", ["fig09", "--timeline-interval-us", "0"], {}),
    ("err-check-no-scenario", ["check", "run", "{tmp}/empty.json"], {}),
    ("err-obs-missing", ["obs", "spans", "{tmp}/missing.json"], {}),
    ("err-obs-limit", ["obs", "top", "{tmp}/checkpoint.jsonl", "--limit",
                       "0"], {}),
    ("err-obs-invalid", ["obs", "timeline", "{tmp}/empty.json"], {}),
    ("err-replay-repair", ["lifecycle", "replay", "--repair", "bogus"], {}),
    ("err-replay-param", ["lifecycle", "replay", "--repair-param", "oops"],
     {}),
    ("err-report-missing", ["lifecycle", "report", "{tmp}/missing.json"], {}),
    ("err-serve-telemetry", ["serve", "--telemetry", "file"], {}),
    ("err-blame-coverages", ["blame", "eval", "--coverages", "a,b"], {}),
    ("err-blame-budgets", ["blame", "optimize", "--budgets", "x"], {}),
]

#: a fixed two-cell sweep checkpoint, so ``obs top`` ranks known costs
CHECKPOINT = [
    {"backend": "packet", "cell_id": "fct-a", "metrics": {"trials": 10},
     "series": {}, "spec": {"kind": "fct"}, "wall_s": 0.25,
     "timings": {"setup": 0.01, "run": 0.2, "collect": 0.04,
                 "total_s": 0.25, "engine_run_s": 0.19}},
    {"backend": "fastpath", "cell_id": "fct-b", "metrics": {"trials": 10},
     "series": {}, "spec": {"kind": "fct"}, "wall_s": 0.5, "timings": {}},
]


def _write_inputs(tmp: Path) -> None:
    """The hand-written input files the cases read."""
    drops = {"name": "t", "drops": [{"kind": "data", "index": 3}]}
    (tmp / "scenario.json").write_text(json.dumps(
        {"scenario": drops, "config": {"n_packets": 80}}))
    (tmp / "violation.json").write_text(json.dumps(
        {"scenario": drops,
         "config": {"n_packets": 80, "defect": "wrong_copies"}}))
    (tmp / "empty.json").write_text("{}")
    (tmp / "checkpoint.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in CHECKPOINT))
    (tmp / "results").mkdir()
    (tmp / "results" / "tab01.json").write_text(json.dumps(
        {"gate": {}, "rows": [{"bucket": "1e-8..1e-5", "published_%": 47.23}]}))
    (tmp / "results" / "fig20.json").write_text(json.dumps(
        {"gate": {}, "rows": [{"loss": 0.01, "<=1": 0.99, "<=2": 1.0}]}))


class _Health(http.server.BaseHTTPRequestHandler):
    """The two answers ``serve --probe`` is pinned against."""

    def do_GET(self):
        ok = self.path == "/healthz"
        body = b'{"status": "ok"}\n' if ok else b'{"error": "not found"}\n'
        self.send_response(200 if ok else 404)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def _mask_json(value):
    if isinstance(value, dict):
        walled = "wall" in str(value.get("metric", ""))
        return {key: "<T>" if key == "timings" or key.endswith("wall_s")
                or (walled and key == "value")
                else _mask_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_mask_json(item) for item in value]
    return value


def _mask_timed(text: str) -> str:
    """Blank wall-clock output: ``0.12s`` / ``wall_s=0.1`` tokens, and the
    wall-clock fields of JSON lines and of table rows (``*wall_s``
    columns, rows of a ``*wall*`` metric).  Masked tables are re-joined
    without padding, since a column's width follows its widest value."""
    text = re.sub(r"\d+\.\d+s\b", "<T>s", text)
    text = re.sub(r"wall_s=[-+.\de]+", "wall_s=<T>", text)
    lines, header = text.split("\n"), None
    for index, line in enumerate(lines):
        try:
            lines[index] = json.dumps(_mask_json(json.loads(line)))
            continue
        except ValueError:
            pass
        cells = re.split(r"\s{2,}", line.rstrip())
        rule = lines[index + 1] if index + 1 < len(lines) else ""
        if rule.strip() and set(rule) <= {"-", " "}:
            header = cells
        elif header and line.strip() and set(line) <= {"-", " "}:
            cells = ["-"] * len(header)
        elif header and len(cells) == len(header):
            cells = [
                "<T>" if header[i].endswith("wall_s") or (
                    i and "wall" in cells[0]
                    and re.fullmatch(r"[-+.\de]+", cell)) else cell
                for i, cell in enumerate(cells)]
        else:
            header = None
            continue
        lines[index] = "  ".join(cells)
    return "\n".join(lines)


def _stub_goodput(scheme, loss_rate=0.0, seed=1, **kwargs):
    base = {"none": 9.4, "wharf": 9.0, "lg": 9.39, "lgnb": 9.41}[scheme]
    return {"goodput_gbps": base / (1.0 + 400.0 * loss_rate) + seed / 1000}


def run_cases(tmp: Path) -> dict:
    """Run every case in order; ``{id: {"argv", "exit", "stdout"}}``."""
    import repro.experiments.goodput as goodput

    _write_inputs(tmp)
    server = http.server.HTTPServer(("127.0.0.1", 0), _Health)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    fill = {"tmp": str(tmp), "data": str(DATA), "port": server.server_port}
    results = {}
    try:
        for name, argv, opts in CASES:
            real = goodput.run_goodput
            if opts.get("stub_goodput"):
                goodput.run_goodput = _stub_goodput
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main([arg.format(**fill) for arg in argv])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is an outcome to pin too
                code = type(exc).__name__
            finally:
                goodput.run_goodput = real
            text = out.getvalue().replace(str(tmp), "{tmp}")
            if opts.get("timed"):
                text = _mask_timed(text)
            results[name] = {"argv": argv, "exit": code, "stdout": text}
    finally:
        server.shutdown()
        server.server_close()
    return results


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("cli-golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", [case[0] for case in CASES])
def test_stdout_and_exit_code_match_golden(name, results, golden):
    assert results[name]["argv"] == golden[name]["argv"]
    assert results[name]["exit"] == golden[name]["exit"]
    assert results[name]["stdout"] == golden[name]["stdout"]


def test_golden_file_has_no_stale_cases(golden):
    assert sorted(golden) == sorted(case[0] for case in CASES)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(json.dumps(run_cases(Path(scratch)), indent=1)
                          + "\n")
    print(f"recorded {len(CASES)} cases to {GOLDEN}")
