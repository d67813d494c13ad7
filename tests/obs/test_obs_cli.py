"""CLI telemetry surface: --trace, repro trace, structured --profile."""

import json

import pytest

from repro.cli import main
from repro.obs import export, trace

#: Smallest sweep that exercises real simulation through the CLI.
_SWEEP_ARGS = [
    "sweep", "--locations", "A", "--bands", "B4", "--days", "10",
    "--size", "64", "--policies", "naive", "--seeds", "0",
]


@pytest.fixture(autouse=True)
def clean_telemetry():
    yield
    trace.disable_tracer()
    trace.reset_context()


class TestTraceFlag:
    def test_sweep_trace_writes_chrome_file(self, tmp_path, capsys):
        path = str(tmp_path / "out.json")
        assert main(_SWEEP_ARGS + ["--trace", path]) == 0
        captured = capsys.readouterr()
        assert f"-> {path}" in captured.err  # confirmation on stderr
        doc = json.loads(open(path).read())
        names = {
            e["name"] for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert "sweep" in names
        assert {"uplink", "capture", "ingest"} <= names
        assert doc["otherData"]["format"] == "repro-trace-v1"
        # Counters ride along in the artifact.
        assert doc["otherData"]["counters"]["downlink.visits"] > 0

    def test_trace_flag_leaves_stdout_machine_readable(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "out.json")
        code = main(_SWEEP_ARGS + ["--trace", path, "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert isinstance(rows, list)
        assert rows[0]["policy"] == "naive"

    def test_jsonl_extension_writes_span_log(self, tmp_path, capsys):
        path = str(tmp_path / "out.jsonl")
        assert main(_SWEEP_ARGS + ["--trace", path]) == 0
        capsys.readouterr()
        spans, meta = export.read_trace(path)
        assert meta == {}
        assert {"uplink", "capture"} <= {s[0] for s in spans}

    def test_tracer_uninstalled_after_command(self, tmp_path, capsys):
        main(_SWEEP_ARGS + ["--trace", str(tmp_path / "out.json")])
        capsys.readouterr()
        assert trace.active_tracer() is None


class TestTraceSubcommand:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = str(tmp_path / "saved.json")
        spans = [
            ("sweep", 0.0, 2.0, None),
            ("spec_task", 0.5, 1.5, {"worker": 0, "scenario": "ep/s0"}),
            ("dwt", 0.6, 0.7, {"worker": 0, "scenario": "ep/s0"}),
        ]
        export.write_chrome_trace(
            path, spans, dropped=0, counters={"downlink.visits": 4}
        )
        return path

    def test_summary(self, trace_file, capsys):
        assert main(["trace", "summary", trace_file]) == 0
        out = capsys.readouterr().out
        assert "3 spans" in out
        assert "spec_task" in out
        assert "downlink.visits" in out  # counters table rides along

    def test_summary_json_matches_export_summarize(
        self, trace_file, capsys
    ):
        assert main(
            ["trace", "summary", trace_file, "--format", "json"]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        spans, _meta = export.read_trace(trace_file)
        assert rows == export.summarize(spans)

    def test_slowest(self, trace_file, capsys):
        assert main(["trace", "slowest", trace_file, "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "slowest 2 of 3 spans" in out
        assert "driver" in out

    def test_export_roundtrip(self, trace_file, tmp_path, capsys):
        jsonl = str(tmp_path / "converted.jsonl")
        assert main(["trace", "export", trace_file, "-o", jsonl]) == 0
        capsys.readouterr()
        original, _ = export.read_trace(trace_file)
        converted, _ = export.read_trace(jsonl)
        assert [s[0] for s in converted] == [s[0] for s in original]

    def test_export_requires_output(self, trace_file):
        with pytest.raises(SystemExit):
            main(["trace", "export", trace_file])


class TestStructuredProfile:
    def test_sweep_profile_json_is_one_document(self, capsys):
        code = main(_SWEEP_ARGS + ["--profile", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # In-process run: no scheduler stats section.
        assert set(doc) == {"results", "profile"}
        sections = {row["section"] for row in doc["profile"]}
        assert {"uplink", "capture", "ingest"} <= sections

    def test_sweep_profile_csv_sections_are_commented(self, capsys):
        code = main(_SWEEP_ARGS + ["--profile", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# profile" in out
        assert out.startswith("scenario,")

    def test_sweep_profile_table_prints_merged_breakdown(self, capsys):
        code = main(_SWEEP_ARGS + ["--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "merged timing breakdown" in out
        assert "cpu_total" in out

    def test_profile_sections_match_across_topologies(self, capsys):
        # One aggregation whichever process ran the work: an in-process
        # sweep and a pooled, sharded one report the same phase and
        # kernel sections, and both carry the tasks' CPU total.
        args = _SWEEP_ARGS + [
            "--seeds", "0,1", "--sync-days", "1", "--profile",
            "--format", "json",
        ]

        def sections(extra):
            assert main(args + extra) == 0
            doc = json.loads(capsys.readouterr().out)
            rows = doc["profile"]
            work = {
                (r["kind"], r["section"])
                for r in rows
                if r["kind"] in ("phase", "kernel")
            }
            return work, {r["section"] for r in rows}, doc

        inline, inline_all, inline_doc = sections(["--workers", "1"])
        pooled, pooled_all, pooled_doc = sections(
            ["--workers", "2", "--shards", "2"]
        )
        assert inline == pooled
        assert {("phase", "uplink"), ("phase", "capture")} <= inline
        assert "cpu_total" in inline_all and "cpu_total" in pooled_all
        assert "shard_task" in pooled_all
        assert "scheduler" not in inline_doc and "scheduler" in pooled_doc
