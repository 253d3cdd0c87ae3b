"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main

SMALL = ["--cores", "2", "--threads-per-core", "2", "--scale", "5e-6"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.component == "l2c"
        assert args.n == 100

    def test_rejects_unknown_component(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--component", "niu"])

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--benchmark", "nope"])


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "31675" in out

    def test_run(self, capsys):
        rc = main([
            "run", "--benchmark", "radi", "--cores", "2",
            "--threads-per-core", "2", "--scale", "2e-5",
        ])
        assert rc == 0
        assert "completed=True" in capsys.readouterr().out

    def test_small_campaign(self, capsys):
        rc = main([
            "campaign", "--benchmark", "fft", "--component", "l2c",
            "--n", "3", "--cores", "2", "--threads-per-core", "2",
            "--scale", "5e-6",
        ])
        assert rc == 0
        assert "campaign" in capsys.readouterr().out.lower()

    def test_small_qrr(self, capsys):
        rc = main([
            "qrr", "--benchmark", "fft", "--component", "l2c",
            "--n", "2", "--cores", "2", "--threads-per-core", "2",
            "--scale", "5e-6",
        ])
        assert rc == 0

    def test_campaign_json_stdout(self, capsys):
        rc = main([
            "campaign", "--benchmark", "fft", "--component", "l2c",
            "--n", "2", *SMALL, "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["component"] == "l2c"
        assert len(payload["records"]) == 2
        assert "outcome_counts" in payload["summary"]

    def test_qrr_json_file(self, capsys, tmp_path):
        out = tmp_path / "qrr.json"
        rc = main([
            "qrr", "--benchmark", "fft", "--component", "l2c",
            "--n", "2", *SMALL, "--json", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["spec"]["mode"] == "qrr"
        assert payload["summary"]["recovered"] == 2

    def test_small_sweep_json(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main([
            "sweep", "--components", "l2c", "mcu",
            "--benchmarks", "fft", "radi", "--n", "2", *SMALL,
            "--json", str(out),
        ])
        assert rc == 0
        assert "sweep" in capsys.readouterr().out.lower()
        payload = json.loads(out.read_text())
        assert len(payload["results"]) == 4
        cells = [
            (r["spec"]["component"], r["spec"]["benchmark"])
            for r in payload["results"]
        ]
        assert cells == [
            ("l2c", "fft"), ("l2c", "radi"), ("mcu", "fft"), ("mcu", "radi"),
        ]

    def test_faults_list(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("seu", "mbu", "stuck", "flicker", "sram"):
            assert name in out

    def test_campaign_with_fault_json(self, capsys):
        rc = main([
            "campaign", "--benchmark", "fft", "--component", "l2c",
            "--n", "2", *SMALL, "--fault", "mbu:k=3", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["fault"] == "mbu:k=3"
        assert payload["summary"]["fault"] == "mbu:k=3"
        for record in payload["records"]:
            assert record["fault"]["model"] == "mbu"
            assert len(record["fault"]["locations"]) == 3

    def test_campaign_rejects_bad_fault_spec(self, capsys):
        rc = main([
            "campaign", "--benchmark", "fft", "--n", "1", *SMALL,
            "--fault", "cosmic",
        ])
        assert rc == 2
        assert "fault" in capsys.readouterr().err

    def test_sweep_with_fault(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main([
            "sweep", "--components", "l2c", "--benchmarks", "fft",
            "--n", "2", *SMALL, "--fault", "stuck:hold=100",
            "--json", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["grid"]["fault"] == "stuck:hold=100"
        assert payload["results"][0]["spec"]["fault"] == "stuck:hold=100"

    def test_sweep_rejects_fault_outside_injection_mode(self, capsys):
        rc = main([
            "sweep", "--mode", "qrr", "--components", "l2c",
            "--benchmarks", "fft", "--n", "1", *SMALL,
            "--fault", "mbu:k=2",
        ])
        assert rc == 2

    def test_sweep_json_file_survives_closed_stdout(
        self, capsys, tmp_path, monkeypatch
    ):
        """``repro sweep ... --json FILE | head``: a reader that closes
        stdout early must not cost the file."""

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError

            def flush(self):
                raise BrokenPipeError

        argv = [
            "sweep", "--components", "l2c", "--benchmarks", "fft",
            "--n", "2", *SMALL,
        ]
        normal, piped = tmp_path / "normal.json", tmp_path / "piped.json"
        assert main([*argv, "--json", str(normal)]) == 0
        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert main([*argv, "--json", str(piped)]) == 0
        assert piped.read_bytes() == normal.read_bytes()

    def test_sweep_parallel_matches_serial(self, capsys, tmp_path):
        argv = [
            "sweep", "--components", "l2c", "--benchmarks", "fft",
            "--n", "2", *SMALL,
        ]
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        assert main([*argv, "--workers", "1", "--json", str(serial)]) == 0
        assert main([*argv, "--workers", "2", "--json", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()
