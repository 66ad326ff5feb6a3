"""Tests for the experiments command-line interface."""

import json

import pytest

from repro.experiments.__main__ import build_parser, main
from repro.network import cprobe


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.hops == [2, 5, 10]
        assert not args.full
        assert args.jobs == 1
        assert not args.no_cache
        assert args.cache_dir == ".repro_cache"
        assert args.csv is None and args.json is None

    def test_overrides(self):
        args = build_parser().parse_args(
            ["fig3", "--hops", "2", "--mixes", "0.5", "--full"]
        )
        assert args.hops == [2]
        assert args.mixes == [0.5]
        assert args.full

    def test_fig4_options(self):
        args = build_parser().parse_args(
            ["fig4", "--utilizations", "0.1", "0.9", "--jobs", "4"]
        )
        assert args.utilizations == [0.1, 0.9]
        assert args.jobs == 4

    def test_validation_options(self):
        args = build_parser().parse_args(
            ["validation", "--slots", "5000", "--epsilon", "0.01"]
        )
        assert args.slots == 5000
        assert args.epsilon == 0.01
        assert args.seed == 5  # default, recorded in artifacts
        assert args.trials == 1
        assert args.engine == "vectorized"

    def test_validation_seed(self):
        args = build_parser().parse_args(["validation", "--seed", "11"])
        assert args.seed == 11

    def test_validation_trials_and_engine(self):
        args = build_parser().parse_args(
            ["validation", "--trials", "10", "--engine", "chunk"]
        )
        assert args.trials == 10
        assert args.engine == "chunk"

    def test_validation_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["validation", "--engine", "warp"])

    def test_cache_and_artifact_flags_on_every_subcommand(self):
        for command in ("fig2", "fig3", "fig4", "validation"):
            args = build_parser().parse_args(
                [
                    command, "--jobs", "2", "--no-cache",
                    "--cache-dir", "/tmp/c", "--json", "a.json",
                    "--csv", "a.csv",
                ]
            )
            assert args.jobs == 2
            assert args.no_cache
            assert args.cache_dir == "/tmp/c"
            assert args.json == "a.json"
            assert args.csv == "a.csv"


class TestMain:
    def test_fig4_small(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        rc = main(
            [
                "fig4",
                "--hops", "2",
                "--utilizations", "0.5",
                "--csv", str(csv_path),
                "--no-cache",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "FIFO U=50%" in out
        assert csv_path.exists()
        assert "series,x,delay" in csv_path.read_text()

    def test_fig2_small(self, capsys, tmp_path):
        rc = main(
            [
                "fig2", "--hops", "2", "--utilizations", "0.4",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert rc == 0
        assert "BMUX H=2" in capsys.readouterr().out

    def test_fig3_small(self, capsys):
        rc = main(["fig3", "--hops", "2", "--mixes", "0.5", "--no-cache"])
        assert rc == 0
        assert "EDF short H=2" in capsys.readouterr().out

    def test_validation_small(self, capsys):
        rc = main(["validation", "--hops", "1", "--slots", "4000", "--no-cache"])
        assert rc == 0
        assert "sound" in capsys.readouterr().out

    def test_json_artifact(self, capsys, tmp_path):
        json_path = tmp_path / "fig2.json"
        rc = main(
            [
                "fig2", "--hops", "2", "--utilizations", "0.4",
                "--json", str(json_path), "--no-cache",
            ]
        )
        assert rc == 0
        artifact = json.loads(json_path.read_text())
        assert artifact["name"] == "fig2"
        assert artifact["meta"]["command"] == "fig2"
        assert artifact["settings"]["s_grid"] == 12
        assert len(artifact["rows"]) == 3  # BMUX, FIFO, EDF
        assert len(artifact["cells"]) == 3
        for cell in artifact["cells"]:
            assert cell["wall_time_s"] >= 0.0
            assert "key" in cell and "params" in cell

    def test_json_artifact_names_the_probe_kernel(
        self, capsys, tmp_path, monkeypatch
    ):
        def run(name):
            json_path = tmp_path / f"{name}.json"
            rc = main(
                [
                    "fig2", "--hops", "2", "--utilizations", "0.4",
                    "--json", str(json_path), "--no-cache",
                ]
            )
            assert rc == 0
            return json.loads(json_path.read_text())

        compiled = run("compiled")
        assert compiled["meta"]["probe_kernel"] == cprobe.probe_kernel()
        # without the compiled kernel: same rows, and the artifact says so
        monkeypatch.setattr(cprobe, "_get_lib", lambda: None)
        fallback = run("fallback")
        assert fallback["meta"]["probe_kernel"] == "python"
        assert fallback["rows"] == compiled["rows"]

    def test_trace_names_the_probe_kernel(self, capsys, monkeypatch):
        argv = [
            "fig2", "--hops", "2", "--utilizations", "0.4", "--no-cache",
            "--trace",
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"[trace] probe kernel={cprobe.probe_kernel()}" in lines
        monkeypatch.setattr(cprobe, "_get_lib", lambda: None)
        assert main(argv) == 0
        assert "[trace] probe kernel=python" in (
            capsys.readouterr().out.splitlines()
        )

    def test_validation_artifact_records_trial_seeds(self, capsys, tmp_path):
        from repro.simulation.engine import spawn_trial_seeds

        json_path = tmp_path / "validation.json"
        rc = main(
            [
                "validation", "--hops", "1", "--slots", "4000",
                "--seed", "7", "--trials", "2",
                "--json", str(json_path), "--no-cache",
            ]
        )
        assert rc == 0
        artifact = json.loads(json_path.read_text())
        assert artifact["meta"]["seed"] == 7
        assert artifact["meta"]["trials"] == 2
        assert artifact["meta"]["engine"] == "vectorized"
        assert artifact["settings"]["epsilon"] == 1e-3
        assert artifact["settings"]["traffic"] == [1.5, 0.989, 0.9]
        # every trial's own seed is reproducible from the artifact alone:
        # it appears in the summary, the trial rows, and the cell params
        expected = list(spawn_trial_seeds(7, 2))
        for point in artifact["meta"]["summary"]:
            assert point["trial_seeds"] == expected
            assert point["bound_violations"] == 0
            assert point["quantile_lo"] <= point["quantile_hi"]
        trial_cells = [
            c for c in artifact["cells"] if c["fn"].endswith("trial_cell")
        ]
        assert {c["params"]["seed"] for c in trial_cells} == set(expected)
        trial_rows = [r for r in artifact["rows"] if r["kind"] == "trial"]
        assert {r["seed"] for r in trial_rows} == set(expected)

    def test_jobs2_rows_byte_identical_to_serial(self, capsys, tmp_path):
        serial_csv = tmp_path / "serial.csv"
        parallel_csv = tmp_path / "parallel.csv"
        base = ["fig2", "--hops", "2", "--utilizations", "0.4", "--no-cache"]
        assert main(base + ["--jobs", "1", "--csv", str(serial_csv)]) == 0
        assert main(base + ["--jobs", "2", "--csv", str(parallel_csv)]) == 0
        assert serial_csv.read_bytes() == parallel_csv.read_bytes()

    def test_warm_cache_rerun_hits_every_cell(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        args = [
            "fig4", "--hops", "1", "--utilizations", "0.1",
            "--cache-dir", cache_dir,
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "(0 cached)" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "(4 cached)" in second
        # cached rows render identically
        assert first.splitlines()[:4] == second.splitlines()[:4]
