"""Smoke tests of the command-line interface (scaled-down runs)."""

import json
import threading

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        for command in ("info", "table1", "table2", "fig2", "fig3", "fig4", "fig5", "matrix"):
            args = build_parser().parse_args(
                [command] if command in ("info",) else [command]
            )
            assert args.command == command

    def test_workers_option(self):
        assert build_parser().parse_args(["table1"]).workers == "auto"
        assert build_parser().parse_args(["table1", "--workers", "4"]).workers == 4
        assert build_parser().parse_args(["table1", "--workers", "auto"]).workers == "auto"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--workers", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--workers", "many"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["table2", "--reps", "-2"],
            ["table2", "--reps", "0"],
            ["table2", "--samples", "0"],
            ["fig2", "--samples", "0"],
            ["fig4", "--samples", "-5"],
            ["table1", "--reps", "0"],
            ["matrix", "--reps", "0"],
            ["matrix", "--r-undefeated", "0"],
            ["table2", "--r-undefeated", "-1"],
            ["table2", "--reps", "many"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_non_positive_counts_rejected_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "positive" in err

    def test_backend_parallel_rejected_at_parse_time(self, capsys):
        """There is one engine and no selector: ``--backend`` is no option."""
        for removed in ("auto", "kernel", "parallel"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(["table1", "--backend", removed])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert "usage:" in err
            assert "unrecognized arguments: --backend" in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith(f"repro {repro.__version__}")
        assert "kernel tier" not in out
        assert "(obs: tracing" in out

    def test_service_commands_parse(self):
        assert build_parser().parse_args(["serve", "--port", "0"]).command == "serve"
        args = build_parser().parse_args(
            ["submit", "--study", "illustrative", "--estimator", "imcis", "--wait"]
        )
        assert args.command == "submit"
        assert args.estimator == "imcis"
        assert args.wait is True
        assert build_parser().parse_args(["jobs", "--json"]).json is True

    def test_submit_rejects_unknown_study(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--study", "no-such-study"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "125 states" in out
        assert "IMCIS" in out

    def test_fig5_small(self, capsys, tmp_path):
        assert main(["fig5", "--points", "3", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert (tmp_path / "fig5.csv").exists()

    def test_table1_small(self, capsys):
        code = main(
            ["table1", "--reps", "2", "--samples", "600", "--r-undefeated", "80",
             "--seed", "3"]
        )
        assert code == 0
        assert "Table I" in capsys.readouterr().out

    def test_fig3_illustrative(self, capsys, tmp_path):
        code = main(
            ["fig3", "--study", "illustrative", "--samples", "600",
             "--r-undefeated", "80", "--seed", "3", "--out", str(tmp_path)]
        )
        assert code == 0
        assert "Figure 3" in capsys.readouterr().out
        assert (tmp_path / "fig3.csv").exists()

    def test_fig2_illustrative(self, capsys):
        code = main(
            ["fig2", "--study", "illustrative", "--reps", "3", "--samples", "600",
             "--r-undefeated", "80", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "IMCIS" in out or "=" in out

    def test_table2_study_choices_include_registry_names(self):
        args = build_parser().parse_args(["table2", "--study", "knuth-yao"])
        assert args.study == "knuth-yao"

    def test_matrix_explicit_r_undefeated_survives_quick(self):
        args = build_parser().parse_args(["matrix", "--quick", "--r-undefeated", "1000"])
        assert args.r_undefeated == 1000
        assert build_parser().parse_args(["matrix", "--quick"]).r_undefeated is None

    def test_matrix_small(self, capsys, tmp_path):
        code = main(
            ["matrix", "--quick", "--studies", "illustrative,knuth-yao", "--reps", "2",
             "--samples", "400", "--workers", "1", "--check", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Cross-study experiment matrix" in out
        for name in ("matrix.csv", "matrix.json", "matrix.md", "matrix_timing.csv"):
            assert (tmp_path / name).exists()

    def test_matrix_check_failure_names_cells_on_stderr(self, capsys):
        """--check failures name each offending (study, estimator) cell on
        stderr, so shell pipelines and CI logs can grep the diagnosis even
        when stdout is redirected to an artifact."""
        code = main(
            ["matrix", "--quick", "--studies", "illustrative", "--estimators", "mc",
             "--reps", "2", "--samples", "200", "--workers", "1", "--check"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "FAIL" in err
        assert "(illustrative, mc)" in err

    def test_table2_illustrative(self, capsys):
        code = main(
            ["table2", "--study", "illustrative", "--reps", "3", "--samples", "600",
             "--r-undefeated", "80", "--seed", "3"]
        )
        assert code == 0
        assert "Table II" in capsys.readouterr().out


class TestCoverageStore:
    ARGS = ["--reps", "2", "--samples", "300", "--r-undefeated", "40", "--workers", "1"]

    @pytest.mark.parametrize(
        "command", [["table2", "--study", "illustrative"], ["fig2", "--study", "illustrative"]]
    )
    def test_rerun_prints_store_summary(self, command, capsys, tmp_path):
        argv = [*command, *self.ARGS, "--store", str(tmp_path)]
        assert main(argv) == 0
        assert "store: 0 cached, 2 computed" in capsys.readouterr().out
        assert main(argv) == 0
        assert "store: 2 cached, 0 computed" in capsys.readouterr().out

    def test_table1_rerun_prints_store_summary(self, capsys, tmp_path):
        """The CI cross-command step's Table I run, twice on one store."""
        argv = ["table1", "--reps", "4", "--samples", "1000", "--r-undefeated", "100",
                "--workers", "1", "--store", str(tmp_path)]
        assert main(argv) == 0
        assert "store: 0 cached, 4 computed" in capsys.readouterr().out.splitlines()
        assert main(argv) == 0
        assert "store: 4 cached, 0 computed" in capsys.readouterr().out.splitlines()

    def test_table2_reads_matrix_imcis_records(self, capsys, tmp_path):
        common = [*self.ARGS, "--store", str(tmp_path)]
        matrix = ["matrix", "--studies", "illustrative", "--estimators", "imcis", *common]
        assert main(matrix) == 0
        capsys.readouterr()
        assert main(["table2", "--study", "illustrative", *common]) == 0
        assert "store: 2 cached, 0 computed" in capsys.readouterr().out


class TestStoreCommands:
    MATRIX_ARGS = [
        "matrix", "--quick", "--studies", "illustrative", "--estimators", "is",
        "--reps", "2", "--samples", "200", "--workers", "1",
    ]

    def _run_with_store(self, tmp_path, extra=()):
        store = tmp_path / "store"
        out = tmp_path / "out"
        args = [*self.MATRIX_ARGS, "--store", str(store), "--out", str(out), *extra]
        return main(args), store, out

    def test_matrix_store_and_resume_round_trip(self, capsys, tmp_path):
        code, store, out = self._run_with_store(tmp_path)
        assert code == 0
        first_csv = (out / "matrix.csv").read_bytes()
        text = capsys.readouterr().out
        assert "resume with: repro matrix --resume" in text
        run_id = text.split("--resume ")[1].split()[0]
        code = main(
            ["matrix", "--resume", run_id, "--store", str(store), "--out",
             str(tmp_path / "out2")]
        )
        assert code == 0
        resumed = capsys.readouterr().out
        assert "2 cached, 0 computed" in resumed
        assert (tmp_path / "out2" / "matrix.csv").read_bytes() == first_csv

    def test_resume_requires_store(self):
        with pytest.raises(SystemExit, match="--store"):
            main(["matrix", "--resume", "matrix-aa"])

    def test_resume_of_unknown_run_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="no run"):
            main(["matrix", "--resume", "matrix-aa", "--store", str(tmp_path)])

    def test_store_ls_inspect_gc(self, capsys, tmp_path):
        code, store, _ = self._run_with_store(tmp_path)
        assert code == 0
        capsys.readouterr()
        assert main(["store", "ls", "--store", str(store)]) == 0
        listing = capsys.readouterr().out
        assert "runs: 1" in listing and "complete" in listing
        assert main(["store", "inspect", "--store", str(store)]) == 0
        assert "valid record(s)" in capsys.readouterr().out
        assert main(["store", "gc", "--store", str(store)]) == 0
        assert "kept 2 record(s)" in capsys.readouterr().out

    def test_store_inspect_flags_corruption(self, capsys, tmp_path):
        code, store_dir, _ = self._run_with_store(tmp_path)
        assert code == 0
        segment = sorted((store_dir / "segments").glob("*.seg"))[0]
        blob = bytearray(segment.read_bytes())
        blob[-2] ^= 0xFF
        segment.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["store", "inspect", "--store", str(store_dir)]) == 1
        assert "problem" in capsys.readouterr().out

    def test_store_ls_json(self, capsys, tmp_path):
        code, store, _ = self._run_with_store(tmp_path)
        assert code == 0
        capsys.readouterr()
        assert main(["store", "ls", "--store", str(store), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["root"] == str(store)
        assert document["format"] == 2
        assert len(document["runs"]) == 1
        assert document["runs"][0]["status"] == "complete"
        assert len(document["records"]) == 1
        assert document["records"][0]["records"] == 2
        assert document["records"][0]["bytes"] > 0
        assert set(document["records"][0]) == {"key", "records", "bytes"}
        assert document["totals"]["records"] == 2

    @pytest.mark.parametrize(
        "argv", [["store", "ls", "--json"], ["store", "migrate"]], ids=["ls-json", "migrate"]
    )
    def test_removed_v1_era_store_commands_rejected(self, argv, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*argv, "--store", str(tmp_path)])
        assert exit_info.value.code == 2

    def test_store_ls_json_empty_store(self, capsys, tmp_path):
        assert main(["store", "ls", "--store", str(tmp_path), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document == {
            "root": str(tmp_path),
            "format": 2,
            "runs": [],
            "records": [],
            "totals": {"runs": 0, "keys": 0, "records": 0, "bytes": 0},
        }

    def test_store_gc_dry_run_with_older_than_is_read_only(self, capsys, tmp_path):
        """Regression: --dry-run combined with --older-than must not touch
        a single byte of the store."""
        code, store, _ = self._run_with_store(tmp_path)
        assert code == 0
        before = {
            str(p.relative_to(store)): (p.read_bytes(), p.stat().st_mtime_ns)
            for p in sorted(store.rglob("*"))
            if p.is_file()
        }
        capsys.readouterr()
        args = ["store", "gc", "--store", str(store), "--dry-run",
                "--older-than", "0", "--format", "json"]
        assert main(args) == 0
        counters = json.loads(capsys.readouterr().out)
        assert counters["dry_run"] == 1
        after = {
            str(p.relative_to(store)): (p.read_bytes(), p.stat().st_mtime_ns)
            for p in sorted(store.rglob("*"))
            if p.is_file()
        }
        assert after == before


class TestServiceCommands:
    @pytest.fixture()
    def live_server(self, tmp_path):
        from repro.service import ServiceConfig, create_server

        server = create_server(ServiceConfig(port=0, store_root=tmp_path / "store"))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.service.stop(timeout=10)
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    SUBMIT = ["--study", "illustrative", "--estimator", "is", "--reps", "2",
              "--samples", "400"]

    def test_submit_wait_and_jobs(self, capsys, live_server):
        code = main(["submit", "--url", live_server, *self.SUBMIT, "--wait"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("job job-")
        assert '"state": "complete"' in out
        assert main(["jobs", "--url", live_server]) == 0
        listing = capsys.readouterr().out
        assert "illustrative/is" in listing and "complete" in listing

    def test_jobs_json_and_single_job(self, capsys, live_server):
        assert main(["submit", "--url", live_server, *self.SUBMIT, "--wait"]) == 0
        capsys.readouterr()
        assert main(["jobs", "--url", live_server, "--json"]) == 0
        jobs = json.loads(capsys.readouterr().out)
        assert len(jobs) == 1
        assert main(["jobs", "--url", live_server, "--job", jobs[0]["id"]]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["state"] == "complete"
        assert snapshot["result"]["records"][0]["study"] == "illustrative"

    def test_submit_against_dead_service_fails_cleanly(self):
        with pytest.raises(SystemExit, match="cannot reach service"):
            main(["submit", "--url", "http://127.0.0.1:1", *self.SUBMIT])
