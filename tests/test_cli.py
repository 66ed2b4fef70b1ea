"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import _scaled_kwargs, main


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig04a" in out and "fig23" in out and "table1" in out

    def test_run_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Z-NAND" in out and "100.0" in out

    def test_unknown_figure(self, capsys):
        assert main(["fig99"]) == 2

    def test_no_arguments_prints_usage(self, capsys):
        assert main([]) == 2

    def test_scaled_run(self, capsys):
        assert main(["fig14b", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "blk_mq_poll" in out


class TestScaling:
    def test_scale_shrinks_io_count(self):
        kwargs = _scaled_kwargs("fig10", 0.1)
        assert kwargs["io_count"] == 200

    def test_scale_grows_io_count(self):
        # Regression: growth used to be possible only by editing source;
        # --scale above 1.0 must apply, uncapped.
        kwargs = _scaled_kwargs("fig10", 2.0)
        assert kwargs["io_count"] == 4000

    def test_scale_one_is_default(self):
        assert _scaled_kwargs("fig10", 1.0) == {}

    def test_scale_floor_only_shrinking(self):
        assert _scaled_kwargs("fig10", 0.0001)["io_count"] == 100
        assert _scaled_kwargs("fig10", 1.5)["io_count"] == 3000

    def test_figures_without_io_count_untouched(self, capsys):
        assert _scaled_kwargs("table1", 0.1) == {}
        assert "--scale has no effect" in capsys.readouterr().err

    def test_self_scaling_figures_note_on_stderr(self, capsys):
        # fig07b defaults io_count=0 (per-device GC counts).
        assert _scaled_kwargs("fig07b", 0.1) == {}
        assert "--scale has no effect" in capsys.readouterr().err


class TestSeed:
    def test_seed_threads_to_figures_that_accept_it(self):
        assert _scaled_kwargs("ext-anatomy", 1.0, seed=7) == {"seed": 7}

    def test_seed_skipped_elsewhere(self):
        assert _scaled_kwargs("fig10", 1.0, seed=7) == {}

    def test_seed_changes_nothing_by_default(self):
        assert _scaled_kwargs("ext-anatomy", 1.0) == {}


class TestObservabilityFlags:
    def test_trace_out_writes_parseable_chrome_json(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        csv_path = tmp_path / "metrics.csv"
        assert (
            main(
                [
                    "fig14b",
                    "--scale",
                    "0.1",
                    "--trace-out",
                    str(trace_path),
                    "--metrics-out",
                    str(csv_path),
                    "--anatomy",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "latency anatomy over" in out
        document = json.loads(trace_path.read_text())
        assert document["traceEvents"]
        assert {e["ph"] for e in document["traceEvents"]} <= {"X", "M"}
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("name,kind,unit")

    def test_multi_figure_outputs_get_suffixes(self, tmp_path):
        from repro.__main__ import _suffixed

        assert _suffixed("t.json", "fig10", multi=False) == "t.json"
        assert _suffixed("t.json", "fig10", multi=True) == "t.fig10.json"


class TestSubcommands:
    def test_explicit_figures_subcommand(self, capsys):
        assert main(["figures", "table1"]) == 0
        assert "Z-NAND" in capsys.readouterr().out

    def test_sweep_warms_without_rendering(self, capsys):
        assert main(["sweep", "table1"]) == 0
        captured = capsys.readouterr()
        assert "Z-NAND" not in captured.out
        assert "table1: points=" in captured.err

    def test_trace_defaults_to_anatomy(self, capsys):
        assert main(["trace", "fig14b", "--scale", "0.1"]) == 0
        captured = capsys.readouterr()
        assert "latency anatomy over" in captured.out

    def test_trace_requires_exactly_one_figure(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace"])

    def test_unknown_figure_in_subcommand(self, capsys):
        assert main(["figures", "fig99"]) == 2


class TestDevicesSubcommand:
    def test_list_names_every_device_and_preset_alias(self, capsys):
        assert main(["devices", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("zssd", "intel750", "qlc", "planar-mlc",
                     "tlc-multistep", "no-gc-pm"):
            assert name in out
        assert "preset alias" in out and "ull" in out

    def test_show_dumps_toml_with_hash_on_stderr(self, capsys):
        assert main(["devices", "show", "qlc"]) == 0
        captured = capsys.readouterr()
        assert '[timing]' in captured.out and 'name = "qlc"' in captured.out
        assert "spec_hash:" in captured.err

    def test_show_json_format(self, capsys):
        import json

        assert main(["devices", "show", "zssd", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "zssd"

    def test_show_preset_via_spec_twin(self, capsys):
        assert main(["devices", "show", "ull"]) == 0
        assert 'name = "ull"' in capsys.readouterr().out

    def test_unknown_device_exits_2_with_clean_error(self, capsys):
        assert main(["devices", "show", "warp-drive"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("devices:")
        assert "Traceback" not in err


class TestDeviceFlag:
    def test_figures_accept_device_override(self, capsys):
        assert main(
            ["figures", "fig14b", "--scale", "0.1", "--device", "zssd"]
        ) == 0
        assert "blk_mq_poll" in capsys.readouterr().out

    def test_device_flag_accepts_spec_path(self, capsys):
        from repro.ssd.registry import DEVICES_DIR

        path = str(DEVICES_DIR / "zssd.toml")
        assert main(
            ["figures", "fig14b", "--scale", "0.1", "--device", path]
        ) == 0

    def test_bad_device_name_exits_2(self, capsys):
        assert main(
            ["figures", "fig14b", "--scale", "0.1", "--device", "warp-drive"]
        ) == 2
        err = capsys.readouterr().err
        assert "device spec error" in err
        assert "Traceback" not in err

    def test_override_changes_measured_latency(self, capsys):
        # fig14b's grids are declared on the presets; overriding with the
        # much slower QLC device must move the measured numbers.
        assert main(["figures", "fig10", "--scale", "0.05"]) == 0
        baseline = capsys.readouterr().out
        assert main(
            ["figures", "fig10", "--scale", "0.05", "--device", "qlc"]
        ) == 0
        overridden = capsys.readouterr().out
        assert baseline != overridden


class TestFaultFlags:
    def test_fault_seed_threads_to_fault_figures(self):
        assert _scaled_kwargs("fault-readtail", 1.0, fault_seed=9) == {
            "fault_seed": 9
        }

    def test_fault_seed_skipped_elsewhere(self):
        assert _scaled_kwargs("fig10", 1.0, fault_seed=9) == {}

    def test_faults_flag_installs_a_plan_around_the_run(self, capsys):
        # table1 runs no simulations, so this exercises parsing and the
        # install/uninstall bracket without costing a measurement.
        from repro.faults.plan import active_plan

        assert active_plan() is None
        assert main(
            ["figures", "table1", "--faults", "nand.read_fail_prob=0.01"]
        ) == 0
        assert active_plan() is None

    def test_bad_fault_spec_raises(self):
        with pytest.raises(ValueError, match="unknown fault layer"):
            main(["figures", "table1", "--faults", "bogus.x=1"])


class TestProfileSubcommand:
    def test_profile_emits_table_and_exports(self, tmp_path, capsys):
        import json

        speedscope = tmp_path / "prof.speedscope.json"
        collapsed = tmp_path / "prof.collapsed"
        assert (
            main(
                [
                    "profile",
                    "fig14b",
                    "--scale",
                    "0.1",
                    "--no-wall",
                    "--profile-out",
                    str(speedscope),
                    "--collapsed",
                    str(collapsed),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "hotspots: fig14b" in out
        assert "attributed" in out
        assert "trampoline hops" in out
        doc = json.loads(speedscope.read_text())
        assert doc["profiles"][0]["samples"]
        assert collapsed.read_text().strip()

    def test_profile_rejects_unknown_figure(self, capsys):
        assert main(["profile", "fig99"]) == 2

    def test_perf_profile_folds_hotspots_into_doc(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "bench.json"
        assert (
            main(
                [
                    "perf",
                    "fig14b",
                    "--scale",
                    "0.1",
                    "--profile",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        doc = json.loads(out_path.read_text())
        rows = doc["figures"]["fig14b"]["hotspots"]
        assert rows
        assert rows[0]["events"] > 0
        assert 0.0 < rows[0]["share"] <= 1.0


class TestCleanErrors:
    """Bad input fails with exit 2 and one stderr line, no traceback."""

    @staticmethod
    def _one_clean_line(capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1, err
        assert "error:" in err
        return err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig10", "--scale", "0"],
            ["fig10", "--scale", "-0.5"],
            ["sweep", "fig10", "--scale", "0"],
            ["trace", "fig10", "--scale", "0"],
            ["blame", "fig10", "--scale", "0"],
            ["perf", "fig10", "--scale", "0"],
            ["profile", "fig10", "--scale", "0"],
            ["fig10", "--jobs", "0"],
            ["fig10", "--jobs", "-2"],
        ],
    )
    def test_bad_scale_or_jobs(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        self._one_clean_line(capsys)

    def test_compare_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["perf", "--compare", missing, "--against", missing]) == 2
        assert missing in self._one_clean_line(capsys)

    def test_compare_missing_file_fails_before_timing(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["perf", "fig10", "--compare", missing]) == 2
        self._one_clean_line(capsys)

    @pytest.mark.parametrize("text", ['{"figures": {}}', "not json", "[1, 2]"])
    def test_compare_malformed_document(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["perf", "--compare", str(path), "--against", str(path)]) == 2
        assert str(path) in self._one_clean_line(capsys)
