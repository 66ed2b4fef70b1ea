"""Tests for the ``python -m repro`` command-line interface."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import _scaled_kwargs, main
from repro.fio import main as fio_main
from repro.sim import engine


def _usage_error(argv, capsys):
    """Run ``main(argv)``, expect a parse-time usage error, and return
    its single stderr line."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1, err
    assert "error:" in err
    return err


class TestCli:
    def test_list(self, capsys):
        assert main(["figures", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig04a" in out and "fig23" in out and "table1" in out

    def test_run_table1(self, capsys):
        assert main(["figures", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Z-NAND" in out and "100.0" in out

    def test_unknown_figure(self, capsys):
        err = _usage_error(["figures", "fig99"], capsys)
        assert "unknown figure 'fig99'" in err

    def test_no_arguments_prints_usage(self, capsys):
        assert "required: command" in _usage_error([], capsys)

    def test_flat_form_is_gone(self, capsys):
        assert "invalid choice: 'fig10'" in _usage_error(["fig10"], capsys)

    def test_scaled_run(self, capsys):
        assert main(["figures", "fig14b", "--scale", "0.1"]) == 0
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
                    "figures",
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
        _usage_error(["trace"], capsys)

    def test_unknown_figure_in_subcommand(self, capsys):
        for command in ("sweep", "trace", "blame", "perf", "profile"):
            assert "unknown figure 'fig99'" in _usage_error(
                [command, "fig99"], capsys
            )


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
        err = _usage_error(["devices", "show", "warp-drive"], capsys)
        assert err.startswith("python -m repro devices show: error: ")
        assert "warp-drive" in err


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
        err = _usage_error(
            ["figures", "fig14b", "--scale", "0.1", "--device", "warp-drive"],
            capsys,
        )
        assert "argument --device" in err and "unknown device" in err

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

    def test_bad_fault_spec_raises(self, capsys):
        err = _usage_error(
            ["figures", "table1", "--faults", "bogus.x=1"], capsys
        )
        assert "unknown fault layer" in err


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
        _usage_error(["profile", "fig99"], capsys)

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["figures", "fig10", "--scale", "0"],
            ["figures", "fig10", "--scale", "-0.5"],
            ["sweep", "fig10", "--scale", "0"],
            ["trace", "fig10", "--scale", "0"],
            ["blame", "fig10", "--scale", "0"],
            ["perf", "fig10", "--scale", "0"],
            ["profile", "fig10", "--scale", "0"],
            ["figures", "fig10", "--jobs", "0"],
            ["figures", "fig10", "--jobs", "-2"],
        ],
    )
    def test_bad_scale_or_jobs(self, argv, capsys):
        _usage_error(argv, capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["figures", "ext-anatomy", "--seed", "-1"],
            ["perf", "fig10", "--seed", "-1"],
        ],
    )
    def test_negative_seed(self, argv, capsys):
        assert "argument --seed" in _usage_error(argv, capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["devices", "bogus"],
            ["devices", "show"],
            ["lint", "--bogus"],
            ["check", "--bogus"],
        ],
    )
    def test_other_subcommands(self, argv, capsys):
        _usage_error(argv, capsys)

    def test_compare_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        err = _usage_error(
            ["perf", "--compare", missing, "--against", missing], capsys
        )
        assert missing in err

    def test_compare_missing_file_fails_before_timing(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        _usage_error(["perf", "fig10", "--compare", missing], capsys)

    @pytest.mark.parametrize("text", ['{"figures": {}}', "not json", "[1, 2]"])
    def test_compare_malformed_document(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        err = _usage_error(
            ["perf", "--compare", str(path), "--against", str(path)], capsys
        )
        assert str(path) in err


# ----------------------------------------------------------------------
# The error contract, as a property over every checked flag
# ----------------------------------------------------------------------
_FIGURE_COMMANDS = ("figures", "sweep", "trace", "blame", "perf", "profile")
_FAULT_COMMANDS = ("figures", "sweep", "trace", "blame", "profile")
_OBS_COMMANDS = ("figures", "sweep", "trace", "blame")
_BAD_DEVICES = ("warp-drive", "missing/spec.toml", "spec.yaml")
_BAD_FAULTS = (
    "bogus.x=1",
    "nonsense",
    "nand.explode_prob=1",
    "nand.read_fail_prob=abc",
    "nand.read_fail_prob=2",
    "nvme.timeout_prob=-0.1",
    "nand.ecc_retry_ns=-5",
    "kstack.max_requeues=1.5",
)


def _bad_input_table(docs):
    """(entry point, argv before the bad value, bad values): every typed
    flag of every subcommand, plus figure ids and the other CLIs."""
    missing, malformed = str(docs / "missing.json"), str(docs / "bad.json")
    rows = []
    for command in _FIGURE_COMMANDS:
        figure = [command, "table1"]
        rows += [
            (main, [command], ("fig99", "Fig10")),
            (main, figure + ["--scale"], ("0", "-0.5", "nan", "inf", "x")),
            (main, figure + ["--seed"], ("-1", "1.5", "x")),
            (main, figure + ["--jobs"], ("0", "-2", "x")),
            (main, figure + ["--device"], _BAD_DEVICES),
        ]
    for command in _FAULT_COMMANDS:
        figure = [command, "table1"]
        rows += [
            (main, figure + ["--faults"], _BAD_FAULTS),
            (main, figure + ["--fault-seed"], ("-1", "x")),
        ]
    for command in _OBS_COMMANDS:
        figure = [command, "table1"]
        rows += [
            (main, figure + ["--telemetry-period"], ("0", "x")),
            (main, figure + ["--slo"], ("bad", "read:fast", "read:1us@2")),
        ]
    rows += [
        (main, ["blame", "table1", "--top"], ("0", "x")),
        (main, ["profile", "table1", "--top"], ("0", "x")),
        (main, ["profile", "table1", "--period"], ("0", "-1")),
        (main, ["perf", "table1", "--threshold"], ("0", "-0.1", "x")),
        (main, ["perf", "table1", "--compare"], (missing, malformed)),
        (main, ["perf", "--compare", malformed, "--against"], (missing,)),
        # Flags a subcommand does not take.
        (main, ["perf", "table1"], ("--faults", "--anatomy")),
        (main, ["profile", "table1"], ("--anatomy", "--slo")),
        (main, ["figures", "table1"], ("--clear-cache", "--top")),
        (main, ["devices"], ("bogus",)),
        (main, ["devices", "show"], _BAD_DEVICES),
        (main, ["devices", "show", "ull", "--format"], ("yaml",)),
        (main, ["lint", "--format"], ("xml",)),
        (main, ["lint", "--select"], ("SIM999",)),
        (main, ["lint"], ("--bogus",)),
        (main, ["check"], ("--bogus",)),
        (fio_main, ["examples/jobs/sync_latency.fio", "--device"], _BAD_DEVICES),
        (fio_main, ["examples/jobs/sync_latency.fio", "--precondition"],
         ("2", "-1", "x")),
        (fio_main, ["examples/jobs/sync_latency.fio", "--completion"],
         ("never",)),
    ]
    return rows


@pytest.fixture(scope="module")
def bench_docs(tmp_path_factory):
    docs = tmp_path_factory.mktemp("bench-docs")
    (docs / "bad.json").write_text("not json")
    return docs


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bad_input_fails_with_one_line_and_runs_nothing(bench_docs, data):
    entry, argv, values = data.draw(
        st.sampled_from(_bad_input_table(bench_docs))
    )
    argv = argv + [data.draw(st.sampled_from(values))]
    events = engine.events_executed_total
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(argv)
        except SystemExit as exc:
            code = exc.code
    message = err.getvalue()
    assert code == 2, (argv, message)
    assert "Traceback" not in message
    assert len(message.splitlines()) == 1, (argv, message)
    assert engine.events_executed_total == events
