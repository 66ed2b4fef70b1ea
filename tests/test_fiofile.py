"""Tests for the fio job-file parser and CLI runner."""

import pytest

from repro.workloads.fiofile import (
    FioFileError,
    load_fio_file,
    parse_fio_file,
    parse_size,
)
from repro.workloads.job import IoEngineKind


class TestParseSize:
    def test_suffixes(self):
        assert parse_size("4k") == 4096
        assert parse_size("4K") == 4096
        assert parse_size("1m") == 1 << 20
        assert parse_size("2g") == 2 << 30
        assert parse_size("512") == 512
        assert parse_size("16kb") == 16384

    def test_garbage_rejected(self):
        with pytest.raises(FioFileError):
            parse_size("4q")
        with pytest.raises(FioFileError):
            parse_size("")


BASIC = """
[global]
ioengine=libaio
bs=4k
iodepth=8
direct=1

[jobA]
rw=randread
number_ios=500
"""


class TestParseFioFile:
    def test_basic_job(self):
        jobs = parse_fio_file(BASIC)
        assert len(jobs) == 1
        job = jobs[0]
        assert job.name == "jobA"
        assert job.rw == "randread"
        assert job.block_size == 4096
        assert job.iodepth == 8
        assert job.engine is IoEngineKind.LIBAIO
        assert job.io_count == 500

    def test_global_overridden_per_job(self):
        text = BASIC + "\n[jobB]\nrw=write\nbs=16k\nnumber_ios=10\n"
        jobs = parse_fio_file(text)
        assert jobs[1].block_size == 16384
        assert jobs[1].rw == "write"
        assert jobs[1].iodepth == 8  # inherited

    def test_sync_engine_forces_qd1(self):
        text = "[j]\nioengine=pvsync2\niodepth=32\nrw=read\nnumber_ios=10\n"
        assert parse_fio_file(text)[0].iodepth == 1

    def test_size_derives_io_count(self):
        # no number_ios -> falls back to size
        jobs = parse_fio_file("[j]\nrw=read\nbs=4k\nsize=1m\n")
        assert jobs[0].io_count == 256

    def test_rwmix(self):
        jobs = parse_fio_file(
            "[j]\nrw=randrw\nrwmixwrite=30\nbs=4k\nnumber_ios=10\n"
        )
        assert jobs[0].write_fraction == pytest.approx(0.3)
        jobs = parse_fio_file(
            "[j]\nrw=randrw\nrwmixread=30\nbs=4k\nnumber_ios=10\n"
        )
        assert jobs[0].write_fraction == pytest.approx(0.7)

    def test_numjobs_replicates_with_distinct_seeds(self):
        jobs = parse_fio_file(
            "[j]\nrw=read\nbs=4k\nnumber_ios=10\nnumjobs=3\nrandseed=7\n"
        )
        assert len(jobs) == 3
        assert [job.seed for job in jobs] == [7, 8, 9]
        assert jobs[1].name == "j.1"

    def test_spdk_engine(self):
        jobs = parse_fio_file(
            "[j]\nioengine=spdk\nrw=read\nbs=4k\nnumber_ios=10\n"
        )
        assert jobs[0].engine is IoEngineKind.SPDK

    def test_unknown_option_rejected(self):
        with pytest.raises(FioFileError):
            parse_fio_file("[j]\nrw=read\nbs=4k\nnumber_ios=1\nfsync=1\n")

    def test_unknown_engine_rejected(self):
        with pytest.raises(FioFileError):
            parse_fio_file("[j]\nioengine=io_uring\nrw=read\nnumber_ios=1\n")

    def test_missing_sizing_rejected(self):
        with pytest.raises(FioFileError):
            parse_fio_file("[j]\nrw=read\nbs=4k\n")

    @pytest.mark.parametrize(
        "options",
        ["rw=sideways\nnumber_ios=1", "rw=read\niodepth=deep\nnumber_ios=1",
         "rw=read\nnumjobs=two\nnumber_ios=1", "rw=read\nbs=1000\nnumber_ios=1"],
    )
    def test_bad_values_rejected_as_job_file_errors(self, options):
        with pytest.raises(FioFileError):
            parse_fio_file(f"[j]\n{options}\n")

    def test_empty_file_rejected(self):
        with pytest.raises(FioFileError):
            parse_fio_file("")
        with pytest.raises(FioFileError):
            parse_fio_file("[global]\nbs=4k\n")

    def test_ignored_keys_accepted(self):
        jobs = parse_fio_file(
            "[j]\ndirect=1\nfilename=/dev/nvme0n1\nrw=read\nbs=4k\nnumber_ios=5\n"
        )
        assert jobs[0].io_count == 5


class TestShippedJobFiles:
    def test_example_files_parse(self):
        micro = load_fio_file("examples/jobs/paper_microbench.fio")
        assert len(micro) == 3
        assert {job.rw for job in micro} == {"randread", "randwrite", "randrw"}
        sync = load_fio_file("examples/jobs/sync_latency.fio")
        assert all(job.engine is IoEngineKind.PSYNC for job in sync)


class TestCliRunner:
    def test_run_jobfile(self, tmp_path):
        path = tmp_path / "t.fio"
        path.write_text(
            "[global]\nioengine=pvsync2\nbs=4k\n[r]\nrw=randread\nnumber_ios=60\n"
        )
        from repro.fio import run_jobfile

        results = run_jobfile(str(path), device="ull")
        assert len(results) == 1
        assert results[0].latency.count == 60

    def test_cli_main(self, tmp_path, capsys):
        path = tmp_path / "t.fio"
        path.write_text("[r]\nrw=read\nbs=4k\nnumber_ios=40\n")
        from repro.fio import main

        assert main([str(path), "--completion", "poll"]) == 0
        out = capsys.readouterr().out
        assert "lat (usec)" in out and "iops" in out

    def test_concurrent_jobs_share_one_device(self, tmp_path):
        path = tmp_path / "c.fio"
        path.write_text(
            "[global]\nbs=4k\nnumber_ios=50\n"
            "[r]\nrw=randread\n[w]\nrw=randwrite\n"
        )
        from repro.fio import run_jobfile

        results = run_jobfile(str(path), device="ull", concurrent=True)
        assert len(results) == 2
        # Concurrent jobs share wall time: both report the same duration.
        assert results[0].duration_ns == results[1].duration_ns

    def test_concurrent_mixing_spdk_and_kernel_rejected(self, tmp_path):
        path = tmp_path / "m.fio"
        path.write_text(
            "[a]\nioengine=spdk\nrw=read\nbs=4k\nnumber_ios=5\n"
            "[b]\nioengine=pvsync2\nrw=read\nbs=4k\nnumber_ios=5\n"
        )
        from repro.fio import run_jobfile

        with pytest.raises(ValueError):
            run_jobfile(str(path), concurrent=True)


class TestCliCleanErrors:
    """Bad input fails with exit 2 and one ``repro.fio: error:`` line."""

    @staticmethod
    def _exit_cleanly(argv, capsys):
        from repro.fio import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("repro.fio: error: ")
        return err

    def test_missing_job_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.fio")
        err = self._exit_cleanly([missing], capsys)
        assert missing in err and "No such file" in err

    @pytest.mark.parametrize(
        "body",
        [
            "[r]\nrw=sideways\nbs=4k\nnumber_ios=10\n",
            "[r]\nrw=read\nbs=4k\n",
            "[r]\nrw=read\niodepth=deep\nnumber_ios=10\n",
            "[r]\nrw=read\nbs=1000\nnumber_ios=10\n",
        ],
    )
    def test_malformed_job_file(self, body, tmp_path, capsys):
        path = tmp_path / "bad.fio"
        path.write_text(body)
        assert str(path) in self._exit_cleanly([str(path)], capsys)

    @pytest.mark.parametrize("fraction", ["2", "-1", "x"])
    def test_precondition_out_of_range(self, fraction, capsys):
        err = self._exit_cleanly(
            ["examples/jobs/sync_latency.fio", "--precondition", fraction],
            capsys,
        )
        assert "--precondition" in err
