from __future__ import annotations

import json
import os
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from streamfilt import (
    MODE_NAMES,
    FilterSpec,
    SignalInfo,
    SignalMatrix,
    apply_mode,
    compare_channels,
    design_bandpass,
    filter_batch,
    load_signal,
    load_signal_csv,
    mode_from_name,
    store_signal,
    write_report_csv,
)
from streamfilt import _threads, cli, signal_core
from streamfilt.cli import main

from conftest import run_fresh


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_small(capsys, base, **overrides):
    args = {
        "--channels": "3",
        "--samples": "2000",
        "--rate": "600.614",
        "--seed": "11",
    }
    args.update(overrides)
    argv = ["gen", "--out", str(base)]
    for key, value in args.items():
        argv += [key, value]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    return out, err


class TestGen:
    def test_writes_signal(self, capsys, tmp_path):
        base = tmp_path / "sig"
        out, err = gen_small(capsys, base)
        sig = load_signal(base)
        assert sig.info.channel_count == 3
        assert sig.info.sample_count == 2000
        assert "wrote 3 channels x 2000 samples" in out

    def test_echoes_config_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("STREAMFILT_THREADS", raising=False)
        base = tmp_path / "sig"
        _, err = gen_small(capsys, base)
        config = json.loads(err.splitlines()[0])
        assert config["command"] == "gen"
        assert config["options"]["seed"] == 11
        assert config["options"]["channels"] == 3
        assert list(config) == ["command", "options", "threads_env"]
        # The whole line, byte for byte: keys sorted at every level.
        options = (
            '{"channels": 3, "components": null, "noise_sigma": 0.7, '
            f'"out": {json.dumps(str(base))}, "rate": 600.614, "samples": 2000, "seed": 11}}'
        )
        assert err.splitlines()[0] == (
            f'{{"command": "gen", "options": {options}, "threads_env": null}}'
        )

    def test_repeat_runs_byte_identical(self, capsys, tmp_path):
        gen_small(capsys, tmp_path / "a")
        gen_small(capsys, tmp_path / "b")
        assert (tmp_path / "a.f64").read_bytes() == (tmp_path / "b.f64").read_bytes()
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_custom_components(self, capsys, tmp_path):
        base = tmp_path / "tone"
        code, _, _ = run_cli(
            capsys,
            "gen", "--out", str(base), "--channels", "1", "--samples", "600",
            "--rate", "600", "--noise-sigma", "0", "--components", "10:1",
        )
        assert code == 0
        sig = load_signal(base)
        expected = np.sin(2.0 * np.pi * 10.0 * np.arange(600) / 600.0)
        assert np.abs(sig.data[0] - expected).max() <= 1e-12

    def test_bad_components_exit_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "gen", "--out", str(tmp_path / "x"), "--components", "banana",
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("samples", [10**17, 10**19, 10**20], ids=["memory", "size", "dim"])
    @pytest.mark.parametrize("noise", ["0.7", "0"])
    def test_a_record_too_large_to_allocate_exits_1(self, capsys, tmp_path, samples, noise):
        # Petabytes at least: numpy refuses them before touching any page.
        code, out, err = run_cli(
            capsys, "gen", "--out", str(tmp_path / "big"), "--channels", "2",
            "--samples", str(samples), "--noise-sigma", noise,
        )
        assert code == 1
        assert out == ""
        echo, message = err.splitlines()
        assert json.loads(echo)["command"] == "gen"
        assert message == (
            f"error: a record of 2 channels x {samples} samples is too large to allocate"
        )
        assert list(tmp_path.iterdir()) == []

    def test_component_above_nyquist_exit_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "gen", "--out", str(tmp_path / "x"), "--rate", "100",
            "--components", "60:1",
        )
        assert code == 1
        assert "Nyquist" in err


class TestDesign:
    def test_writes_taps(self, capsys, tmp_path):
        path = tmp_path / "taps.csv"
        code, out, _ = run_cli(
            capsys,
            "design", "--low", "2", "--high", "30", "--rate", "600.614",
            "--out", str(path),
        )
        assert code == 0
        assert "designed 991 taps" in out
        assert len(path.read_text().splitlines()) == 2 + 991

    def test_band_errors_exit_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "design", "--low", "30", "--high", "2", "--rate", "600",
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == 1
        assert "error:" in err

    def test_design_too_long_to_allocate_exits_1(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        code, _, err = run_cli(
            capsys,
            "design", "--low", "1e-9", "--high", "30", "--rate", "600", "--out", str(path),
        )
        assert code == 1
        # The 1.98e12 taps would be 14.4 TiB; the config echo comes first.
        assert err.splitlines()[1:] == [
            "error: a kernel of 1980000000001 taps is longer than the 4194304 this package builds"
        ]
        assert not path.exists()


class TestFilter:
    def test_batch_matches_library(self, capsys, tmp_path):
        base = tmp_path / "sig"
        gen_small(capsys, base)
        out_base = tmp_path / "filtered"
        code, _, _ = run_cli(
            capsys,
            "filter", "--in", str(base), "--out", str(out_base),
            "--low", "2", "--high", "30", "--length", "61",
        )
        assert code == 0
        sig = load_signal(base)
        kernel = design_bandpass(
            FilterSpec(2.0, 30.0, sig.info.sampling_rate_hz, length_override=61)
        )
        expected = filter_batch(sig, kernel)
        assert np.array_equal(load_signal(out_base).data, expected.data)

    def test_csv_input_requires_rate(self, capsys, tmp_path):
        csv_path = tmp_path / "sig.csv"
        csv_path.write_text("a\n" + "\n".join(str(float(i)) for i in range(100)) + "\n")
        code, _, err = run_cli(
            capsys,
            "filter", "--in", str(csv_path), "--out", str(tmp_path / "o"),
            "--low", "2", "--high", "30", "--length", "31",
        )
        assert code == 1
        assert "--rate" in err
        code, _, _ = run_cli(
            capsys,
            "filter", "--in", str(csv_path), "--out", str(tmp_path / "o"),
            "--low", "2", "--high", "30", "--length", "31", "--rate", "600",
        )
        assert code == 0

    def test_missing_input_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "filter", "--in", str(tmp_path / "ghost"), "--out", str(tmp_path / "o"),
            "--low", "2", "--high", "30",
        )
        assert code == 2
        assert "not found" in err

    def test_modes_produce_different_files(self, capsys, tmp_path):
        base = tmp_path / "sig"
        gen_small(capsys, base)
        for mode in ("batch", "per-packet", "stateful"):
            code, _, _ = run_cli(
                capsys,
                "filter", "--in", str(base), "--out", str(tmp_path / mode),
                "--low", "2", "--high", "30", "--length", "201",
                "--mode", mode, "--packet-size", "150",
            )
            assert code == 0
        batch = load_signal(tmp_path / "batch").data
        per_packet = load_signal(tmp_path / "per-packet").data
        stateful = load_signal(tmp_path / "stateful").data
        assert not np.array_equal(per_packet, batch)
        assert np.abs(stateful - batch).max() <= 1e-9

    def test_stateful_rejects_fft_method(self, capsys, tmp_path):
        base = tmp_path / "sig"
        gen_small(capsys, base)
        code, out, err = run_cli(
            capsys,
            "filter", "--in", str(base), "--out", str(tmp_path / "o"),
            "--low", "2", "--high", "30", "--length", "61",
            "--mode", "stateful", "--method", "fft",
        )
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 2  # the config echo, then the error
        assert json.loads(lines[0])["options"]["method"] == "fft"
        assert lines[1].startswith("error: ") and "direct engine" in lines[1]
        assert out == ""
        assert not (tmp_path / "o.f64").exists()
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("damage,exit_code", [("long", 2), ("nan", 1)])
    def test_bad_payload_one_line_error(self, capsys, tmp_path, damage, exit_code):
        base = tmp_path / "sig"
        gen_small(capsys, base)
        payload = tmp_path / "sig.f64"
        if damage == "long":
            payload.write_bytes(payload.read_bytes() + bytes(8))
        else:
            data = np.fromfile(payload, dtype="<f8")
            data[5] = np.nan
            data.tofile(payload)
        code, out, err = run_cli(
            capsys,
            "filter", "--in", str(base), "--out", str(tmp_path / "o"),
            "--low", "2", "--high", "30",
        )
        assert code == exit_code
        lines = err.splitlines()
        assert len(lines) == 2  # the config echo, then the error
        assert lines[1].startswith("error: ")
        assert out == ""
        assert not (tmp_path / "o.f64").exists()

    def test_bad_channel_labels_exit_2(self, capsys, tmp_path):
        base = tmp_path / "sig"
        gen_small(capsys, base)
        header = json.loads((tmp_path / "sig.json").read_text())
        header["channel_labels"] = "abc"  # a string of one letter per channel
        (tmp_path / "sig.json").write_text(json.dumps(header))
        code, out, err = run_cli(
            capsys,
            "filter", "--in", str(base), "--out", str(tmp_path / "o"),
            "--low", "2", "--high", "30",
        )
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 2  # the config echo, then the error
        assert lines[1].startswith("error: ") and "channel_labels" in lines[1]
        assert out == ""
        assert not (tmp_path / "o.f64").exists()
        assert not (tmp_path / "o.json").exists()


class TestCompare:
    def test_summary_and_csv(self, capsys, tmp_path):
        base = tmp_path / "sig"
        gen_small(capsys, base)
        for mode, out_name in (("batch", "b"), ("per-packet", "p")):
            run_cli(
                capsys,
                "filter", "--in", str(base), "--out", str(tmp_path / out_name),
                "--low", "2", "--high", "30", "--length", "201",
                "--mode", mode, "--packet-size", "150",
            )
        report_path = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys,
            "compare", "--a", str(tmp_path / "b"), "--b", str(tmp_path / "p"),
            "--out", str(report_path), "--label", "demo",
        )
        assert code == 0
        assert out.startswith("demo: min_r=")
        assert "defined=3/3" in out
        lines = report_path.read_text().splitlines()
        assert lines[1] == "channel,r,defined"

    def test_geometry_mismatch_exit_1(self, capsys, tmp_path):
        gen_small(capsys, tmp_path / "a")
        gen_small(capsys, tmp_path / "b", **{"--samples": "1999"})
        code, _, err = run_cli(
            capsys, "compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"),
        )
        assert code == 1
        assert "error:" in err


def _store_random(base, channels, samples, seed, constant_rows=()):
    data = np.random.default_rng(seed).standard_normal((channels, samples))
    data[list(constant_rows)] = 1.5
    info = SignalInfo.with_default_labels(600.614, channels, samples)
    store_signal(SignalMatrix(info, data), base)


def _write_csv(path, signal):
    rows = [",".join(signal.info.channel_labels)]
    rows += [",".join(repr(float(v)) for v in column) for column in signal.data.T]
    path.write_text("\n".join(rows) + "\n")


def _only(tmp_path, *names):
    """The directory holds exactly these files: no output, no .tmp-* left."""
    assert sorted(os.listdir(tmp_path)) == sorted(names)


class TestChannelBlocks:
    """filter and compare read, filter and write a record by channel blocks;
    the block limit is patched down so that 5 x 3000 samples splits into 1-row
    blocks (3000) or uneven blocks of 2, 2 and 1 rows (6000)."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """Every (start, stop) that SignalReader.read is asked for."""
        seen = []
        real = signal_core.SignalReader.read

        def read(self, start, stop, out=None):
            seen.append((start, stop))
            return real(self, start, stop, out)

        monkeypatch.setattr(signal_core.SignalReader, "read", read)
        monkeypatch.delenv("STREAMFILT_THREADS", raising=False)
        return seen

    BLOCKS = {3000: [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 6000: [(0, 2), (2, 4), (4, 5)]}

    @pytest.mark.parametrize("mode", MODE_NAMES)
    def test_each_block_resolves_its_own_threads(
        self, capsys, tmp_path, monkeypatch, pools, mode
    ):
        # 5 x 3000 splits into blocks of 3 and 2 channels, 3 x 3060 and
        # 2 x 3060 padded with 61 taps. Only the first reaches the patched
        # floor, so it alone hands a block to the pool.
        monkeypatch.setattr(signal_core, "_BLOCK_CHANNEL_SAMPLES", 9000)
        monkeypatch.setattr(_threads, "_MIN_THREADED_WORK", 9000)
        _store_random(tmp_path / "rec", 5, 3000, seed=9)
        code, _, err = run_cli(
            capsys, "filter", "--in", str(tmp_path / "rec"), "--out", str(tmp_path / "o"),
            "--low", "2", "--high", "30", "--length", "61", "--mode", mode,
        )
        assert code == 0, err
        assert pools.built == [1]
        assert pools.submitted == 1

    @pytest.mark.parametrize("limit", [3000, 6000], ids=["1-row", "uneven"])
    # The stateful stream runs on the direct engine only.
    @pytest.mark.parametrize(
        "mode,method",
        [
            (mode, method)
            for mode in MODE_NAMES
            for method in ("auto", "direct", "fft")
            if (mode, method) != ("stateful", "fft")
        ],
    )
    @pytest.mark.parametrize("source", ["binary", "csv"])
    def test_filter_bytes_equal_the_in_process_route(
        self, capsys, tmp_path, monkeypatch, reads, limit, mode, method, source
    ):
        monkeypatch.setattr(signal_core, "_BLOCK_CHANNEL_SAMPLES", limit)
        _store_random(tmp_path / "rec", 5, 3000, seed=limit)
        signal = load_signal(tmp_path / "rec")
        argv = ["--in", str(tmp_path / "rec")]
        if source == "csv":
            _write_csv(tmp_path / "rec.csv", signal)
            signal = load_signal_csv(tmp_path / "rec.csv", 600.614)
            argv = ["--in", str(tmp_path / "rec.csv"), "--rate", "600.614"]
        reads.clear()
        code, _, err = run_cli(
            capsys, "filter", *argv, "--out", str(tmp_path / "o"), "--low", "2",
            "--high", "30", "--length", "201", "--mode", mode, "--packet-size", "700",
            "--method", method,
        )
        assert code == 0, err
        assert reads == ([] if source == "csv" else self.BLOCKS[limit])
        kernel = design_bandpass(FilterSpec(2.0, 30.0, 600.614, length_override=201))
        expected = apply_mode(
            signal, kernel, mode_from_name(mode, signal, 700), method=method
        )
        assert (tmp_path / "o.f64").read_bytes() == expected.data.astype("<f8").tobytes()
        assert load_signal(tmp_path / "o").info == signal.info

    @pytest.mark.parametrize("limit", [3000, 6000], ids=["1-row", "uneven"])
    @pytest.mark.parametrize("constant_rows", [(), (0, 1)], ids=["varied", "first-constant"])
    def test_compare_report_equals_compare_channels(
        self, capsys, tmp_path, monkeypatch, reads, limit, constant_rows
    ):
        # With constant_rows the first block holds only constant channels,
        # whose correlation is undefined; the record as a whole is not.
        monkeypatch.setattr(signal_core, "_BLOCK_CHANNEL_SAMPLES", limit)
        _store_random(tmp_path / "a", 5, 3000, seed=1, constant_rows=constant_rows)
        _store_random(tmp_path / "b", 5, 3000, seed=2)
        code, out, err = run_cli(
            capsys, "compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"),
            "--label", "blocks", "--out", str(tmp_path / "report.csv"),
        )
        assert code == 0, err
        assert reads == [pair for pair in self.BLOCKS[limit] for _ in "ab"]
        a, b = load_signal(tmp_path / "a"), load_signal(tmp_path / "b")
        report = compare_channels(a, b, "blocks")
        write_report_csv(report, tmp_path / "expected.csv")
        assert (tmp_path / "report.csv").read_text() == (tmp_path / "expected.csv").read_text()
        assert f"defined={5 - len(constant_rows)}/5" in out

    @pytest.fixture
    def buffers(self, monkeypatch):
        """Every block read, per payload path, and every block written.

        Each is kept alive, so blocks in fresh arrays would all have their
        own addresses, while blocks in one kept buffer share its first.
        """
        seen = {"written": []}
        real_read = signal_core.SignalReader.read
        real_writer = cli.signal_writer

        def read(self, start, stop, out=None):
            block = real_read(self, start, stop, out)
            seen.setdefault(self.payload_path, []).append(block.data)
            return block

        @contextmanager
        def writer(path, info):
            with real_writer(path, info) as write:
                yield lambda rows: (seen["written"].append(rows), write(rows))

        monkeypatch.setattr(signal_core.SignalReader, "read", read)
        monkeypatch.setattr(cli, "signal_writer", writer)
        monkeypatch.setattr(signal_core, "_BLOCK_CHANNEL_SAMPLES", 6000)
        return seen

    @staticmethod
    def _one_buffer(blocks):
        """The address of the one (2, 3000) buffer every block lies at the start of."""
        assert [block.shape[0] for block in blocks] == [2, 2, 1]
        addresses = {block.__array_interface__["data"][0] for block in blocks}
        assert len(addresses) == 1
        assert {block.base.shape for block in blocks} == {(2, 3000)}
        return addresses.pop()

    @pytest.mark.parametrize("mode", MODE_NAMES)
    def test_filter_reads_and_writes_every_block_through_one_buffer(
        self, capsys, tmp_path, buffers, mode
    ):
        _store_random(tmp_path / "rec", 5, 3000, seed=12)
        code, _, err = run_cli(
            capsys, "filter", "--in", str(tmp_path / "rec"), "--out", str(tmp_path / "o"),
            "--low", "2", "--high", "30", "--length", "61", "--mode", mode,
        )
        assert code == 0, err
        read = self._one_buffer(buffers[str(tmp_path / "rec.f64")])
        written = self._one_buffer(buffers["written"])
        assert read != written

    def test_compare_reads_each_file_through_its_own_buffer(self, capsys, tmp_path, buffers):
        _store_random(tmp_path / "a", 5, 3000, seed=13)
        _store_random(tmp_path / "b", 5, 3000, seed=14)
        code, _, err = run_cli(
            capsys, "compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"),
        )
        assert code == 0, err
        a = self._one_buffer(buffers[str(tmp_path / "a.f64")])
        b = self._one_buffer(buffers[str(tmp_path / "b.f64")])
        assert a != b

    def test_compare_all_undefined_raises_once(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(signal_core, "_BLOCK_CHANNEL_SAMPLES", 3000)
        _store_random(tmp_path / "a", 3, 3000, seed=1, constant_rows=(0, 1, 2))
        _store_random(tmp_path / "b", 3, 3000, seed=2)
        code, out, err = run_cli(
            capsys, "compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"),
            "--out", str(tmp_path / "report.csv"),
        )
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 2  # the config echo, then the error
        assert "all 3 channels have undefined correlation" in lines[1]
        assert out == ""
        _only(tmp_path, "a.f64", "a.json", "b.f64", "b.json")


class TestChannelBlockFailures:
    """Every failure exits with its code and leaves no output and no .tmp-* file."""

    def _filter(self, capsys, tmp_path):
        return run_cli(
            capsys, "filter", "--in", str(tmp_path / "rec"), "--out", str(tmp_path / "o"),
            "--low", "2", "--high", "30", "--length", "61",
        )

    def test_non_finite_sample_in_the_last_block_exits_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(signal_core, "_BLOCK_CHANNEL_SAMPLES", 2000)
        _store_random(tmp_path / "rec", 3, 1000, seed=3)
        payload = tmp_path / "rec.f64"
        data = np.fromfile(payload, dtype="<f8")
        data[-1] = np.inf
        data.tofile(payload)
        code, out, err = self._filter(capsys, tmp_path)
        assert code == 1
        assert err.splitlines()[1].startswith("error: ") and "non-finite" in err
        assert out == ""
        _only(tmp_path, "rec.f64", "rec.json")

    def test_payload_shrinking_after_the_size_check_exits_2(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(signal_core, "_BLOCK_CHANNEL_SAMPLES", 1000)
        _store_random(tmp_path / "rec", 3, 1000, seed=4)
        real = signal_core.SignalReader.read

        def read_then_shrink(self, start, stop, out=None):
            assert out is not None  # the block is read into the run's buffer
            block = real(self, start, stop, out)
            os.truncate(self.payload_path, 8 * 1000)  # one channel is left
            return block

        monkeypatch.setattr(signal_core.SignalReader, "read", read_then_shrink)
        code, out, err = self._filter(capsys, tmp_path)
        assert code == 2
        assert err.splitlines()[1].startswith("error: ") and "changed while reading" in err
        assert out == ""
        _only(tmp_path, "rec.f64", "rec.json")

    def test_compare_geometry_mismatch_exits_1_before_reading(
        self, capsys, tmp_path, monkeypatch
    ):
        _store_random(tmp_path / "a", 3, 1000, seed=5)
        _store_random(tmp_path / "b", 3, 999, seed=6)

        def no_read(*args):
            raise AssertionError("payload read before the geometry check")

        monkeypatch.setattr(signal_core.SignalReader, "read", no_read)
        code, out, err = run_cli(
            capsys, "compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"),
            "--out", str(tmp_path / "report.csv"),
        )
        assert code == 1
        assert "differ in geometry" in err.splitlines()[1]
        assert out == ""
        _only(tmp_path, "a.f64", "a.json", "b.f64", "b.json")

    @pytest.mark.parametrize("command", [*MODE_NAMES, "compare"])
    def test_peak_memory_near_two_blocks(self, capsys, tmp_path, monkeypatch, command):
        # 8 x 100000 samples in 4 blocks of 2 channels: one block is 1.6 MB
        # and the record 6.4 MB. Holding two whole records would peak above
        # 12.8 MB, 8 blocks.
        monkeypatch.setattr(signal_core, "_BLOCK_CHANNEL_SAMPLES", 200000)
        monkeypatch.delenv("STREAMFILT_THREADS", raising=False)
        _store_random(tmp_path / "rec", 8, 100000, seed=7)
        _store_random(tmp_path / "other", 8, 100000, seed=8)
        if command == "compare":
            argv = ["compare", "--a", str(tmp_path / "rec"), "--b", str(tmp_path / "other")]
        else:
            argv = [
                "filter", "--in", str(tmp_path / "rec"), "--out", str(tmp_path / "o"),
                "--low", "2", "--high", "30", "--mode", command, "--packet-size", "400",
            ]
        assert main(argv) == 0  # warm-up: numpy.fft's plan cache is not part of the run
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        # Two blocks (input and output, or the two inputs) plus scratch: the
        # FFT engine's overlap-save buffers, or Pearson's two centred chunks.
        # Measured: 2.1-2.5 blocks for filter, 2.1 for compare (3.05 when
        # Pearson centred whole rows).
        block = 2 * 100000 * 8
        assert peak <= 3.5 * block


class TestSweep:
    def test_writes_both_csvs(self, capsys, tmp_path):
        base = tmp_path / "sig"
        gen_small(capsys, base)
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--in", str(base), "--low", "2", "--high", "30",
            "--length", "61", "--sizes", "100,400", "--reps-accuracy", "1",
            "--reps-timing", "2", "--replicate", "1", "--warmup", "0",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        fidelity = (out_dir / "sweep_fidelity.csv").read_text().splitlines()
        timing = (out_dir / "sweep_timing.csv").read_text().splitlines()
        assert fidelity[1] == "packet_size,channel,r,defined"
        assert len(fidelity) == 2 + 2 * 3
        assert len(timing) == 2 + 3  # batch plus two sizes
        assert "wrote" in out

    def test_bad_sizes_exit_1(self, capsys, tmp_path):
        base = tmp_path / "sig"
        gen_small(capsys, base)
        code, _, err = run_cli(
            capsys,
            "sweep", "--in", str(base), "--low", "2", "--high", "30",
            "--sizes", "400,100", "--out-dir", str(tmp_path / "r"),
        )
        assert code == 1
        assert "increasing" in err


class TestBench:
    def test_times_one_config(self, capsys, tmp_path):
        base = tmp_path / "sig"
        gen_small(capsys, base)
        csv_path = tmp_path / "bench.csv"
        code, out, err = run_cli(
            capsys,
            "bench", "--in", str(base), "--low", "2", "--high", "30",
            "--length", "61", "--mode", "per-packet", "--packet-size", "400",
            "--reps", "2", "--warmup", "0", "--out", str(csv_path),
        )
        assert code == 0
        assert out.startswith("per-packet=400: mean=")
        assert "profile hint" in err
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[2].startswith("per-packet=400,400,2,")


class TestUsage:
    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert "streamfilt 0.1.0" in out
        assert "csv format streamfilt-bench v1" in out

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "bogus")
        assert code == 1
        assert "invalid choice" in err

    def test_unknown_flag_named_in_message(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--out", "x", "--bogus-flag", "1")
        assert code == 1
        assert "--bogus-flag" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "gen")
        assert code == 1
        assert "--out" in err

    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1


class TestThreadsEnv:
    def test_env_threads_do_not_change_output(self, capsys, tmp_path, monkeypatch):
        base = tmp_path / "sig"
        gen_small(capsys, base)
        run_cli(
            capsys,
            "filter", "--in", str(base), "--out", str(tmp_path / "one"),
            "--low", "2", "--high", "30", "--length", "61",
        )
        monkeypatch.setenv("STREAMFILT_THREADS", "3")
        run_cli(
            capsys,
            "filter", "--in", str(base), "--out", str(tmp_path / "three"),
            "--low", "2", "--high", "30", "--length", "61",
        )
        assert (tmp_path / "one.f64").read_bytes() == (tmp_path / "three.f64").read_bytes()

    @pytest.mark.parametrize("raw", ["zebra", "0", "-1"])
    @pytest.mark.parametrize("mode", ["batch", "per-packet", "stateful"])
    def test_bad_env_threads_exit_1_on_every_mode(
        self, capsys, tmp_path, monkeypatch, mode, raw
    ):
        base = tmp_path / "sig"
        gen_small(capsys, base)
        monkeypatch.setenv("STREAMFILT_THREADS", raw)
        code, out, err = run_cli(
            capsys,
            "filter", "--in", str(base), "--out", str(tmp_path / "o"),
            "--low", "2", "--high", "30", "--length", "61",
            "--mode", mode, "--packet-size", "400",
        )
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 2  # the config echo, then the error
        assert json.loads(lines[0])["threads_env"] == raw
        assert lines[1].startswith("error: ")
        assert out == ""
        assert not (tmp_path / "o.f64").exists()
        assert not (tmp_path / "o.json").exists()

    def test_bad_env_threads_exit_1_on_compare(self, capsys, tmp_path, monkeypatch):
        base = tmp_path / "sig"
        gen_small(capsys, base)
        monkeypatch.setenv("STREAMFILT_THREADS", "0")
        code, out, err = run_cli(capsys, "compare", "--a", str(base), "--b", str(base))
        assert code == 1
        assert err.splitlines()[1].startswith("error: ")
        assert out == ""


class TestCompareDeterminism:
    def test_report_bytes_do_not_depend_on_blas_or_thread_count(self, tmp_path):
        # Rows of 30000 samples: long enough for OpenBLAS to split a dot
        # product across its threads, several chunks of the Pearson kernel.
        rng = np.random.default_rng(17)
        a = rng.standard_normal((4, 30000)) * 3.0 + 1.0
        b = a + 0.3 * rng.standard_normal((4, 30000))
        info = SignalInfo.with_default_labels(600.614, 4, 30000)
        store_signal(SignalMatrix(info, a), tmp_path / "a")
        store_signal(SignalMatrix(info, b), tmp_path / "b")
        script = "import sys\nfrom streamfilt.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        reports = {}
        for blas in ("1", "2"):
            for threads in ("1", "2"):
                out = tmp_path / f"report-{blas}-{threads}.csv"
                result = run_fresh(
                    script, "compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"),
                    "--out", str(out),
                    env_overrides={"OPENBLAS_NUM_THREADS": blas, "STREAMFILT_THREADS": threads},
                )
                assert result.returncode == 0, result.stderr
                reports[blas, threads] = out.read_bytes()
        assert len(set(reports.values())) == 1
        expected = compare_channels(SignalMatrix(info, a), SignalMatrix(info, b), "x")
        lines = reports["1", "1"].decode().splitlines()[2:6]
        assert [float(line.split(",")[1]) for line in lines] == list(expected.per_channel_r)


class TestImportCost:
    def test_cli_import_loads_no_scipy(self):
        script = "import json, sys, streamfilt.cli; print(json.dumps(sorted(sys.modules)))"
        result = run_fresh(script)
        assert result.returncode == 0, result.stderr
        loaded = json.loads(result.stdout)
        assert [m for m in loaded if m.startswith("scipy")] == []
        assert "streamfilt.bench" in loaded
        assert "streamfilt.convolution" in loaded

    @pytest.mark.parametrize(
        "command", ["batch", "per-packet", "gen", "design", "compare", "sweep", "bench"]
    )
    def test_filter_run_loads_no_scipy(self, capsys, tmp_path, command):
        # Both filter routes take the FFT engine here: 991 taps on 2000
        # samples, and on packets of 400. sweep and bench time 4 repetitions,
        # so their confidence intervals need t(0.975, 3).
        base = tmp_path / "sig"
        gen_small(capsys, base)
        band = ["--low", "2", "--high", "30"]
        argv = {
            "batch": ["filter", "--in", str(base), *band, "--mode", "batch", "--out"],
            "per-packet": [
                "filter", "--in", str(base), *band, "--mode", "per-packet",
                "--packet-size", "400", "--out",
            ],
            "gen": ["gen", "--channels", "2", "--samples", "500", "--out"],
            "design": ["design", *band, "--rate", "600.614", "--out"],
            "compare": ["compare", "--a", str(base), "--b", str(base), "--out"],
            "sweep": [
                "sweep", "--in", str(base), *band, "--sizes", "400", "--reps-timing", "4",
                "--replicate", "1", "--warmup", "0", "--out-dir",
            ],
            "bench": ["bench", "--in", str(base), *band, "--reps", "4", "--warmup", "0", "--out"],
        }[command]
        modules = tmp_path / "modules.json"
        script = (
            "import json, sys\n"
            "from streamfilt.cli import main\n"
            "code = main(sys.argv[2:])\n"
            "with open(sys.argv[1], 'w') as f:\n"
            "    json.dump(sorted(sys.modules), f)\n"
            "sys.exit(code)\n"
        )
        result = run_fresh(script, str(modules), *argv, str(tmp_path / "out"))
        assert result.returncode == 0, result.stderr
        assert list(tmp_path.glob("out*"))
        loaded = json.loads(modules.read_text())
        assert "streamfilt.convolution" in loaded
        assert [m for m in loaded if m.startswith("scipy")] == []
