from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import streamfilt
from streamfilt import (
    FilterSpec,
    design_bandpass,
    filter_batch,
    load_signal,
)
from streamfilt.cli import main


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


def _run_fresh(script, *args):
    """Run script in a new interpreter that imports this checkout's streamfilt."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(streamfilt.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


class TestImportCost:
    def test_cli_import_loads_no_scipy(self):
        script = "import json, sys, streamfilt.cli; print(json.dumps(sorted(sys.modules)))"
        result = _run_fresh(script)
        assert result.returncode == 0, result.stderr
        loaded = json.loads(result.stdout)
        assert [m for m in loaded if m.startswith("scipy")] == []
        assert "streamfilt.bench" in loaded
        assert "streamfilt.convolution" in loaded

    @pytest.mark.parametrize("mode", ["batch", "per-packet"])
    def test_filter_run_loads_no_scipy(self, capsys, tmp_path, mode):
        # Both routes take the FFT engine here: 991 taps on 2000 samples,
        # and on packets of 400.
        base = tmp_path / "sig"
        gen_small(capsys, base)
        modules = tmp_path / "modules.json"
        script = (
            "import json, sys\n"
            "from streamfilt.cli import main\n"
            "code = main(sys.argv[2:])\n"
            "with open(sys.argv[1], 'w') as f:\n"
            "    json.dump(sorted(sys.modules), f)\n"
            "sys.exit(code)\n"
        )
        result = _run_fresh(
            script, str(modules),
            "filter", "--in", str(base), "--out", str(tmp_path / "out"),
            "--low", "2", "--high", "30", "--mode", mode, "--packet-size", "400",
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "out.f64").exists()
        loaded = json.loads(modules.read_text())
        assert "streamfilt.convolution" in loaded
        assert [m for m in loaded if m.startswith("scipy")] == []
