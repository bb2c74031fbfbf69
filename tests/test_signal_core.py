from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from streamfilt import (
    HeaderFormatError,
    NyquistViolationError,
    PayloadSizeError,
    SignalFileError,
    SignalFileMissingError,
    SignalInfo,
    SignalMatrix,
    SineComponent,
    SyntheticSpec,
    ValidationError,
    broadband_spec,
    default_labels,
    generate_synthetic,
    load_signal,
    load_signal_csv,
    replicate_signal,
    store_signal,
)
from streamfilt import signal_core


def _read_only(array):
    array.setflags(write=False)
    return array


def _info(rate=600.0, channels=2, samples=100):
    return SignalInfo.with_default_labels(rate, channels, samples)


class TestSignalInfo:
    def test_duration(self):
        info = _info(rate=100.0, samples=250)
        assert info.duration_s == 2.5

    def test_default_labels_width(self):
        assert default_labels(3) == ("ch00", "ch01", "ch02")
        labels = default_labels(120)
        assert labels[0] == "ch000" and labels[119] == "ch119"

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
    def test_bad_rate(self, rate):
        with pytest.raises(ValidationError):
            SignalInfo(rate, 1, 1, ("a",))

    @pytest.mark.parametrize("channels,samples", [(0, 10), (2, 0), (-1, 5)])
    def test_bad_geometry(self, channels, samples):
        with pytest.raises(ValidationError):
            SignalInfo(100.0, channels, samples, default_labels(max(channels, 1)))

    def test_label_count_mismatch(self):
        with pytest.raises(ValidationError):
            SignalInfo(100.0, 2, 10, ("only",))

    def test_duplicate_labels(self):
        with pytest.raises(ValidationError):
            SignalInfo(100.0, 2, 10, ("same", "same"))

    def test_empty_label(self):
        with pytest.raises(ValidationError):
            SignalInfo(100.0, 2, 10, ("ok", ""))


class TestSignalMatrix:
    def test_shape_must_match_info(self):
        with pytest.raises(ValidationError):
            SignalMatrix(info=_info(channels=2, samples=5), data=np.zeros((2, 6)))

    def test_rejects_non_finite(self):
        data = np.zeros((2, 5))
        data[1, 3] = np.nan
        with pytest.raises(ValidationError):
            SignalMatrix(info=_info(channels=2, samples=5), data=data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "position", [0, signal_core._FINITE_CHUNK - 1, signal_core._FINITE_CHUNK, -1]
    )
    def test_rejects_non_finite_in_any_chunk(self, bad, position):
        # Three rows of 50000 span three validation chunks; the positions
        # are the first sample, both sides of a chunk edge and the last.
        data = np.zeros((3, 50000))
        data.reshape(-1)[position] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            SignalMatrix(info=_info(channels=3, samples=50000), data=data)

    def test_validation_builds_no_record_sized_mask(self):
        # 8 x 200000 is 12.8 MB of samples, so a whole-record np.isfinite
        # mask would be 1.6 MB.
        info = _info(channels=8, samples=200000)
        data = np.ones((8, 200000))
        tracemalloc.start()
        try:
            signal_core._validated(info, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= data.size // 16

    def test_data_is_read_only(self):
        sig = SignalMatrix(info=_info(channels=1, samples=4), data=np.zeros((1, 4)))
        with pytest.raises(ValueError):
            sig.data[0, 0] = 1.0

    def test_copies_input(self):
        raw = np.zeros((1, 4))
        sig = SignalMatrix(info=_info(channels=1, samples=4), data=raw)
        raw[0, 0] = 99.0
        assert sig.data[0, 0] == 0.0

    def test_coerces_dtype(self):
        sig = SignalMatrix(info=_info(channels=1, samples=3), data=[[1, 2, 3]])
        assert sig.data.dtype == np.float64

    @pytest.mark.parametrize("build", ["generate", "replicate", "load"])
    def test_package_built_data_is_read_only(self, tmp_path, build):
        sig = generate_synthetic(broadband_spec(channel_count=2, sample_count=20, seed=1))
        if build == "replicate":
            sig = replicate_signal(sig, 3)
        elif build == "load":
            store_signal(sig, tmp_path / "rec")
            sig = load_signal(tmp_path / "rec")
        assert not sig.data.flags.writeable
        with pytest.raises(ValueError):
            sig.data[0, 0] = 1.0


class TestSyntheticSpec:
    def test_component_at_nyquist_rejected(self):
        with pytest.raises(NyquistViolationError):
            SyntheticSpec(
                info=_info(rate=100.0),
                components=(SineComponent(frequency_hz=50.0, amplitude=1.0),),
            )

    def test_negative_noise_rejected(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(info=_info(), components=(), noise_sigma=-0.1)

    def test_bad_component_frequency(self):
        with pytest.raises(ValidationError):
            SineComponent(frequency_hz=0.0, amplitude=1.0)

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.5])
    @pytest.mark.parametrize("seed", [True, 1.5, 3.0, "3", -1, 2**64])
    def test_bad_seed_rejected(self, seed, noise_sigma):
        with pytest.raises(ValidationError):
            SyntheticSpec(info=_info(), components=(), noise_sigma=noise_sigma, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        seed = 2**64 - 5
        spec = SyntheticSpec(info=_info(), components=(), noise_sigma=1.0, seed=np.uint64(seed))
        assert spec.seed == seed and type(spec.seed) is int
        plain = SyntheticSpec(info=_info(), components=(), noise_sigma=1.0, seed=seed)
        assert np.array_equal(generate_synthetic(spec).data, generate_synthetic(plain).data)


class TestGenerateSynthetic:
    def test_single_tone_matches_closed_form(self):
        # One 10 Hz unit sine at 600 Hz: sample k of channel 0 is
        # sin(2 pi 10 k / 600), no noise involved.
        spec = SyntheticSpec(
            info=_info(rate=600.0, channels=1, samples=1200),
            components=(SineComponent(frequency_hz=10.0, amplitude=1.0),),
        )
        sig = generate_synthetic(spec)
        k = np.arange(1200)
        expected = np.sin(2.0 * np.pi * 10.0 * k / 600.0)
        assert np.abs(sig.data[0] - expected).max() <= 1e-12

    def test_channel_phase_step(self):
        spec = SyntheticSpec(
            info=_info(rate=600.0, channels=3, samples=600),
            components=(
                SineComponent(
                    frequency_hz=10.0, amplitude=2.0, phase_rad=0.5, channel_phase_step_rad=0.37
                ),
            ),
        )
        sig = generate_synthetic(spec)
        k = np.arange(600)
        for ch in range(3):
            expected = 2.0 * np.sin(2.0 * np.pi * 10.0 * k / 600.0 + 0.5 + 0.37 * ch)
            assert np.abs(sig.data[ch] - expected).max() <= 1e-12

    def test_deterministic_for_seed(self):
        spec = broadband_spec(channel_count=3, sample_count=2000, seed=42)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.data, b.data)

    def test_seed_changes_noise(self):
        a = generate_synthetic(broadband_spec(channel_count=2, sample_count=500, seed=1))
        b = generate_synthetic(broadband_spec(channel_count=2, sample_count=500, seed=2))
        assert not np.array_equal(a.data, b.data)

    def test_zero_noise_is_pure_component_sum(self):
        spec_clean = broadband_spec(channel_count=2, sample_count=500, noise_sigma=0.0, seed=1)
        spec_other_seed = broadband_spec(
            channel_count=2, sample_count=500, noise_sigma=0.0, seed=999
        )
        a = generate_synthetic(spec_clean)
        b = generate_synthetic(spec_other_seed)
        # without noise the seed must not matter at all
        assert np.array_equal(a.data, b.data)

    def test_broadband_matches_textbook_sum(self):
        # Full duration, so w t reaches about 87,000 rad at 50 Hz.
        spec = broadband_spec(channel_count=3, noise_sigma=0.0)
        sig = generate_synthetic(spec)
        t = np.arange(spec.info.sample_count) / spec.info.sampling_rate_hz
        for ch in range(3):
            expected = np.zeros(spec.info.sample_count)
            for comp in spec.components:
                phase = comp.phase_rad + ch * comp.channel_phase_step_rad
                expected += comp.amplitude * np.sin(2.0 * np.pi * comp.frequency_hz * t + phase)
            assert np.abs(sig.data[ch] - expected).max() <= 1e-10

    def test_no_components_is_scaled_standard_normal(self):
        info = _info(channels=3, samples=1001)
        sig = generate_synthetic(SyntheticSpec(info=info, components=(), noise_sigma=0.7, seed=5))
        rng = np.random.Generator(np.random.PCG64(5))
        assert np.array_equal(sig.data, 0.7 * rng.standard_normal((3, 1001)))

    @pytest.mark.parametrize("block_bytes", [1000, 10**9])
    def test_bytes_independent_of_block_size(self, monkeypatch, block_bytes):
        # 5 channels take blocks of 832 columns by default: 12 whole blocks
        # and a 37-column tail. 1000 bytes gives 64-column blocks, 10**9 one
        # block for the whole record.
        spec = broadband_spec(channel_count=5, sample_count=12 * 832 + 37, seed=4)
        default = generate_synthetic(spec).data
        monkeypatch.setattr(signal_core, "_SYNTH_BLOCK_BYTES", block_bytes)
        assert np.array_equal(generate_synthetic(spec).data, default)

    def test_bytes_independent_of_blas_threads(self):
        script = (
            "import streamfilt as sf\n"
            "spec = sf.broadband_spec(sample_count=20000, seed=9)\n"
            "print(sf.checksum_matrix(sf.generate_synthetic(spec).data))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(signal_core.__file__)))
        sums = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            result = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            sums.append(result.stdout.strip())
        assert len(sums[0]) == 8 and sums[0] == sums[1]

    @pytest.mark.parametrize(
        "spec",
        [
            broadband_spec(channel_count=8, sample_count=100000, seed=2),
            SyntheticSpec(
                info=_info(rate=600.614, channels=2, samples=100000),
                components=tuple(
                    SineComponent(frequency_hz=1.0 + 2.5 * i, amplitude=1.0, phase_rad=0.1 * i)
                    for i in range(100)
                ),
                noise_sigma=0.5,
                seed=2,
            ),
        ],
        ids=["broadband", "100-components"],
    )
    def test_peak_memory_near_record_size(self, spec):
        # The second case would need a 2 x 100 x 100000 basis, 100 times
        # the record, if the basis spanned the whole record.
        tracemalloc.start()
        try:
            sig = generate_synthetic(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * sig.data.nbytes

    def test_broadband_default_geometry(self):
        spec = broadband_spec()
        assert spec.info.channel_count == 59
        assert spec.info.sample_count == 166800
        assert spec.info.sampling_rate_hz == 600.614
        assert abs(spec.info.duration_s - 277.7) < 0.1


class TestReplicate:
    def test_tiles_time_axis(self):
        sig = generate_synthetic(broadband_spec(channel_count=2, sample_count=300, seed=5))
        rep = replicate_signal(sig, 3)
        assert rep.info.sample_count == 900
        assert np.array_equal(rep.data[:, :300], sig.data)
        assert np.array_equal(rep.data[:, 300:600], sig.data)
        assert np.array_equal(rep.data[:, 600:], sig.data)

    def test_factor_one_is_identity(self):
        sig = generate_synthetic(broadband_spec(channel_count=1, sample_count=50, seed=5))
        assert replicate_signal(sig, 1) is sig

    def test_bad_factor(self):
        sig = generate_synthetic(broadband_spec(channel_count=1, sample_count=50, seed=5))
        with pytest.raises(ValidationError):
            replicate_signal(sig, 0)

    @pytest.mark.parametrize("factor", [10**15, 10**17], ids=["memory", "size"])
    def test_too_large_to_allocate(self, factor):
        sig = generate_synthetic(broadband_spec(channel_count=2, sample_count=50, seed=5))
        with pytest.raises(ValidationError, match=f"2 channels x {50 * factor} samples"):
            replicate_signal(sig, factor)


class TestChannelBlocks:
    @pytest.mark.parametrize(
        "channels,samples,limit,expected",
        [
            (59, 166800, 2**22, [(0, 20), (20, 40), (40, 59)]),
            (4, 1000, 2**22, [(0, 4)]),
            (5, 100, 200, [(0, 2), (2, 4), (4, 5)]),
            (3, 100, 100, [(0, 1), (1, 2), (2, 3)]),
            (3, 1000, 100, [(0, 1), (1, 2), (2, 3)]),  # a channel beyond the limit
        ],
    )
    def test_fewest_equal_blocks(self, monkeypatch, channels, samples, limit, expected):
        monkeypatch.setattr(signal_core, "_BLOCK_CHANNEL_SAMPLES", limit)
        assert signal_core.channel_blocks(_info(channels=channels, samples=samples)) == expected


class TestBlockReadWrite:
    def test_blocks_read_back_the_stored_rows(self, tmp_path):
        sig = generate_synthetic(broadband_spec(channel_count=5, sample_count=300, seed=4))
        store_signal(sig, tmp_path / "rec")
        with signal_core.SignalReader(tmp_path / "rec") as reader:
            assert reader.info == sig.info
            for start, stop in [(0, 2), (2, 5), (4, 5), (0, 5)]:
                block = reader.read(start, stop)
                assert np.array_equal(block.data, sig.data[start:stop])
                assert block.info.channel_labels == sig.info.channel_labels[start:stop]
                assert not block.data.flags.writeable

    def test_read_into_a_buffer_equals_a_fresh_read(self, tmp_path):
        sig = generate_synthetic(broadband_spec(channel_count=5, sample_count=300, seed=4))
        store_signal(sig, tmp_path / "rec")
        buffer = np.empty((2, 300))
        with signal_core.SignalReader(tmp_path / "rec") as reader:
            for start, stop in [(0, 2), (2, 4), (4, 5)]:
                view = buffer[: stop - start]
                block = reader.read(start, stop, view)
                assert block.data.tobytes() == reader.read(start, stop).data.tobytes()
                assert block.info == reader.read(start, stop).info
                assert np.shares_memory(block.data, view)
                assert not block.data.flags.writeable
                assert buffer.flags.writeable and view.flags.writeable

    @pytest.mark.parametrize(
        "out",
        [
            np.empty((2, 301)),
            np.empty((3, 300)),
            np.empty((2, 300), dtype=np.float32),
            np.empty((2, 300), dtype=">f8"),
            np.empty((2, 600))[:, ::2],
            np.empty((300, 2)).T,
            np.zeros((2, 300)).tolist(),
            _read_only(np.empty((2, 300))),
        ],
        ids=[
            "columns", "rows", "float32", "big-endian", "strided", "fortran", "list",
            "read-only",
        ],
    )
    def test_read_rejects_a_bad_buffer(self, tmp_path, out):
        sig = generate_synthetic(broadband_spec(channel_count=3, sample_count=300))
        store_signal(sig, tmp_path / "rec")
        with signal_core.SignalReader(tmp_path / "rec") as reader:
            with pytest.raises(ValidationError, match="out"):
                reader.read(0, 2, out)

    @pytest.mark.parametrize("start,stop", [(-1, 2), (2, 2), (3, 2), (0, 6)])
    def test_read_outside_the_record_rejected(self, tmp_path, start, stop):
        sig = generate_synthetic(broadband_spec(channel_count=5, sample_count=30, seed=4))
        store_signal(sig, tmp_path / "rec")
        with signal_core.SignalReader(tmp_path / "rec") as reader:
            with pytest.raises(ValidationError):
                reader.read(start, stop)

    def test_block_writes_equal_one_store(self, tmp_path):
        sig = generate_synthetic(broadband_spec(channel_count=5, sample_count=300, seed=4))
        store_signal(sig, tmp_path / "whole")
        with signal_core.signal_writer(tmp_path / "blocks", sig.info) as write:
            for start, stop in [(0, 1), (1, 3), (3, 5)]:
                write(sig.data[start:stop])
        for suffix in (".f64", ".json"):
            whole = (tmp_path / ("whole" + suffix)).read_bytes()
            assert (tmp_path / ("blocks" + suffix)).read_bytes() == whole

    @pytest.mark.parametrize("rows", [(2, 300), (6, 300), (1, 299)])
    def test_writer_rejects_rows_that_do_not_fit(self, tmp_path, rows):
        info = _info(channels=5, samples=300)
        with pytest.raises(ValidationError):
            with signal_core.signal_writer(tmp_path / "o", info) as write:
                write(np.zeros((4, 300)))
                write(np.zeros(rows))
        assert os.listdir(tmp_path) == []

    def test_writer_leaves_nothing_when_short_or_failing(self, tmp_path):
        info = _info(channels=3, samples=10)
        with pytest.raises(ValidationError, match="wrote 2 of 3"):
            with signal_core.signal_writer(tmp_path / "o", info) as write:
                write(np.zeros((2, 10)))
        with pytest.raises(RuntimeError):
            with signal_core.signal_writer(tmp_path / "o", info) as write:
                write(np.zeros((2, 10)))
                raise RuntimeError("stop")
        assert os.listdir(tmp_path) == []


class TestStoreLoad:
    def test_round_trip_bit_exact(self, tmp_path):
        sig = generate_synthetic(broadband_spec(channel_count=3, sample_count=777, seed=9))
        base = tmp_path / "rec"
        store_signal(sig, base)
        back = load_signal(base)
        assert back.info == sig.info
        assert np.array_equal(back.data, sig.data)

    def test_payload_is_exactly_8_bytes_per_sample(self, tmp_path):
        info = SignalInfo.with_default_labels(600.614, 59, 166800)
        sig = SignalMatrix(info=info, data=np.zeros((59, 166800)))
        base = tmp_path / "big"
        store_signal(sig, base)
        assert os.path.getsize(base.with_suffix(".f64")) == 59 * 166800 * 8 == 78729600

    def test_header_fields(self, tmp_path):
        sig = generate_synthetic(broadband_spec(channel_count=2, sample_count=10, seed=1))
        store_signal(sig, tmp_path / "rec")
        header = json.loads((tmp_path / "rec.json").read_text())
        assert header["format_version"] == 1
        assert header["sampling_rate_hz"] == 600.614
        assert header["channel_count"] == 2
        assert header["sample_count"] == 10
        assert header["channel_labels"] == ["ch00", "ch01"]

    def test_accepts_suffixed_paths(self, tmp_path):
        sig = generate_synthetic(broadband_spec(channel_count=1, sample_count=10, seed=1))
        store_signal(sig, tmp_path / "rec.json")
        back = load_signal(tmp_path / "rec.f64")
        assert np.array_equal(back.data, sig.data)

    def test_missing_header(self, tmp_path):
        with pytest.raises(SignalFileMissingError):
            load_signal(tmp_path / "nope")

    def test_missing_payload(self, tmp_path):
        sig = generate_synthetic(broadband_spec(channel_count=1, sample_count=10, seed=1))
        store_signal(sig, tmp_path / "rec")
        os.unlink(tmp_path / "rec.f64")
        with pytest.raises(SignalFileMissingError):
            load_signal(tmp_path / "rec")

    def test_corrupt_header(self, tmp_path):
        (tmp_path / "rec.json").write_text("{not json")
        with pytest.raises(HeaderFormatError):
            load_signal(tmp_path / "rec")

    def test_wrong_format_version(self, tmp_path):
        sig = generate_synthetic(broadband_spec(channel_count=1, sample_count=10, seed=1))
        store_signal(sig, tmp_path / "rec")
        header = json.loads((tmp_path / "rec.json").read_text())
        header["format_version"] = 2
        (tmp_path / "rec.json").write_text(json.dumps(header))
        with pytest.raises(HeaderFormatError):
            load_signal(tmp_path / "rec")

    def test_missing_header_field(self, tmp_path):
        sig = generate_synthetic(broadband_spec(channel_count=1, sample_count=10, seed=1))
        store_signal(sig, tmp_path / "rec")
        header = json.loads((tmp_path / "rec.json").read_text())
        del header["sample_count"]
        (tmp_path / "rec.json").write_text(json.dumps(header))
        with pytest.raises(HeaderFormatError):
            load_signal(tmp_path / "rec")

    def test_truncated_payload(self, tmp_path):
        sig = generate_synthetic(broadband_spec(channel_count=1, sample_count=10, seed=1))
        store_signal(sig, tmp_path / "rec")
        payload = (tmp_path / "rec.f64").read_bytes()
        (tmp_path / "rec.f64").write_bytes(payload[:-8])
        with pytest.raises(PayloadSizeError):
            load_signal(tmp_path / "rec")

    @pytest.mark.parametrize("extra", [-8, 8], ids=["short", "long"])
    def test_payload_size_checked_before_allocation(self, tmp_path, monkeypatch, extra):
        sig = generate_synthetic(broadband_spec(channel_count=1, sample_count=10, seed=1))
        store_signal(sig, tmp_path / "rec")
        payload = (tmp_path / "rec.f64").read_bytes()
        damaged = payload[:extra] if extra < 0 else payload + bytes(extra)
        (tmp_path / "rec.f64").write_bytes(damaged)

        def no_read(*args):
            raise AssertionError("payload read before the size check")

        monkeypatch.setattr(signal_core.SignalReader, "read", no_read)
        with pytest.raises(PayloadSizeError):
            load_signal(tmp_path / "rec")

    def test_non_finite_payload_rejected(self, tmp_path):
        sig = generate_synthetic(broadband_spec(channel_count=2, sample_count=10, seed=1))
        store_signal(sig, tmp_path / "rec")
        data = np.fromfile(tmp_path / "rec.f64", dtype="<f8")
        data[13] = np.nan
        data.tofile(tmp_path / "rec.f64")
        with pytest.raises(ValidationError):
            load_signal(tmp_path / "rec")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("channel_count", 3.7),
            ("channel_count", 1.0),
            ("channel_count", "1"),
            ("channel_count", True),
            ("sample_count", 3.7),
            ("sample_count", "100"),
            ("sample_count", True),
            ("sampling_rate_hz", "600.614"),
            ("sampling_rate_hz", True),
            ("sampling_rate_hz", None),
            ("sampling_rate_hz", math.inf),
            pytest.param("sampling_rate_hz", 10**400, id="sampling_rate_hz-huge-int"),
        ],
    )
    def test_header_field_types_are_exact(self, tmp_path, field, value):
        sig = generate_synthetic(broadband_spec(channel_count=1, sample_count=100, seed=1))
        store_signal(sig, tmp_path / "rec")
        header = json.loads((tmp_path / "rec.json").read_text())
        header[field] = value
        (tmp_path / "rec.json").write_text(json.dumps(header))
        with pytest.raises(HeaderFormatError):
            load_signal(tmp_path / "rec")

    @pytest.mark.parametrize("labels", ["ab", {"a": 1, "b": 2}, [1, 2]], ids=repr)
    def test_channel_labels_must_be_a_list_of_strings(self, tmp_path, labels):
        sig = generate_synthetic(broadband_spec(channel_count=2, sample_count=10, seed=1))
        store_signal(sig, tmp_path / "rec")
        header = json.loads((tmp_path / "rec.json").read_text())
        header["channel_labels"] = labels
        (tmp_path / "rec.json").write_text(json.dumps(header))
        with pytest.raises(HeaderFormatError, match="channel_labels"):
            load_signal(tmp_path / "rec")

    def test_integer_rate_accepted(self, tmp_path):
        sig = generate_synthetic(broadband_spec(channel_count=1, sample_count=10, seed=1))
        store_signal(sig, tmp_path / "rec")
        header = json.loads((tmp_path / "rec.json").read_text())
        header["sampling_rate_hz"] = 600
        (tmp_path / "rec.json").write_text(json.dumps(header))
        assert load_signal(tmp_path / "rec").info.sampling_rate_hz == 600.0

    def test_invalid_geometry_in_header(self, tmp_path):
        sig = generate_synthetic(broadband_spec(channel_count=1, sample_count=10, seed=1))
        store_signal(sig, tmp_path / "rec")
        header = json.loads((tmp_path / "rec.json").read_text())
        header["channel_count"] = 0
        header["channel_labels"] = []
        (tmp_path / "rec.json").write_text(json.dumps(header))
        with pytest.raises(ValidationError):
            load_signal(tmp_path / "rec")


class TestCsvImport:
    def test_reads_columns_as_channels(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("left,right\n1.0,4.0\n2.0,5.0\n3.0,6.0\n")
        sig = load_signal_csv(path, sampling_rate_hz=250.0)
        assert sig.info.channel_labels == ("left", "right")
        assert sig.info.sampling_rate_hz == 250.0
        assert np.array_equal(sig.data, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(SignalFileMissingError):
            load_signal_csv(tmp_path / "nope.csv", 100.0)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(SignalFileError):
            load_signal_csv(path, 100.0)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("a,b\n1.0,x\n")
        with pytest.raises(SignalFileError):
            load_signal_csv(path, 100.0)

    def test_no_sample_rows(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("a,b\n")
        with pytest.raises(SignalFileError):
            load_signal_csv(path, 100.0)
