from __future__ import annotations

import os
import threading
import time
import tracemalloc
import warnings
from signal import SIGKILL
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamfilt import _threads, filtering
from streamfilt import (
    MODE_NAMES,
    Batch,
    FilterSpec,
    FirKernel,
    PacketPlan,
    PerPacket,
    StatefulStream,
    ValidationError,
    apply_mode,
    design_bandpass,
    filter_batch,
    filter_per_packet,
    filter_stateful_stream,
    mode_from_name,
    packetize,
)
from streamfilt.convolution import METHODS, convolve_reflected, convolve_valid, reflect_pad

from conftest import make_signal


def _random_signal(channels, samples, seed, rate=600.614):
    rng = np.random.default_rng(seed)
    return make_signal(rng.standard_normal((channels, samples)), rate=rate)


def _identity_kernel(rate=600.614):
    return FirKernel(taps=np.array([1.0]), spec=FilterSpec(2.0, 30.0, rate))


def _read_only(array):
    array.setflags(write=False)
    return array


def _small_kernel(length=31, rate=600.614):
    return design_bandpass(FilterSpec(2.0, 30.0, rate, length_override=length))


class TestPacketPlan:
    def test_total_and_chunks(self):
        plan = PacketPlan(packet_size_samples=400, packet_count=3, tail_size_samples=150)
        assert plan.total_samples() == 1350
        assert plan.chunk_count() == 4
        assert list(plan.slices()) == [(0, 400), (400, 800), (800, 1200), (1200, 1350)]

    def test_no_tail(self):
        plan = PacketPlan(packet_size_samples=100, packet_count=2, tail_size_samples=0)
        assert plan.chunk_count() == 2
        assert list(plan.slices()) == [(0, 100), (100, 200)]

    def test_tail_must_be_shorter_than_packet(self):
        with pytest.raises(ValidationError):
            PacketPlan(packet_size_samples=100, packet_count=1, tail_size_samples=100)

    @pytest.mark.parametrize("size,count", [(0, 1), (100, 0)])
    def test_positive_fields(self, size, count):
        with pytest.raises(ValidationError):
            PacketPlan(packet_size_samples=size, packet_count=count, tail_size_samples=0)

    @pytest.mark.parametrize("field", ["packet_size_samples", "packet_count", "tail_size_samples"])
    @pytest.mark.parametrize("value", [400.5, 2.0, True, "3"], ids=repr)
    def test_fields_must_be_integers(self, field, value):
        fields = dict(packet_size_samples=400, packet_count=3, tail_size_samples=1)
        fields[field] = value
        with pytest.raises(ValidationError, match=field):
            PacketPlan(**fields)

    def test_numpy_integers_become_ints(self):
        plan = PacketPlan(np.int64(400), np.int32(3), np.uint8(150))
        assert plan == PacketPlan(400, 3, 150)
        assert all(type(v) is int for v in vars(plan).values())


class TestPacketize:
    @pytest.mark.parametrize(
        "packet_size,count,tail",
        [
            (400, 417, 0),
            (200, 834, 0),
            (1200, 139, 0),
            (991, 168, 312),
            (300, 556, 0),
        ],
    )
    def test_full_record_counts(self, packet_size, count, tail):
        signal = make_signal(np.zeros((1, 166800)))
        plan = packetize(signal, packet_size)
        assert plan.packet_count == count
        assert plan.tail_size_samples == tail
        assert plan.total_samples() == 166800

    def test_oversized_packet_clamps_to_whole_record(self):
        signal = make_signal(np.zeros((1, 500)))
        plan = packetize(signal, 1200)
        assert plan == PacketPlan(packet_size_samples=500, packet_count=1, tail_size_samples=0)

    def test_bad_size(self):
        with pytest.raises(ValidationError):
            packetize(make_signal(np.zeros((1, 10))), 0)

    @pytest.mark.parametrize("size", [400.5, 400.0, True, "400", None], ids=repr)
    def test_non_integer_size_raises(self, size):
        with pytest.raises(ValidationError, match="packet_size must be an integer"):
            packetize(make_signal(np.zeros((1, 1000))), size)

    def test_numpy_integer_size(self):
        plan = packetize(make_signal(np.zeros((1, 1000))), np.int64(400))
        assert plan == PacketPlan(400, 2, 200)
        assert type(plan.packet_size_samples) is int


class TestIdentityKernel:
    def test_batch_returns_input_bitwise(self):
        sig = _random_signal(3, 500, seed=0)
        out = filter_batch(sig, _identity_kernel(), method="direct")
        assert np.array_equal(out.data, sig.data)

    def test_per_packet_returns_input_bitwise(self):
        sig = _random_signal(3, 500, seed=1)
        out = filter_per_packet(sig, _identity_kernel(), packetize(sig, 130))
        assert np.array_equal(out.data, sig.data)

    def test_stateful_returns_input_bitwise(self):
        sig = _random_signal(3, 500, seed=2)
        out = filter_stateful_stream(sig, _identity_kernel(), packetize(sig, 130))
        assert np.array_equal(out.data, sig.data)


class TestFilterBatch:
    def test_matches_manual_reflect_pad_convolve(self):
        sig = _random_signal(2, 300, seed=3)
        kernel = _small_kernel(31)
        delay = kernel.group_delay_samples
        out = filter_batch(sig, kernel, method="direct")
        for ch in range(2):
            padded = np.pad(sig.data[ch], delay, mode="reflect")
            expected = np.convolve(padded, kernel.taps, mode="valid")
            assert np.array_equal(out.data[ch], expected)

    def test_fft_agrees_with_direct(self):
        sig = _random_signal(3, 4000, seed=4)
        kernel = _small_kernel(201)
        direct = filter_batch(sig, kernel, method="direct")
        fft = filter_batch(sig, kernel, method="fft")
        scale = np.abs(direct.data).max()
        assert np.abs(fft.data - direct.data).max() <= 1e-12 * max(scale, 1.0)

    def test_fft_agrees_with_direct_on_long_input(self):
        # long enough to push the fft engine into overlap-save blocks
        sig = _random_signal(2, 120000, seed=5)
        kernel = _small_kernel(991)
        direct = filter_batch(sig, kernel, method="direct")
        fft = filter_batch(sig, kernel, method="fft")
        scale = np.abs(direct.data).max()
        assert np.abs(fft.data - direct.data).max() <= 1e-12 * max(scale, 1.0)

    def test_preserves_length_even_when_shorter_than_kernel(self):
        kernel = _small_kernel(99)
        for samples in (1, 5, 50, 98, 99, 100):
            sig = _random_signal(1, samples, seed=samples)
            out = filter_batch(sig, kernel)
            assert out.data.shape == (1, samples)
            assert np.isfinite(out.data).all()

    def test_threads_env_variable(self, monkeypatch):
        sig = _random_signal(4, 1000, seed=7)
        kernel = _small_kernel(61)
        base = filter_batch(sig, kernel, n_threads=1)
        monkeypatch.setenv("STREAMFILT_THREADS", "3")
        assert np.array_equal(filter_batch(sig, kernel).data, base.data)
        monkeypatch.setenv("STREAMFILT_THREADS", "zebra")
        with pytest.raises(ValidationError):
            filter_batch(sig, kernel)

    def test_rate_mismatch_rejected(self):
        sig = _random_signal(1, 100, seed=8, rate=500.0)
        with pytest.raises(ValidationError):
            filter_batch(sig, _small_kernel(31, rate=600.614))

    def test_linearity(self):
        kernel = _small_kernel(61)
        x = _random_signal(2, 800, seed=9)
        y = _random_signal(2, 800, seed=10)
        mixed = make_signal(2.5 * x.data - 0.75 * y.data)
        fx = filter_batch(x, kernel).data
        fy = filter_batch(y, kernel).data
        fmixed = filter_batch(mixed, kernel).data
        assert np.abs(fmixed - (2.5 * fx - 0.75 * fy)).max() <= 1e-9


class TestFilterPerPacket:
    def test_each_packet_filtered_independently(self):
        sig = _random_signal(2, 1000, seed=11)
        kernel = _small_kernel(31)
        plan = packetize(sig, 300)
        out = filter_per_packet(sig, kernel, plan, method="direct")
        for start, stop in plan.slices():
            piece = make_signal(sig.data[:, start:stop])
            expected = filter_batch(piece, kernel, method="direct")
            assert np.array_equal(out.data[:, start:stop], expected.data)

    def test_differs_from_batch_at_boundaries(self):
        sig = _random_signal(1, 2000, seed=12)
        kernel = _small_kernel(201)
        plan = packetize(sig, 400)
        per_packet = filter_per_packet(sig, kernel, plan)
        batch = filter_batch(sig, kernel)
        assert np.abs(per_packet.data - batch.data).max() > 1e-6

    def test_tail_shorter_than_kernel(self):
        # 1000 samples at packet 991 leaves a 9 sample tail, far below the
        # kernel length; the reflection wraps and the output stays aligned
        sig = _random_signal(2, 1000, seed=13)
        kernel = _small_kernel(99)
        out = filter_per_packet(sig, kernel, packetize(sig, 991))
        assert out.data.shape == (2, 1000)
        assert np.isfinite(out.data).all()

    # Generated plans hold 1-sample packets, tails, and packets both shorter
    # than the group delay (the reflection wraps) and longer. The examples add
    # packets longer than two overlap-save blocks of 4096 columns, and a tail.
    @settings(max_examples=60, deadline=None)
    @given(
        channels=st.integers(1, 4),
        samples=st.integers(1, 1200),
        packet=st.one_of(st.just(1), st.integers(1, 400)),
        length=st.sampled_from([1, 31, 99]),
        method=st.sampled_from(METHODS),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(channels=2, samples=20000, packet=9000, length=31, method="fft", seed=0)
    @example(channels=2, samples=20000, packet=9000, length=99, method="auto", seed=1)
    @example(channels=1, samples=1000, packet=1, length=99, method="fft", seed=2)
    def test_bitwise_equal_to_one_call_per_packet(
        self, channels, samples, packet, length, method, seed
    ):
        sig = _random_signal(channels, samples, seed)
        kernel = _identity_kernel() if length == 1 else _small_kernel(length)
        plan = packetize(sig, packet)
        out = filter_per_packet(sig, kernel, plan, method=method)
        expected = np.empty_like(sig.data)
        for start, stop in plan.slices():
            convolve_reflected(
                sig.data[:, start:stop],
                kernel.taps,
                kernel.group_delay_samples,
                expected[:, start:stop],
                method,
            )
        assert np.array_equal(out.data, expected)
        # And against np.pad and np.convolve, which share no code with the engine.
        delay = kernel.group_delay_samples
        oracle = np.concatenate(
            [
                np.array(
                    [np.convolve(np.pad(row, delay, mode="reflect"), kernel.taps, "valid")
                     for row in sig.data[:, start:stop]]
                )
                for start, stop in plan.slices()
            ],
            axis=1,
        )
        if method == "direct":
            assert np.array_equal(out.data, oracle)
        assert np.abs(out.data - oracle).max() <= 1e-12 * max(np.abs(oracle).max(), 1.0)

    def test_plan_must_cover_signal(self):
        sig = _random_signal(1, 1000, seed=14)
        other = packetize(_random_signal(1, 900, seed=0), 100)
        with pytest.raises(ValidationError):
            filter_per_packet(sig, _small_kernel(31), other)


class TestFilterStatefulStream:
    def test_bitwise_equal_to_direct_batch(self):
        sig = _random_signal(3, 2500, seed=15)
        kernel = _small_kernel(201)
        batch = filter_batch(sig, kernel, method="direct")
        for packet_size in (100, 201, 500, 2500, 7777):
            out = filter_stateful_stream(sig, kernel, packetize(sig, packet_size))
            assert np.array_equal(out.data, batch.data)

    def test_bitwise_invariant_across_plans(self):
        sig = _random_signal(2, 3000, seed=16)
        kernel = _small_kernel(99)
        outputs = [
            filter_stateful_stream(sig, kernel, packetize(sig, size)).data
            for size in (37, 100, 991, 3000)
        ]
        for other in outputs[1:]:
            assert np.array_equal(outputs[0], other)

    def test_packets_shorter_than_kernel(self):
        sig = _random_signal(1, 400, seed=17)
        kernel = _small_kernel(99)
        batch = filter_batch(sig, kernel, method="direct")
        out = filter_stateful_stream(sig, kernel, packetize(sig, 10))
        assert np.array_equal(out.data, batch.data)

    def test_single_packet_plan(self):
        sig = _random_signal(1, 600, seed=18)
        kernel = _small_kernel(61)
        out = filter_stateful_stream(sig, kernel, packetize(sig, 600))
        assert np.array_equal(out.data, filter_batch(sig, kernel, method="direct").data)

    # Records shorter than the kernel, 1-sample packets, tails and packets
    # longer than the record (one whole-record packet) all come up.
    @settings(max_examples=150, deadline=None)
    @given(
        channels=st.integers(1, 3),
        samples=st.integers(1, 3000),
        length=st.integers(1, 100).map(lambda half: 2 * half + 1),
        packet=st.one_of(st.just(1), st.integers(1, 3100)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(channels=2, samples=50, length=201, packet=7, seed=0)
    @example(channels=1, samples=1, length=3, packet=1, seed=1)
    @example(channels=3, samples=3000, length=201, packet=3001, seed=2)
    def test_any_packetization_bitwise_equals_direct_batch(
        self, channels, samples, length, packet, seed
    ):
        sig = _random_signal(channels, samples, seed)
        kernel = _small_kernel(length)
        out = filter_stateful_stream(sig, kernel, packetize(sig, packet))
        assert np.array_equal(out.data, filter_batch(sig, kernel, method="direct").data)

    # The same ranges, on a record whose samples arrive with the packets:
    # each packet is written into the record when the stream asks for it,
    # and until then its samples are NaN, which a read would carry into the
    # output. So no output may depend on a sample after the packet that
    # made it ready: after the packet that ends at stop, outputs
    # [0, stop - delay) must already be those of the whole record.
    @settings(max_examples=150, deadline=None)
    @given(
        channels=st.integers(1, 3),
        samples=st.integers(1, 3000),
        length=st.integers(1, 100).map(lambda half: 2 * half + 1),
        packet=st.one_of(st.just(1), st.integers(1, 3100)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(channels=2, samples=50, length=201, packet=7, seed=0)
    @example(channels=1, samples=3000, length=201, packet=400, seed=1)
    @example(channels=3, samples=3000, length=3, packet=1, seed=2)
    def test_outputs_do_not_depend_on_later_samples(
        self, channels, samples, length, packet, seed
    ):
        sig = _random_signal(channels, samples, seed)
        kernel = _small_kernel(length)
        plan = packetize(sig, packet)
        expected = filter_stateful_stream(sig, kernel, plan).data
        live = make_signal(np.zeros((channels, samples)))
        live.data.setflags(write=True)
        live.data[...] = np.nan
        out = np.full((channels, samples), np.nan)

        def arrive():
            for start, stop in plan.slices():
                live.data[:, start:stop] = sig.data[:, start:stop]
                yield start, stop
                ready = max(stop - kernel.group_delay_samples, 0)
                assert np.array_equal(out[:, :ready], expected[:, :ready])

        arriving = SimpleNamespace(total_samples=plan.total_samples, slices=arrive)
        filter_stateful_stream(live, kernel, arriving, n_threads=1, out=out)
        assert np.array_equal(out, expected)


class TestPreallocatedOutput:
    # 3 x 40000 spans several overlap-save blocks, 2 x 1500 takes the single
    # transform, and 2 x 400 is no longer than the group delay of 495.
    @pytest.mark.parametrize("channels,samples", [(3, 40000), (2, 1500), (2, 400)])
    def test_batch_fft_bitwise_equal_to_padded_record(self, standard_kernel, channels, samples):
        sig = _random_signal(channels, samples, seed=samples)
        delay = standard_kernel.group_delay_samples
        expected = convolve_valid(reflect_pad(sig.data, delay), standard_kernel.taps, "fft")
        out = filter_batch(sig, standard_kernel, method="fft")
        assert np.array_equal(out.data, expected)

    @pytest.mark.parametrize(
        "route,limit",
        [
            ("batch", 1.7),
            ("batch-2-threads", 1.7),
            ("per-packet", 1.25),
            ("per-packet-2-threads", 1.25),
            ("stateful", 1.25),
            ("stateful-2-threads", 1.25),
        ],
    )
    def test_peak_memory_near_one_output(self, standard_kernel, route, limit):
        # 8 x 100000 takes the blocked FFT path. A route that pads the whole
        # record or concatenates a list of parts peaks above 2x the output.
        sig = _random_signal(8, 100000, seed=21)
        plan = packetize(sig, 400)
        run = {
            "batch": lambda: filter_batch(sig, standard_kernel),
            "batch-2-threads": lambda: filter_batch(sig, standard_kernel, n_threads=2),
            "per-packet": lambda: filter_per_packet(sig, standard_kernel, plan),
            "per-packet-2-threads": lambda: filter_per_packet(
                sig, standard_kernel, plan, n_threads=2
            ),
            "stateful": lambda: filter_stateful_stream(sig, standard_kernel, plan),
            "stateful-2-threads": lambda: filter_stateful_stream(
                sig, standard_kernel, plan, n_threads=2
            ),
        }[route]
        run()  # warm-up: numpy.fft's plan cache is not part of the route
        tracemalloc.start()
        try:
            out = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * out.data.nbytes


class TestThreads:
    # Widths up to 1500 keep every example fast; the explicit 20000-sample
    # example takes the blocked FFT path. Packets of 1 sample, tails and
    # packets shorter than the kernel all come up. Thread counts above the
    # channel count are capped, so 3 threads on 1 channel runs 1. The 59
    # channel examples are live packets (the median and the shortest
    # size), which n_threads=None splits on more than one CPU.
    @settings(max_examples=40, deadline=None)
    @given(
        channels=st.integers(1, 9),
        samples=st.integers(1, 1500),
        packet=st.one_of(st.just(1), st.integers(1, 150)),
        length=st.sampled_from([1, 31, 99]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(channels=3, samples=20000, packet=4500, length=99, seed=0)
    @example(channels=59, samples=528, packet=400, length=99, seed=1)
    @example(channels=59, samples=32, packet=32, length=99, seed=2)
    def test_thread_count_does_not_change_output(self, channels, samples, packet, length, seed):
        sig = _random_signal(channels, samples, seed)
        kernel = _identity_kernel() if length == 1 else _small_kernel(length)
        plan = packetize(sig, packet)
        routes = [
            lambda n: filter_batch(sig, kernel, n_threads=n),
            lambda n: filter_batch(sig, kernel, method="fft", n_threads=n),
            lambda n: filter_batch(sig, kernel, method="direct", n_threads=n),
            lambda n: filter_per_packet(sig, kernel, plan, n_threads=n),
            lambda n: filter_stateful_stream(sig, kernel, plan, n_threads=n),
        ]
        for run in routes:
            base = run(1).data
            for threads in (None, 2, 3):
                assert np.array_equal(run(threads).data, base)

    @staticmethod
    def _routes(sig, kernel, packet, n_threads=None):
        plan = packetize(sig, packet)
        return {
            "batch": lambda: filter_batch(sig, kernel, n_threads=n_threads),
            "per-packet": lambda: filter_per_packet(sig, kernel, plan, n_threads=n_threads),
            "stateful": lambda: filter_stateful_stream(sig, kernel, plan, n_threads=n_threads),
        }

    @staticmethod
    def _above_floor():
        return _random_signal(2, _threads._MIN_THREADED_WORK // 2, seed=30)

    def test_live_packet_splits_on_one_pool(self, pools, standard_kernel):
        sig = _random_signal(59, 1024, seed=29)
        routes = self._routes(sig, standard_kernel, 400)
        singles = self._routes(sig, standard_kernel, 400, n_threads=1)
        for route, run in routes.items():
            single = singles[route]().data
            for _ in range(3):
                assert np.array_equal(run().data, single)
        assert pools.built == [1]
        assert pools.submitted == 9
        assert len(pools.lookups) == 9

    def test_below_the_floor_stays_on_the_callers_thread(self, pools):
        # One sample short of the floor on the padded shape, 4 x (n + 30).
        sig = _random_signal(4, _threads._MIN_THREADED_WORK // 4 - 30 - 1, seed=31)
        for run in self._routes(sig, _small_kernel(31), 400).values():
            run()
        assert pools.built == []
        assert pools.submitted == 0

    def test_a_headset_of_eight_channels_stays_on_the_callers_thread(self, pools):
        # 8 x 512 is 8 x 542 padded, far below the floor.
        sig = _random_signal(8, 512, seed=34)
        for run in self._routes(sig, _small_kernel(31), 400).values():
            run()
        assert pools.built == []
        assert pools.submitted == 0

    @pytest.mark.parametrize("shape", [(2, 3000), (8, 2048), (32, 256)], ids=str)
    def test_small_calls_with_the_standard_kernel_stay_on_one_thread(
        self, pools, standard_kernel, shape
    ):
        # Split on 2 CPUs, these took 1.2-2 times as long as on one thread.
        filter_batch(_random_signal(*shape, seed=36), standard_kernel)
        assert pools.built == []
        assert pools.submitted == 0

    def test_the_shortest_split_packet_of_the_record_splits(self, pools, standard_kernel):
        # 59 x (69 + 990) is below the floor and 59 x (70 + 990) at it.
        for samples in (69, 70):
            sig = _random_signal(59, samples, seed=35)
            for run in self._routes(sig, standard_kernel, 400).values():
                run()
        assert pools.built == [1]
        assert pools.submitted == 3

    def test_every_packet_of_the_record_splits_from_70_samples(self, pools):
        for n in range(1, 1025):
            assert _threads.resolve_threads(None, (59, n + 990)) == (1 if n < 70 else 2)

    @pytest.mark.parametrize(
        "channels,work,threads",
        [
            (40, 512 + 990, 1),  # 40 channels x 512 samples, with 991 taps
            (20, 166_800 + 990, 2),  # a channel block of the default record
            (59, 166_800, 2),  # the default record, as the Pearson kernel counts it
            (1, 10**9, 1),  # capped by the channel count
        ],
    )
    def test_one_floor_on_the_work_decides(self, pools, channels, work, threads):
        assert _threads.resolve_threads(None, (channels, work)) == threads

    @pytest.mark.parametrize("route", ["batch", "per-packet", "stateful"])
    def test_above_the_floor_the_caller_and_one_worker_split(self, pools, route):
        sig = self._above_floor()
        kernel = _small_kernel(31)
        out = self._routes(sig, kernel, 65536)[route]()
        assert pools.built == [1]
        assert pools.submitted == 1
        assert len(pools.lookups) == 1
        single = self._routes(sig, kernel, 65536, n_threads=1)[route]()
        assert np.array_equal(out.data, single.data)

    def test_pool_grows_to_the_largest_call(self, pools):
        sig = _random_signal(6, 400, seed=32)
        kernel = _small_kernel(31)
        base = filter_batch(sig, kernel, n_threads=1).data
        for threads in (2, 4, 3, 2):
            assert np.array_equal(filter_batch(sig, kernel, n_threads=threads).data, base)
        assert pools.built == [1, 3]
        assert pools.submitted == 1 + 3 + 2 + 1

    def test_env_of_one_builds_no_pool(self, pools, monkeypatch):
        monkeypatch.setenv("STREAMFILT_THREADS", "1")
        filter_batch(self._above_floor(), _small_kernel(31))
        assert pools.built == []
        assert pools.lookups == []

    @pytest.mark.parametrize("cpu_count,workers", [(2, [1]), (None, [])])
    def test_fallback_without_sched_getaffinity(self, pools, monkeypatch, cpu_count, workers):
        monkeypatch.delattr(_threads.os, "sched_getaffinity")
        monkeypatch.setattr(_threads.os, "cpu_count", lambda: cpu_count)
        filter_batch(self._above_floor(), _small_kernel(31))
        assert pools.built == workers

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_a_failing_block_fails_the_call_after_every_block(self, pools, failing):
        sig = _random_signal(2, 3000, seed=33)
        finished = []

        def fill(data, out):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller == (failing == "caller"):
                raise RuntimeError(f"{failing} block")
            time.sleep(0.1)
            finished.append(True)

        with pytest.raises(RuntimeError, match=f"{failing} block"):
            filtering._filter_channel_blocks(sig, _identity_kernel(), 2, fill)
        assert finished == [True]
        assert np.array_equal(filter_batch(sig, _identity_kernel(), n_threads=2).data, sig.data)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_filters_on_its_own_pool(tmp_path, standard_kernel):
    # The parent's pool has a worker thread; a child that kept the pool
    # would hand its second block to a thread that does not exist in it.
    sig = _random_signal(59, 528, seed=41)
    expected = filter_batch(sig, standard_kernel, n_threads=2).data
    path = tmp_path / "child.f64"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            filter_batch(sig, standard_kernel, n_threads=2).data.tofile(path)
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish in 60 s")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status) == 0
    assert np.array_equal(np.fromfile(path).reshape(expected.shape), expected)


class TestKernelSpectrumCache:
    def test_kernels_of_equal_length_keep_their_own_spectra(self):
        # Both kernels have 991 taps, so every transform length is shared;
        # a cache keyed by length alone would hand one kernel's spectrum
        # to the other.
        kernels = [
            design_bandpass(FilterSpec(low, high, 600.614, length_override=991))
            for low, high in ((2.0, 30.0), (8.0, 12.0))
        ]
        sig = _random_signal(3, 528, seed=42)
        plan = packetize(sig, 200)
        uncached = []
        for kernel in kernels:
            batch = np.empty(sig.data.shape)
            convolve_reflected(sig.data, kernel.taps, kernel.group_delay_samples, batch, "fft")
            packets = np.empty(sig.data.shape)
            for start, stop in plan.slices():
                convolve_reflected(
                    sig.data[:, start:stop], kernel.taps, kernel.group_delay_samples,
                    packets[:, start:stop], "fft",
                )
            uncached.append((batch, packets))
        for _ in range(3):
            for kernel, (batch, packets) in zip(kernels, uncached):
                assert np.array_equal(filter_batch(sig, kernel, method="fft").data, batch)
                got = filter_per_packet(sig, kernel, plan, method="fft").data
                assert np.array_equal(got, packets)


@pytest.mark.parametrize("route", ["batch", "per-packet", "stateful"])
def test_route_output_is_read_only(route):
    signal = _random_signal(2, 500, seed=4)
    kernel = _small_kernel()
    plan = packetize(signal, 120)
    if route == "batch":
        out = filter_batch(signal, kernel)
    elif route == "per-packet":
        out = filter_per_packet(signal, kernel, plan)
    else:
        out = filter_stateful_stream(signal, kernel, plan)
    assert not out.data.flags.writeable
    with pytest.raises(ValueError):
        out.data[0, 0] = 1.0


class TestApplyMode:
    def test_dispatch(self):
        sig = _random_signal(2, 900, seed=19)
        kernel = _small_kernel(61)
        plan = packetize(sig, 250)
        assert np.array_equal(
            apply_mode(sig, kernel, Batch()).data, filter_batch(sig, kernel).data
        )
        assert np.array_equal(
            apply_mode(sig, kernel, PerPacket(plan)).data,
            filter_per_packet(sig, kernel, plan).data,
        )
        assert np.array_equal(
            apply_mode(sig, kernel, StatefulStream(plan)).data,
            filter_stateful_stream(sig, kernel, plan).data,
        )

    def test_describe(self):
        plan = PacketPlan(packet_size_samples=400, packet_count=2, tail_size_samples=0)
        assert Batch().describe() == "batch"
        assert PerPacket(plan).describe() == "per-packet=400"
        assert StatefulStream(plan).describe() == "stateful=400"

    def test_unknown_mode_rejected(self):
        sig = _random_signal(1, 100, seed=20)
        with pytest.raises(ValidationError):
            apply_mode(sig, _small_kernel(31), "batch")

    @pytest.mark.parametrize(
        "name,packet_size,described",
        [
            ("batch", None, "batch"),
            ("per-packet", 400, "per-packet=400"),
            ("stateful", 400, "stateful=400"),
            # A packet size beyond the record clamps to one whole-record packet.
            ("per-packet", 10**6, "per-packet=900"),
            ("stateful", 10**6, "stateful=900"),
        ],
    )
    def test_mode_from_name(self, name, packet_size, described):
        sig = _random_signal(1, 900, seed=21)
        mode = mode_from_name(name, sig, packet_size or 400)
        assert mode.name == name
        assert mode.packet_size == (None if packet_size is None else min(packet_size, 900))
        assert mode.describe() == described

    def test_mode_names_all_covered(self):
        assert MODE_NAMES == ("batch", "per-packet", "stateful")

    @pytest.mark.parametrize("name", ["bogus", "Batch", "per_packet", ""])
    def test_mode_from_name_unknown(self, name):
        with pytest.raises(ValidationError, match="unknown filter mode"):
            mode_from_name(name, _random_signal(1, 100, seed=22), 400)

    @pytest.mark.parametrize("method", ["fft", "bogus"])
    def test_stateful_rejects_other_methods(self, method):
        sig = _random_signal(2, 900, seed=23)
        kernel = _small_kernel(61)
        mode = StatefulStream(packetize(sig, 250))
        with pytest.raises(ValidationError, match="direct engine"):
            apply_mode(sig, kernel, mode, method=method)
        expected = filter_stateful_stream(sig, kernel, mode.plan).data
        for method in ("auto", "direct"):
            assert np.array_equal(apply_mode(sig, kernel, mode, method=method).data, expected)


class TestCallersOutput:
    """apply_mode(..., out=) writes the output into the caller's buffer."""

    ROUTES = [
        (mode, method)
        for mode in MODE_NAMES
        for method in METHODS
        if mode != "stateful" or method in ("auto", "direct")
    ]

    @pytest.mark.parametrize("mode,method", ROUTES)
    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_bitwise_equal_to_a_fresh_output(self, mode, method, n_threads):
        # One buffer serves records of 3 and then 2 channels, as the CLI's
        # blocks do.
        kernel = _small_kernel(61)
        buffer = np.full((3, 900), np.nan)
        for channels in (3, 2):
            sig = _random_signal(channels, 900, seed=30 + channels)
            filter_mode = mode_from_name(mode, sig, 250)
            expected = apply_mode(sig, kernel, filter_mode, method=method, n_threads=n_threads)
            out = buffer[:channels]
            got = apply_mode(
                sig, kernel, filter_mode, method=method, n_threads=n_threads, out=out
            )
            assert got.data.tobytes() == expected.data.tobytes()
            assert got.info == sig.info
            assert np.shares_memory(got.data, out)
            assert not got.data.flags.writeable
            assert buffer.flags.writeable and out.flags.writeable

    # Each bad out, made from the writable samples the signal is a view of.
    BAD_OUTS = {
        "rows": lambda samples: np.empty((3, 900)),
        "columns": lambda samples: np.empty((2, 899)),
        "float32": lambda samples: np.empty((2, 900), dtype=np.float32),
        "strided": lambda samples: np.empty((2, 1800))[:, ::2],
        "fortran": lambda samples: np.empty((900, 2)).T,
        "list": lambda samples: np.zeros((2, 900)).tolist(),
        "read-only": lambda samples: _read_only(np.empty((2, 900))),
        "the-input": lambda samples: samples[:1800].reshape(2, 900),
        "overlapping": lambda samples: samples[900:].reshape(2, 900),
    }

    @pytest.mark.parametrize("bad", BAD_OUTS)
    @pytest.mark.parametrize("mode", MODE_NAMES)
    def test_bad_out_rejected(self, bad, mode):
        # The signal is a read-only view of writable samples, as a block
        # read into the CLI's buffer is.
        samples = np.random.default_rng(34).standard_normal(2700)
        info = _random_signal(2, 900, seed=0).info
        sig = filtering.SignalMatrix._adopt(info, samples[:1800].reshape(2, 900))
        assert samples.flags.writeable
        with pytest.raises(ValidationError, match="out"):
            apply_mode(
                sig, _small_kernel(61), mode_from_name(mode, sig, 250),
                out=self.BAD_OUTS[bad](samples),
            )


class TestLengthPreservation:
    @pytest.mark.parametrize("samples", [1, 7, 100, 991, 1500])
    @pytest.mark.parametrize("packet_size", [1, 64, 400])
    def test_all_modes(self, samples, packet_size):
        sig = _random_signal(2, samples, seed=samples + packet_size)
        kernel = _small_kernel(31)
        plan = packetize(sig, packet_size)
        for mode in (Batch(), PerPacket(plan), StatefulStream(plan)):
            out = apply_mode(sig, kernel, mode)
            assert out.data.shape == sig.data.shape
            assert out.info == sig.info
