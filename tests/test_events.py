import numpy as np
import pytest

from trifuse.errors import ConfigError, FormatError, ValidationError
from trifuse.events import DEFAULT_WINDOW_S, EventStream, bin_events, read_event_file

from oracles import bin_events_loops


def _random_stream(rng, n=1000, h=24, w=32, t_max_us=2_000_000):
    t = np.sort(rng.integers(0, t_max_us, n))
    x = rng.integers(0, w, n)
    y = rng.integers(0, h, n)
    p = rng.choice([-1, 1], n)
    return EventStream(t, x, y, p, (h, w))


class TestEventStream:
    def test_unsorted_rejected_with_index(self):
        with pytest.raises(ValidationError, match="index 2"):
            EventStream([10, 20, 15], [0, 0, 0], [0, 0, 0], [1, 1, 1], (4, 4))

    def test_decrease_across_the_int64_range_rejected(self):
        # the difference of these two timestamps wraps to +1 in int64
        with pytest.raises(ValidationError, match="timestamps decrease at event index 1$"):
            EventStream([2**63 - 1, -2**63], [0, 0], [0, 0], [1, 1], (4, 4))
        with pytest.raises(ValidationError, match="timestamps decrease at event index 2$"):
            EventStream([-2**63, 0, -2**63], [0, 0, 0], [0, 0, 0], [1, 1, 1], (4, 4))
        s = EventStream([-2**63, 0, 2**63 - 1], [0, 0, 0], [0, 0, 0], [1, -1, 1], (4, 4))
        assert s.t.tolist() == [-2**63, 0, 2**63 - 1]

    def test_equal_timestamps_allowed(self):
        s = EventStream([5, 5, 5], [0, 1, 2], [0, 0, 0], [1, -1, 1], (4, 4))
        assert len(s) == 3

    def test_out_of_bounds_coordinate(self):
        with pytest.raises(ValidationError, match="x coordinate"):
            EventStream([1], [4], [0], [1], (4, 4))
        with pytest.raises(ValidationError, match="y coordinate"):
            EventStream([1], [0], [-1], [1], (4, 4))

    @pytest.mark.parametrize("size", [(-3, 4), (2.5, 4), (4, 0), (4.0, 4), (True, 4), (4,), (4, 4, 1)])
    def test_sensor_size_not_two_positive_integers_rejected(self, size):
        with pytest.raises(ValidationError, match=r"^sensor_size must be two positive integers \(H, W\)"):
            EventStream([], [], [], [], size)

    def test_sensor_size_of_numpy_integers_accepted(self):
        assert len(EventStream([1], [2], [0], [1], (np.int64(1), np.int32(3)))) == 1

    def test_sensor_pixels_bounded(self):
        assert len(EventStream([], [], [], [], (2048, 2048))) == 0
        with pytest.raises(ValidationError, match=r"^sensor_size 2048x2049 = 4196352 pixels, above the bound of 4194304$"):
            EventStream([], [], [], [], (2048, 2049))
        # an int64 product would wrap to 0
        with pytest.raises(ValidationError, match=r"^sensor_size 4294967296x4294967296 = "):
            EventStream([], [], [], [], (np.int64(2**32), np.int64(2**32)))

    def test_bad_polarity(self):
        for bad in (0, 2, -2, 2**63 - 1, -2**63):
            with pytest.raises(ValidationError, match="polarity"):
                EventStream([1, 2, 3], [0, 0, 0], [0, 0, 0], [1, bad, -1], (4, 4))

    def test_unequal_lengths(self):
        with pytest.raises(ValidationError, match="unequal"):
            EventStream([1, 2], [0], [0], [1], (4, 4))

    def test_empty_stream_ok(self):
        s = EventStream([], [], [], [], (4, 4))
        assert len(s) == 0
        assert s.t.dtype == s.p.dtype == np.int64

    @pytest.mark.parametrize("component,bad", [
        ("t", [0.5, 0.4]),  # truncation made these [0, 0]
        ("x", [0, 1.5]),
        ("y", np.array([0, np.nan])),
        ("p", [1.9, 1]),  # truncation made this 1
        ("p", np.array([1, -1], np.float32) + np.float32(1e-7)),
        ("t", [0, 2**63]),  # uint64 in numpy: must not wrap
        ("t", np.array([0, 2**63], np.uint64)),
        ("t", [-2**63 - 1, 0]),  # object in numpy
        ("t", [0, 2**64]),
        ("t", np.array([0.0, 2.0**63])),
        ("x", np.array([0.0, np.inf])),
        ("p", [True, True]),
        ("x", ["0", "1"]),
        ("t", np.array([0, 1], object) + 0.5),
    ])
    def test_inexact_or_out_of_range_component_rejected(self, component, bad):
        parts = dict(t=[0, 1], x=[0, 1], y=[0, 1], p=[1, -1])
        parts[component] = bad
        with pytest.raises(ValidationError, match=rf"^event {component}\[[01]\] = .* not an integer within the int64 range$"):
            EventStream(**parts, sensor_size=(4, 4))

    def test_rejection_names_the_first_bad_entry(self):
        with pytest.raises(ValidationError, match=r"^event t\[0\] = 0.5 is not"):
            EventStream([0.5, 0.4], [0, 0], [0, 0], [1.9, 1], (4, 4))
        with pytest.raises(ValidationError, match=r"^event t\[1\] = 9223372036854775808 is not"):
            EventStream([0, 2**63, 2**63], [0] * 3, [0] * 3, [1] * 3, (4, 4))

    def test_integral_values_of_any_dtype_accepted(self):
        want = [-2**63, 0, 2**62 + 1]
        for t in (want, np.array(want, object), np.array(want, ">i8"), [-2.0**63, 0.0, 2**62 + 1]):
            assert EventStream(t, [0] * 3, [0] * 3, [1] * 3, (4, 4)).t.tolist() == want
        s = EventStream(np.array([0.0, 2.0**62]), np.array([0, 3], np.uint8),
                        np.array([1.0, 2.0], np.float32), [1.0, -1], (4, 4))
        assert [a.dtype for a in (s.t, s.x, s.y, s.p)] == [np.int64] * 4
        assert (s.t.tolist(), s.x.tolist(), s.y.tolist(), s.p.tolist()) == (
            [0, 2**62], [0, 3], [1, 2], [1, -1])
        assert EventStream(np.array([0, 2**63 - 1], np.uint64), [0, 0], [0, 0], [1, 1], (4, 4)).t[1] == 2**63 - 1

    def test_int64_arrays_are_taken_without_a_copy(self):
        t, x, y, p = (np.array(v, np.int64) for v in ([1, 2], [0, 1], [1, 0], [1, -1]))
        s = EventStream(t, x, y, p, (4, 4))
        assert s.t is t and s.x is x and s.y is y and s.p is p


class TestBinEvents:
    def test_single_on_event(self):
        s = EventStream([500_000], [2], [1], [1], (4, 4))
        frame = bin_events(s, 0.5, 0.1)
        assert frame.dtype == np.float32
        assert frame[1, 2] == 1.0
        assert frame.sum() == 1.0

    def test_on_off_cancel(self):
        s = EventStream([100, 200], [0, 0], [0, 0], [1, -1], (2, 2))
        frame = bin_events(s, 0.0002, 0.01)
        assert np.all(frame == 0.0)

    def test_window_is_half_open(self):
        # event exactly at the left edge is in, exactly at the right edge is out
        dt = 1.0
        left = EventStream([500_000], [0], [0], [1], (2, 2))
        right = EventStream([1_500_000], [0], [0], [1], (2, 2))
        assert bin_events(left, 1.0, dt)[0, 0] == 1.0
        assert np.all(bin_events(right, 1.0, dt) == 0.0)

    def test_window_edges_are_exact_microseconds(self):
        # float seconds put 0.05 - 0.02 above 0.03 and dropped the event there
        s = EventStream([30_000, 70_000], [0, 1], [0, 0], [1, 1], (1, 2))
        assert bin_events(s, 0.05, 0.04).tolist() == [[1.0, 0.0]]
        s = EventStream([50_000], [0], [0], [1], (1, 1))
        assert bin_events(s, 2 / 30)[0, 0] == 1.0

    def test_edges_at_30fps_centres_vs_integer_oracle(self):
        # events on and beside every window edge of the 30 fps centres
        centres = [k / 30 for k in range(1, 61)]
        edges = sorted({round((c + d) * 1e6) for c in centres for d in (-1 / 60, 1 / 60)})
        t = np.array([e + o for e in edges for o in (-1, 0, 1)])
        x = np.arange(len(t)) % 5
        s = EventStream(t, x, x % 3, np.where(x % 2, 1, -1), (3, 5))
        for c in centres:
            want = bin_events_loops(s.t, s.x, s.y, s.p, s.sensor_size, c, DEFAULT_WINDOW_S)
            assert np.array_equal(bin_events(s, c), want.astype(np.float32)), c

    def test_normalization_range(self, rng):
        s = _random_stream(rng)
        frame = bin_events(s, 1.0, 2.0)
        assert np.abs(frame).max() == 1.0
        assert frame.min() >= -1.0 and frame.max() <= 1.0

    def test_empty_window_zero_frame(self, rng):
        s = _random_stream(rng, t_max_us=1000)
        frame = bin_events(s, 100.0, 0.01)
        assert np.all(frame == 0.0)

    def test_default_window_is_30fps(self):
        assert DEFAULT_WINDOW_S == pytest.approx(1.0 / 30.0)
        s = EventStream([int(1e6)], [0], [0], [1], (2, 2))
        # 1/30 s window centered on the event catches it
        assert bin_events(s, 1.0)[0, 0] == 1.0

    def test_bad_delta_t(self, rng):
        s = _random_stream(rng, n=10)
        with pytest.raises(ConfigError, match="delta_t"):
            bin_events(s, 1.0, 0.0)
        with pytest.raises(ConfigError, match="delta_t"):
            bin_events(s, 1.0, float("nan"))
        with pytest.raises(ConfigError, match="center_t"):
            bin_events(s, float("inf"))


class TestReadEventFile:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "events.txt"
        p.write_text("# t x y p\n100 3 2 1\n250 0 1 -1\n\n400 3 3 1\n")
        t, x, y, pol = read_event_file(p)
        s = EventStream(t, x, y, pol, (4, 4))
        assert len(s) == 3
        assert s.t.tolist() == [100, 250, 400]
        assert s.p.tolist() == [1, -1, 1]

    def test_bad_field_count(self, tmp_path):
        p = tmp_path / "events.txt"
        p.write_text("100 3 2 1\n250 0 1\n")
        with pytest.raises(ValidationError, match="events.txt:2"):
            read_event_file(p)

    def test_non_numeric_field(self, tmp_path):
        p = tmp_path / "events.txt"
        p.write_text("100 3 2 1\nabc 1 2 1\n")
        with pytest.raises(FormatError, match="events.txt:2: non-numeric field"):
            read_event_file(p)
