import contextlib
import csv
import json
import os
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beamwander import arma, cli, ingest, stats
from beamwander.ingest import (TRACE_HEADER, WanderTrace, centroid_trace,
                               load_frames, mean_center, read_csv,
                               read_frames_csv, read_pgm, read_series,
                               read_trace, weighted_centroid, write_csv,
                               write_trace)


def gaussian_frame(cx, cy, shape=(48, 48), sigma=3.0, amp=1000.0):
    rows, cols = np.indices(shape)
    return amp * np.exp(-((cols - cx) ** 2 + (rows - cy) ** 2)
                        / (2 * sigma**2))


def float_frames(path):
    """The frames of a CSV-of-frames as the float parse reads them: its
    body through np.loadtxt as float64."""
    with open(path, encoding="utf-8") as fh:
        rows, cols = map(int, fh.readline().split(","))
        return np.loadtxt(fh, delimiter=",", ndmin=2,
                          comments=None).reshape(-1, rows, cols)


def write_frames_csv(path, frames, fmt=str):
    """frames (N, rows, cols) as a CSV-of-frames, each value as fmt(v)."""
    with open(path, "w") as fh:
        fh.write("%d,%d\n" % frames.shape[1:])
        for frame in frames.reshape(len(frames), -1).tolist():
            fh.write(",".join(map(fmt, frame)) + "\n")


class TestWeightedCentroid:
    def test_single_pixel(self):
        g = np.zeros((5, 7))
        g[2, 4] = 3.0
        assert weighted_centroid(g) == (4.0, 2.0)

    def test_uniform_grid(self):
        assert weighted_centroid(np.ones((3, 3))) == (1.0, 1.0)

    def test_two_pixel_midpoint(self):
        g = np.zeros((3, 5))
        g[1, 0] = 2.0
        g[1, 4] = 2.0
        x, y = weighted_centroid(g)
        assert x == 2.0 and y == 1.0

    def test_centered_spot_exact(self):
        frame = gaussian_frame(20.0, 20.0, shape=(41, 41))
        x, y = weighted_centroid(frame)
        assert x == pytest.approx(20.0, abs=1e-12)
        assert y == pytest.approx(20.0, abs=1e-12)

    def test_off_center_spot(self):
        # grid truncation is asymmetric off-center, so only ~1e-2 accuracy
        frame = gaussian_frame(10.0, 24.0, shape=(49, 49))
        x, y = weighted_centroid(frame)
        assert x == pytest.approx(10.0, abs=0.01)
        assert y == pytest.approx(24.0, abs=0.01)

    def test_zero_grid(self):
        with pytest.raises(ValueError):
            weighted_centroid(np.zeros((4, 4)))


class TestCentroidTrace:
    def test_identical_frames(self):
        frames = [gaussian_frame(12.0, 13.0)] * 5
        tr = centroid_trace(frames, 0.01)
        assert np.allclose(tr.xs, 0.0, atol=1e-12)
        assert np.allclose(tr.ys, 0.0, atol=1e-12)

    def test_unit_steps(self):
        frames = [gaussian_frame(10.0 + i, 20.0) for i in range(5)]
        tr = centroid_trace(frames, 0.01)
        assert np.allclose(np.diff(tr.xs), 1.0, atol=5e-3)
        assert np.allclose(tr.ys, 0.0, atol=5e-3)

    def test_zero_frame_named(self):
        frames = [gaussian_frame(10, 10), np.zeros((48, 48))]
        with pytest.raises(ValueError, match="frame 1"):
            centroid_trace(frames, 0.01)

    def test_pixel_pitch_converts_units(self):
        frames = [gaussian_frame(10.0 + i, 20.0) for i in range(3)]
        tr = centroid_trace(frames, 0.01, pixel_pitch=1e-5)
        assert tr.units == "m"
        assert np.allclose(np.diff(tr.xs), 1e-5, rtol=5e-3)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.float64])
    @pytest.mark.parametrize("threshold", [0.0, 0.3])
    def test_matches_per_frame_loop(self, dtype, threshold):
        # integer pixels sum exactly in any order, so the stack kernel must
        # equal the per-frame loop bit for bit; float pixels to 1e-12
        rng = np.random.default_rng(5)
        frames = (rng.random((40, 9, 13)) * np.iinfo(np.uint16).max).astype(dtype) + 1
        rows, cols = np.indices(frames.shape[1:])
        xs, ys = [], []
        for g in frames.astype(float):
            if threshold > 0:
                g = np.where(g >= threshold * g.max(), g, 0.0)
            xs.append((cols * g).sum() / g.sum())
            ys.append((rows * g).sum() / g.sum())
        tr = centroid_trace(frames, 0.01, threshold_fraction=threshold)
        tol = 0.0 if frames.dtype.kind == "u" else 1e-12
        assert np.allclose(tr.xs, np.asarray(xs) - np.mean(xs), rtol=0, atol=tol)
        assert np.allclose(tr.ys, np.asarray(ys) - np.mean(ys), rtol=0, atol=tol)

    def test_synthetic_path_roundtrip(self):
        # moving Gaussian spot along a simulated wander path
        model = arma.ArmaModel(c=0.0, ar=[1.759, -0.7626], ma=[-1.289, 0.3166],
                               sigma2=2150.0)
        scale = 3.0 / np.sqrt(arma.stationary_variance(model))
        xs = arma.simulate(model, 60, seed=40) * scale
        ys = arma.simulate(model, 60, seed=41) * scale
        frames = [gaussian_frame(24.0 + x, 24.0 + y) for x, y in zip(xs, ys)]
        tr = centroid_trace(frames, 1 / 300)
        rms = np.sqrt(np.mean((tr.xs - (xs - xs.mean())) ** 2
                              + (tr.ys - (ys - ys.mean())) ** 2))
        assert rms < 0.05


class TestMeanCenter:
    def test_simple(self):
        tr = WanderTrace(xs=[1.0, 2.0, 3.0], ys=[0.0, 0.0, 0.0], sample_period=1.0)
        out = mean_center(tr)
        assert np.allclose(out.xs, [-1.0, 0.0, 1.0])
        assert out.meta["x_mean_removed"] == 2.0

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        tr = WanderTrace(xs=rng.normal(size=50), ys=rng.normal(size=50),
                         sample_period=0.5)
        once = mean_center(tr)
        twice = mean_center(once)
        assert np.allclose(once.xs, twice.xs, atol=1e-15)
        assert np.allclose(once.ys, twice.ys, atol=1e-15)

    def test_radial_variance_unchanged(self):
        rng = np.random.default_rng(2)
        tr = WanderTrace(xs=rng.normal(size=100) + 5, ys=rng.normal(size=100) - 3,
                         sample_period=1.0)
        centered = mean_center(tr)
        assert stats.radial_variance(tr.xs, tr.ys) == pytest.approx(
            stats.radial_variance(centered.xs, centered.ys), rel=1e-12)


class TestTraceIO:
    def test_roundtrip_lossless(self, tmp_path):
        rng = np.random.default_rng(3)
        tr = WanderTrace(xs=rng.normal(size=3), ys=rng.normal(size=3),
                         sample_period=1 / 300, units="pixels")
        path = str(tmp_path / "trace.csv")
        write_trace(tr, path)
        again = read_trace(path)
        assert np.array_equal(again.xs, tr.xs)
        assert np.array_equal(again.ys, tr.ys)
        assert again.sample_period == pytest.approx(tr.sample_period, rel=1e-12)
        assert again.units == "pixels"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,1,2\n1,1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_trace(str(path))

    def test_spacing_jitter_rejected(self, tmp_path):
        path = tmp_path / "jitter.csv"
        path.write_text("t_s,x,y\n0.0,1,2\n0.01,1,2\n0.021,1,2\n")
        with pytest.raises(ValueError, match="row 3"):
            read_trace(str(path))

    def test_malformed_row_line_number(self, tmp_path):
        path = tmp_path / "mal.csv"
        path.write_text("t_s,x,y\n0.0,1,2\n0.01,oops,2\n")
        with pytest.raises(ValueError, match="line 3"):
            read_trace(str(path))

    # fields that Python's float() takes and np.loadtxt does not: a digit
    # separator, an Arabic-Indic and a fullwidth digit
    @pytest.mark.parametrize("field", ["1_0", "\u0661", "\uff11"],
                             ids=["underscore", "arabic_indic", "fullwidth"])
    def test_field_float_takes_but_loadtxt_rejects_named(self, tmp_path, field):
        files = {"trace.csv": (read_trace, "t_s,x,y\n0.0,1,2\n\n0.01,%s,2\n"),
                 "fading.csv": (lambda path: read_series(path, cli.FADING_HEADER),
                                "t_s,intensity\n0.0,1\n\n0.01,%s\n"),
                 "frames.csv": (read_frames_csv, "1,2\n0,1\n\n%s,2\n")}
        for name, (reader, text) in files.items():
            path = tmp_path / name
            path.write_text(text % field, encoding="utf-8")
            with pytest.raises(ValueError) as info:
                reader(str(path))
            assert str(info.value) == f"{path}: malformed row at line 4"

    @pytest.mark.parametrize("field", [" 5", "\u20035", "+5", "5.", ".5", "1e3"],
                             ids=["space", "em_space", "plus", "point_last",
                                  "point_first", "exponent"])
    def test_field_loadtxt_takes_reads(self, tmp_path, field):
        path = tmp_path / "trace.csv"
        path.write_text(f"t_s,x,y\n0.0,1,{field}\n0.01,{field},2\n", encoding="utf-8")
        tr = read_trace(str(path))
        assert tr.xs[1] == tr.ys[0] == float(field)


    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_bad_row_in_a_stream_read_once(self):
        # a pipe (as a shell's <(...) passes it) is read once, into memory,
        # so the scan that names the bad line sees the rows the parse saw
        r, w = os.pipe()
        try:
            os.write(w, b"t_s,x,y\n0.0,1,2\n0.01,1,x\n")
            os.close(w)
            path = f"/dev/fd/{r}"
            with pytest.raises(ValueError) as info:
                read_trace(path)
            assert str(info.value) == f"{path}: malformed row at line 3"
        finally:
            os.close(r)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_bad_spacing_in_a_stream_named(self):
        # the line of a bad step is found in the same in-memory text
        r, w = os.pipe()
        try:
            os.write(w, b"t_s,x,y\n0.0,1,2\n\n0.01,1,2\n0.021,1,2\n")
            os.close(w)
            path = f"/dev/fd/{r}"
            with pytest.raises(ValueError) as info:
                read_trace(path)
            assert str(info.value) == (f"{path}: non-uniform or non-increasing "
                                       "sample spacing at data row 3 (line 5)")
        finally:
            os.close(r)


class TestFrameFiles:
    def test_pgm_roundtrip(self, tmp_path):
        g = (np.arange(12, dtype=np.uint8).reshape(3, 4) * 3)
        path = tmp_path / "f.pgm"
        with open(path, "wb") as fh:
            fh.write(b"P5\n# comment\n4 3\n255\n")
            fh.write(g.tobytes())
        frame = read_pgm(str(path))
        assert np.array_equal(frame, g.astype(float))

    def test_pgm_16bit(self, tmp_path):
        g = np.array([[300, 40000], [0, 65535]], dtype=">u2")
        path = tmp_path / "g.pgm"
        with open(path, "wb") as fh:
            fh.write(b"P5 2 2 65535\n")
            fh.write(g.tobytes())
        frame = read_pgm(str(path))
        assert np.array_equal(frame, g.astype(float))

    def test_pgm_rejects_ascii(self, tmp_path):
        path = tmp_path / "h.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(ValueError):
            read_pgm(str(path))

    def test_frames_csv(self, tmp_path):
        path = tmp_path / "frames.csv"
        path.write_text("2,2\n1,0,0,0\n0,0,0,1\n")
        frames = read_frames_csv(str(path))
        assert len(frames) == 2
        assert weighted_centroid(frames[0]) == (0.0, 0.0)
        assert weighted_centroid(frames[1]) == (1.0, 1.0)

    def test_frames_csv_counts_are_uint16(self, tmp_path):
        path = tmp_path / "frames.csv"
        path.write_text("2,3\n\n1,0,65535,+5,05, 7\r\n0,0,0,1,2,3\n")
        frames = read_frames_csv(str(path))
        assert frames.dtype == np.uint16 and frames.shape == (2, 2, 3)
        assert np.array_equal(frames, float_frames(str(path)))
        assert frames[0].tolist() == [[1, 0, 65535], [5, 5, 7]]

    @pytest.mark.parametrize("first, last", [
        ("5.0,0,0,0", "0,0,0,1"),
        ("1e3,0,0,0", "0,0,0,1"),
        ("-0,1,0,0", "0,0,0,1"),
        ("70000,0,0,0", "0,0,0,1"),
        ("1,0,0,0", "0,0,0,70000"),
        ("1,0,0,0", "0,0,0,1.5"),
        ("1,0,0,0", "0,-0,0,1"),
    ], ids=["float_text", "exponent", "minus_zero", "above_uint16",
            "above_uint16_last", "float_last", "minus_zero_last"])
    def test_frames_csv_other_values_are_float(self, tmp_path, first, last):
        path = tmp_path / "frames.csv"
        path.write_text("2,2\n" + first + "\n" + "3,2,1,0\n" * 5 + last + "\n")
        frames = read_frames_csv(str(path))
        expect = float_frames(str(path))
        assert frames.dtype == np.float64
        assert frames.tobytes() == expect.tobytes()  # -0.0 kept

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 1.0])
    def test_centroids_of_uint16_and_float_reads_are_identical(self, tmp_path, threshold):
        # integer sums below 2**53 are exact in float64, so each frame's
        # row and column sums, and so its centroid, cannot tell the dtypes apart
        rng = np.random.default_rng(26)
        counts = rng.integers(0, 65536, size=(40, 17, 23), dtype=np.uint16)
        counts[3] = 0
        counts[3, 5, 7] = 65535
        integer, floats = tmp_path / "int.csv", tmp_path / "float.csv"
        write_frames_csv(integer, counts)
        write_frames_csv(floats, counts, fmt=lambda v: f"{v}.0")
        a, b = read_frames_csv(str(integer)), read_frames_csv(str(floats))
        assert (a.dtype, b.dtype) == (np.uint16, np.float64)
        ta = centroid_trace(a, 0.01, threshold_fraction=threshold)
        tb = centroid_trace(b, 0.01, threshold_fraction=threshold)
        assert ta.xs.tobytes() == tb.xs.tobytes()
        assert ta.ys.tobytes() == tb.ys.tobytes()
        assert ta.meta == tb.meta

    def test_frames_csv_ragged_line_named(self, tmp_path):
        path = tmp_path / "frames.csv"
        path.write_text("2,2\n1,0,0,0\n0,0,1\n1,0,0,0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_frames_csv(str(path))

    def test_frames_csv_bad_shape_line_named(self, tmp_path):
        for first in ("a,b", "2", "2,2,2"):
            path = tmp_path / "frames.csv"
            path.write_text(f"{first}\n1,0,0,0\n")
            with pytest.raises(ValueError, match="frames.csv: first line"):
                read_frames_csv(str(path))

    def test_frames_csv_nonpositive_shape_named(self, tmp_path):
        for first in ("0,2", "-2,-2"):
            path = tmp_path / "frames.csv"
            path.write_text(f"{first}\n1,0,0,0\n")
            with pytest.raises(ValueError, match="frames.csv: first line"):
                read_frames_csv(str(path))

    def test_load_frames_directory(self, tmp_path):
        for i in range(3):
            with open(tmp_path / f"fr{i}.pgm", "wb") as fh:
                fh.write(b"P5\n2 2\n255\n")
                g = np.zeros((2, 2), dtype=np.uint8)
                g[0, i % 2] = 10
                fh.write(g.tobytes())
        frames = load_frames(str(tmp_path))
        assert len(frames) == 3

    @pytest.mark.parametrize("data, message", [
        (b"P5\n2 x\n255\n" + bytes(4), "not a binary P5 PGM"),
        (b"P5\n" + b"9" * 5000 + b" 2\n255\n" + bytes(4), "not a binary P5 PGM"),
        (b"P5\n0 2\n255\n", "zero width or height"),
        (b"P5\n2 0\n255\n", "zero width or height"),
        (b"P5\n2 2\n0\n" + bytes(4), "maxval 0 outside"),
        (b"P5\n2 2\n70000\n" + bytes(8), "maxval 70000 outside"),
        (b"P5\n2 2\n65535\n" + bytes(7), "truncated"),
        (b"P5 2 1 100\n" + bytes([200, 5]), "pixel value 200 above maxval 100"),
        (b"P5 1 2 1000\n" + bytes([3, 232, 3, 233]),
         "pixel value 1001 above maxval 1000"),
    ], ids=["non_numeric", "5000_digits", "width_0", "height_0", "maxval_0",
            "maxval_70000", "truncated", "above_maxval_8bit",
            "above_maxval_16bit"])
    def test_pgm_malformed_named(self, tmp_path, data, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=message) as info:
            read_pgm(str(path))
        assert str(info.value).startswith(str(path))

    def test_pgm_comment_digits_are_not_tokens(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5 #7 7\r2 1 # 9\n255\t" + bytes([3, 4]))
        assert read_pgm(str(path)).tolist() == [[3, 4]]

    def test_load_frames_mixed_shapes_named(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes([1] * 4))
        (tmp_path / "b.pgm").write_bytes(b"P5\n2 3\n255\n" + bytes([1] * 6))
        with pytest.raises(ValueError, match="b.pgm: frame shape"):
            load_frames(str(tmp_path))

    def test_frames_csv_negative_frame_named(self, tmp_path):
        path = tmp_path / "frames.csv"
        path.write_text("2,2\n1,0,0,0\n0,-1,0,1\n")
        with pytest.raises(ValueError, match="frame 1: intensities"):
            centroid_trace(load_frames(str(path)), 0.01)

    def test_load_frames_one_array(self, tmp_path):
        for i in range(3):
            (tmp_path / f"fr{i}.pgm").write_bytes(b"P5\n3 2\n255\n" + bytes([i + 1] * 6))
        frames = load_frames(str(tmp_path))
        assert frames.shape == (3, 2, 3) and frames.dtype == np.uint8
        assert frames[:, 0, 0].tolist() == [1, 2, 3]

    def test_fit_pipeline_contract(self, tmp_path):
        # centroid_trace output feeds fit_css directly
        rng = np.random.default_rng(4)
        frames = [gaussian_frame(24 + rng.normal(), 24 + rng.normal())
                  for _ in range(200)]
        tr = centroid_trace(frames, 1 / 300)
        rep = arma.fit_css(tr.xs, 1, 0)
        assert rep.converged


_PGM_SEPS = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\n# note 12\n", b"#\r"])
_PGM_TOKENS = st.one_of(st.integers(0, 70000).map(lambda v: str(v).encode()),
                        st.binary(max_size=4))


@st.composite
def pgm_files(draw):
    """P5 headers, well- and ill-formed, followed by arbitrary bytes."""
    head = b"P5"
    for _ in range(3):
        head += draw(_PGM_SEPS) + draw(_PGM_TOKENS)
    return head + draw(st.sampled_from([b"\n", b" ", b""])) + draw(st.binary(max_size=64))


class TestPgmFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(st.binary(max_size=64), pgm_files()))
    @example(data=b"P5\n3 2\n255\n" + bytes(range(6)))
    @example(data=b"P5 1 1 65535 " + b"\x01\x02")
    @example(data=b"P5 " + b"1" * 5000 + b" 1 255 \x00")
    def test_frame_or_named_value_error(self, data):
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/f.pgm"
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                frame = read_pgm(path)
            except ValueError as exc:
                assert str(exc).startswith(path)
            else:
                assert frame.ndim == 2 and frame.dtype.kind == "u"


def reference_csv(path, header, columns):
    """The per-row csv.writer + repr formatting that write_csv reproduces."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


@st.composite
def float_tables(draw):
    shape = (draw(st.integers(1, 30)), draw(st.integers(1, 4)))
    finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
    return draw(hnp.arrays(np.float64, shape, elements=finite))


@st.composite
def repeated_columns(draw):
    """A column list that repeats some of its column objects, long enough
    to cross a formatting block, with -0.0 and subnormals among the floats."""
    n = draw(st.integers(1, ingest._BLOCK_ROWS + 40))
    floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308]))
    distinct = [np.resize(draw(hnp.arrays(np.float64, draw(st.integers(1, 40)),
                                          elements=floats)), n)
                for _ in range(draw(st.integers(1, 3)))]
    distinct.append(np.arange(n))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=8))
    return [distinct[i] for i in picks]


def same_bytes_as_reference(d, header, columns):
    """write_csv and reference_csv write the same bytes into directory d."""
    write_csv(f"{d}/t.csv", header, columns)
    reference_csv(f"{d}/ref.csv", header,
                  [c.tolist() if isinstance(c, np.ndarray) else c for c in columns])
    with open(f"{d}/t.csv", "rb") as a, open(f"{d}/ref.csv", "rb") as b:
        return a.read() == b.read()


def mixed_table(n):
    """n rows of str, int, bool and wide-ranging float columns."""
    rng = np.random.default_rng(9)
    return (["side", "k", "flag", "value"],
            [["above", "below"] * (n // 2) + ["above"] * (n % 2),
             rng.integers(-10**12, 10**12, n).tolist(),
             (rng.random(n) < 0.5).tolist(),
             (rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)).tolist()])


class TestCsvIO:
    @settings(max_examples=200, deadline=None)
    @given(table=float_tables())
    @example(table=np.array([[5e-324, -0.0], [0.0, 1e308], [-1e308, -2.5e-310]]))
    def test_float_round_trip_bitwise(self, table):
        header = [f"c{i}" for i in range(table.shape[1])]
        with tempfile.TemporaryDirectory() as d:
            assert same_bytes_as_reference(d, header, list(table.T))
            back = read_csv(f"{d}/t.csv", header)
        assert back.view(np.int64).tolist() == table.view(np.int64).tolist()

    @settings(max_examples=60, deadline=None)
    @given(columns=repeated_columns())
    @example(columns=[np.resize([-0.0, 5e-324, 1.5], ingest._BLOCK_ROWS + 1)] * 3)
    def test_repeated_columns_bitwise(self, columns):
        header = [f"c{i}" for i in range(len(columns))]
        with tempfile.TemporaryDirectory() as d:
            assert same_bytes_as_reference(d, header, columns)

    def test_unequal_lengths_rejected(self, tmp_path):
        path = str(tmp_path / "t.csv")
        with pytest.raises(ValueError, match="^" + path + ": columns differ in length"):
            write_csv(path, ["a", "b"], [np.zeros(3), np.zeros(2)])
        assert list(tmp_path.iterdir()) == []

    def test_mixed_columns_across_blocks(self, tmp_path):
        # more rows than one formatting block, with str, int and bool columns
        assert same_bytes_as_reference(tmp_path, *mixed_table(2 * ingest._BLOCK_ROWS + 3))

    def test_write_json_refuses_non_finite(self, tmp_path):
        path = str(tmp_path / "out.json")
        with pytest.raises(ValueError, match="^" + path):
            ingest.write_json(path, {"rc_var": float("inf")})
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_value_line_named(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t_s,x,y\n0.0,1,2\n\n0.01,1,inf\n")
        with pytest.raises(ValueError, match="line 4"):
            read_trace(str(path))


@contextlib.contextmanager
def many_parts(cpus):
    """write_csv with 8-row blocks and no part minimum on `cpus` CPUs: the
    hypothesis sizes of TestCsvIO then give up to 4 parts on 4 CPUs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_BLOCK_ROWS", 8)
        mp.setattr(ingest, "_MIN_PART_BLOCKS", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        yield


CPUS = pytest.mark.parametrize("cpus", [4, 1])


def no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestCsvParts:
    """The forked writers of write_csv: the bytes do not depend on the
    number of parts, and each failure is reported by the caller and
    leaves no child process."""

    @CPUS
    @settings(max_examples=100, deadline=None)
    @given(table=float_tables())
    @example(table=np.array([[5e-324, -0.0], [0.0, 1e308], [-1e308, -2.5e-310]] * 10))
    def test_float_round_trip_bitwise(self, cpus, table):
        header = [f"c{i}" for i in range(table.shape[1])]
        with tempfile.TemporaryDirectory() as d, many_parts(cpus):
            assert same_bytes_as_reference(d, header, list(table.T))

    @CPUS
    @settings(max_examples=40, deadline=None)
    @given(columns=repeated_columns())
    @example(columns=[np.resize([-0.0, 5e-324, 1.5], 33)] * 3)
    def test_repeated_columns_bitwise(self, cpus, columns):
        header = [f"c{i}" for i in range(len(columns))]
        with tempfile.TemporaryDirectory() as d, many_parts(cpus):
            assert same_bytes_as_reference(d, header, columns)

    @CPUS
    def test_mixed_columns(self, tmp_path, cpus):
        with many_parts(cpus):
            assert same_bytes_as_reference(tmp_path, *mixed_table(29))

    def test_unequal_lengths_rejected(self, tmp_path):
        path = str(tmp_path / "t.csv")
        with many_parts(4), pytest.raises(
                ValueError, match="^" + path + ": columns differ in length"):
            write_csv(path, ["a", "b"], [np.zeros(300), np.zeros(299)])
        assert list(tmp_path.iterdir()) == []

    def test_part_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        m = ingest._MIN_PART_BLOCKS
        assert [ingest._part_count(b) for b in (0, 1, 2 * m - 1, 2 * m, 4 * m - 1, 99 * m)] \
            == [1, 1, 1, 2, 3, 4]
        # every 3000-row file (paper scale, and each frames trace) is one part
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(256)))
        assert ingest._part_count(-(-3000 // ingest._BLOCK_ROWS)) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert ingest._part_count(99 * m) == 1

    def test_no_fork_one_part(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        with many_parts(4):
            assert ingest._part_count(4) == 1
            assert same_bytes_as_reference(tmp_path, *mixed_table(29))

    @pytest.fixture
    def two_parts(self, monkeypatch):
        monkeypatch.setattr(ingest, "_MIN_PART_BLOCKS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        return [np.arange(4000.0) / 3, np.arange(4000)]

    def test_failing_child_raises_os_error(self, tmp_path, monkeypatch, capfd, two_parts):
        parent, write_rows = os.getpid(), ingest._write_rows

        def fail_in_child(fh, cols, starts):
            if os.getpid() != parent:
                raise RuntimeError("child fails")
            write_rows(fh, cols, starts)

        monkeypatch.setattr(ingest, "_write_rows", fail_in_child)
        path = str(tmp_path / "t.csv")
        with pytest.raises(OSError, match="^" + path + ": .*exit status 1"):
            write_csv(path, ["a", "b"], two_parts)
        assert capfd.readouterr() == ("", "")
        assert no_child_left()

    def test_parent_error_kills_children(self, tmp_path, monkeypatch, two_parts):
        parent = os.getpid()

        def slow_child_failing_parent(fh, cols, starts):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(ingest, "_write_rows", slow_child_failing_parent)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            write_csv(str(tmp_path / "t.csv"), ["a", "b"], two_parts)
        assert time.perf_counter() - t0 < 30
        assert no_child_left()

    def test_fork_warning_on_threads_ignored(self, tmp_path, monkeypatch, two_parts):
        # Python >= 3.12 warns when a process with other threads forks;
        # pytest makes that warning an error, which would lose the child
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                import warnings
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, "
                              "use of fork() may lead to deadlocks in the child.",
                              DeprecationWarning)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        write_csv(str(tmp_path / "t.csv"), ["a", "b"], two_parts)
        reference_csv(str(tmp_path / "ref.csv"), ["a", "b"], [c.tolist() for c in two_parts])
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert no_child_left()

    def test_crosstalk_command_in_parts(self, tmp_path, monkeypatch, capsys):
        # two parts of _MIN_PART_BLOCKS blocks each, at the constant as set
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        n = 2 * ingest._MIN_PART_BLOCKS * ingest._BLOCK_ROWS
        xs, ys = np.random.default_rng(4).normal(size=(2, n))
        trace = str(tmp_path / "trace.csv")
        write_trace(WanderTrace(xs=xs, ys=ys, sample_period=0.01), trace)
        assert len(forks) == 1
        argv = ["crosstalk", "--trace", trace, "--omega-st", "1.0", "--l-max", "5"]
        assert cli.main(["--out-dir", str(tmp_path / "parts"), *argv]) == 0
        assert len(forks) == 2
        assert capsys.readouterr().err == ""
        assert no_child_left()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert cli.main(["--out-dir", str(tmp_path / "one"), *argv]) == 0
        assert len(forks) == 2
        assert (tmp_path / "parts" / "crosstalk.csv").read_bytes() == \
            (tmp_path / "one" / "crosstalk.csv").read_bytes()

# arbitrary bytes, and bytes after a valid first line, so that both the
# header checks and the row parser see them
_NUMERIC_TEXT = st.text("0123456789.,-+e_ \t\r\ninfa\x00\xff٣",
                        max_size=64).map(str.encode)


def fuzz_bytes(*first_lines):
    body = st.one_of(st.binary(max_size=64), _NUMERIC_TEXT)
    return st.one_of(body, st.tuples(st.sampled_from(first_lines), body)
                     .map(lambda t: t[0] + t[1]))


def result_or_named_error(path, read, *args):
    """read(path, *args), or None after a ValueError whose message starts
    with path; any other exception fails the test."""
    try:
        return read(path, *args)
    except ValueError as exc:
        assert str(exc).startswith(path), str(exc)
        return None


class TestReaderFuzz:
    """Every reader of an outside file returns a result or raises one
    ValueError that starts with the offending path, whatever the bytes."""

    @settings(max_examples=300, deadline=None)
    @given(data=fuzz_bytes(b"t_s,x,y\n", b"t_s,x,y\r\n0,1,2\n"))
    @example(data=b"t_s,x,y\n0,1,2\n1,\xff,3\n")
    def test_read_csv_and_series(self, data):
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/t.csv"
            with open(path, "wb") as fh:
                fh.write(data)
            rows = result_or_named_error(path, read_csv, TRACE_HEADER)
            if rows is not None:
                assert rows.shape[1] == 3 and np.isfinite(rows).all()
            series = result_or_named_error(path, read_series, TRACE_HEADER)
            if series is not None:
                assert series[0] > 0 and series[1].shape == (2, rows.shape[0])

    @settings(max_examples=300, deadline=None)
    @given(data=fuzz_bytes(b"2,2\n", b"1,1\n", b"1,3\n0,1,2\n"))
    @example(data=b"2,2\n\xff,0,0,0\n")
    @example(data=b"99999,99999\n1\n")
    @example(data=b"1,3\n0,1,2\n65535,+5, 05\n")
    @example(data=b"1,3\n0,1,2\n-0,1,2\n")
    def test_read_frames_csv(self, data):
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/frames.csv"
            with open(path, "wb") as fh:
                fh.write(data)
            frames = result_or_named_error(path, read_frames_csv)
            if frames is not None:
                assert frames.ndim == 3 and frames.shape[0] >= 1
                # integer counts or floats, with the float parse's values
                assert frames.dtype in (np.uint16, np.float64)
                assert frames.astype(float).tobytes() == float_frames(path).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(st.just(b"t_s,x,y\n0,1,2\n1,2,3\n"),
                          fuzz_bytes(b"t_s,x,y\n")),
           sidecar=st.one_of(st.none(), st.binary(max_size=32), st.sampled_from([
               b'{"units": "m"}', b'{"units": 5}', b"[1,2]", b"{bad", b"null",
               b'{"units": "m", "sample_period_s": 1e999}', b"[" * 100_000])))
    @example(data=b"t_s,x,y\n0,1,2\n1,2,3\n", sidecar=b"{bad")
    @example(data=b"t_s,x,y\n0,1,2\n1,2,3\n", sidecar=b"[1,2]")
    @example(data=b"t_s,x,y\n0,1,2\n1,2,3\n", sidecar=b'{"units": 5}')
    @example(data=b"t_s,x,y\n0,1,2\n1,2,3\n", sidecar=b"\xff")
    def test_read_trace_with_sidecar(self, data, sidecar):
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/trace.csv"
            with open(path, "wb") as fh:
                fh.write(data)
            if sidecar is not None:
                with open(path + ".json", "wb") as fh:
                    fh.write(sidecar)
            trace = result_or_named_error(path, read_trace)
            if trace is not None:
                assert isinstance(trace.units, str) and isinstance(trace.meta, dict)
                assert 0 < trace.sample_period < np.inf

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(
        st.binary(max_size=64),
        st.dictionaries(st.sampled_from(["c", "ar", "ma", "sigma2", "units",
                                         "sample_period_s"]),
                        st.one_of(st.none(), st.booleans(), st.integers(),
                                  st.floats(), st.text(max_size=4),
                                  st.lists(st.floats(), max_size=3)))
        .map(lambda d: json.dumps(d).encode())))
    @example(data=b'{"c": 0, "ar": [0.5], "ma": [], "sigma2": 1}')
    @example(data=b"\xff")
    @example(data=b"[" * 100_000)
    def test_load_model(self, data):
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/model.json"
            with open(path, "wb") as fh:
                fh.write(data)
            model = result_or_named_error(path, cli._load_model)
            if model is not None:
                assert isinstance(model, arma.ArmaModel)
