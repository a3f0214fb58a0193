"""Raw observations to canonical wander traces.

Weighted-centroid extraction from intensity frames (binary PGM files or a
CSV-of-frames), mean-centering, lossless trace CSV I/O with a JSON
sidecar for units and the sample period, and the one CSV writer and
reader that every file of the package goes through.

Axis convention: x indexes columns, y indexes rows, origin at the center
of pixel (0, 0).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

TRACE_HEADER = ["t_s", "x", "y"]
_SPACING_RTOL = 1e-6


@dataclass
class IntensityGrid:
    """Single non-negative intensity frame; pixel_pitch converts pixel
    coordinates to meters when known."""

    values: np.ndarray
    pixel_pitch: float | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("frame must be a 2-D array")
        if np.any(self.values < 0):
            raise ValueError("frame intensities must be non-negative")


@dataclass
class WanderTrace:
    """Centroid offset time series (beta_x, beta_y) at a fixed sample period."""

    xs: np.ndarray
    ys: np.ndarray
    sample_period: float
    units: str = "pixels"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if self.xs.size != self.ys.size:
            raise ValueError("xs and ys must have equal length")
        if not self.sample_period > 0:
            raise ValueError("sample_period must be positive")
        if not (np.all(np.isfinite(self.xs)) and np.all(np.isfinite(self.ys))):
            raise ValueError("trace values must be finite")

    def __len__(self) -> int:
        return int(self.xs.size)


def weighted_centroid(grid: IntensityGrid) -> tuple[float, float]:
    """Intensity-weighted centroid (x, y) in pixel coordinates."""
    g = grid.values
    total = g.sum()
    if total <= 0:
        raise ValueError("cannot centroid an all-zero frame")
    rows, cols = np.indices(g.shape)
    x = float((cols * g).sum() / total)
    y = float((rows * g).sum() / total)
    return x, y


def mean_center(trace: WanderTrace) -> WanderTrace:
    """Subtract the per-axis sample means; the removed means are recorded
    in the output metadata. Idempotent."""
    mx = float(trace.xs.mean())
    my = float(trace.ys.mean())
    meta = dict(trace.meta)
    meta["x_mean_removed"] = meta.get("x_mean_removed", 0.0) + mx
    meta["y_mean_removed"] = meta.get("y_mean_removed", 0.0) + my
    return WanderTrace(xs=trace.xs - mx, ys=trace.ys - my,
                       sample_period=trace.sample_period,
                       units=trace.units, meta=meta)


def centroid_trace(frames, sample_period: float,
                   threshold_fraction: float = 0.0) -> WanderTrace:
    """Per-frame weighted centroid, mean-centered.

    threshold_fraction > 0 zeroes pixels below that fraction of each
    frame's maximum before centroiding (background suppression knob,
    off by default). Units are pixels, or meters when the first frame
    carries a pixel_pitch.
    """
    frames = list(frames)
    if not frames:
        raise ValueError("no frames given")
    shape = frames[0].values.shape
    xs, ys = [], []
    for idx, frame in enumerate(frames):
        if frame.values.shape != shape:
            raise ValueError(f"frame {idx} has shape {frame.values.shape}, "
                             f"expected {shape}")
        g = frame.values
        if threshold_fraction > 0:
            g = np.where(g >= threshold_fraction * g.max(), g, 0.0)
        try:
            cx, cy = weighted_centroid(IntensityGrid(g))
        except ValueError as exc:
            raise ValueError(f"frame {idx}: {exc}") from exc
        xs.append(cx)
        ys.append(cy)
    pitch = frames[0].pixel_pitch
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    units = "pixels"
    if pitch is not None:
        xs = xs * pitch
        ys = ys * pitch
        units = "m"
    return mean_center(WanderTrace(xs=xs, ys=ys, sample_period=sample_period,
                                   units=units))


# rows formatted per write: the text held in memory stays bounded in n
_BLOCK_ROWS = 1024


def write_csv(path: str, header: list[str], columns) -> None:
    """Write equal-length columns under a header row.

    Floats are written by repr (the shortest text that parses back to the
    same double), other values by str, with CRLF line ends: the bytes
    csv.writer produces for the same header and repr'd rows. Nothing is
    quoted, so no value may contain a comma, quote or line break. Rows
    are formatted in blocks of _BLOCK_ROWS.
    """
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0]) if cols else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n, _BLOCK_ROWS):
            fields = [map(repr if c.dtype.kind == "f" else str,
                          c[lo:lo + _BLOCK_ROWS].tolist()) for c in cols]
            fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def _data_lines(path: str):
    """(line number, fields) of every non-empty line after the first, the
    lines np.loadtxt reads as rows."""
    with open(path) as fh:
        next(fh, None)
        for lineno, line in enumerate(fh, start=2):
            if line.strip("\r\n"):
                yield lineno, line.split(",")


def _parse_rows(fh, path: str, ncols: int) -> np.ndarray:
    """Parse the rest of fh as rows of ncols finite comma-separated
    numbers, empty lines skipped. Errors name the file and the 1-based
    line of the first bad row; an empty body gives zero rows."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        pass  # the scan below names the line
    else:
        if data.shape[0] == 0:
            return np.empty((0, ncols))
        if data.shape[1] == ncols and np.isfinite(data).all():
            return data
    # the slow path runs only on a bad file, to find its first bad line
    for lineno, fields in _data_lines(path):
        if len(fields) != ncols:
            raise ValueError(f"{path}: line {lineno}: {len(fields)} values, "
                             f"expected {ncols}")
        try:
            finite = all(math.isfinite(float(v)) for v in fields)
        except ValueError:
            raise ValueError(f"{path}: malformed row at line {lineno}") from None
        if not finite:
            raise ValueError(f"{path}: non-finite value at line {lineno}")
    raise ValueError(f"{path}: rows are not {ncols} comma-separated numbers")


def read_csv(path: str, header: list[str]) -> np.ndarray:
    """Rows x columns of a numeric CSV whose first line is `header`.
    Every value must be finite; errors name the file and the line."""
    with open(path) as fh:
        got = [h.strip() for h in fh.readline().split(",")]
        if got != header:
            raise ValueError(f"{path}: expected header '{','.join(header)}'")
        return _parse_rows(fh, path, len(header))


def read_series(path: str, header: list[str]) -> tuple[float, np.ndarray]:
    """Uniform time series from a CSV whose first column is `t_s`.

    Timestamps must be strictly increasing with every step equal to the
    first to 1e-6 relative tolerance. Returns the sample period and the
    value columns, one contiguous row each.
    """
    data = read_csv(path, header)
    if data.shape[0] < 2:
        raise ValueError(f"{path}: need at least two rows")
    steps = np.diff(data[:, 0])
    dt = float(steps[0])
    bad = np.flatnonzero((steps <= 0) | ~(
        np.abs(steps - dt) <= _SPACING_RTOL * np.maximum(np.abs(steps), abs(dt))))
    if bad.size:
        row = int(bad[0]) + 2  # 1-based data row ending the bad step
        lineno = next(itertools.islice(_data_lines(path), row - 1, None))[0]
        raise ValueError(f"{path}: non-uniform or non-increasing sample "
                         f"spacing at data row {row} (line {lineno})")
    return dt, np.ascontiguousarray(data[:, 1:].T)


def write_trace(trace: WanderTrace, path: str) -> None:
    """Write `t_s,x,y` CSV at full round-trip precision plus a JSON sidecar
    with units and the sample period."""
    write_csv(path, TRACE_HEADER,
              [np.arange(len(trace)) * trace.sample_period, trace.xs, trace.ys])
    sidecar = {"units": trace.units, "sample_period_s": trace.sample_period}
    sidecar.update(trace.meta)
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


def read_trace(path: str) -> WanderTrace:
    """Read a `t_s,x,y` CSV (see read_series) and its optional sidecar."""
    dt, (xs, ys) = read_series(path, TRACE_HEADER)
    meta = {}
    if os.path.exists(path + ".json"):
        with open(path + ".json") as fh:
            meta = json.load(fh)
    meta.pop("sample_period_s", None)
    return WanderTrace(xs=xs, ys=ys, sample_period=dt,
                       units=meta.pop("units", ""), meta=meta)


def read_pgm(path: str, pixel_pitch: float | None = None) -> IntensityGrid:
    """Read a binary (P5) PGM frame."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    i = 0
    while len(tokens) < 4 and i < len(data):
        # skip whitespace and '#' comments between header tokens
        while i < len(data) and data[i:i + 1].isspace():
            i += 1
        if i < len(data) and data[i:i + 1] == b"#":
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < len(data) and not data[i:i + 1].isspace():
            i += 1
        if start < i:
            tokens.append(data[start:i])
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary P5 PGM file")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    i += 1  # single whitespace byte after maxval
    dtype = np.dtype(">u2") if maxval > 255 else np.uint8
    count = width * height
    pixels = np.frombuffer(data, dtype=dtype, count=count, offset=i)
    if pixels.size != count:
        raise ValueError(f"{path}: truncated pixel data")
    return IntensityGrid(values=pixels.reshape(height, width).astype(float),
                         pixel_pitch=pixel_pitch)


def read_frames_csv(path: str, pixel_pitch: float | None = None) -> list[IntensityGrid]:
    """Read a CSV-of-frames: first line `rows,cols`, then one flattened
    row-major frame of rows*cols values per line."""
    with open(path) as fh:
        try:
            rows, cols = (int(v) for v in fh.readline().split(","))
        except ValueError:
            raise ValueError(f"{path}: first line must be 'rows,cols'") from None
        data = _parse_rows(fh, path, rows * cols)
    if data.shape[0] == 0:
        raise ValueError(f"{path}: no frames found")
    return [IntensityGrid(values=frame, pixel_pitch=pixel_pitch)
            for frame in data.reshape(-1, rows, cols)]


def load_frames(path: str, pixel_pitch: float | None = None) -> list[IntensityGrid]:
    """Load frames from a directory of .pgm files (sorted by name) or a
    single CSV-of-frames."""
    if os.path.isdir(path):
        names = sorted(f for f in os.listdir(path) if f.lower().endswith(".pgm"))
        if not names:
            raise ValueError(f"{path}: no .pgm files found")
        return [read_pgm(os.path.join(path, n), pixel_pitch) for n in names]
    return read_frames_csv(path, pixel_pitch)
