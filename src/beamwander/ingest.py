"""Raw observations to canonical wander traces.

Weighted-centroid extraction from a stack of intensity frames (binary PGM
files or a CSV-of-frames, read as one (N, rows, cols) array; integer
counts from either source stay unsigned integers, at most 2 bytes a
pixel, until centroid_trace sums them in float), mean-centering, lossless
trace CSV I/O with a JSON sidecar for units and the sample period, and
the one CSV writer and reader and the one JSON writer and reader that
every file of the package goes through. Text is read as UTF-8, and every
reader error names its file.

Axis convention: x indexes columns, y indexes rows, origin at the center
of pixel (0, 0).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import re
import shutil
import tempfile
import warnings
from dataclasses import dataclass, field

import numpy as np

TRACE_HEADER = ["t_s", "x", "y"]
_SPACING_RTOL = 1e-6


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
        if not 0 < self.sample_period < math.inf:
            raise ValueError("sample_period must be positive and finite, "
                             f"got {self.sample_period}")
        if not (np.all(np.isfinite(self.xs)) and np.all(np.isfinite(self.ys))):
            raise ValueError("trace values must be finite")

    def __len__(self) -> int:
        return int(self.xs.size)


def _centroids(frames, threshold_fraction: float = 0.0):
    """Intensity-weighted centroids (xs, ys), in pixels, of every frame
    of a (N, rows, cols) stack from its row and column sums, taken in
    float without a float copy of an integer stack. Errors name the
    0-based frame."""
    g = np.asarray(frames)
    if g.ndim != 3 or g.size == 0:
        raise ValueError(f"frames must be a non-empty stack of equal-shape "
                         f"2-D arrays, got shape {g.shape}")
    negative = np.flatnonzero(g.min(axis=(1, 2)) < 0)
    if negative.size:
        raise ValueError(f"frame {negative[0]}: intensities must be non-negative")
    if threshold_fraction > 0:
        g = np.where(g >= threshold_fraction * g.max(axis=(1, 2), keepdims=True), g, 0)
    col_sums = g.sum(axis=1, dtype=float)
    row_sums = g.sum(axis=2, dtype=float)
    total = col_sums.sum(axis=1)
    empty = np.flatnonzero(total <= 0)
    if empty.size:
        raise ValueError(f"frame {empty[0]}: cannot centroid an all-zero frame")
    return (col_sums @ np.arange(g.shape[2], dtype=float) / total,
            row_sums @ np.arange(g.shape[1], dtype=float) / total)


def weighted_centroid(frame) -> tuple[float, float]:
    """Intensity-weighted centroid (x, y) of one 2-D frame in pixel
    coordinates: the one-frame centroid_trace kernel."""
    (x,), (y,) = _centroids(np.asarray(frame)[None])
    return float(x), float(y)


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


def centroid_trace(frames, sample_period: float, pixel_pitch: float | None = None,
                   threshold_fraction: float = 0.0) -> WanderTrace:
    """Weighted centroid of every frame of a (N, rows, cols) stack, or of
    a list of equal-shape 2-D arrays, mean-centered.

    threshold_fraction > 0 zeroes pixels below that fraction of each
    frame's maximum before centroiding (background suppression knob,
    off by default). Units are pixels, or meters when pixel_pitch
    (m/pixel) is given.
    """
    if not 0 <= threshold_fraction <= 1:
        raise ValueError(f"threshold_fraction must lie in [0, 1], got {threshold_fraction}")
    if pixel_pitch is not None and not 0 < pixel_pitch < math.inf:
        raise ValueError(f"pixel_pitch must be positive and finite, got {pixel_pitch}")
    xs, ys = _centroids(frames, threshold_fraction)
    units = "pixels"
    if pixel_pitch is not None:
        xs, ys, units = xs * pixel_pitch, ys * pixel_pitch, "m"
    return mean_center(WanderTrace(xs=xs, ys=ys, sample_period=sample_period,
                                   units=units))


# rows formatted per write: the text held in memory stays bounded in n,
# in each process that formats a part of a file
_BLOCK_ROWS = 1024
# fewest blocks a part may hold, so a file splits from twice this many.
# In process on a 2-CPU host, two parts were slower than one up to 24
# blocks of 2 columns and faster from 40; 3 columns broke even at 16
_MIN_PART_BLOCKS = 20


def _part_count(blocks: int) -> int:
    """How many processes format a file of `blocks` blocks: one per
    available CPU while each part keeps _MIN_PART_BLOCKS blocks, and one
    where os.fork or os.sched_getaffinity is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), blocks // _MIN_PART_BLOCKS))


def _write_rows(fh, cols: list, starts: range) -> None:
    """Format the blocks that start at `starts` into fh, each distinct
    column object once per block."""
    # keyed by identity: every array in cols stays alive, so ids are unique
    distinct = {id(c): c for c in cols}
    for lo in starts:
        text = {key: list(map(repr if c.dtype.kind == "f" else str,
                              c[lo:lo + _BLOCK_ROWS].tolist()))
                for key, c in distinct.items()}
        fields = [text[id(c)] for c in cols]
        fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def _fork_part(fh, cols: list, starts: range) -> int:
    """Fork a child that formats its blocks into fh and exits, 0 on
    success; the child's pid. The child prints nothing, not even a
    traceback, and runs no exit handler."""
    with warnings.catch_warnings():
        # Python >= 3.12 warns on a fork while other OS threads run, such
        # as a BLAS pool, whose locks the child may find held. The child
        # only formats Python objects into its own file and exits: it
        # calls no BLAS routine and starts no thread
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                DeprecationWarning)
        pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        _write_rows(fh, cols, starts)
        fh.flush()
        status = 0
    finally:
        os._exit(status)


def write_csv(path: str, header: list[str], columns) -> None:
    """Write equal-length columns under a header row.

    Floats are written by repr (the shortest text that parses back to the
    same double), other values by str, with CRLF line ends: the bytes
    csv.writer produces for the same header and repr'd rows. Nothing is
    quoted, so no value may contain a comma, quote or line break. Rows
    are formatted in blocks of _BLOCK_ROWS, and each distinct column is
    formatted once per block: a column object passed at several positions
    reuses the same text. Columns of unequal length raise one ValueError
    naming path, before the file is opened.

    The blocks are split into contiguous parts, one per available CPU
    (see _part_count). The caller formats the first part straight into
    the file; each other part is formatted by a forked child into an
    unnamed temporary file in path's directory, and appended in order
    once the child has exited. Every part runs the same block code, so
    the bytes do not depend on the number of parts. A child that fails
    raises one OSError naming path; on any error every child still
    running is killed and reaped.
    """
    cols = [np.asarray(c) for c in columns]
    lengths = sorted({len(c) for c in cols})
    if len(lengths) > 1:
        raise ValueError(f"{path}: columns differ in length ({lengths})")
    starts = range(0, lengths[0] if lengths else 0, _BLOCK_ROWS)
    parts = _part_count(len(starts))
    split = [starts[len(starts) * i // parts:len(starts) * (i + 1) // parts]
             for i in range(parts)]
    with open(path, "w", newline="") as fh, contextlib.ExitStack() as temps:
        fh.write(",".join(header) + "\r\n")
        children = {}  # pid: the part file it writes, in part order
        try:
            for part in split[1:]:
                tmp = temps.enter_context(tempfile.TemporaryFile(
                    "w+", newline="", dir=os.path.dirname(path) or "."))
                children[_fork_part(tmp, cols, part)] = tmp
            _write_rows(fh, cols, split[0])
            fh.flush()
            for pid, tmp in list(children.items()):
                status = os.waitpid(pid, 0)[1]
                del children[pid]
                if status:
                    raise OSError(f"{path}: a process formatting part of the file "
                                  f"failed (exit status {os.waitstatus_to_exitcode(status)})")
                tmp.seek(0)
                shutil.copyfileobj(tmp.buffer, fh.buffer)
        finally:
            if children:
                import signal  # here only, so that importing the package loads no new module
                for pid in children:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def write_json(path: str, obj) -> None:
    """Write obj as strict JSON indented by 2, with a final newline. A NaN
    or infinity in obj raises one ValueError naming path, before the file
    is opened."""
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_json(path: str):
    """The JSON value in the file at path. An unreadable file, bytes that
    are not UTF-8 or malformed JSON raise one ValueError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


@contextlib.contextmanager
def _open_text(path: str):
    """path opened as UTF-8 text, seekable; a byte that does not decode,
    read anywhere inside the block, raises one ValueError naming the file.
    An input that cannot seek, such as a pipe (a shell's <(...)), is read
    once into memory, so that a parse may start over and the scan for a
    bad line (`_data_lines`) sees the same text."""
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.seekable():
                yield fh
            else:
                import io  # loaded at interpreter start-up: no import cost
                yield io.StringIO(fh.read())
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _data_lines(fh):
    """(line number, fields) of every non-empty line after the first of the
    text file fh (`_open_text`), read again from its start: the lines
    np.loadtxt reads as rows."""
    fh.seek(0)
    next(fh, None)
    for lineno, line in enumerate(fh, start=2):
        if line.strip("\r\n"):
            yield lineno, line.split(",")


def _loadtxt_float(field: str) -> float:
    """float(field) as np.loadtxt reads it: ASCII between Unicode white
    space, without the digit separators and non-ASCII digits that Python's
    float() also takes; ValueError otherwise."""
    v = field.strip()
    if not v.isascii() or "_" in v:
        raise ValueError(f"not a number: {field!r}")
    return float(v)


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
    for lineno, fields in _data_lines(fh):
        if len(fields) != ncols:
            raise ValueError(f"{path}: line {lineno}: {len(fields)} values, "
                             f"expected {ncols}")
        try:
            finite = all(math.isfinite(_loadtxt_float(v)) for v in fields)
        except ValueError:
            raise ValueError(f"{path}: malformed row at line {lineno}") from None
        if not finite:
            raise ValueError(f"{path}: non-finite value at line {lineno}")
    raise ValueError(f"{path}: rows are not {ncols} comma-separated numbers")


def read_csv(path: str, header: list[str]) -> np.ndarray:
    """Rows x columns of a numeric CSV whose first line is `header`.
    Every value must be finite; errors name the file and the line."""
    with _open_text(path) as fh:
        return _read_csv(fh, path, header)


def _read_csv(fh, path: str, header: list[str]) -> np.ndarray:
    """read_csv on fh, path opened by `_open_text`."""
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
    with _open_text(path) as fh:
        data = _read_csv(fh, path, header)
        if data.shape[0] < 2:
            raise ValueError(f"{path}: need at least two rows")
        steps = np.diff(data[:, 0])
        dt = float(steps[0])
        bad = np.flatnonzero((steps <= 0) | ~(
            np.abs(steps - dt) <= _SPACING_RTOL * np.maximum(np.abs(steps), abs(dt))))
        if bad.size:
            row = int(bad[0]) + 2  # 1-based data row ending the bad step
            lineno = next(itertools.islice(_data_lines(fh), row - 1, None))[0]
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
    write_json(path + ".json", sidecar)


def read_trace(path: str) -> WanderTrace:
    """Read a `t_s,x,y` CSV (see read_series) and its optional sidecar, a
    JSON object whose `units`, if present, is a string."""
    dt, (xs, ys) = read_series(path, TRACE_HEADER)
    sidecar = path + ".json"
    meta = read_json(sidecar) if os.path.exists(sidecar) else {}
    if not isinstance(meta, dict):
        raise ValueError(f"{sidecar}: sidecar must be a JSON object, "
                         f"got {type(meta).__name__}")
    meta.pop("sample_period_s", None)
    units = meta.pop("units", "")
    if not isinstance(units, str):
        raise ValueError(f"{sidecar}: units must be a string, got {units!r}")
    return WanderTrace(xs=xs, ys=ys, sample_period=dt, units=units, meta=meta)


# P5, then width, height and maxval, each after whitespace or '#' comment
# lines, then one whitespace byte; the digit cap keeps int() in range
_PGM_SEP = rb"(?:\s|#[^\r\n]*[\r\n])+"
_PGM_HEADER = re.compile(rb"P5" + (_PGM_SEP + rb"(\d{1,9})") * 3 + rb"\s")


def read_pgm(path: str) -> np.ndarray:
    """Pixels (rows, cols) of a binary (P5) PGM frame, 8- or 16-bit
    unsigned as stored."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ValueError(f"{path}: not a binary P5 PGM file "
                         f"(header 'P5 width height maxval')")
    width, height, maxval = map(int, header.groups())
    if width == 0 or height == 0:
        raise ValueError(f"{path}: zero width or height")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"{path}: maxval {maxval} outside 1..65535")
    dtype = np.dtype(">u2" if maxval > 255 else "u1")
    if len(data) - header.end() < width * height * dtype.itemsize:
        raise ValueError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(data, dtype, width * height, header.end())
    if pixels.max() > maxval:
        raise ValueError(f"{path}: pixel value {pixels.max()} above maxval {maxval}")
    return pixels.reshape(height, width).astype(dtype.newbyteorder("="))


def _parse_counts(fh, ncols: int) -> np.ndarray | None:
    """Parse the rest of fh as rows of ncols unsigned 16-bit integer counts,
    empty lines skipped; None, with fh back where it was, when a line fails
    the parse, a row has another length or the body is empty.

    The uint16 parse accepts a strict subset of the text the float parse
    accepts ("5", "+5", "05", " 5", up to 65535; not "-0", "5.0", "1e3",
    "70000", "nan" or an empty field), with equal values. A float-valued
    body fails at its first float, so it costs little before the float
    parse; a body whose counts turn non-integer late is parsed twice.
    """
    start = fh.tell()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            data = np.loadtxt(fh, dtype=np.uint16, delimiter=",", ndmin=2,
                              comments=None)
        if data.size and data.shape[1] == ncols:
            return data
    except ValueError:  # also a byte that is not UTF-8: _parse_rows names it
        pass
    fh.seek(start)
    return None


def read_frames_csv(path: str) -> np.ndarray:
    """(N, rows, cols) frames of a CSV-of-frames: first line `rows,cols`,
    then one flattened row-major frame of rows*cols values per line.

    Integer counts in 0..65535, as a camera or a 16-bit PGM stores them,
    come back as uint16 (see _parse_counts); any other finite values come
    back as float64. Either way the values are those of the float parse,
    and centroid_trace gives the same centroids from both."""
    with _open_text(path) as fh:
        first = fh.readline()  # outside the try: bad bytes are not a bad header
        try:
            rows, cols = (int(v) for v in first.split(","))
        except ValueError:
            rows = cols = 0
        if min(rows, cols) < 1:
            raise ValueError(f"{path}: first line must be 'rows,cols', "
                             f"two positive integers")
        data = _parse_counts(fh, rows * cols)
        if data is None:
            data = _parse_rows(fh, path, rows * cols)
    if data.shape[0] == 0:
        raise ValueError(f"{path}: no frames found")
    return data.reshape(-1, rows, cols)


def load_frames(path: str) -> np.ndarray:
    """(N, rows, cols) frames from a directory of equal-shape .pgm files
    (sorted by name), uint8 or uint16 as stored, or a single CSV-of-frames,
    uint16 when its values are integer counts in 0..65535 and float64
    otherwise (see read_frames_csv)."""
    if not os.path.isdir(path):
        return read_frames_csv(path)
    names = sorted(f for f in os.listdir(path) if f.lower().endswith(".pgm"))
    if not names:
        raise ValueError(f"{path}: no .pgm files found")
    frames = [read_pgm(os.path.join(path, n)) for n in names]
    for name, frame in zip(names, frames):
        if frame.shape != frames[0].shape:
            raise ValueError(f"{os.path.join(path, name)}: frame shape "
                             f"{frame.shape}, expected {frames[0].shape} "
                             f"as in {names[0]}")
    return np.stack(frames)
