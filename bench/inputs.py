"""Seeded inputs and independent references for the benchmark.

Nothing here imports `beamwander`: the reference series, run lengths and
centroids are computed from numpy/scipy directly, so that the output checks
do not trust the code they check.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter

import numpy as np
from scipy.signal import lfilter

# Published reference model (README, PAPER.md): 300 Hz sampling.
REFERENCE_MODEL = {
    "c": 0.0,
    "ar": [1.759, -0.7626],
    "ma": [-1.289, 0.3166],
    "sigma2": 2150.0,
    "sample_period_s": 1.0 / 300.0,
    "units": "um",
}
OMEGA_ST = 105.2  # sqrt(2.8 * stationary variance); see README "Reproduction notes"
FPS = 300.0

# Frames: Gaussian spot of 2 px standard deviation, peak 250
# counts, centre wandering by REFERENCE_MODEL scaled to about 1.5 px per axis.
FRAME_SPOT_SIGMA_PX = 2.0
FRAME_PEAK = 250.0
FRAME_PX_PER_UNIT = 0.024


def child_seeds(seed: int, count: int) -> list[int]:
    """`count` independent 32-bit seeds spawned from `seed`."""
    return [int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(seed).spawn(count)]


def write_model(path: str) -> None:
    with open(path, "w") as fh:
        json.dump(REFERENCE_MODEL, fh, indent=2)
        fh.write("\n")


def reference_series(seed: int, n: int, model: dict = REFERENCE_MODEL) -> np.ndarray:
    """The documented RNG contract: PCG64 normal innovations through
    theta(B)/phi(B) with zero initial conditions, burn-in discarded."""
    ar, ma = list(model["ar"]), list(model["ma"])
    burn_in = max(200, 50 * (len(ar) + len(ma) + 1))
    eps = np.random.default_rng(seed).normal(0.0, math.sqrt(model["sigma2"]),
                                             n + burn_in)
    phi = np.concatenate(([1.0], -np.asarray(ar, dtype=float)))
    theta = np.concatenate(([1.0], np.asarray(ma, dtype=float)))
    return lfilter(theta, phi, eps)[burn_in:]


def reference_xy(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis series as `simulate --seed seed` documents them."""
    sx, sy = child_seeds(seed, 2)
    return reference_series(sx, n), reference_series(sy, n)


def fading(xs: np.ndarray, ys: np.ndarray, omega_st: float = OMEGA_ST) -> np.ndarray:
    return np.exp(-2.0 * (xs**2 + ys**2) / omega_st**2)


def run_lengths(x: np.ndarray, threshold: float) -> dict[str, Counter]:
    """Maximal runs >= threshold ("above") and < threshold ("below")."""
    above = x >= threshold
    edges = np.flatnonzero(above[1:] != above[:-1]) + 1
    starts = np.concatenate(([0], edges))
    lengths = np.diff(np.concatenate((starts, [x.size])))
    out = {"above": Counter(), "below": Counter()}
    for is_above, k in zip(above[starts].tolist(), lengths.tolist()):
        out["above" if is_above else "below"][k] += 1
    return out


def centroids(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intensity-weighted centroids (x = column, y = row) of a frame stack."""
    g = frames.astype(float)
    idx_r = np.arange(g.shape[1], dtype=float)
    idx_c = np.arange(g.shape[2], dtype=float)
    total = g.sum(axis=(1, 2))
    return (g.sum(axis=1) @ idx_c) / total, (g.sum(axis=2) @ idx_r) / total


class FrameSet:
    """A wandering Gaussian spot rendered to 8-bit frames.

    `true_x`/`true_y` are the rendered spot centres in pixels; the frames
    are written once as a CSV-of-frames and once as a P5 PGM directory.
    """

    def __init__(self, seed: int, count: int, size: int):
        xs, ys = reference_xy(seed, count)
        centre = (size - 1) / 2.0
        self.true_x = centre + FRAME_PX_PER_UNIT * xs
        self.true_y = centre + FRAME_PX_PER_UNIT * ys
        idx = np.arange(size, dtype=float)
        two_s2 = 2.0 * FRAME_SPOT_SIGMA_PX**2
        gx = np.exp(-(idx[None, :] - self.true_x[:, None]) ** 2 / two_s2)
        gy = np.exp(-(idx[None, :] - self.true_y[:, None]) ** 2 / two_s2)
        self.frames = np.rint(FRAME_PEAK * gy[:, :, None] * gx[:, None, :]).astype(np.uint8)

    def write_csv(self, path: str) -> None:
        count, rows, cols = self.frames.shape
        text = np.array([str(v).encode() for v in range(256)], dtype=object)
        with open(path, "wb") as fh:
            fh.write(f"{rows},{cols}\n".encode())
            for frame in self.frames.reshape(count, -1):
                fh.write(b",".join(text[frame]))
                fh.write(b"\n")

    def write_pgm_dir(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)
        count, rows, cols = self.frames.shape
        header = f"P5\n{cols} {rows}\n255\n".encode()
        width = len(str(count - 1))
        for i, frame in enumerate(self.frames):
            with open(os.path.join(path, f"frame{i:0{width}d}.pgm"), "wb") as fh:
                fh.write(header + frame.tobytes())
