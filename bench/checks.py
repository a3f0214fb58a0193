"""Output checks for every benchmarked command.

Each check reads the files a command wrote and compares them with a
reference computed here from numpy/scipy (see inputs.py), never with
`beamwander` itself. A check raises CheckError on the first mismatch and
otherwise returns a dict of quality figures (possibly empty).
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy.linalg import solve_toeplitz
from scipy.signal import lfilter
from scipy.special import hyp2f1, ive

import inputs

# Tolerances, stated once. Values written with repr() must round-trip
# exactly; values recomputed in a different order get a relative tolerance.
RTOL_RECOMPUTED = 1e-9
CROSSTALK_SUM_SLACK = 1e-12     # float rounding on a truncated sum <= 1
CENTROID_EXACT_PX = 1e-9        # same frames, same weighted centroid
CENTROID_RENDERED_PX = 0.05     # 8-bit quantisation and edge truncation
FIT_COEF_TOL_PER_ROOT_N = 12.0  # ~6 asymptotic standard errors (2/sqrt(n))
FIT_SIGMA2_RTOL_PER_ROOT_N = 6.0 * math.sqrt(2.0)  # ~6 sd of the variance estimate


class CheckError(Exception):
    """An output differs from its reference."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(name: str, got, want, rtol: float = RTOL_RECOMPUTED, atol: float = 0.0) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    if not np.allclose(got, want, rtol=rtol, atol=atol):
        err = np.max(np.abs(got - want))
        raise CheckError(f"{name}: max abs error {err:.3e} beyond rtol {rtol:g}")


def _json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _table(path: str, header: list[str]) -> np.ndarray:
    with open(path) as fh:
        got = fh.readline().strip().split(",")
    _require(got == header, f"{os.path.basename(path)}: header {got} != {header}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _rld_csv(path: str) -> dict[str, dict[int, int]]:
    out = {"above": {}, "below": {}}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows[0] == ["side", "run_length", "count"], f"{path}: bad header")
    for side, k, count in rows[1:]:
        out[side][int(k)] = int(count)
    return out


def _times(name: str, t: np.ndarray, dt: float) -> None:
    # the program writes repr(i * dt), which must parse back exactly
    _require(np.array_equal(t, np.arange(t.size) * dt), f"{name}: time column is not i*dt")


def read_trace(path: str) -> tuple[np.ndarray, np.ndarray]:
    data = _table(path, ["t_s", "x", "y"])
    sidecar = _json(path + ".json")
    _times(os.path.basename(path), data[:, 0], sidecar["sample_period_s"])
    return data[:, 1], data[:, 2]


def manifest(out_dir: str, command: str) -> None:
    """Every run leaves a parseable manifest naming its command."""
    m = _json(os.path.join(out_dir, "manifest.json"))
    _require(m.get("command") == command, f"manifest command {m.get('command')!r}")
    for name in m["outputs"]:
        _require(os.path.exists(os.path.join(out_dir, name)), f"manifest lists missing {name}")


# -- theory ------------------------------------------------------------------

def theory(out_dir: str, link: dict) -> dict:
    got = _json(os.path.join(out_dir, "theory.json"))
    base = 2.42 * link["cn2"] * link["L"] ** 3 * link["omega0"] ** (-1.0 / 3.0)
    general = base * hyp2f1(1.0 / 3.0, 1.0, 4.0, 1.0 - abs(link["theta0"]))
    want = {
        "rc_var_general": general,
        "rc_var_collimated": base,
        "rc_var": general,
        "omega_lt": math.sqrt(link["omega_st"] ** 2 + general),
        "greenwood_hz": 0.43 * link["wind"] / link["r0"],
    }
    _require(set(got) == set(want), f"theory keys {sorted(got)}")
    for key, value in want.items():
        _close(f"theory {key}", got[key], value, rtol=1e-12)
    return {}


# -- simulate ----------------------------------------------------------------

def _fading_csv(path: str, dt: float) -> np.ndarray:
    data = _table(path, ["t_s", "intensity"])
    _times("fading.csv", data[:, 0], dt)
    return data[:, 1]


def crosstalk_csv(path: str, xs: np.ndarray, ys: np.ndarray, l_max: int, dt: float) -> None:
    header = ["t_s", "r_c_norm"] + [f"C_{l}" for l in range(-l_max, l_max + 1)]
    data = _table(path, header)
    _require(data.shape[0] == xs.size, f"crosstalk rows {data.shape[0]} != {xs.size}")
    _times("crosstalk.csv", data[:, 0], dt)
    r2 = xs**2 + ys**2
    _close("crosstalk r_c_norm", data[:, 1], np.sqrt(r2) / inputs.OMEGA_ST)
    weights = data[:, 2:]
    _require(np.all(weights >= 0.0), "crosstalk: negative mode weight")
    total = weights.sum(axis=1)
    worst = int(np.argmax(total))
    _require(total[worst] <= 1.0 + CROSSTALK_SUM_SLACK,
             f"crosstalk: sum C_l = {total[worst]!r} > 1 at row {worst}")
    a = r2 / inputs.OMEGA_ST**2
    orders = np.abs(np.arange(-l_max, l_max + 1))
    _close("crosstalk C_l vs exp(-a) I_|l|(a)", weights, ive(orders[None, :], a[:, None]),
           atol=1e-300)


def simulate(out_dir: str, seed: int, n: int, l_max: int | None) -> dict:
    xs, ys = read_trace(os.path.join(out_dir, "trace.csv"))
    ref_x, ref_y = inputs.reference_xy(seed, n)
    _require(np.array_equal(xs, ref_x) and np.array_equal(ys, ref_y),
             "trace differs bit-wise from the PCG64/lfilter RNG contract")
    dt = inputs.REFERENCE_MODEL["sample_period_s"]
    _close("fading intensity", _fading_csv(os.path.join(out_dir, "fading.csv"), dt),
           inputs.fading(ref_x, ref_y), rtol=1e-12)
    if l_max is not None:
        crosstalk_csv(os.path.join(out_dir, "crosstalk.csv"), ref_x, ref_y, l_max, dt)
    return {}


# -- fit ---------------------------------------------------------------------

def _acf(x: np.ndarray, max_lag: int) -> np.ndarray:
    xc = x - x.mean()
    c = np.array([xc[:x.size - k] @ xc[k:] for k in range(max_lag + 1)])
    return c / c[0]


def _pacf(rho: np.ndarray) -> np.ndarray:
    out = [1.0]
    for k in range(1, rho.size):
        out.append(solve_toeplitz(rho[:k], rho[1:k + 1])[-1])
    return np.asarray(out)


def _css(model: dict, x: np.ndarray) -> float:
    phi = np.concatenate(([1.0], -np.asarray(model["ar"], dtype=float)))
    theta = np.concatenate(([1.0], np.asarray(model["ma"], dtype=float)))
    e = lfilter(phi, theta, x) - model["c"] * lfilter([1.0], theta, np.ones(x.size))
    return float(e @ e)


def _fit_common(out_dir: str, x: np.ndarray, max_lag: int = 20) -> tuple[dict, dict]:
    rho = _acf(x, max_lag)
    acf = _table(os.path.join(out_dir, "acf.csv"), ["lag", "value", "bound"])
    _close("acf", acf[:, 1], rho, atol=1e-12)
    pacf = _table(os.path.join(out_dir, "pacf.csv"), ["lag", "value", "bound"])
    _close("pacf", pacf[:, 1], _pacf(rho), rtol=1e-7, atol=1e-10)

    model = _json(os.path.join(out_dir, "model.json"))
    report = _json(os.path.join(out_dir, "fit_report.json"))
    _require((len(model["ar"]), len(model["ma"])) == (report["p"], report["q"]),
             "model.json order differs from fit_report.json")
    _require(model["c"] == 0.0, "--fix-c fit has a non-zero constant")
    _close("fit css", report["css"], _css(model, x))

    res = lfilter(np.concatenate(([1.0], -np.asarray(model["ar"]))),
                  np.concatenate(([1.0], np.asarray(model["ma"]))), x)
    r = _acf(res, max_lag)[1:]
    n = res.size
    q_stat = n * (n + 2) * np.sum(r**2 / (n - np.arange(1, max_lag + 1)))
    diag = _json(os.path.join(out_dir, "diagnostics.json"))
    _close("Ljung-Box Q", diag["ljung_box_q"], q_stat, rtol=1e-7)
    return model, report


def scan(out_dir: str, x: np.ndarray, p_max: int, q_max: int) -> dict:
    _, report = _fit_common(out_dir, x)
    with open(os.path.join(out_dir, "scan.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = [(int(r["p"]), int(r["q"])) for r in rows]
    _require(cells == [(p, q) for p in range(p_max + 1) for q in range(q_max + 1)],
             "scan.csv does not cover the grid in order")
    admissible = [r for r in rows if r["converged"] == "True" and r["stationary"] == "True"
                  and math.isfinite(float(r["bic"]))]
    _require(bool(admissible), "scan has no admissible cell")
    best = min(admissible, key=lambda r: float(r["bic"]))
    selected = (int(best["p"]), int(best["q"]))
    _require((report["p"], report["q"]) == selected,
             f"fit order {(report['p'], report['q'])} is not the BIC argmin {selected}")
    cell22 = rows[cells.index((2, 2))]
    return {"css22_ratio": float(cell22["css"]) / _css(inputs.REFERENCE_MODEL, x),
            "bic22": selected == (2, 2)}


def fit(out_dir: str, x: np.ndarray) -> dict:
    model, report = _fit_common(out_dir, x)
    ref = inputs.REFERENCE_MODEL
    _require((report["p"], report["q"]) == (2, 2), "fixed-order fit is not (2, 2)")
    tol = FIT_COEF_TOL_PER_ROOT_N / math.sqrt(x.size)
    err = np.abs(np.asarray(model["ar"] + model["ma"]) - np.asarray(ref["ar"] + ref["ma"]))
    _require(bool(np.all(err <= tol)),
             f"fitted coefficients {model['ar'] + model['ma']} differ from the reference "
             f"by up to {err.max():.4f} > {tol:.4f}")
    rtol = FIT_SIGMA2_RTOL_PER_ROOT_N / math.sqrt(x.size)
    _require(abs(model["sigma2"] / ref["sigma2"] - 1.0) <= rtol,
             f"fitted sigma2 {model['sigma2']:.1f} differs from {ref['sigma2']} by > {rtol:.1%}")
    return {"css22_ratio": report["css"] / _css(ref, x)}


# -- analyze -----------------------------------------------------------------

def analyze(out_dir: str, intensity: np.ndarray, xs: np.ndarray, ys: np.ndarray,
            bins: int = 50) -> dict:
    threshold = float(np.mean(intensity))
    want = inputs.run_lengths(intensity, threshold)
    got = _rld_csv(os.path.join(out_dir, "rld.csv"))
    total = sum(k * c for side in got.values() for k, c in side.items())
    _require(total == intensity.size, f"rld: sum k*count = {total} != n = {intensity.size}")
    _require(got == {s: dict(c) for s, c in want.items()}, "rld.csv differs from reference")

    pdf = _table(os.path.join(out_dir, "pdf.csv"), ["bin_left", "bin_right", "density"])
    density, edges = np.histogram(intensity, bins=bins, density=True)
    _close("pdf density", pdf[:, 2], density)
    _close("pdf edges", pdf[:, 0], edges[:-1])

    s = _json(os.path.join(out_dir, "summary.json"))
    _require(s["n"] == intensity.size, "summary n")
    _close("summary threshold", s["threshold"], threshold)
    _close("summary scintillation_index", s["scintillation_index"],
           np.mean(intensity**2) / threshold**2 - 1.0)
    _require(s["max_run_length_above"] == max(want["above"], default=0), "max run above")
    _require(s["max_run_length_below"] == max(want["below"], default=0), "max run below")
    unit = intensity[(intensity > 0) & (intensity <= 1)]
    _close("summary gamma_hat", s["gamma_hat"], -unit.size / np.sum(np.log(unit)))
    radial = np.mean((xs - xs.mean()) ** 2 + (ys - ys.mean()) ** 2)
    _close("summary radial_variance", s["radial_variance"], radial)
    return {}


# -- crosstalk ---------------------------------------------------------------

def crosstalk(out_dir: str, xs: np.ndarray, ys: np.ndarray, l_max: int) -> dict:
    crosstalk_csv(os.path.join(out_dir, "crosstalk.csv"), xs, ys, l_max,
                  inputs.REFERENCE_MODEL["sample_period_s"])
    return {}


# -- compare -----------------------------------------------------------------

def compare(out_dir: str, seed: int, n: int, seeds: int, gamma: float,
            tail: int = 8) -> dict:
    streams = inputs.child_seeds(seed, 3 * seeds)
    pooled = {"arma": {"above": {}, "below": {}}, "mem": {"above": {}, "below": {}}}
    wins = 0
    for i in range(seeds):
        sx, sy, sm = streams[3 * i:3 * i + 3]
        fad = inputs.fading(inputs.reference_series(sx, n), inputs.reference_series(sy, n))
        mem = np.random.default_rng(sm).uniform(0.0, 1.0, n) ** (1.0 / gamma)
        maxes = []
        for key, series in (("arma", fad), ("mem", mem)):
            rl = inputs.run_lengths(series, float(np.mean(series)))
            for side in ("above", "below"):
                for k, c in rl[side].items():
                    pooled[key][side][k] = pooled[key][side].get(k, 0) + c
            maxes.append(max(max(rl["above"], default=0), max(rl["below"], default=0)))
        wins += int(maxes[0] > maxes[1])
    for key, name in (("arma", "rld_arma.csv"), ("mem", "rld_memoryless.csv")):
        got = _rld_csv(os.path.join(out_dir, name))
        _require(got == pooled[key], f"{name} differs from reference")
        total = sum(k * c for side in got.values() for k, c in side.items())
        _require(total == n * seeds, f"{name}: sum k*count = {total} != {n * seeds}")
    comp = _json(os.path.join(out_dir, "comparison.json"))
    _require(comp["arma_longer_max_run_count"] == wins, "arma_longer_max_run_count")

    def tail_count(rl):
        return sum(c for side in rl.values() for k, c in side.items() if k >= tail)
    _require(comp["arma_tail_count"] == tail_count(pooled["arma"]), "arma_tail_count")
    _require(comp["memoryless_tail_count"] == tail_count(pooled["mem"]), "memoryless_tail_count")
    return {}


# -- ingest ------------------------------------------------------------------

def ingest(out_dir: str, frameset: inputs.FrameSet) -> dict:
    path = os.path.join(out_dir, "trace.csv")
    xs, ys = read_trace(path)
    sidecar = _json(path + ".json")
    _require(sidecar["units"] == "pixels", f"ingest units {sidecar['units']!r}")
    _require(math.isclose(sidecar["sample_period_s"], 1.0 / inputs.FPS, rel_tol=1e-12),
             "ingest sample period")
    cx, cy = inputs.centroids(frameset.frames)
    _close("centroid x", xs, cx - cx.mean(), rtol=0.0, atol=CENTROID_EXACT_PX)
    _close("centroid y", ys, cy - cy.mean(), rtol=0.0, atol=CENTROID_EXACT_PX)
    tx, ty = frameset.true_x, frameset.true_y
    err = max(np.max(np.abs(xs - (tx - tx.mean()))), np.max(np.abs(ys - (ty - ty.mean()))))
    _require(err <= CENTROID_RENDERED_PX,
             f"centroids differ from the rendered centres by {err:.4f} px")
    return {}
