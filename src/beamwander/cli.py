"""Batch command-line pipeline.

Subcommands: theory, simulate, fit, analyze, crosstalk, compare, ingest.
Each `cmd_*` function is one pipeline step that writes nothing: it
returns its artifacts as an ordered dict of file name to value. `main`
alone writes them into --out-dir, each by the kind of its value (see
`_write_artifacts`), and then a manifest.json that lists them. Re-running
with the same arguments and seed reproduces the data files
byte-identically (the manifest timestamp excluded).

Units: all lengths in meters, Cn^2 in m^(-2/3), wind speed in m/s, unless
a trace was ingested in pixels (its sidecar then says so). Run-length
thresholds compare with >=, i.e. a sample exactly at the threshold counts
as "above".
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, arma, channel, ingest, stats, theory

FADING_HEADER = ["t_s", "intensity"]


def _acf_table(values, bound: float) -> tuple:
    return ["lag", "value", "bound"], [np.arange(values.size), values,
                                       np.full(values.size, bound)]


def _rld_table(above, below) -> tuple:
    """Each side's distinct run lengths, ascending, with their counts."""
    (ka, ca), (kb, cb) = (np.unique(side, return_counts=True) for side in (above, below))
    return (["side", "run_length", "count"],
            [["above"] * ka.size + ["below"] * kb.size,
             np.concatenate([ka, kb]), np.concatenate([ca, cb])])


def _crosstalk_table(t, r_norm, weights) -> tuple:
    """The crosstalk.csv table of modes -l_max..l_max from crosstalk_trace's
    C_0..C_l_max: one C_l column object fills C_-l too, formatted once."""
    half = list(weights.T)  # C_0 .. C_l_max
    l_max = len(half) - 1
    header = ["t_s", "r_c_norm"] + [f"C_{l}" for l in range(-l_max, l_max + 1)]
    return header, [t, r_norm, *half[:0:-1], *half]


def _load_model(path: str) -> arma.ArmaModel:
    """The model JSON at path; an unreadable file, malformed JSON or an
    invalid model raises one ValueError naming the file."""
    obj = ingest.read_json(path)
    try:
        return arma.ArmaModel.from_dict(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _axis_seeds(seed: int, count: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


def cmd_theory(args) -> dict:
    p = theory.LinkParams(cn2=args.cn2, L=args.L, omega0=args.omega0,
                          theta0=args.theta0, kappa0=args.kappa0)
    if args.wind < 0:
        raise ValueError(f"wind_speed must be >= 0, got {args.wind}")
    result = {
        "rc_var_general": theory.wander_variance_general(p),
        "rc_var_collimated": theory.wander_variance_collimated(p),
    }
    if args.kappa0 > 0:
        result["rc_var_outer_scale"] = theory.wander_variance_outer_scale(p)
    result["rc_var"] = theory.wander_variance(p)
    if args.omega_st is not None:
        result["omega_lt"] = theory.long_term_beam_size(args.omega_st, result["rc_var"])
    if args.r0 is not None:
        result["greenwood_hz"] = theory.greenwood_frequency(args.wind, args.r0)
    overflowed = [k for k, v in result.items() if not math.isfinite(v)]
    if overflowed:
        raise ValueError(f"result not finite: {', '.join(overflowed)}")
    print(json.dumps(result, indent=2))
    if args.format == "csv":
        return {"theory.csv": (["quantity", "value"], list(zip(*sorted(result.items()))))}
    return {"theory.json": result}


def cmd_simulate(args) -> dict:
    model = _load_model(args.model)
    if args.n < 2:
        raise ValueError(f"--n must be >= 2, got {args.n}")
    seed_x, seed_y = _axis_seeds(args.seed, 2)
    xs = arma.simulate(model, args.n, seed=seed_x)
    ys = arma.simulate(model, args.n, seed=seed_y)
    t = np.arange(args.n) * model.sample_period
    artifacts = {
        "trace.csv": ingest.WanderTrace(xs=xs, ys=ys, sample_period=model.sample_period,
                                        units=model.units or "model units"),
        "fading.csv": (FADING_HEADER, [t, channel.fading_trace(xs, ys, args.omega_st)]),
    }
    if args.l_max is not None:
        artifacts["crosstalk.csv"] = _crosstalk_table(
            t, *channel.crosstalk_trace(xs, ys, args.omega_st, args.l_max))
    return artifacts


def cmd_fit(args) -> dict:
    trace = ingest.read_trace(args.trace)
    series = trace.xs if args.axis == "x" else trace.ys
    estimate_c = not args.fix_c
    # ACF/PACF come first: a constant trace, or one whose sum of squares
    # overflows or underflows, fails there before any fitting
    rho, pac = stats.acf(series, args.max_lag), stats.pacf(series, args.max_lag)
    bound = stats.significance_bound(series.size)
    artifacts = {"acf.csv": _acf_table(rho, bound), "pacf.csv": _acf_table(pac, bound)}
    if args.scan is not None:
        rows, fits, selected = arma.order_scan(series, *args.scan, estimate_c=estimate_c)
        report = fits[selected]
        header = ["p", "q", "css", "aic", "bic", "converged", "stationary",
                  "invertible"]
        artifacts["scan.csv"] = (header, [[r[k] for r in rows] for k in header])
    else:
        report = arma.fit_css(series, args.p, args.q, estimate_c=estimate_c)
    model = dataclasses.replace(report.model, sample_period=trace.sample_period,
                                units=trace.units)
    artifacts["model.json"] = model.to_dict()
    artifacts["fit_report.json"] = {
        "p": model.p, "q": model.q, "n": report.n, "css": report.css,
        "loglik": report.loglik, "aic": report.aic, "bic": report.bic,
        "stderr": [v if math.isfinite(v) else None for v in report.stderr],
        "converged": report.converged,
        "iterations": report.iterations, "stationary": model.stationary,
        "invertible": model.invertible, "estimate_c": estimate_c,
    }
    # the residuals the fit minimised: with c estimated, those of the demeaned
    # series, free of the start-up transient that the raw series' offset has
    artifacts["diagnostics.json"] = arma.diagnose_residuals(
        report.residuals, max_lag=args.max_lag, n_model_params=model.p + model.q)
    return artifacts


def cmd_analyze(args) -> dict:
    _, (intens,) = ingest.read_series(args.fading, FADING_HEADER)
    tr = ingest.read_trace(args.trace) if args.trace is not None else None
    # first, so that intensities whose mean overflows are named as such,
    # not as a bad --threshold
    si = stats.scintillation_index(intens)
    try:  # clipped, as the mean of equal values can round outside them
        threshold = float(np.clip(np.mean(intens), intens.min(), intens.max())
                          if args.threshold == "mean" else args.threshold)
    except ValueError:
        threshold = math.nan
    if not math.isfinite(threshold):
        raise ValueError("--threshold must be 'mean' or a finite number, "
                         f"got {args.threshold!r}")
    above, below = stats.run_length_distribution(intens, threshold)
    edges, density = stats.empirical_pdf(intens, args.bins)
    summary = {
        "n": int(intens.size),
        "threshold": threshold,
        "mean_intensity": float(np.mean(intens)),
        "scintillation_index": si,
        "scintillation_index_sqrt": float(np.sqrt(si)),
        "max_run_length_above": int(above.max(initial=0)),
        "max_run_length_below": int(below.max(initial=0)),
    }
    positive = intens[(intens > 0) & (intens <= 1)]
    # a constant file's index is exactly 0, but the values in (0, 1] that
    # gamma is fitted to can still be equal where others vary
    if si > 0 and positive.size >= 10 and np.ptp(positive) > 0:
        summary["gamma_hat"] = channel.estimate_gamma(positive)
    if tr is not None:
        summary["radial_variance"] = stats.radial_variance(tr.xs, tr.ys)
    print(json.dumps(summary, indent=2))
    return {"rld.csv": _rld_table(above, below),
            "pdf.csv": (["bin_left", "bin_right", "density"],
                        [edges[:-1], edges[1:], density]),
            "summary.json": summary}


def cmd_crosstalk(args) -> dict:
    trace = ingest.read_trace(args.trace)
    r_norm, weights = channel.crosstalk_trace(trace.xs, trace.ys, args.omega_st,
                                              args.l_max)
    return {"crosstalk.csv": _crosstalk_table(
        np.arange(len(trace)) * trace.sample_period, r_norm, weights)}


def cmd_compare(args) -> dict:
    """ARMA-driven fading vs the memoryless PDF baseline at matched n."""
    model = _load_model(args.model)
    if args.n <= 0:
        raise ValueError("n must be positive")
    if args.seeds <= 0:
        raise ValueError("seeds must be positive")
    if args.tail_length < 1:
        raise ValueError(f"--tail-length must be >= 1, got {args.tail_length}")
    per_seed = []
    runs_arma, runs_mem = [], []
    arma_wins = 0
    stream_seeds = _axis_seeds(args.seed, 3 * args.seeds)
    for i in range(args.seeds):
        sx, sy, sm = stream_seeds[3 * i:3 * i + 3]
        xs = arma.simulate(model, args.n, seed=sx)
        ys = arma.simulate(model, args.n, seed=sy)
        fad = channel.fading_trace(xs, ys, args.omega_st)
        mem = channel.memoryless_sample(args.gamma, args.n, seed=sm)
        run_a = stats.run_length_distribution(fad, float(np.mean(fad)))
        run_m = stats.run_length_distribution(mem, float(np.mean(mem)))
        runs_arma.append(run_a)
        runs_mem.append(run_m)
        max_a, max_m = (int(np.concatenate(r).max()) for r in (run_a, run_m))
        arma_wins += int(max_a > max_m)
        per_seed.append({"seed_index": i, "arma_max_run": max_a,
                         "memoryless_max_run": max_m})
    pooled_arma = [np.concatenate(side) for side in zip(*runs_arma)]
    pooled_mem = [np.concatenate(side) for side in zip(*runs_mem)]
    tail = args.tail_length
    comparison = {
        "n": args.n, "seeds": args.seeds, "gamma": args.gamma,
        "omega_st": args.omega_st,
        "arma_longer_max_run_count": arma_wins,
        "tail_length": tail,
        "arma_tail_count": sum(int((side >= tail).sum()) for side in pooled_arma),
        "memoryless_tail_count": sum(int((side >= tail).sum()) for side in pooled_mem),
        "per_seed": per_seed,
    }
    print(json.dumps({k: v for k, v in comparison.items() if k != "per_seed"},
                     indent=2))
    return {"rld_arma.csv": _rld_table(*pooled_arma),
            "rld_memoryless.csv": _rld_table(*pooled_mem),
            "comparison.json": comparison}


def cmd_ingest(args) -> dict:
    if args.sample_period is not None and args.fps is not None:
        raise ValueError("give --sample-period or --fps, not both")
    if args.sample_period is not None:
        dt = args.sample_period
    elif args.fps is not None:
        if not args.fps > 0:
            raise ValueError(f"--fps must be positive, got {args.fps}")
        dt = 1.0 / args.fps
    else:
        raise ValueError("give --sample-period or --fps")
    frames = ingest.load_frames(args.frames)
    return {"trace.csv": ingest.centroid_trace(
        frames, dt, pixel_pitch=args.pixel_pitch,
        threshold_fraction=args.threshold_fraction)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamwander",
        description="Beam-wander memory modelling: turbulence theory, ARMA "
                    "fitting/simulation, fading and OAM crosstalk analysis.")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for all pseudo-random streams")
    parser.add_argument("--out-dir", default=".", help="output directory")
    parser.add_argument("--format", choices=["json", "csv"], default="json",
                        help="format for scalar summary outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theory", help="closed-form turbulence quantities")
    p.add_argument("--cn2", type=float, required=True)
    p.add_argument("--L", type=float, required=True, help="distance, m")
    p.add_argument("--omega0", type=float, required=True, help="waist radius, m")
    p.add_argument("--theta0", type=float, default=1.0)
    p.add_argument("--kappa0", type=float, default=0.0,
                   help="outer-scale wavenumber, 1/m; 0 = infinite outer scale")
    p.add_argument("--wind", type=float, default=0.0, help="wind speed, m/s")
    p.add_argument("--r0", type=float, default=None, help="Fried parameter, m")
    p.add_argument("--omega-st", type=float, default=None,
                   help="short-term beam radius, m (enables omega_lt output)")

    p = sub.add_parser("simulate", help="simulate wander + fading from a model JSON")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--omega-st", type=float, required=True)
    p.add_argument("--l-max", type=int, default=None,
                   help="also write a crosstalk CSV with modes -l_max..l_max")

    p = sub.add_parser("fit", help="fit an ARMA model to a trace CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--scan", type=int, nargs=2, metavar=("PMAX", "QMAX"),
                   default=None, help="BIC order scan over 0..PMAX x 0..QMAX")
    p.add_argument("--fix-c", action="store_true", help="pin the constant term to 0")
    p.add_argument("--axis", choices=["x", "y"], default="x")
    p.add_argument("--max-lag", type=int, default=20)

    p = sub.add_parser("analyze", help="RLD, PDF and summary stats of a fading CSV")
    p.add_argument("--fading", required=True)
    p.add_argument("--threshold", default="mean",
                   help="'mean' or a number; samples >= threshold count as above")
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--trace", default=None,
                   help="optional wander trace CSV for the radial variance")

    p = sub.add_parser("crosstalk", help="OAM crosstalk spectra along a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--omega-st", type=float, required=True)
    p.add_argument("--l-max", type=int, default=5)

    p = sub.add_parser("compare", help="ARMA fading RLD vs memoryless baseline")
    p.add_argument("--model", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--omega-st", type=float, default=1.0)
    p.add_argument("--tail-length", type=int, default=8,
                   help="run length counted as 'long' in the tail summary")

    p = sub.add_parser("ingest", help="centroid frames into a trace CSV")
    p.add_argument("--frames", required=True,
                   help="directory of P5 PGM files or a CSV-of-frames")
    p.add_argument("--fps", type=float, default=None)
    p.add_argument("--sample-period", type=float, default=None)
    p.add_argument("--pixel-pitch", type=float, default=None, help="m/pixel")
    p.add_argument("--threshold-fraction", type=float, default=0.0)
    return parser


_COMMANDS = {
    "theory": cmd_theory,
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "analyze": cmd_analyze,
    "crosstalk": cmd_crosstalk,
    "compare": cmd_compare,
    "ingest": cmd_ingest,
}


def _write_artifacts(out_dir: str, artifacts: dict) -> list[str]:
    """Write each artifact into out_dir by the kind of its value, in
    order, and return the names of the files written: a (header, columns)
    table by ingest.write_csv, a WanderTrace by ingest.write_trace (which
    adds the `name + ".json"` sidecar), anything else by ingest.write_json."""
    names = []
    for name, value in artifacts.items():
        path = os.path.join(out_dir, name)
        names.append(name)
        if isinstance(value, tuple):
            ingest.write_csv(path, *value)
        elif isinstance(value, ingest.WanderTrace):
            ingest.write_trace(value, path)
            names.append(name + ".json")
        else:
            ingest.write_json(path, value)
    return names


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        for key, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"--{key.replace('_', '-')} must be finite, got {value}")
        # the command computes every artifact before the first file is
        # written, so a run that fails in it leaves no files
        outputs = _write_artifacts(args.out_dir, _COMMANDS[args.command](args))
        ingest.write_json(os.path.join(args.out_dir, "manifest.json"), {
            "command": args.command,
            "params": {k: v for k, v in vars(args).items()
                       if k not in ("command", "out_dir", "seed")},
            "seed": args.seed,
            "generator": arma.GENERATOR_NAME,
            "inputs": [v for k, v in vars(args).items()
                       if k in ("model", "trace", "fading", "frames") and v],
            "outputs": outputs,
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        })
    except Exception as exc:  # single-line machine-parsable failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
