"""Batch command-line pipeline.

Subcommands: theory, simulate, fit, analyze, crosstalk, compare, ingest.
Every run writes its artifacts plus a manifest.json into --out-dir;
re-running with the same arguments and seed reproduces the data files
byte-identically (the manifest timestamp excluded).

Units: all lengths in meters, Cn^2 in m^(-2/3), wind speed in m/s, unless
a trace was ingested in pixels (its sidecar then says so). Run-length
thresholds compare with >=, i.e. a sample exactly at the threshold counts
as "above".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, arma, channel, ingest, stats, theory

FADING_HEADER = ["t_s", "intensity"]


def _write_manifest(out_dir: str, command: str, params: dict,
                    inputs: list[str], outputs: list[str],
                    seed: int | None) -> None:
    manifest = {
        "command": command,
        "params": params,
        "seed": seed,
        "generator": arma.GENERATOR_NAME,
        "inputs": inputs,
        "outputs": outputs,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    ingest.write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _write_acf_csv(path: str, result: stats.AcfResult) -> None:
    ingest.write_csv(path, ["lag", "value", "bound"],
                     [result.lags, result.values,
                      np.full(result.values.size, float(result.significance_bound))])


def _write_rld_csv(path: str, rld: stats.RunLengthDistribution) -> None:
    above, below = sorted(rld.above), sorted(rld.below)
    ingest.write_csv(path, ["side", "run_length", "count"],
                     [["above"] * len(above) + ["below"] * len(below),
                      above + below,
                      [rld.above[k] for k in above] + [rld.below[k] for k in below]])


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


def cmd_theory(args, out_dir: str) -> list[str]:
    p = theory.LinkParams(cn2=args.cn2, L=args.L, omega0=args.omega0,
                          theta0=args.theta0, kappa0=args.kappa0,
                          wind_speed=args.wind,
                          r0=args.r0)
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
    outputs = []
    if args.format == "csv":
        path = os.path.join(out_dir, "theory.csv")
        ingest.write_csv(path, ["quantity", "value"], zip(*sorted(result.items())))
    else:
        path = os.path.join(out_dir, "theory.json")
        ingest.write_json(path, result)
    outputs.append(path)
    print(json.dumps(result, indent=2))
    return outputs


def cmd_simulate(args, out_dir: str) -> list[str]:
    model = _load_model(args.model)
    if args.n <= 0:
        raise ValueError("n must be positive")
    seed_x, seed_y = _axis_seeds(args.seed, 2)
    xs = arma.simulate(model, args.n, seed=seed_x)
    ys = arma.simulate(model, args.n, seed=seed_y)
    trace = ingest.WanderTrace(xs=xs, ys=ys, sample_period=model.sample_period,
                               units=model.units or "model units")
    # everything is computed before the first file is written, so a failed
    # run leaves no artifacts
    intensities = channel.fading_trace(xs, ys, args.omega_st)
    if args.l_max is not None:
        r_norm, weights = channel.crosstalk_trace(xs, ys, args.omega_st, args.l_max)

    t = np.arange(args.n) * model.sample_period
    trace_path = os.path.join(out_dir, "trace.csv")
    ingest.write_trace(trace, trace_path)
    fading_path = os.path.join(out_dir, "fading.csv")
    ingest.write_csv(fading_path, FADING_HEADER, [t, intensities])
    outputs = [trace_path, trace_path + ".json", fading_path]
    if args.l_max is not None:
        ct_path = os.path.join(out_dir, "crosstalk.csv")
        _write_crosstalk_csv(ct_path, t, r_norm, weights)
        outputs.append(ct_path)
    return outputs


def _write_crosstalk_csv(path: str, t, r_norm, weights) -> None:
    l_max = weights.shape[1] // 2
    header = ["t_s", "r_c_norm"] + [f"C_{l}" for l in range(-l_max, l_max + 1)]
    ingest.write_csv(path, header, [t, r_norm, *weights.T])


def cmd_fit(args, out_dir: str) -> list[str]:
    trace = ingest.read_trace(args.trace)
    series = trace.xs if args.axis == "x" else trace.ys
    estimate_c = not args.fix_c
    # everything is computed before the first file is written, so a failed
    # fit leaves no artifacts. ACF/PACF come first: a degenerate (constant)
    # trace fails there with a zero-variance error before any fitting
    acf = stats.acf(series, args.max_lag)
    pacf = stats.pacf(series, args.max_lag)
    scan = None
    if args.scan is not None:
        p_max, q_max = args.scan
        scan = arma.order_scan(series, p_max, q_max, estimate_c=estimate_c,
                               sample_period=trace.sample_period,
                               units=trace.units)
        p_sel, q_sel = scan.selected_bic
        report = scan.fits[scan.selected_bic]
    else:
        p_sel, q_sel = args.p, args.q
        report = arma.fit_css(series, p_sel, q_sel, estimate_c=estimate_c,
                              sample_period=trace.sample_period,
                              units=trace.units)
    res = arma.residuals(report.model, series)
    diag = arma.diagnose_residuals(res, max_lag=args.max_lag,
                                   n_model_params=p_sel + q_sel)

    acf_path = os.path.join(out_dir, "acf.csv")
    pacf_path = os.path.join(out_dir, "pacf.csv")
    _write_acf_csv(acf_path, acf)
    _write_acf_csv(pacf_path, pacf)
    outputs = [acf_path, pacf_path]
    if scan is not None:
        scan_path = os.path.join(out_dir, "scan.csv")
        header = ["p", "q", "css", "aic", "bic", "converged", "stationary",
                  "invertible"]
        ingest.write_csv(scan_path, header,
                         [[r[k] for r in scan.rows] for k in header])
        outputs.append(scan_path)
    model_path = os.path.join(out_dir, "model.json")
    ingest.write_json(model_path, report.model.to_dict())
    report_path = os.path.join(out_dir, "fit_report.json")
    ingest.write_json(report_path, {
        "p": p_sel, "q": q_sel, "n": report.n, "css": report.css,
        "loglik": report.loglik, "aic": report.aic, "bic": report.bic,
        "stderr": report.stderr, "converged": report.converged,
        "iterations": report.iterations, "stationary": report.stationary,
        "invertible": report.invertible, "estimate_c": estimate_c,
    })
    diag_path = os.path.join(out_dir, "diagnostics.json")
    ingest.write_json(diag_path, {
        "ljung_box_q": diag.ljung_box_q, "ljung_box_df": diag.ljung_box_df,
        "ljung_box_critical": diag.ljung_box_critical,
        "skewness": diag.skewness, "excess_kurtosis": diag.excess_kurtosis,
        "significance_bound": diag.significance_bound,
        "passed": diag.passed,
    })
    return outputs + [model_path, report_path, diag_path]


def cmd_analyze(args, out_dir: str) -> list[str]:
    _, (intens,) = ingest.read_series(args.fading, FADING_HEADER)
    tr = ingest.read_trace(args.trace) if args.trace is not None else None
    threshold = float(np.mean(intens)) if args.threshold == "mean" else float(args.threshold)
    # everything is computed before the first file is written, so a failed
    # run leaves no artifacts
    rld = stats.run_length_distribution(intens, threshold)
    edges, density = stats.empirical_pdf(intens, args.bins)
    summary = {
        "n": int(intens.size),
        "threshold": threshold,
        "mean_intensity": float(np.mean(intens)),
        "scintillation_index": stats.scintillation_index(intens),
        "scintillation_index_sqrt": float(np.sqrt(stats.scintillation_index(intens))),
        "max_run_length_above": rld.max_run_length("above"),
        "max_run_length_below": rld.max_run_length("below"),
    }
    positive = intens[(intens > 0) & (intens <= 1)]
    if positive.size >= 10 and np.any(positive < 1):
        summary["gamma_hat"] = channel.estimate_gamma(positive)
    if tr is not None:
        summary["radial_variance"] = stats.radial_variance(tr.xs, tr.ys)

    rld_path = os.path.join(out_dir, "rld.csv")
    _write_rld_csv(rld_path, rld)
    pdf_path = os.path.join(out_dir, "pdf.csv")
    ingest.write_csv(pdf_path, ["bin_left", "bin_right", "density"],
                     [edges[:-1], edges[1:], density])
    summary_path = os.path.join(out_dir, "summary.json")
    ingest.write_json(summary_path, summary)
    print(json.dumps(summary, indent=2))
    return [rld_path, pdf_path, summary_path]


def cmd_crosstalk(args, out_dir: str) -> list[str]:
    trace = ingest.read_trace(args.trace)
    r_norm, weights = channel.crosstalk_trace(trace.xs, trace.ys, args.omega_st,
                                              args.l_max)
    path = os.path.join(out_dir, "crosstalk.csv")
    _write_crosstalk_csv(path, np.arange(len(trace)) * trace.sample_period,
                         r_norm, weights)
    return [path]


def cmd_compare(args, out_dir: str) -> list[str]:
    """ARMA-driven fading vs the memoryless PDF baseline at matched n."""
    model = _load_model(args.model)
    if args.n <= 0:
        raise ValueError("n must be positive")
    if args.seeds <= 0:
        raise ValueError("seeds must be positive")
    per_seed = []
    rlds_arma, rlds_mem = [], []
    arma_wins = 0
    stream_seeds = _axis_seeds(args.seed, 3 * args.seeds)
    for i in range(args.seeds):
        sx, sy, sm = stream_seeds[3 * i:3 * i + 3]
        xs = arma.simulate(model, args.n, seed=sx)
        ys = arma.simulate(model, args.n, seed=sy)
        fad = channel.fading_trace(xs, ys, args.omega_st)
        mem = channel.memoryless_sample(args.gamma, args.n, seed=sm)
        rld_a = stats.run_length_distribution(fad, float(np.mean(fad)))
        rld_m = stats.run_length_distribution(mem, float(np.mean(mem)))
        rlds_arma.append(rld_a)
        rlds_mem.append(rld_m)
        max_a, max_m = rld_a.max_run_length(), rld_m.max_run_length()
        arma_wins += int(max_a > max_m)
        per_seed.append({"seed_index": i, "arma_max_run": max_a,
                         "memoryless_max_run": max_m})
    pooled_arma = stats.pool_run_lengths(rlds_arma)
    pooled_mem = stats.pool_run_lengths(rlds_mem)
    tail = args.tail_length
    comparison = {
        "n": args.n, "seeds": args.seeds, "gamma": args.gamma,
        "omega_st": args.omega_st,
        "arma_longer_max_run_count": arma_wins,
        "tail_length": tail,
        "arma_tail_count": sum(v for k, v in pooled_arma.above.items() if k >= tail)
        + sum(v for k, v in pooled_arma.below.items() if k >= tail),
        "memoryless_tail_count": sum(v for k, v in pooled_mem.above.items() if k >= tail)
        + sum(v for k, v in pooled_mem.below.items() if k >= tail),
        "per_seed": per_seed,
    }
    arma_path = os.path.join(out_dir, "rld_arma.csv")
    mem_path = os.path.join(out_dir, "rld_memoryless.csv")
    _write_rld_csv(arma_path, pooled_arma)
    _write_rld_csv(mem_path, pooled_mem)
    comp_path = os.path.join(out_dir, "comparison.json")
    ingest.write_json(comp_path, comparison)
    print(json.dumps({k: v for k, v in comparison.items() if k != "per_seed"},
                     indent=2))
    return [arma_path, mem_path, comp_path]


def cmd_ingest(args, out_dir: str) -> list[str]:
    if args.sample_period is not None:
        dt = args.sample_period
    elif args.fps is not None:
        if not 0 < args.fps < math.inf:
            raise ValueError(f"--fps must be positive and finite, got {args.fps}")
        dt = 1.0 / args.fps
    else:
        raise ValueError("give --sample-period or --fps")
    frames = ingest.load_frames(args.frames)
    trace = ingest.centroid_trace(frames, dt, pixel_pitch=args.pixel_pitch,
                                  threshold_fraction=args.threshold_fraction)
    path = os.path.join(out_dir, "trace.csv")
    ingest.write_trace(trace, path)
    return [path, path + ".json"]


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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out_dir = args.out_dir
        os.makedirs(out_dir, exist_ok=True)
        outputs = _COMMANDS[args.command](args, out_dir)
        params = {k: v for k, v in vars(args).items()
                  if k not in ("command", "out_dir", "seed")}
        inputs = [v for k, v in vars(args).items()
                  if k in ("model", "trace", "fading", "frames") and v]
        _write_manifest(out_dir, args.command, params, inputs,
                        [os.path.basename(o) for o in outputs], args.seed)
    except Exception as exc:  # single-line machine-parsable failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
