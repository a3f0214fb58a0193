#!/usr/bin/env python3
"""End-to-end benchmark of the `beamwander` command line.

    python3 bench/run.py --workload paper|stress|frames|all --seed N \
        --seconds S --trace 0|1

Each workload is a fixed sequence of `beamwander` subcommands, run the way
a user runs them: one fresh interpreter per command, one after another,
from this single process (a closed loop with one client; no parallelism).
The sequence ("a pass") repeats until the next pass would overrun
--seconds, and at least twice, so that every data file can be checked for
byte-identical reruns. Every command's outputs are checked against
references computed without `beamwander` (checks.py); a command that exits
non-zero or fails a check counts as failed.

--trace 0 reports the end-to-end metrics from untraced passes, with each
command's time given in units of a calibration command (a fresh
interpreter importing numpy and scipy.signal, no `beamwander`) timed
nearest before and after it, so that the metrics follow the program and
not the host's speed of the moment. --trace 1 alternates untraced passes
with passes run through tracer.py, which wraps each layer's entry points
in spans, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it is the run record
(machine, library versions, source identity, seed, sample counts), which
is also written to bench/results/. See bench/README.md for the workloads
and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import checks
import inputs
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# what the `beamwander` console script runs, without needing an install
CLI = [sys.executable, "-c", "import sys; from beamwander.cli import main; sys.exit(main())"]
TRACER = [sys.executable, str(BENCH / "tracer.py")]
# the CLI's third-party imports, which is most of a short command; it must
# never import `beamwander`, so that a change to the program cannot move it
CALIBRATE = [sys.executable, "-c", "import numpy, scipy.signal"]
# a calibration runs before a command once this much command time has
# passed since the last one, which keeps it to about a quarter of a run
CALIBRATE_EVERY_S = 4.0


@dataclass(frozen=True)
class Scale:
    paper_n: int
    paper_fits: int
    scan: int
    compare_seeds: int
    stress_n: int
    frames: int
    frame_px: int
    setup_reps: int


SCALES = {
    # full: sized so one pass takes 5-15 s on a 2-core machine (see README)
    "full": Scale(paper_n=3000, paper_fits=2, scan=5, compare_seeds=20,
                  stress_n=100_000, frames=3000, frame_px=48, setup_reps=3),
    # smoke: every code path and check, in seconds (smoke.py)
    "smoke": Scale(paper_n=400, paper_fits=1, scan=2, compare_seeds=2,
                   stress_n=30_000, frames=40, frame_px=32, setup_reps=2),
}

# The paper's link (README example), with a partially focused beam
# (theta0 = 0.5) so that the 2F1 factor of the wander variance is not 1.
THEORY_LINK = {"cn2": 4.1e-13, "L": 150.0, "omega0": 3.5e-3, "theta0": 0.5,
               "wind": 5.0, "r0": 0.018, "omega_st": 0.01}
L_MAX = 5
GAMMA = 0.7

END_TO_END_UNITS = {"setup_s": "s", "pipeline_rel": "ratio", "cmd_geomean_rel": "ratio",
                    "peak_rss_mb": "MB"}
# theory's functions are reported together, every other traced function alone
SELF_TIMED = ["cli.main", "theory"] + [f"{module}.{fn}" for module, fns in tracer.TRACED.items()
                                       if module != "theory" for fn in fns]
PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.import_scipy_s": "s", "cli.bytes_written": "B",
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    "arma.fit_css.calls": "count", "arma.gn_iterations": "count",
    "arma.converged_ratio": "ratio", "arma.css22_ratio": "ratio",
    "arma.bic22_share": "fraction", "ingest.trace_bytes": "B", "trace.overhead_s": "s",
}


@dataclass
class Step:
    """One subcommand of a pass: its metric kind, output directory name,
    arguments (without --out-dir) and output check."""

    kind: str
    label: str
    args: list[str]
    check: Callable[[str], dict]

    @property
    def command(self) -> str:
        return self.args[2] if self.args[0] == "--seed" else self.args[0]


@dataclass
class Outcome:
    kind: str
    label: str
    pass_index: int
    wall_s: float
    rss_mb: float
    error: str | None = None
    unit_s: float = math.nan  # calibration time around the command (untraced runs)


@dataclass
class PassResult:
    traced: bool
    outcomes: list[Outcome] = field(default_factory=list)
    bytes_written: int = 0
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)


class Calibration:
    """Wall times of the calibration command, spread over a run."""

    def __init__(self):
        self.times: list[float] = []
        self.marks: list[int] = []  # commands run before each calibration
        self.commands = 0
        self.due = 0.0  # command seconds still to run before the next one

    def run(self, log_path: Path) -> None:
        wall, _, rc = run_child(CALIBRATE, log_path)
        if rc != 0:
            raise RuntimeError(f"calibration command exited {rc}: {_last_line(log_path)}")
        self.times.append(wall)
        self.marks.append(self.commands)
        self.due = CALIBRATE_EVERY_S

    def before_command(self, log_path: Path) -> None:
        if self.due <= 0:
            self.run(log_path)

    def after_command(self, wall_s: float) -> None:
        self.due -= wall_s
        self.commands += 1

    def unit(self, index: int) -> float:
        """The time unit of the index-th command: the mean of the last
        calibration before it and the first one after it."""
        before = max(i for i, m in enumerate(self.marks) if m <= index)
        after = next((i for i, m in enumerate(self.marks) if m > index), before)
        return (self.times[before] + self.times[after]) / 2


# -- workloads ---------------------------------------------------------------

class Paper:
    """Paper scale (n = 3000): theory, K x (simulate -> 5x5 BIC scan),
    analyze, crosstalk, compare over 20 seeds. Import and the scan dominate."""

    def __init__(self, seed: int, scale: Scale):
        self.scale = scale
        seeds = inputs.child_seeds(seed, scale.paper_fits + 1)
        self.sim_seeds, self.compare_seed = seeds[:-1], seeds[-1]
        self.refs = [inputs.reference_xy(s, scale.paper_n) for s in self.sim_seeds]

    def setup(self, d: Path) -> None:
        inputs.write_model(str(d / "model.json"))

    def steps(self, p: Path, d: Path) -> list[Step]:
        s, model, link = self.scale, str(d / "model.json"), THEORY_LINK
        out = [Step("theory", "theory",
                    ["theory", "--cn2", str(link["cn2"]), "--L", str(link["L"]),
                     "--omega0", str(link["omega0"]), "--theta0", str(link["theta0"]),
                     "--wind", str(link["wind"]), "--r0", str(link["r0"]),
                     "--omega-st", str(link["omega_st"])],
                    partial(checks.theory, link=link))]
        for k, (seed, (xs, _)) in enumerate(zip(self.sim_seeds, self.refs)):
            out.append(Step("simulate", f"sim{k}",
                            ["--seed", str(seed), "simulate", "--model", model,
                             "--n", str(s.paper_n), "--omega-st", str(inputs.OMEGA_ST),
                             "--l-max", str(L_MAX)],
                            partial(checks.simulate, seed=seed, n=s.paper_n, l_max=L_MAX)))
            out.append(Step("scan", f"scan{k}",
                            ["fit", "--trace", str(p / f"sim{k}" / "trace.csv"),
                             "--scan", str(s.scan), str(s.scan), "--fix-c"],
                            partial(checks.scan, x=xs, p_max=s.scan, q_max=s.scan)))
        xs, ys = self.refs[0]
        trace = str(p / "sim0" / "trace.csv")
        out += [
            Step("analyze", "analyze",
                 ["analyze", "--fading", str(p / "sim0" / "fading.csv"), "--trace", trace],
                 partial(checks.analyze, intensity=inputs.fading(xs, ys), xs=xs, ys=ys)),
            Step("crosstalk", "crosstalk",
                 ["crosstalk", "--trace", trace, "--omega-st", str(inputs.OMEGA_ST)],
                 partial(checks.crosstalk, xs=xs, ys=ys, l_max=L_MAX)),
            Step("compare", "compare",
                 ["--seed", str(self.compare_seed), "compare", "--model", model,
                  "--gamma", str(GAMMA), "--n", str(s.paper_n),
                  "--seeds", str(s.compare_seeds), "--omega-st", str(inputs.OMEGA_ST)],
                 partial(checks.compare, seed=self.compare_seed, n=s.paper_n,
                         seeds=s.compare_seeds, gamma=GAMMA)),
        ]
        return out


class Stress:
    """Long trace: simulate -> fit (2,2) -> analyze -> crosstalk on one
    series. Text I/O and crosstalk dominate; there is no scan."""

    def __init__(self, seed: int, scale: Scale):
        self.n = scale.stress_n
        (self.seed,) = inputs.child_seeds(seed, 1)
        self.xs, self.ys = inputs.reference_xy(self.seed, self.n)

    def setup(self, d: Path) -> None:
        inputs.write_model(str(d / "model.json"))

    def steps(self, p: Path, d: Path) -> list[Step]:
        trace = str(p / "sim" / "trace.csv")
        xs, ys = self.xs, self.ys
        return [
            Step("simulate", "sim",
                 ["--seed", str(self.seed), "simulate", "--model", str(d / "model.json"),
                  "--n", str(self.n), "--omega-st", str(inputs.OMEGA_ST)],
                 partial(checks.simulate, seed=self.seed, n=self.n, l_max=None)),
            Step("fit", "fit", ["fit", "--trace", trace, "--p", "2", "--q", "2", "--fix-c"],
                 partial(checks.fit, x=xs)),
            Step("analyze", "analyze",
                 ["analyze", "--fading", str(p / "sim" / "fading.csv"), "--trace", trace],
                 partial(checks.analyze, intensity=inputs.fading(xs, ys), xs=xs, ys=ys)),
            Step("crosstalk", "crosstalk",
                 ["crosstalk", "--trace", trace, "--omega-st", str(inputs.OMEGA_ST),
                  "--l-max", str(L_MAX)],
                 partial(checks.crosstalk, xs=xs, ys=ys, l_max=L_MAX)),
        ]


class Frames:
    """A 300 Hz recording of a wandering Gaussian spot, ingested once from a
    CSV-of-frames and once from a P5 PGM directory."""

    def __init__(self, seed: int, scale: Scale):
        self.scale = scale
        (self.seed,) = inputs.child_seeds(seed, 1)
        self.frameset: inputs.FrameSet | None = None

    def setup(self, d: Path) -> None:
        self.frameset = inputs.FrameSet(self.seed, self.scale.frames, self.scale.frame_px)
        self.frameset.write_csv(str(d / "frames.csv"))
        self.frameset.write_pgm_dir(str(d / "pgm"))

    def steps(self, p: Path, d: Path) -> list[Step]:
        check = partial(checks.ingest, frameset=self.frameset)
        return [Step("ingest_csv", "ingest_csv",
                     ["ingest", "--frames", str(d / "frames.csv"), "--fps", str(inputs.FPS)],
                     check),
                Step("ingest_pgm", "ingest_pgm",
                     ["ingest", "--frames", str(d / "pgm"), "--fps", str(inputs.FPS)],
                     check)]


WORKLOADS = {"paper": Paper, "stress": Stress, "frames": Frames}


# -- running commands --------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # an installed package has its bytecode compiled; let the warm import do that
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # one thread per command: a BLAS pool as wide as this 2-core machine
    # spins against everything else on it and makes the order scan's
    # timings depend on the scheduler (a 2 s scan took up to 18 s)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], log_path: Path) -> tuple[float, float, int]:
    """Run one command to completion; (wall s, peak RSS MB, exit code)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every data file (the manifest carries a timestamp)."""
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out_dir.iterdir()) if f.name != "manifest.json"}


def _last_line(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def _self_times(trace: dict) -> dict[str, float]:
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), c in zip(spans, child):
        key = "theory" if name.startswith("theory.") else name
        out[key] = out.get(key, 0.0) + (end - start) - c
    return out


def run_pass(workload, index: int, traced: bool, work: Path, setup_dir: Path,
             digests: dict, quality: list, calibration: Calibration | None) -> PassResult:
    pass_dir = work / f"pass{index}"
    result = PassResult(traced=traced)
    imports, counts = [], {}
    for step in workload.steps(pass_dir, setup_dir):
        out_dir = pass_dir / step.label
        out_dir.mkdir(parents=True)
        spans_path = pass_dir / f"{step.label}.spans.json"
        prefix = TRACER + [str(spans_path)] if traced else CLI
        if calibration:
            calibration.before_command(pass_dir / "calibrate.log")
        wall, rss, rc = run_child(prefix + ["--out-dir", str(out_dir)] + step.args,
                                  pass_dir / f"{step.label}.log")
        if calibration:
            calibration.after_command(wall)
        outcome = Outcome(step.kind, step.label, index, wall, rss)
        try:
            if rc != 0:
                raise checks.CheckError(f"exit status {rc}: "
                                        f"{_last_line(pass_dir / f'{step.label}.log')}")
            checks.manifest(str(out_dir), step.command)
            got = _digests(out_dir)
            if step.label in digests:
                if got != digests[step.label]:
                    raise checks.CheckError("rerun is not byte-identical to pass 0")
            else:
                quality.append(step.check(str(out_dir)))
                digests[step.label] = got
        except Exception as exc:  # any failure of this command is counted, not fatal
            outcome.error = f"{type(exc).__name__}: {exc}"
        result.outcomes.append(outcome)
        result.bytes_written += sum(f.stat().st_size for f in out_dir.iterdir())
        if traced and spans_path.exists():
            trace = json.loads(spans_path.read_text())
            imports.append(trace["import_s"])
            for key, value in _self_times(trace).items():
                result.layers[f"{key}.self_s"] = result.layers.get(f"{key}.self_s", 0.0) + value
            for key, value in trace["counts"].items():
                counts[key] = counts.get(key, 0) + value
    if traced:
        result.layers["cli.import_s"] = statistics.median(imports) if imports else 0.0
        for key in ("arma.fit_css.calls", "arma.gn_iterations", "ingest.trace_bytes"):
            result.layers[key] = counts.get(key, 0)
        calls = counts.get("arma.fit_css.calls", 0)
        result.layers["arma.converged_ratio"] = (
            counts.get("arma.fit_css.converged", 0) / calls if calls else 0.0)
    if not any(o.error for o in result.outcomes):
        shutil.rmtree(pass_dir)
    return result


# -- measurement -------------------------------------------------------------

def _warm_import() -> None:
    """Import the CLI once in a fresh interpreter, so bytecode is compiled
    and the files are cached before anything is timed; also confirm that
    the package under test is this checkout's."""
    out = subprocess.run(CLI[:1] + ["-c", "import beamwander.cli as c; print(c.__file__)"],
                         env=_env(), cwd=ROOT, capture_output=True, text=True, check=True)
    if Path(out.stdout.strip()).resolve().parent != (SRC / "beamwander").resolve():
        raise RuntimeError(f"imported beamwander from {out.stdout.strip()}, not {SRC}")


def setup(workload, work: Path, reps: int) -> tuple[Path, list[float]]:
    """Generate the inputs `reps` times; the last copy is used."""
    times = []
    for r in range(reps):
        d = work / "inputs"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        t0 = time.perf_counter()
        workload.setup(d)
        _warm_import()
        times.append(time.perf_counter() - t0)
    return d, times


def import_scipy_s() -> float:
    """The scipy share of `import beamwander.cli`, from -X importtime:
    the cumulative time of every scipy module not imported by another."""
    out = subprocess.run(CLI[:1] + ["-X", "importtime", "-c", "import beamwander.cli"],
                         env=_env(), cwd=ROOT, capture_output=True, text=True, check=True)
    rows = []
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    total, stack = 0, []  # reversed post-order visits parents before children
    for level, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= level:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total += cumulative
        stack.append((level, inside or is_scipy))
    return total / 1e6


def measure(name: str, seed: int, seconds: float, trace: bool, scale: Scale) -> dict:
    workload = WORKLOADS[name](seed, scale)
    work = BENCH / "work" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    t0, longest = time.perf_counter(), 0.0
    setup_dir, setup_times = setup(workload, work, scale.setup_reps)
    passes: list[PassResult] = []
    digests: dict = {}
    quality: list[dict] = []
    # the per-layer metrics are raw times, so a traced run needs no calibration
    calibration = None if trace else Calibration()
    while True:
        traced = trace and len(passes) % 2 == 1
        calibrated = sum(calibration.times) if calibration else 0.0
        passes.append(run_pass(workload, len(passes), traced, work, setup_dir,
                               digests, quality, calibration))
        # the first pass's checks are not repeated, so predict from command time
        if calibration:
            calibrated = sum(calibration.times) - calibrated
        longest = max(longest, passes[-1].wall_s + calibrated)
        closing = calibration.times[-1] if calibration else 0.0
        if len(passes) >= 2 and time.perf_counter() - t0 + longest + closing > seconds:
            break
    if calibration:
        calibration.run(work / "calibrate.log")  # closes the last commands' interval
        for i, o in enumerate(o for p in passes for o in p.outcomes):
            o.unit_s = calibration.unit(i)
    failed = [o for p in passes for o in p.outcomes if o.error]
    if not failed:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()
    return {"setup_times": setup_times, "passes": passes,
            "calibrate_times": calibration.times if calibration else [],
            "quality": quality, "scipy_s": import_scipy_s() if trace else None,
            "work_dir": str(work) if failed else None}


# -- metrics -----------------------------------------------------------------

def _summary(values: list[float]) -> dict:
    v = sorted(values)
    return {"n": len(v), "median": statistics.median(v),
            "p90": v[math.ceil(0.9 * len(v)) - 1], "max": v[-1]}


def command_summaries(run: dict) -> dict:
    """Wall-time summary of every command kind over the untraced passes."""
    by_kind: dict[str, list[float]] = {}
    for p in run["passes"]:
        if not p.traced:
            for o in p.outcomes:
                by_kind.setdefault(o.kind, []).append(o.wall_s)
    return {k: _summary(v) for k, v in by_kind.items()}


def end_to_end(run: dict) -> dict:
    """The result metrics of a --trace 0 run. Each command's wall time is
    divided by the calibration time around it before taking medians."""
    untraced = [p for p in run["passes"] if not p.traced]
    by_kind: dict[str, list[float]] = {}
    for p in untraced:
        for o in p.outcomes:
            by_kind.setdefault(o.kind, []).append(o.wall_s / o.unit_s)
    return {
        "setup_s": statistics.median(run["setup_times"]),
        "pipeline_rel": statistics.median(sum(o.wall_s / o.unit_s for o in p.outcomes)
                                          for p in untraced),
        "cmd_geomean_rel": math.exp(statistics.fmean(math.log(statistics.median(v))
                                                     for v in by_kind.values())),
        "peak_rss_mb": max(o.rss_mb for p in untraced for o in p.outcomes),
    }


def per_layer(run: dict) -> dict:
    traced = [p for p in run["passes"] if p.traced]
    untraced = [p for p in run["passes"] if not p.traced]
    out = {}
    for key in PER_LAYER_UNITS:
        values = [p.layers.get(key, 0.0) for p in traced]
        out[key] = statistics.median(values)
    out["cli.bytes_written"] = statistics.median(p.bytes_written for p in traced)
    out["cli.import_scipy_s"] = run["scipy_s"]
    out["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                               - statistics.median(p.wall_s for p in untraced))
    ratios = [q["css22_ratio"] for q in run["quality"] if "css22_ratio" in q]
    out["arma.css22_ratio"] = max(ratios, default=0.0)
    scans = [q["bic22"] for q in run["quality"] if "bic22" in q]
    out["arma.bic22_share"] = sum(scans) / len(scans) if scans else 0.0
    return out


# -- run record --------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{index}/level").strip()
        kind = _read(f"{base}/{index}/type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{base}/{index}/size").strip()
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), **caches,
            "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def source_identity() -> dict:
    """The git commit when run from a git checkout, and always a digest of
    the package source, which identifies the code in a plain export."""
    digest = hashlib.sha256()
    for f in sorted((SRC / "beamwander").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    commit = None
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        commit = _read(str(ROOT / ".git" / head[5:])).strip() or None
    elif head:
        commit = head
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


# -- entry point -------------------------------------------------------------

def report(name: str, seed: int, seconds: float, trace: bool, scale_name: str) -> dict:
    run = measure(name, seed, seconds, trace, SCALES[scale_name])
    outcomes = [o for p in run["passes"] for o in p.outcomes]
    failures = [f"pass {o.pass_index} {o.label}: {o.error}" for o in outcomes if o.error]
    kinds = command_summaries(run)
    e2e = None if trace else end_to_end(run)
    layers = per_layer(run) if trace else None
    chosen = layers if trace else e2e
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {"correct": not failures, "attempted": len(outcomes), "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()}}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "scale": scale_name, "machine": machine(), "source": source_identity(),
              "passes": {"untraced": sum(not p.traced for p in run["passes"]),
                         "traced": sum(p.traced for p in run["passes"])},
              "setup_s": _summary(run["setup_times"]),
              "pipeline_s": _summary([p.wall_s for p in run["passes"] if not p.traced]),
              "calibrate_s": _summary(run["calibrate_times"]) if run["calibrate_times"] else None,
              "pass_walls_s": [p.wall_s for p in run["passes"] if not p.traced],
              "calibrate_walls_s": run["calibrate_times"],
              "commands": {f"{k}_s": v for k, v in kinds.items()},
              "end_to_end": e2e, "per_layer": layers, "quality": run["quality"],
              "failures": failures, "work_dir": run["work_dir"]}
    print(f"workload={name} seed={seed} trace={int(trace)} scale={scale_name}: "
          f"{record['passes']['untraced']} untraced + {record['passes']['traced']} traced "
          f"passes, {len(outcomes)} commands, {len(failures)} failed")
    print(f"  {'command':<14}{'n':>4}{'median_s':>11}{'p90_s':>11}{'max_s':>11}")
    for k, s in kinds.items():
        print(f"  {k + '_s':<14}{s['n']:>4}{s['median']:>11.4f}{s['p90']:>11.4f}{s['max']:>11.4f}")
    if record["calibrate_s"]:
        s = record["calibrate_s"]
        print(f"  {'calibrate_s':<14}{s['n']:>4}{s['median']:>11.4f}{s['p90']:>11.4f}{s['max']:>11.4f}")
    for k, m in result["metrics"].items():
        print(f"  {k:<32}{m['value']:>14.6g} {m['unit']}")
    for f in failures:
        print(f"  FAILED {f}")
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, default=float) + "\n")
    print("run-record " + json.dumps(record, default=float))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=list(SCALES), default="full",
                    help="input sizes; 'smoke' is for smoke.py")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through run_child so the running command is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "beamwander" / "cli.py").is_file():
        print(f"error: no beamwander package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: report(n, args.seed, args.seconds, bool(args.trace), args.scale)
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
