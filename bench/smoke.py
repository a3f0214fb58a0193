#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

    python3 bench/smoke.py

Runs every workload untraced and traced at the `smoke` scale, which goes
through every command and every output check, and requires a correct
result carrying exactly the metrics BENCHMARK.json declares. Then it
tampers with outputs to confirm that the checks reject wrong results.
Not part of the repository's test suite; takes about two minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import inputs
import run


def declared() -> dict[str, set[str]]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {"0": {m["name"] for m in spec["end_to_end"]},
            "1": {m["name"] for m in spec["per_layer"]},
            "workloads": {w["name"] for w in spec["workloads"]}}


def check_runs() -> None:
    names = declared()
    assert names["workloads"] == set(run.WORKLOADS), names["workloads"]
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--scale", "smoke"])
            result = json.loads(buf.getvalue().strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, buf.getvalue()
            assert set(result["metrics"]) == names[str(trace)], set(result["metrics"])
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), result
            print(f"ok  {workload} trace={trace}: {result['attempted']} commands")


def expect_rejected(label: str, fn) -> None:
    try:
        fn()
    except checks.CheckError as exc:
        print(f"ok  tampered {label} rejected: {exc}")
        return
    raise AssertionError(f"tampered {label} passed its check")


def check_tampering() -> None:
    """Perturb one value in real outputs; each check must fail."""
    tmp = Path(tempfile.mkdtemp(dir=run.BENCH))
    try:
        model = tmp / "model.json"
        inputs.write_model(str(model))
        seed, n, sim = 11, 400, tmp / "sim"
        _, _, rc = run.run_child(run.CLI + ["--out-dir", str(sim), "--seed", str(seed),
                                            "simulate", "--model", str(model), "--n", str(n),
                                            "--omega-st", str(inputs.OMEGA_ST), "--l-max", "2"],
                                 tmp / "sim.log")
        assert rc == 0, (tmp / "sim.log").read_text()
        checks.simulate(str(sim), seed=seed, n=n, l_max=2)  # untouched: passes

        trace = (sim / "trace.csv").read_text().splitlines()
        t, x, y = trace[5].split(",")
        trace[5] = ",".join([t, repr(float(x) + 1e-9), y])
        (sim / "trace.csv").write_text("\n".join(trace) + "\n")
        expect_rejected("trace value", lambda: checks.simulate(str(sim), seed=seed, n=n,
                                                               l_max=None))

        xs, ys = inputs.reference_xy(seed, n)
        ct = (sim / "crosstalk.csv").read_text().splitlines()
        cells = ct[7].split(",")
        cells[4] = repr(float(cells[4]) * (1 + 1e-6))
        ct[7] = ",".join(cells)
        (sim / "crosstalk.csv").write_text("\n".join(ct) + "\n")
        expect_rejected("crosstalk weight", lambda: checks.crosstalk(str(sim), xs=xs, ys=ys,
                                                                     l_max=2))

        frameset = inputs.FrameSet(seed, 30, 32)
        ingest_dir = tmp / "ingest"
        frameset.write_csv(str(tmp / "frames.csv"))
        _, _, rc = run.run_child(run.CLI + ["--out-dir", str(ingest_dir), "ingest",
                                                 "--frames", str(tmp / "frames.csv"),
                                                 "--fps", str(inputs.FPS)], tmp / "ingest.log")
        assert rc == 0, (tmp / "ingest.log").read_text()
        checks.ingest(str(ingest_dir), frameset)
        frameset.true_x = frameset.true_x + np.where(np.arange(30) == 4, 0.2, 0.0)
        expect_rejected("rendered centre", lambda: checks.ingest(str(ingest_dir), frameset))
    finally:
        shutil.rmtree(tmp)


if __name__ == "__main__":
    check_tampering()
    check_runs()
    print("smoke: all passed")
    sys.exit(0)
