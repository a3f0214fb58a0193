"""Run one `beamwander` command in this process with spans around the
public entry points of each layer, then write the spans as JSON.

    python tracer.py SPANS_JSON [beamwander arguments...]

Spans are recorded from the benchmark's side only: each listed module
attribute is replaced by a timing wrapper before `cli.main` runs, so a call
made through the module (`arma.fit_css` from `cli`, or `fit_css` from
`order_scan`) nests as a child span. Per-sample helpers (`oam_spectrum`,
`bessel_i`, `weighted_centroid`) are deliberately not wrapped.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

TRACED = {
    "theory": ["hyp2f1_beam", "wander_variance_general", "wander_variance_collimated",
               "wander_variance_outer_scale", "wander_variance", "long_term_beam_size",
               "greenwood_frequency"],
    "arma": ["simulate", "residuals", "fit_css", "order_scan", "diagnose_residuals"],
    "channel": ["fading_trace", "memoryless_sample", "estimate_gamma", "crosstalk_trace"],
    "stats": ["acf", "pacf", "run_length_distribution", "empirical_pdf"],
    "ingest": ["write_trace", "read_trace", "load_frames", "centroid_trace"],
}


class Tracer:
    """In-memory span list: [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
                if observe is not None:
                    observe(self, args, result, error)
        return traced


def _observe_fit(tracer, args, report, error):
    report = report if error is None else getattr(error, "report", None)
    tracer.count("arma.fit_css.calls")
    if report is not None:
        tracer.count("arma.gn_iterations", report.iterations)
        tracer.count("arma.fit_css.converged", int(bool(report.converged)))


def _observe_read(tracer, args, result, error):
    if error is None:
        tracer.count("ingest.trace_bytes", os.path.getsize(args[0]))


def _observe_write(tracer, args, result, error):
    if error is None:
        tracer.count("ingest.trace_bytes", os.path.getsize(args[1]))


OBSERVERS = {"arma.fit_css": _observe_fit, "ingest.read_trace": _observe_read,
             "ingest.write_trace": _observe_write}


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    from beamwander import arma, channel, cli, ingest, stats, theory
    import_s = time.perf_counter() - t0
    modules = {"theory": theory, "arma": arma, "channel": channel, "stats": stats,
               "ingest": ingest}
    tracer = Tracer()
    for mod_name, names in TRACED.items():
        for fn_name in names:
            full = f"{mod_name}.{fn_name}"
            setattr(modules[mod_name], fn_name,
                    tracer.wrap(full, getattr(modules[mod_name], fn_name),
                                OBSERVERS.get(full)))
    rc = tracer.wrap("cli.main", cli.main)(argv)
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans,
                   "counts": tracer.counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
