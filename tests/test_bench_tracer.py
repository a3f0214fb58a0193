"""The traced benchmark run (`bench/tracer.py`) replaces module attributes
by name with `getattr` and no default, so a renamed or deleted function
would crash every traced run. This checks each name it wraps; it reads
the script and changes nothing in it."""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {f"{mod}.{name}" for mod, names in tracer.TRACED.items()
              for name in names}
    missing = [full for full in sorted(traced) if not callable(getattr(
        importlib.import_module("beamwander." + full.split(".")[0]),
        full.split(".")[1], None))]
    assert missing == []
    assert set(tracer.OBSERVERS) <= traced
