"""Start-up cost: no command imports scipy.signal, and only the fit
imports scipy.linalg. Every name a package module imports is used.

Importing scipy.signal takes longer than most commands' own work, so
`import beamwander.cli` loads no scipy module, and theory, analyze,
ingest, simulate and compare run without one. Crosstalk, from the
crosstalk command or simulate --l-max, loads scipy.special; fit loads
scipy.linalg for its banded LAPACK solve. No command loads scipy.signal.
"""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

import beamwander

SRC = os.path.dirname(os.path.dirname(os.path.abspath(beamwander.__file__)))

# Runs the commands in order in one fresh interpreter and records, after
# the import and after each command, which scipy modules are loaded. The
# record accumulates, so the commands that must load none run first and fit
# runs last.
SCRIPT = r"""
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

from beamwander.cli import main
loaded = {"import": scipy_modules()}
d = sys.argv[1]
with open(d + "/fading.csv", "w") as fh:
    fh.write("t_s,intensity\n" + "".join(f"{i * 0.01},{0.5 + 0.01 * (i % 7)}\n"
                                         for i in range(50)))
with open(d + "/trace.csv", "w") as fh:
    fh.write("t_s,x,y\n" + "".join(f"{i * 0.01},{i % 5},{i % 3}\n" for i in range(50)))
with open(d + "/frames.csv", "w") as fh:
    fh.write("2,2\n" + "".join(f"{i % 3 + 1},1,1,1\n" for i in range(20)))
with open(d + "/model.json", "w") as fh:
    json.dump({"c": 0.5, "ar": [0.5], "ma": [0.3], "sigma2": 1.0}, fh)
model = ["--model", d + "/model.json"]
steps = {
    "theory": ["theory", "--cn2", "1e-14", "--L", "1000", "--omega0", "0.02"],
    "analyze": ["analyze", "--fading", d + "/fading.csv", "--trace", d + "/trace.csv"],
    "ingest": ["ingest", "--frames", d + "/frames.csv", "--fps", "100"],
    "simulate": ["simulate", *model, "--n", "200", "--omega-st", "3.0"],
    "compare": ["compare", *model, "--gamma", "0.7", "--n", "50", "--seeds", "2"],
    "simulate --l-max": ["simulate", *model, "--n", "50", "--omega-st", "3.0",
                         "--l-max", "2"],
    "crosstalk": ["crosstalk", "--trace", d + "/trace.csv", "--omega-st", "3.0"],
    "fit": ["fit", "--trace", d + "/simulate/trace.csv"],
}
for name, argv in steps.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["--out-dir", d + "/" + name.replace(" ", ""), *argv])
    loaded[name] = scipy_modules() if code == 0 else f"exit {code}"
with open(d + "/loaded.json", "w") as fh:
    json.dump(loaded, fh)
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    d = tmp_path_factory.mktemp("imports")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", SCRIPT, str(d)], env=env, check=True,
                   timeout=120)
    return json.loads((d / "loaded.json").read_text())


def test_cli_import_loads_no_scipy(loaded):
    assert loaded["import"] == []


@pytest.mark.parametrize("command", ["theory", "analyze", "ingest",
                                     "simulate", "compare"])
def test_command_loads_no_scipy(loaded, command):
    assert loaded[command] == []


def test_crosstalk_loads_special_not_signal(loaded):
    assert "scipy.special" in loaded["crosstalk"]
    assert "scipy.signal" not in loaded["crosstalk"]


def test_simulate_l_max_loads_special_not_signal(loaded):
    assert "scipy.special" in loaded["simulate --l-max"]
    assert "scipy.signal" not in loaded["simulate --l-max"]


def test_no_command_loads_signal(loaded):
    assert [name for name, mods in loaded.items()
            if "scipy.signal" in mods] == []


def test_only_fit_loads_linalg(loaded):
    assert "scipy.linalg" in loaded["fit"]
    assert [name for name, mods in loaded.items()
            if "scipy.linalg" in mods] == ["fit"]


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "beamwander", "*.py"))),
                         ids=os.path.basename)
def test_every_imported_name_is_used(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
