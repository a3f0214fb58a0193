"""Start-up cost: no command leaves a scipy module loaded. Every name a
package module imports is used, and so is every private name it defines;
one function alone calls np.roots, one alone loads an extension file, and
the package defines only the classes listed in CLASSES.

Importing scipy.signal takes longer than most commands' own work,
scipy.special alone costs about as much as a short command, and the
scipy.linalg package init costs about 0.2 s. So `import beamwander.cli`
loads no scipy module, and theory, analyze, ingest and crosstalk run on
numpy alone: the crosstalk weights come from the package's own Bessel
kernel. simulate (with or without --l-max), compare and fit filter
through lfilter's compiled routine from scipy's _sigtools extension, which
is loaded from its file and left out of sys.modules, so no command leaves
a scipy module loaded. Were the direct load to fail, these commands would
import scipy.signal, and these tests would fail.
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


@pytest.mark.parametrize("command", ["theory", "analyze", "ingest", "simulate",
                                     "compare", "simulate --l-max", "crosstalk", "fit"])
def test_command_loads_no_scipy(loaded, command):
    assert loaded[command] == []


def test_no_command_loads_signal(loaded):
    assert [name for name, mods in loaded.items()
            if "scipy.signal" in mods] == []


def test_fit_loads_no_linalg_module(loaded):
    # the record accumulates and fit runs last, so this covers every command
    assert isinstance(loaded["fit"], list), loaded["fit"]  # fit succeeded
    assert [m for m in loaded["fit"] if m.split(".")[:2] == ["scipy", "linalg"]] == []


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


def _defined_names(node) -> set:
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "beamwander", "*.py"))),
                         ids=os.path.basename)
def test_every_private_name_is_used(path):
    # a module-level _name serves its own module alone, so one that no
    # other statement of the module reads (a call from its own body does
    # not count) is dead code, such as a helper left behind by a fold
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    reads = [{n.id for n in ast.walk(node)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
             for node in tree.body]
    unused = [name for i, node in enumerate(tree.body)
              for name in sorted(_defined_names(node))
              if name.startswith("_") and not name.startswith("__")
              and not any(name in r for j, r in enumerate(reads) if j != i)]
    assert unused == []


def _callers(node, name, where):
    """The dotted names of the functions under node that call name()."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = f"{where}.{node.name}"
    found = []
    if isinstance(node, ast.Call) and name in (getattr(node.func, "attr", None),
                                               getattr(node.func, "id", None)):
        found.append(where)
    for child in ast.iter_child_nodes(node):
        found += _callers(child, name, where)
    return found


def _src_callers(name):
    callers = []
    for path in sorted(glob.glob(os.path.join(SRC, "beamwander", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        callers += _callers(tree, name, os.path.basename(path)[:-3])
    return callers


def test_roots_called_only_in_root_moduli():
    # the step-down alone decides stability; np.roots only reports, so a
    # second call site would be a second stability rule
    assert _src_callers("roots") == ["arma.root_moduli"]


def test_one_extension_loader():
    # every compiled scipy routine is loaded from its file by one function,
    # so a second hand-written loader fails here
    assert _src_callers("spec_from_file_location") == ["arma._load_extension"]


# Every other result is a plain value (array, tuple or dict); each class
# here earns its place, so a new one must be argued for where it is added.
CLASSES = {
    "arma": ["ArmaModel",  # validates a model on construction and in from_dict
             "FitConvergenceError",  # bench/tracer.py reads its .report
             "FitReport"],  # bench/tracer.py reads .iterations and .converged
    "ingest": ["WanderTrace"],  # hides the trace CSV + JSON sidecar format
    "theory": ["LinkParams"],  # validates the link parameters
}


def test_only_listed_classes():
    defined = {}
    for path in sorted(glob.glob(os.path.join(SRC, "beamwander", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        names = sorted(node.name for node in ast.walk(tree)
                       if isinstance(node, ast.ClassDef))
        if names:
            defined[os.path.basename(path)[:-3]] = names
    assert defined == CLASSES
