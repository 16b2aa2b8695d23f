"""What the benchmark in ``bench/`` relies on from the program.

``bench/run.py`` calls ``mfa.cli.main`` in-process, swaps ``mfa.cli.integrate``
to capture the trajectories it checks, and with ``--trace 1`` wraps every
public function, counting ``phi`` evaluations through the first argument of
``solve_phi_line``.  A short traced run of each analysis workload checks all
of that end to end; the trajectory workload is covered by the cheaper
``cli.integrate`` checks below.
"""

import ast
import glob
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

from conftest import RECIPES_DIR

import mfa
import mfa.cli as cli
import mfa.sim as sim

ROOT = os.path.join(os.path.dirname(__file__), "..")
AMP_FLAGS = ["--tau-l", "0.01", "--tau-p", "0.1", "--tau-n", "1", "--k", "10",
             "--beta", "0.4"]


@pytest.mark.parametrize("workload", ["map_sweep", "certify_points"])
def test_traced_bench_run_correct(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["correct"] is True


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(mfa.__path__)
                                  if m.name != "__main__"])
def test_exports_resolve(name):
    # the tracer wraps the functions each module names in __all__ and skips
    # a name it cannot find, so a stale export would drop a span silently
    module = importlib.import_module(f"mfa.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_no_np_roots_in_program():
    # every polynomial root comes from tf_core._companion_roots, one stacked
    # eigenvalue call per matrix size, which test_freq_analysis holds to the
    # bits of np.roots; a direct np.roots call would bypass both
    found = []
    for path in glob.glob(os.path.join(os.path.dirname(mfa.__file__), "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "roots"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                found.append((os.path.basename(path), node.lineno))
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                found += [(os.path.basename(path), node.lineno)
                          for alias in node.names if alias.name == "roots"]
    assert found == []


def test_no_eigenvalue_call_outside_eigvals():
    # every eigenvalue comes from tf_core._eigvals, numpy's LAPACK ufunc with
    # np.linalg.eigvals' checks, which test_tf_core holds to np.linalg.eigvals'
    # bits; an eigvals or eig call anywhere else would bypass it
    found = []
    for path in glob.glob(os.path.join(os.path.dirname(mfa.__file__), "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        inside = set()
        if os.path.basename(path) == "tf_core.py":
            (fn,) = [n for n in tree.body
                     if isinstance(n, ast.FunctionDef) and n.name == "_eigvals"]
            inside = {id(node) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            if isinstance(node, ast.Attribute) and node.attr in ("eigvals", "eig"):
                found.append((os.path.basename(path), node.lineno))
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                found += [(os.path.basename(path), node.lineno)
                          for alias in node.names if alias.name in ("eigvals", "eig")]
    assert found == []


def test_no_exec_or_compile_outside_tf_core():
    # tf_core's tracer writes the program's only generated code, the
    # polynomial kernels and the RK4 block, from records of generic
    # Python-float code; source text run anywhere else would be a second
    # code generator
    found = []
    for path in glob.glob(os.path.join(os.path.dirname(mfa.__file__), "*.py")):
        if os.path.basename(path) == "tf_core.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                    and func.value.id == "builtins":
                name = func.attr
            else:
                name = func.id if isinstance(func, ast.Name) else None
            if name in ("exec", "compile", "eval"):
                found.append((os.path.basename(path), node.lineno))
    assert found == []


@pytest.mark.parametrize("name", ["tf_core", "freq_analysis", "sim", "multichannel",
                                  "interconnect", "csvtext"])
def test_lower_modules_do_not_import_upward(name):
    # equilibria assembles every Lure loop from these modules and cli runs on
    # top of both; an import of either from below, a lazy one included, would
    # be a cycle
    with open(os.path.join(os.path.dirname(mfa.__file__), f"{name}.py")) as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["mfa" if node.level else "", node.module]))
            paths = [base, *(f"{base}.{alias.name}" for alias in node.names)]
        else:
            continue
        found += [(path, node.lineno) for path in paths
                  if path.split(".")[:2] in (["mfa", "equilibria"], ["mfa", "cli"])]
    assert found == []


def test_star_import():
    namespace = {}
    exec("from mfa import *", namespace)
    assert {"LureLoop", "min_real_part", "check_p_passivity"} <= namespace.keys()


def test_cli_integrate_is_sim_integrate():
    assert cli.integrate is sim.integrate


@pytest.mark.parametrize("argv", [
    ["simulate", *AMP_FLAGS],
    ["interconnect", *AMP_FLAGS, "--load", os.path.join(RECIPES_DIR, "data", "load_msd.json")],
])
def test_trajectories_go_through_cli_integrate(capsys, monkeypatch, argv):
    calls = []

    def capture(*args, **kwargs):
        calls.append(sim.integrate(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(cli, "integrate", capture)
    assert cli.main([*argv, "--dt", "1e-3", "--t-end", "0.01"]) == 0
    capsys.readouterr()
    assert len(calls) == 1 and len(calls[0].t) == 11
