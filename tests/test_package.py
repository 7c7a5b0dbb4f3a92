"""Package-level contract: what ``import omegals`` loads and exports."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import omegals


def _fresh_interpreter(code: str) -> str:
    src = str(Path(omegals.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout.strip()


def test_import_leaves_scipy_matrix_market_unloaded():
    # scipy.io is most of the package import time and only the Matrix
    # Market functions need it, so they import it on first use; no other
    # SciPy module is loaded either
    code = ("import sys, omegals; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_interpreter(code) == "[]"


def test_import_leaves_process_pools_unloaded():
    # the verify suites fork their workers with os.fork; multiprocessing or
    # concurrent.futures would add about 20 ms to the package import
    code = ("import sys, omegals; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    assert _fresh_interpreter(code) == "[]"


def test_import_leaves_hashlib_unloaded():
    # only linalg.operator_eig hashes an operator's bytes, so it imports
    # hashlib on first use: the import costs about 2.4 ms
    code = "import sys, omegals; print('hashlib' in sys.modules)"
    assert _fresh_interpreter(code) == "False"


def test_figure1_leaves_scipy_fft_unloaded():
    # the figure-1 sine transform runs on NumPy: importing scipy.fft alone
    # adds about 4 MB to the peak resident memory
    code = ("import sys\n"
            "from omegals.experiments import Figure1Config, run_figure1\n"
            "run_figure1(Figure1Config(m=5, orders=(3, 2), target_index=2, count=25))\n"
            "print('scipy.sparse' in sys.modules, 'scipy.fft' in sys.modules)")
    assert _fresh_interpreter(code) == "True False"


def test_first_figure1_run_times_no_scipy_import():
    # poisson_2d_factored imports scipy.sparse on first use; the first
    # run_figure1 in a process has it loaded by the first clock reading, so
    # its operator stage (0.2 s instead of 0.002 s with the import) holds
    # only the operator
    code = ("import sys, time\n"
            "from omegals.experiments import Figure1Config, run_figure1\n"
            "clock, loaded = time.perf_counter, []\n"
            "time.perf_counter = lambda: loaded.append('scipy.sparse' in sys.modules) or clock()\n"
            "run_figure1(Figure1Config(m=5, orders=(3, 2), target_index=2, count=25))\n"
            "print(len(loaded) > 1, all(loaded))")
    assert _fresh_interpreter(code) == "True True"


def test_star_import_exports_no_submodule():
    for name in omegals.__all__:
        assert not isinstance(getattr(omegals, name), types.ModuleType), name
    namespace = {}
    exec("import io\nfrom omegals import *", namespace)
    assert namespace["io"].__name__ == "io"
    assert "solve_weighted" in namespace and "svd" not in namespace


# Identities of the paper, tested in their modules; nothing outside the
# tests calls them.
PAPER_IDENTITIES = ("decomposition.j_matrix", "solver.solution_map_diff",
                    "analysis.injectivity_scan", "subspaces.invariant_closure",
                    "subspaces.strongly_orthogonal")

# Public functions that need no caller outside the tests, with the reason.
UNCALLED_BY_DESIGN = {
    **{name: "an identity of the paper" for name in PAPER_IDENTITIES},
    "solver.solution_map": "the paper's exported coordinate map M(omega)",
    "io.save_subspace": "writes the subspace file format the CLI reads",
    "io.decomposition_blocks_from_json": "reads the decomposition files the CLI writes",
    "subspaces.subspace_intersect": "the one-trial oracle of the index suite's stacked steps",
    "manifolds.membership": "the one-trial oracle of the manifolds suite's stacked steps",
    "sampling.random_nested_subspaces": "the one-call generator of the manifolds suite's draw "
                                        "and form halves",
}


def test_paper_identities_stay_out_of_the_exports():
    for name in PAPER_IDENTITIES:
        assert name.split(".")[1] not in omegals.__all__, name


def test_every_public_function_has_a_caller_outside_the_tests():
    # a caller is a Name or Attribute reference anywhere in src/, scripts/
    # or bench/ except the package's re-exports, so a function, method or
    # property only the tests call is dead code unless it is exempt by name
    package = Path(omegals.__file__).resolve().parent
    root = package.parent.parent
    referenced = set()
    for path in [*root.glob("src/**/*.py"), *root.glob("scripts/**/*.py"),
                 *root.glob("bench/**/*.py")]:
        if path == package / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    public = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            members = [(f"{path.stem}.", node)]
            if isinstance(node, ast.ClassDef):
                members = [(f"{path.stem}.{node.name}.", member) for member in node.body]
            public.update({prefix + member.name: member.name for prefix, member in members
                           if isinstance(member, ast.FunctionDef)
                           and not member.name.startswith("_")})
    assert set(UNCALLED_BY_DESIGN) <= set(public), set(UNCALLED_BY_DESIGN) - set(public)
    uncalled = [name for name, bare in public.items()
                if bare not in referenced and name not in UNCALLED_BY_DESIGN]
    assert not uncalled, uncalled


def test_modules_use_every_module_level_import():
    # __init__ imports only to re-export; every other module must read each
    # name it imports at module level, so a deleted code path takes its
    # imports with it
    package = Path(omegals.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, unused
