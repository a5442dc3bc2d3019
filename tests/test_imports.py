"""Every module-level import of the package is used in its module.

A stdlib-`ast` stand-in for a linter's unused-import rule: a name bound by a
top-level `import` or `from ... import` must appear as a name somewhere in
the module.  `__init__.py` is skipped (its imports are re-exports) and so are
`__future__` imports.  The same walk checks that the library reads no
environment variables, that only `fowler.py` imports a private module
path, that only the command line's two writers make directories, that
only `fowler.py` and `floquet.py` name the DOP853 stepper, its dense-output
reader and the linear solves' tolerances, and that only `floquet.monodromy`
builds a Magnus tree, only `floquet.spectrum` runs its monodromy and
kernel solves, and that the Floquet, cylinder and expansion modules leave
the naming of an orbit to `FowlerOrbit.named`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fowlerlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that it never uses."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(bound) - used)


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\nimport math\n"
              "import numpy as np\nfrom os import path, sep\n"
              "def f(x: np.ndarray):\n    return path.join(x)\n")
    assert unused_imports(source) == ["math", "sep"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_only_the_command_line_reads_and_writes_files():
    # cli owns every file format: config parsing and JSON and CSV output
    formats = {"csv", "json", "configparser"}
    importers = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {node.module}
            else:
                continue
            if names & formats:
                importers.append(path.name)
    assert set(importers) == {"cli.py"}


def callers(source: str, names, module: str) -> list:
    """Names of the functions that call one of `names` (as attributes of
    `module` or imported from it); '<module>' for a call outside any
    function."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id in names
                or isinstance(node.func, ast.Attribute)
                and node.func.attr in names
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == module):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def directory_makers(source: str) -> list:
    """Names of the functions that call os.makedirs or os.mkdir."""
    return callers(source, {"makedirs", "mkdir"}, "os")


def test_checker_flags_a_directory_maker():
    source = ("import os\nfrom os import makedirs\nos.mkdir('a')\n"
              "def f(p):\n    def g():\n        makedirs(p)\n    return g\n"
              "def h(p):\n    return os.path.join(p, 'x')\n"
              "def k(p):\n    os.makedirs(p, exist_ok=True)\n")
    assert directory_makers(source) == ["<module>", "g", "k"]


def test_only_the_writers_make_directories():
    # an output directory appears with the first file written into it:
    # no subcommand handler, and no other module, makes one
    makers = {(path.name, name) for path in MODULES
              for name in directory_makers(path.read_text())}
    assert makers == {("cli.py", "write_csv"), ("cli.py", "write_json")}


def test_checker_flags_a_magnus_tree_builder():
    source = ("from .floquet import _magnus_product\n"
              "def monodromy(o, l):\n    return _magnus_product(o, l, 256)\n"
              "def seeds(o, l):\n    return floquet._magnus_product(o, l, 16)\n"
              "def named(o):\n    return other._magnus_product(o)\n")
    assert callers(source, {"_magnus_product"}, "floquet") == [
        "monodromy", "seeds"]


def test_only_the_monodromy_builds_a_magnus_tree():
    # every shooting solve seeds from the nodes its datum keeps: one tree
    # per eigenvalue and orbit, built by floquet.monodromy
    builders = {(path.name, name) for path in MODULES
                for name in callers(path.read_text(), {"_magnus_product"},
                                    "floquet")}
    assert builders == {("floquet.py", "monodromy")}


def test_only_the_spectrum_runs_the_floquet_solves():
    # every Floquet datum is made and kept by floquet.spectrum: its one
    # monodromy batch and its one kernel batch serve every reader
    solvers = {(path.name, name) for path in MODULES
               for name in callers(path.read_text(),
                                   {"monodromy", "kernel_basis"}, "floquet")}
    assert solvers == {("floquet.py", "spectrum")}


def private_module_imports(source: str) -> list:
    """Module paths the source imports that have a private (underscore)
    component, such as scipy.integrate._ivp."""
    paths = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            paths.append(node.module)
    return sorted({p for p in paths if p != "__future__"
                   and any(part.startswith("_") for part in p.split("."))})


def test_checker_flags_a_private_module_path():
    source = ("from __future__ import annotations\nimport numpy._core\n"
              "from scipy.integrate._ivp.rk import SAFETY\n"
              "from scipy.integrate import solve_ivp\nfrom ._y import z\n")
    assert private_module_imports(source) == [
        "_y", "numpy._core", "scipy.integrate._ivp.rk"]


def test_only_the_orbit_module_imports_private_module_paths():
    # the private scipy surface (the DOP853 tableau and step-size constants
    # of the lean stepper) stays in one file
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if private_module_imports(path.read_text())]
    assert importers == ["fowler.py"]


def environment_reads(source: str) -> list:
    """Line numbers where the module reads os.environ or os.getenv."""
    names = {"environ", "getenv"}
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(a.name in names for a in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_flags_an_environment_read():
    source = ("import os\nfrom os import getenv\n"
              "a = os.environ.get('A')\nb = os.getenv('B')\nc = os.path.sep\n")
    assert environment_reads(source) == [2, 3, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_library_reads_no_environment_variables(path):
    # the library has no environment knobs: every setting is an argument
    assert environment_reads(path.read_text()) == []


INTEGRATOR_NAMES = {"BareDOP853", "DenseSolution", "_MONODROMY_RTOL",
                    "_MONODROMY_ATOL"}


def integrator_names(source: str) -> list:
    """The INTEGRATOR_NAMES the source names: as a name, an attribute or an
    imported name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(a.name for a in node.names)
    return sorted(found & INTEGRATOR_NAMES)


def test_checker_flags_an_integrator_name():
    source = ("from .fowler import BareDOP853 as Stepper\n"
              "from . import floquet\n"
              "tol = floquet._MONODROMY_RTOL\n"
              "def f(sol):\n    return DenseSolution(sol)\n"
              "atol = '_MONODROMY_ATOL'\n")
    assert integrator_names(source) == ["BareDOP853", "DenseSolution",
                                        "_MONODROMY_RTOL"]


def test_only_the_orbit_and_floquet_modules_name_the_integrator():
    # every linear mode system is solved by floquet's one shooting set-up,
    # so no other module picks a stepper, a reader or a tolerance
    namers = [path.name for path in MODULES
              if integrator_names(path.read_text())]
    assert namers == ["floquet.py", "fowler.py"]


ORBIT_NAMES = ("eps = ", "xi* = ")


def orbit_name_literals(source: str) -> list:
    """Line numbers of the string literals and f-string parts of the source
    that spell an orbit's name themselves."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Constant)
                   and isinstance(node.value, str)
                   and any(name in node.value for name in ORBIT_NAMES)})


def test_checker_flags_an_orbit_name_literal():
    source = ("def f(orbit, lam):\n"
              "    raise ValueError(f'bad (n = 5, eps = {orbit.epsilon!r})')\n"
              "def g(orbit):\n    return 'xi* = ' + repr(orbit.epsilon)\n"
              "def h(orbit):\n    return f'bad ({orbit.named()})'\n"
              "steps = eps = 1\n")
    assert orbit_name_literals(source) == [2, 4]


@pytest.mark.parametrize("name", ["floquet.py", "cylinder.py", "expansion.py"])
def test_orbits_are_named_only_by_the_orbit_module(name):
    # every refusal and warning names its orbit by FowlerOrbit.named, so the
    # identity a message gives is written once, in fowler.py
    assert orbit_name_literals((PACKAGE / name).read_text()) == []
