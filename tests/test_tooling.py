import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

from semimod.cli import _COMMANDS

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_scripts_import():
    # the benchmark imports library names directly (irreducible_generators,
    # induced_order, extend_from_generators, support_of, ...); importing its
    # scripts runs no job but fails on a name the library no longer has
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", "import jobs, census"],
        cwd=ROOT / "perfbench",
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_library_imports_without_numpy():
    # the library and its command line need only the standard library
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, semimod, semimod.cli; print('numpy' in sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_readme_quickstart_runs():
    # the README's python block exercises the public API it documents
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_command_line_examples_run(tmp_path):
    # the README's second sh block, with semimod as the module's command line
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    script = f'set -e\nsemimod() {{ "{sys.executable}" -m semimod.cli "$@"; }}\n' + blocks[1]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        ["bash", "-c", script],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "1 morphism (identity)"


def test_readme_command_table_lists_every_subcommand():
    # one row per subcommand of the command line, in the order of _COMMANDS
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w-]+)", section, re.M)
    assert rows == list(_COMMANDS)


def test_ci_installs_the_test_pins_of_pyproject():
    # the test extra and the CI install step name the same exact versions;
    # both files are read as text, as Python 3.10 has no tomllib
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    extra = re.search(r"^test = \[(.*)\]$", pyproject, re.M).group(1)
    pins = sorted(re.findall(r'"([\w-]+==[\w.]+)"', extra))
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    install = re.search(r"run: pip install (.*)$", workflow, re.M).group(1)
    assert pins and pins == sorted(install.split()), (pins, install)


# a Sphinx-style cross-reference in a docstring: :class:`~semimod.core.X`
_XREF = re.compile(r":(?:class|func|meth|attr|mod):`~?([^`]+)`")


def _names_path(obj, path: list) -> bool:
    """Whether the attribute path exists on ``obj``; the last name may also
    be an annotated field, which a class sets on its instances."""
    if not path:
        return True
    *through, last = path
    for name in through:
        obj = getattr(obj, name, None)
    return obj is not None and (hasattr(obj, last) or last in getattr(obj, "__annotations__", {}))


def _unresolved(module, source: str) -> list:
    """The references in ``source`` that name nothing: neither a name of
    ``module`` or of a class in its namespace, nor a dotted ``semimod.``
    path (a module, then attributes)."""
    classes = [obj for obj in vars(module).values() if isinstance(obj, type)]
    bad = []
    for ref in _XREF.findall(source):
        parts = ref.split(".")
        if parts[0] == "semimod":
            for cut in range(len(parts), 0, -1):
                try:
                    owners = [importlib.import_module(".".join(parts[:cut]))]
                except ImportError:
                    continue
                parts = parts[cut:]
                break
        else:
            owners = [module, *classes]
        if not any(_names_path(owner, parts) for owner in owners):
            bad.append(ref)
    return bad


def test_docstring_cross_references_resolve():
    # a deleted or renamed name leaves no dangling :class:/:func:/... reference
    files = sorted((ROOT / "src" / "semimod").glob("*.py"))
    checked = 0
    for path in files:
        name = "semimod" if path.stem == "__init__" else f"semimod.{path.stem}"
        source = path.read_text(encoding="utf-8")
        assert _unresolved(importlib.import_module(name), source) == [], path.name
        checked += len(_XREF.findall(source))
    assert checked > 50
    # and a reference to a name that is gone is caught
    free = importlib.import_module("semimod.free")
    mutant = ":class:`KeyOrder` and :meth:`semimod.core.PartialOrder.transpose`"
    assert _unresolved(free, mutant) == ["KeyOrder", "semimod.core.PartialOrder.transpose"]


# a dotted name in backticks in the README: `homs._hom_violation`, `semimod.free`
_README_REF = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def _unresolved_in_readme(text: str) -> list:
    """The dotted references in ``text`` that name nothing: each must be an
    attribute path from ``semimod``, from one of its modules (``homs._Search``)
    or from a name that one of them defines (``Hom.check``)."""
    package = importlib.import_module("semimod")
    modules = {
        path.stem: importlib.import_module(f"semimod.{path.stem}")
        for path in (ROOT / "src" / "semimod").glob("*.py")
        if path.stem != "__init__"
    }
    bad = []
    for ref in _README_REF.findall(text):
        first, *rest = parts = ref.split(".")
        if first == "semimod":
            owners, path = [package], rest
        elif first in modules:
            owners, path = [modules[first]], rest
        else:
            owners, path = [m for m in modules.values() if hasattr(m, first)], parts
        if not any(_names_path(owner, path) for owner in owners):
            bad.append(ref)
    return bad


def test_readme_dotted_references_resolve():
    # a deleted or renamed name leaves no dangling reference in the README
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert _unresolved_in_readme(readme) == []
    assert len(_README_REF.findall(readme)) > 20
    # and a reference to a name that is gone, or to no name at all, is caught
    mutant = "`homs._free_violation`, `semimod.core.PartialOrder.transpose`, `m.order`"
    assert _unresolved_in_readme(mutant) == [
        "homs._free_violation", "semimod.core.PartialOrder.transpose", "m.order"
    ]
