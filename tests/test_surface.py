"""The names that callers outside the package reach for: a bare
``import signsynth`` loads nothing, every library function the benchmark
wraps by name still exists, and every public name has a caller."""

from __future__ import annotations

import ast
import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import signsynth

_ROOT = Path(__file__).resolve().parents[1]
_CHILD_PATH = _ROOT / "perfbench" / "child.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_child", _CHILD_PATH)
child = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(child)


class CheckingTracer:
    """Stands in for ``perfbench/tracing.Tracer``: records what would be
    wrapped and wraps nothing."""

    def __init__(self):
        self.wrapped = []

    def count(self, name, n=1):
        pass

    def distinct(self, name, items):
        pass

    def wrap(self, owner, attr, span=None, hook=None):
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} is gone"
        self.wrapped.append(f"{owner.__name__}.{attr}")


def test_every_layer_the_benchmark_wraps_exists():
    tracer = CheckingTracer()
    child.install_layers(tracer)
    assert len(tracer.wrapped) == len(set(tracer.wrapped)) == 19
    assert "signsynth.stitch.resample" in tracer.wrapped
    assert "signsynth.io.write_pose_file" in tracer.wrapped


def test_every_module_attribute_the_benchmark_hooks_read_exists():
    # The hooks also read library names, such as templates.count_expansions,
    # that no wrap checks.
    tree = ast.parse(_CHILD_PATH.read_text())
    install = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "install_layers"
    )
    modules = {
        alias.name: importlib.import_module(f"signsynth.{alias.name}")
        for node in ast.walk(install) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = {
        (node.value.id, node.attr) for node in ast.walk(install)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert ("templates", "count_expansions") in read
    assert [f"{m}.{a}" for m, a in sorted(read) if not hasattr(modules[m], a)] == []


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    src = str(Path(signsynth.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, signsynth; print(sorted(m for m in sys.modules"
        " if m.startswith('signsynth.') or m.split('.')[0] == 'numpy'))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


# Public names that no caller in the searched files reaches, and why each stays:
# save_templates and save_slot_lexicon are the write half of the two input
# formats, tests/test_io.py's atomic-write cases use them, and the chain-level
# differential tests of ROADMAP item 7 will write their workspaces with them.
_UNREACHED_ON_PURPOSE = ["templates.save_slot_lexicon", "templates.save_templates"]


def test_every_public_name_is_named_outside_its_definition():
    # The callers: the package, the scripts, the benchmark, the acceptance
    # gate and the README.  Unit tests do not count, so that code kept only
    # for its own tests shows here.
    files = [
        *(p for d in ("src", "scripts", "perfbench") for p in sorted((_ROOT / d).rglob("*"))
          if p.suffix in (".py", ".sh", ".md")),
        _ROOT / "tests" / "test_acceptance.py",
        _ROOT / "README.md",
    ]
    texts = {path: path.read_text(encoding="utf-8") for path in files}
    named = Counter(word for text in texts.values() for word in re.findall(r"\w+", text))
    unreached = []
    for module in sorted(Path(signsynth.__file__).parent.glob("*.py")):
        lines = texts[module].splitlines(keepends=True)
        for node in ast.parse(texts[module]).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            own = re.findall(r"\w+", "".join(lines[first - 1 : node.end_lineno]))
            if named[node.name] == own.count(node.name):
                unreached.append(f"{module.stem}.{node.name}")
    assert sorted(unreached) == _UNREACHED_ON_PURPOSE
