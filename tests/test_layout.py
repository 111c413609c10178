"""The library keeps only what something in it reaches: every function,
class, method and module-level name defined in src/coxlehmer is named
somewhere else in src/coxlehmer.  Reference implementations the tests
need live in tests/oracles.py instead, and src's doctests pass.  Each
module imports only the modules MAY_IMPORT lists for it."""

import ast
import doctest
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coxlehmer"
README = SRC.parent.parent / "README.md"

# perfbench/tracing.py wraps these by name to time the layers; they stay
# until its shelling and extension spans move to the code paths that run
EXEMPT = {
    "verify_shelling",  # perfbench/tracing.py: span simplicial.shelling
    "f_from_h",  # perfbench/tracing.py: span simplicial.fh
    "linear_extensions",  # perfbench/tracing.py: span multicomplex.extensions
    "sample_linear_extensions",  # perfbench/tracing.py: span multicomplex.extensions
    "count_linear_extensions",  # perfbench/tracing.py: span multicomplex.count_extensions
}


def _definitions(tree):
    """(name, node, whether it is a method) of each module-level function,
    class and name bound by assignment, and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield sub.name, sub, True


def _exempt(name, exempt):
    return (name in exempt or name.startswith(("cmd_", "suite_"))
            or name.startswith("__") and name.endswith("__"))


def unreached_names(src=SRC, exempt=EXEMPT):
    """"module.name" for every definition no other line of src refers to.

    A reference is a bare name or an attribute, and a method or property is
    reached only through an attribute: a bare name is a local or a module
    name.  Imports are not references, and neither is a definition's use of
    itself inside its own body."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    names, attrs = {}, {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append((module, node.lineno))
    out = []
    for module, tree in trees.items():
        for name, node, method in _definitions(tree):
            if _exempt(name, exempt):
                continue
            uses = attrs.get(name, []) + ([] if method else names.get(name, []))
            if not any(m != module or not node.lineno <= line <= node.end_lineno
                       for m, line in uses):
                out.append(f"{module[:-3]}.{name}")
    return out


def test_every_definition_in_src_is_reached():
    assert unreached_names() == []


def test_exemptions_are_still_needed():
    # an exemption whose name gained a caller, was deleted or is no longer
    # wrapped by the tracer is stale
    unexempted = unreached_names(exempt=frozenset())
    assert sorted(name.split(".")[1] for name in unexempted) == sorted(EXEMPT)
    tracing = (SRC.parent.parent / "perfbench" / "tracing.py").read_text()
    for name in EXEMPT:
        assert f'"{name}"' in tracing, name


TRACED_QUERY = """
import sys
sys.path[:0] = sys.argv[1:3]
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from coxlehmer import cli, coxeter
assert cli.main(["hpoly", "--type", "A", "--rank", "3", "--perm", "3412", "--json"]) == 0
poset = coxeter.shared_poset("A", 3)
counts = tracer.counts
stored = sum((d.bit_length() + 7) // 8 for d in poset._down if d)
assert counts["coxeter.enumerations"] == 1, counts
assert counts["coxeter.covers"] == sum(map(len, poset.covers_down)), counts
assert counts["coxeter.downset_bytes"] == stored > 0, (counts, stored)
assert counts["intervals.route_calls"] == 3, counts
"""


def test_the_benchmark_tracer_still_installs():
    # install raises on the first name it wraps that src no longer binds;
    # a traced query then reads the poset attributes its enumeration span
    # counts, so renaming one fails here and not only in a traced benchmark
    # run; it rebinds module attributes, so it runs in a child process
    root = SRC.parent.parent
    done = subprocess.run([sys.executable, "-B", "-c", TRACED_QUERY, str(root / "src"),
                           str(root / "perfbench")], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["routes"]["direct"] == [1, 3, 5, 4, 1]


def test_scan_sees_an_unreached_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 1\nSPARE, __version__ = LIMIT + 1, '0'\n\n\n"
        "def used():\n    return LIMIT\n\n\n"
        "def unused():\n    return unused()\n\n\n"
        "class K:\n    def method(self):\n        return used()\n\n"
        "    def __len__(self):\n        return 0\n")
    # a bare name `method` is a parameter, not a use of K.method; names
    # bound by assignment count as definitions, dunders like __version__ aside
    (tmp_path / "b.py").write_text("from .a import K, unused\n\n\n"
                                   "def f(method):\n    return method\n\n\nk = f(K())\n")
    assert unreached_names(tmp_path) == ["a.SPARE", "a.unused", "a.method", "b.k"]


# module -> the modules of src/coxlehmer it may import, as the README's
# "Layers" table states it.  The permutation layer (schubert) imports
# nothing and the box layer (multicomplex, simplicial) no group module;
# verify, cli and __init__ may import every module before them.
MAY_IMPORT = {
    "report": set(),
    "qpoly": set(),
    "schubert": set(),
    "multicomplex": {"qpoly"},
    "simplicial": {"multicomplex", "qpoly"},
    "coxeter": {"qpoly"},
    "codes": {"coxeter", "multicomplex", "report"},
    "intervals": {"codes", "coxeter", "multicomplex", "qpoly", "simplicial"},
}
MAY_IMPORT["verify"] = set(MAY_IMPORT)
MAY_IMPORT["cli"] = set(MAY_IMPORT)
MAY_IMPORT["__init__"] = set(MAY_IMPORT)


def extra_imports(src=SRC, table=MAY_IMPORT):
    """"module -> imported" for each relative import in src that the table
    does not allow, a module missing from the table allowing none."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
                out += [f"{path.stem} -> {name}" for name in names
                        if name not in table.get(path.stem, ())]
    return out


def test_modules_import_only_the_layers_below_them():
    assert extra_imports() == []
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(MAY_IMPORT)


def readme_layers(text):
    """The README's "Layers" table as module -> the modules it may import:
    "nothing", a list of modules, or every module of the rows above and the
    ones before it in its own row."""
    table, above = {}, []
    section = text.split("\nLayers.", 1)[1].split("\n## ", 1)[0]
    for cells in re.findall(r"^\| (`.+?) \| (.+?) \|$", section, re.MULTILINE):
        row = re.findall(r"`(\w+)`", cells[0])
        for k, module in enumerate(row):
            if cells[1] == "nothing":
                table[module] = set()
            elif cells[1].startswith("any module above"):
                table[module] = set(above + row[:k])
            else:
                table[module] = set(re.findall(r"`(\w+)`", cells[1]))
        above += row
    return table


def test_readme_layers_table_states_may_import():
    assert readme_layers(README.read_text()) == MAY_IMPORT


def test_readme_layers_check_sees_a_changed_row():
    text = README.read_text()
    for row, planted in [("| `schubert` | nothing |", "| `schubert` | `report` |"),
                         ("| `coxeter` | `qpoly` |", "| `coxeter` | `qpoly`, `codes` |"),
                         ("| `report`, `qpoly` |", "| `report` |")]:
        assert row in text
        changed = readme_layers(text.replace(row, planted))
        assert changed != MAY_IMPORT, planted


def test_import_scan_sees_each_extra_edge(tmp_path):
    (tmp_path / "low.py").write_text("from . import high as h, mid\nfrom .mid import f\n")
    (tmp_path / "mid.py").write_text("import os\nfrom .low import g\n")
    table = {"low": {"mid"}, "mid": set()}
    assert extra_imports(tmp_path, table) == ["low -> high", "mid -> low"]


def test_readme_layout_lists_src():
    block = README.read_text().split("```text\nsrc/coxlehmer/\n", 1)[1].split("```", 1)[0]
    listed = re.findall(r"^  (\S+)", block, re.MULTILINE)
    on_disk = [p.name for p in SRC.iterdir() if p.is_file()]
    assert sorted(listed) == sorted(on_disk)


def test_doctests_in_src_pass():
    attempted = 0
    for path in sorted(SRC.glob("*.py")):
        name = "coxlehmer" if path.stem == "__init__" else f"coxlehmer.{path.stem}"
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, path.name
        attempted += result.attempted
    assert attempted >= 1


def newer_syntax(roots, version):
    """The .py files under `roots` that the grammar of Python `version`
    does not parse."""
    out = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            try:
                ast.parse(path.read_text(), feature_version=version)
            except SyntaxError:
                out.append(path)
    return out


def test_sources_parse_with_the_declared_python_floor():
    root = SRC.parent.parent
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (root / "pyproject.toml").read_text())
    version = tuple(map(int, floor.groups()))
    assert version == (3, 10)
    assert newer_syntax([root / "src", root / "tests", root / "perfbench"], version) == []


def test_floor_check_sees_newer_syntax(tmp_path):
    (tmp_path / "match.py").write_text("match 1:\n    case 1:\n        pass\n")
    (tmp_path / "groups.py").write_text("try:\n    pass\nexcept* ValueError:\n    pass\n")
    assert newer_syntax([tmp_path], (3, 10)) == [tmp_path / "groups.py"]
    assert newer_syntax([tmp_path], (3, 11)) == []
