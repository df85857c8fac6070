"""Import-graph and signature guards for the one-representation rule.

``repro.baselines`` holds the oracles the test suite compares the
production pipeline against — among them the paper's own dict / queue /
skip-array pipeline (``paper_pipeline``).  Production code must not
depend on its oracles, and nothing may build an annotation from dict
``L``/``B`` maps: both are checked on the AST, so a lazy or
function-local import is caught as well.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def test_no_production_package_imports_the_oracles():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if "baselines" in path.relative_to(SRC).parts:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{path.relative_to(SRC)}: {module}"
            for module in _imported_modules(tree)
            if module.startswith("repro.baselines")
        ]
    assert offenders == []


def test_annotation_is_built_from_packed_arrays_only():
    tree = ast.parse((SRC / "core" / "annotate.py").read_text())
    (annotation,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "Annotation"
    ]
    (init,) = [
        node for node in annotation.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]
    args = init.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    assert {"dist", "packed"} <= names
    assert not names & {"L", "B"}
    # dist and packed are required: no default reaches back to them.
    required = [a.arg for a in args.args[: len(args.args) - len(args.defaults)]]
    assert {"dist", "packed"} <= set(required)


def test_the_cells_are_walked_in_one_place():
    """One enumerator: the ``TgtIdx`` column of ``PackedCells`` — what
    any loop over queue heads must read — is touched only where it is
    built, in the one DFS and in the counting DP.  ``memoryless.py`` and
    ``multiplicity.py`` in particular ride on the DFS's output stream."""
    readers = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if any(
            isinstance(node, ast.Attribute) and node.attr == "cell_ti"
            for node in ast.walk(ast.parse(path.read_text()))
        )
    )
    assert readers == [
        "core/count.py", "core/enumerate.py", "datastructures/packed.py",
    ]


def _names(module: str):
    """Every class / function name and bare identifier in a module."""
    tree = ast.parse((SRC / module).read_text())
    return {
        getattr(node, "name", None) or getattr(node, "id", None)
        for node in ast.walk(tree)
    }


def test_no_shared_cursor_structure_or_its_guard():
    """The shared cursor array, its guard and the flag that copied it
    are gone, not hidden."""
    assert "TrimmedAnnotation" not in _names("core/trim.py")
    assert "EnumerationStateError" not in _names("exceptions.py")
    tree = ast.parse((SRC / "core" / "multi_target.py").read_text())
    (walks_to,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "walks_to"
    ]
    args = walks_to.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    assert names == ["self", "target", "memoryless", "resume_after"]
