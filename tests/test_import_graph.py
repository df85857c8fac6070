"""Import-graph and signature guards for the one-representation rule.

``repro.baselines`` holds the oracles the test suite compares the
production pipeline against — among them the paper's own dict / queue /
skip-array pipeline (``paper_pipeline``).  Production code must not
depend on its oracles, and nothing may build an annotation from dict
``L``/``B`` maps: both are checked on the AST, so a lazy or
function-local import is caught as well.  The converse holds too: what
no production entry point reaches — what only the oracles use — does
not live in a production package.
"""

import ast
import re
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


# -- the converse: production holds only what an entry point reaches ----------

ENTRY_POINTS = (
    "repro.api", "repro.service", "repro.serve", "repro.cli", "repro.__main__",
)

_BENCH = "benchmark harness shipped inside the library; leaves with ROADMAP item 10"
_DATA = (
    "data generators and worked examples that examples/, the docs and the "
    "frozen spine (benchmarks/spine/workloads.py) import by these paths"
)

#: Production modules no entry point reaches, each with the reason it
#: may stay.  The list only shrinks: an entry that is reached, or whose
#: module is gone, fails the test below just as an unlisted module does.
UNREACHED = {
    "repro.bench": _BENCH,
    "repro.bench.experiments": _BENCH,
    "repro.bench.harness": _BENCH,
    "repro.bench.reporting": _BENCH,
    "repro.graph.generators": _DATA,
    "repro.workloads": _DATA,
    "repro.workloads.fraud": _DATA,
    "repro.workloads.queries": _DATA,
    "repro.workloads.social": _DATA,
    "repro.workloads.transport": _DATA,
    "repro.workloads.worstcase": _DATA,
}


def _modules():
    """``{dotted name: path}`` of every module under ``src/repro``."""
    modules = {}
    for path in SRC.rglob("*.py"):
        parts = ("repro",) + path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _is_oracle(module: str) -> bool:
    return module.startswith("repro.baselines")


def _module_level_imports(tree: ast.Module):
    """The import statements a module runs when it is imported (those
    outside any function or class body)."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            pending += ast.iter_child_nodes(node)


def _bindings(node):
    """``(bound name, dotted target)`` of one import statement: the
    module an ``import`` binds, or the ``module.name`` a ``from``
    import binds."""
    for alias in node.names:
        if isinstance(node, ast.Import):
            yield alias.asname or alias.name.split(".")[0], alias.name
        elif node.module:
            yield alias.asname or alias.name, f"{node.module}.{alias.name}"


def _definer(name: str, modules, trees):
    """The ``repro`` module that defines ``name`` — a dotted module, or
    a name imported from one — following a package ``__init__``'s
    re-exports to the module the name comes from; ``None`` outside the
    package."""
    while name not in modules:
        package, _, attr = name.rpartition(".")
        if package not in modules:
            return None
        if modules[package].name != "__init__.py":
            return package
        exported = {
            bound: target
            for node in _module_level_imports(trees[package])
            for bound, target in _bindings(node)
        }
        if attr not in exported:
            return package
        name = exported[attr]
    return name


def _reach(name: str, tree: ast.Module, package: bool):
    """What importing module ``name`` runs an import of.  A plain
    module or an entry point (``repro.api``, ``repro.service`` and
    ``repro.serve`` are packages) reaches every import it spells; any
    other package ``__init__`` reaches a module-level import only where
    its own code names what the import binds — a re-export alone is
    not a use (``regex_to_nfa``'s body names ``thompson_nfa``, and a
    name listed in ``__all__`` only is named by no code)."""
    if not package or name in ENTRY_POINTS:
        yield from _imported_modules(tree)
        return
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    top = set(_module_level_imports(tree))
    for node in ast.walk(tree):
        if node in top:
            yield from (t for bound, t in _bindings(node) if bound in used)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from _imported_modules(node)


def _reached_modules():
    """Every ``repro`` module an entry point reaches, importing ``a.b.c``
    as Python does — it runs ``a/__init__``, ``a/b/__init__`` and
    ``a/b/c`` — with a name imported through a package resolved to the
    module that defines it."""
    modules = _modules()
    trees = {name: ast.parse(path.read_text()) for name, path in modules.items()}
    reached, pending = set(), list(ENTRY_POINTS)
    while pending:
        name = _definer(pending.pop(), modules, trees)
        while name and name not in reached:
            reached.add(name)
            package = modules[name].name == "__init__.py"
            pending += _reach(name, trees[name], package)
            name = name.rpartition(".")[0]
    return modules, reached


def test_production_holds_only_what_an_entry_point_reaches():
    modules, reached = _reached_modules()
    unreached = {
        m for m in modules if m not in reached and not _is_oracle(m)
    }
    assert sorted(unreached - set(UNREACHED)) == []
    assert sorted(set(UNREACHED) - unreached) == []
    assert all(UNREACHED.values())


def test_what_only_the_oracles_import_lives_with_the_oracles():
    """A package ``__init__`` re-exporting a module is not a use of it
    (that is how the paper's containers sat in ``repro.datastructures``
    with ``paper_pipeline`` their sole importer): every production
    module an oracle imports is also imported by production code
    proper."""
    modules = _modules()
    used_by_production, used_by_oracles = set(), set()
    for name, path in modules.items():
        imported = set(_imported_modules(ast.parse(path.read_text())))
        if _is_oracle(name):
            used_by_oracles |= imported
        elif path.name != "__init__.py":
            used_by_production |= imported
    orphans = sorted(
        m for m in used_by_oracles - used_by_production
        if m in modules and not _is_oracle(m)
    )
    assert orphans == []


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


def _attribute_readers(attr: str):
    """Source files (relative to the package) naming ``<x>.attr``."""
    return sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if any(
            isinstance(node, ast.Attribute) and node.attr == attr
            for node in ast.walk(ast.parse(path.read_text()))
        )
    )


def test_raw_epsilon_tables_are_read_at_compile_time_only():
    """One traversal family: production builds the ε tables
    (``compile_query(..., eliminate_epsilon=False)`` serves the oracles)
    and refuses to traverse them — the one check is a method of the
    compiled query.  No ``has_eps`` branch, no ε stack, outside it."""
    for attr in ("eps", "has_eps"):
        assert [
            f for f in _attribute_readers(attr)
            if not f.startswith("baselines/")
        ] == ["core/compile.py"], attr


def test_the_cells_are_walked_in_one_place():
    """One enumerator: the ``TgtIdx`` column of ``PackedCells`` — what
    any loop over queue heads must read — and the edge column a
    one-state frame walks instead are touched only where they are
    built, in the one DFS and in the counting DP.  ``multiplicity.py``
    in particular rides on the DFS's output stream."""
    for column in ("cell_ti", "cell_edge"):
        assert _attribute_readers(column) == [
            "core/count.py", "core/enumerate.py", "datastructures/packed.py",
        ], column


def test_one_product_bfs_in_core():
    """Inside ``repro.core`` a graph's out-adjacency — the ``Out``
    lists, the out-CSR or the successor tuples ``succ`` built from it —
    is read by the one product BFS (``annotate.py``) and by the two
    traversals that levels cannot replace: Dijkstra, which settles nodes
    in cost order, and the restricted fallback DFS, which enumerates
    walks longer than λ.  The any-walk witness and the duplicate-blowup
    counters read a BFS run."""
    readers = {
        path
        for attr in ("out_array", "out_csr", "succ")
        for path in _attribute_readers(attr)
        if path.startswith("core/")
    }
    assert sorted(readers) == [
        "core/annotate.py", "core/cheapest.py", "core/restricted.py",
    ]


def test_the_dfs_is_one_generator():
    """Both frame forms live in one loop of one generator: no second
    enumerator for the one-state case, no fallback beside it."""
    tree = ast.parse((SRC / "core" / "enumerate.py").read_text())
    functions = [
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    ]

    def own_nodes(function):
        """The function's body without its nested functions' bodies."""
        pending = [function]
        while pending:
            for node in ast.iter_child_nodes(pending.pop()):
                if not isinstance(node, ast.FunctionDef):
                    yield node
                    pending.append(node)

    generators = [
        function.name for function in functions
        if any(
            isinstance(node, (ast.Yield, ast.YieldFrom))
            for node in own_nodes(function)
        )
    ]
    # ``replay`` is skip_past_cursor's cell-free replay of a foreign
    # stream; it walks no cells (see the test above).
    assert sorted(generators) == ["enumerate_walks", "replay"]
    (dfs,) = [f for f in functions if f.name == "enumerate_walks"]
    loops = [n for n in own_nodes(dfs) if isinstance(n, ast.While)]
    assert len(loops) == 1


def _names(module: str):
    """Every class / function name and bare identifier in a module."""
    tree = ast.parse((SRC / module).read_text())
    return {
        getattr(node, "name", None) or getattr(node, "id", None)
        for node in ast.walk(tree)
    }


def test_multiplicity_has_one_implementation():
    """One run counter: ``enumerate_with_multiplicity`` takes no
    ``method``, ``enumerate_with_runs`` is gone, the per-walk rerun
    ``count_accepting_runs`` is defined only among the oracles, and the
    engine and the façade both import the one counter."""
    definers = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                definers.setdefault(node.name, []).append(
                    str(path.relative_to(SRC))
                )
                if node.name == "enumerate_with_multiplicity":
                    args = node.args
                    assert [
                        a.arg for a in args.posonlyargs + args.args
                        + args.kwonlyargs
                    ] == ["self"]
                    assert not (args.vararg or args.kwarg)
    assert definers["enumerate_with_multiplicity"] == ["core/engine.py"]
    assert "enumerate_with_runs" not in definers
    assert definers["count_accepting_runs"] == ["baselines/runs.py"]
    assert definers["run_counter"] == ["core/multiplicity.py"]
    for module in ("core/engine.py", "api/result.py"):
        assert "repro.core.multiplicity.run_counter" in set(
            _imported_modules(ast.parse((SRC / module).read_text()))
        ), module


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
    assert names == ["self", "target", "resume_after"]


_MODE_TOKEN = re.compile(r"(^|_)(modes?|memoryless)(_|$)|resumable_trim", re.I)


def _identifiers(tree: ast.AST):
    """Every name the code spells: variables, attributes, parameters,
    keywords, definitions and imports (docstrings and comments are
    prose, not tokens)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from node.module.split(".")


def test_theorem_18_has_no_code_of_its_own():
    """The engine has one enumeration: no mode axis, no memoryless
    wrapper and no ``resumable_trim`` alias under ``repro.core`` —
    Theorem 18's ``NextOutput`` is ``enumerate_walks(resume_after=w)``,
    the seek every cursor uses."""
    assert not (SRC / "core" / "memoryless.py").exists()
    offenders = sorted(
        f"{path.relative_to(SRC)}: {name}"
        for path in (SRC / "core").rglob("*.py")
        for name in set(_identifiers(ast.parse(path.read_text())))
        if _MODE_TOKEN.search(name)
    )
    assert offenders == []


def _enclosing_functions(tree: ast.AST):
    """``{node: qualified name of the function it sits in}``."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}" if name else child.name
                visit(child, inner)
            else:
                owner[child] = name
                visit(child, name)

    visit(tree, "")
    return owner


def test_the_mode_names_are_accepted_in_three_places():
    """The inert mode vocabulary is read by ``Query.mode``, the JSONL
    request's validation and ``repro serve --mode`` alone, and no other
    code spells a mode name: nothing else can accept one."""
    readers = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "MODES" and (
                isinstance(node.ctx, ast.Load)
            ):
                readers.append(f"{path.relative_to(SRC)}: {owner[node]}")
            if isinstance(node, ast.Constant) and node.value in (
                "iterative", "memoryless"
            ):
                readers.append(f"{path.relative_to(SRC)}: {node.value!r}")
    assert sorted(set(readers)) == [
        "api/query.py: 'iterative'",
        "api/query.py: 'memoryless'",
        "api/query.py: Query.mode",
        "cli.py: build_parser",
        "service/requests.py: QueryRequest.validate",
    ]
    # In the CLI, the one reader is the serve parser's ``--mode``.
    tree = ast.parse((SRC / "cli.py").read_text())
    mode_flags = [
        ast.unparse(node.func.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        and any(
            isinstance(arg, ast.Constant) and arg.value == "--mode"
            for arg in node.args
        )
    ]
    assert mode_flags == ["serve_p"]


# -- one read path in a graph ------------------------------------------------

_POINT_READS = {
    "out_edges", "in_edges", "out_by_label", "in_by_label", "out_labels",
    "in_labels", "out_degree", "in_degree", "parallel_edges", "render_walk",
}


def _class_body_names(module: str, class_name: str):
    (cls,) = [
        node for node in ast.parse((SRC / module).read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == class_name
    ]
    return {
        node.name for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_live_graph_has_one_read_path():
    """A ``LiveGraph`` reads its adjacency from the epoch view through
    the accessors every graph class shares: it defines no point read of
    its own and keeps no sorted delta buckets beside the view."""
    assert not _class_body_names("live/live_graph.py", "LiveGraph") & _POINT_READS
    assert not _class_body_names("graph/database.py", "Graph") & _POINT_READS
    assert not _class_body_names("serve/shm.py", "SharedGraph") & _POINT_READS
    assert not any(
        module == "bisect" or module.startswith("bisect.")
        for module in _imported_modules(
            ast.parse((SRC / "live" / "live_graph.py").read_text())
        )
    )


def test_one_label_index_builds_the_label_views():
    """Every graph class gets its CSRs and successor tuples from one
    lazily built ``LabelIndex``: nothing else calls their builders, and
    the per-vertex label summaries are gone, not kept beside it."""
    callers = set()
    for path in SRC.rglob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in ("build_csr", "build_successors"):
                    callers.add((str(path.relative_to(SRC)), top.name, name))
    assert callers == {
        ("graph/database.py", "LabelIndex", "build_csr"),
        ("graph/database.py", "LabelIndex", "build_successors"),
    }
    for attr in ("out_labels_array", "in_labels_array"):
        assert _attribute_readers(attr) == [], attr
        assert not any(
            attr in _names(str(path.relative_to(SRC)))
            for path in SRC.rglob("*.py")
        ), attr
    assert "build_label_summaries" not in _names("graph/database.py")
    views = {"out_csr", "in_csr", "succ"}
    assert not _class_body_names("graph/database.py", "Graph") & views
    assert not _class_body_names("live/live_graph.py", "LiveGraph") & views
    assert not _class_body_names("serve/shm.py", "SharedGraph") & views


def test_walk_to_dict_names_no_graph_class():
    """Every graph class renders a walk the same way, so
    ``Walk.to_dict`` has no per-class fork."""
    tree = ast.parse((SRC / "core" / "walks.py").read_text())
    (to_dict,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "to_dict"
    ]
    names = {
        getattr(node, "id", None) or getattr(node, "attr", None)
        for node in ast.walk(to_dict)
    }
    assert not {"Graph", "SharedGraph", "LiveGraph", "isinstance"} & names


# -- one way to run a query ---------------------------------------------------

API = SRC / "api"
_SHAPES = ("one_to_all", "many_to_one", "many_to_all", "all_pairs")


def _top_level_functions(path: Path):
    """``(name, node)`` of every module-level function and method."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item


def _calls(tree: ast.AST, name: str):
    """Call nodes whose callee is ``name`` or ``<anything>.name``."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            getattr(node.func, "id", None) == name
            or getattr(node.func, "attr", None) == name
        )
    ]


def test_the_facade_builds_no_second_engine():
    names = _names("api/database.py")
    assert "DistinctShortestWalks" not in names
    assert "SimpleShortestWalks" not in names
    assert "simple_eligible" not in names


def test_endpoint_shapes_are_dispatched_in_one_function():
    """Every shape literal lives in the one combinator — plus the
    ``targets()`` refusal, which names the two shapes it accepts."""
    where = {shape: set() for shape in _SHAPES}
    inside = 0
    for name, function in _top_level_functions(API / "database.py"):
        for node in ast.walk(function):
            if isinstance(node, ast.Constant) and node.value in where:
                where[node.value].add(name)
                inside += 1
    refusal = {"one_to_all", "many_to_all"}
    for shape, functions in where.items():
        allowed = {"_cells", "_targets"} if shape in refusal else {"_cells"}
        assert functions <= allowed, (shape, functions)
    assert {"many_to_one", "many_to_all", "all_pairs"} <= {
        shape for shape, functions in where.items() if "_cells" in functions
    }
    # …and none hides at module level either.
    module = ast.parse((API / "database.py").read_text())
    literals = [
        node for node in ast.walk(module)
        if isinstance(node, ast.Constant) and node.value in where
    ]
    assert len(literals) == inside


def test_one_call_site_per_provider_under_the_facade():
    """The façade opens the DFS by target id on the snapshot it read λ
    from: one ``enumerate_walks`` site, and no ``walks_to`` (which
    resolves a vertex name and settles again)."""
    for callee, count in (
        ("witness", 1), ("enumerate_walks", 1), ("walks_to", 0),
    ):
        sites = [
            f"{path.name}:{call.lineno}"
            for path in sorted(API.rglob("*.py"))
            for call in _calls(ast.parse(path.read_text()), callee)
        ]
        assert len(sites) == count, (callee, sites)


def test_skip_past_cursor_has_two_callers():
    """The any-walk witness and the restricted fallback DFS: the two
    streams with no cells under them."""
    sites = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        for _ in _calls(ast.parse(path.read_text()), "skip_past_cursor")
    ]
    assert sites == ["api/database.py", "api/database.py"]


def test_the_product_bfs_enumerator_lives_in_baselines_only():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if "baselines" in path.relative_to(SRC).parts:
            continue
        tree = ast.parse(path.read_text())
        defined = any(
            isinstance(node, ast.ClassDef)
            and node.name == "SimpleShortestWalks"
            for node in ast.walk(tree)
        )
        imported = any(
            module.endswith(".SimpleShortestWalks")
            for module in _imported_modules(tree)
        )
        if defined or imported:
            offenders.append(str(path.relative_to(SRC)))
    assert offenders == []


def test_one_regex_construction_outside_baselines():
    """Production compiles every query with Thompson: the Glushkov
    construction is defined in ``repro.baselines`` alone (which
    production never imports)."""
    definers = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "glushkov_nfa"
    ]
    assert definers == ["baselines/glushkov.py"]


def test_no_second_entry_point_or_graph_registry():
    """``Database.query`` is the one way in: no module defines the
    per-graph database registry (``for_graph`` and its ``_shared``
    map) or a side door that hands out engines (``multi_target``), and
    none imports the deleted ``repro.query.rpq`` shims."""
    gone = {"for_graph", "_shared", "multi_target"}
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                defined = {
                    getattr(t, "id", None) or getattr(t, "attr", None)
                    for target in targets
                    for t in ast.walk(target)
                }
            else:
                continue
            offenders += [
                f"{path.relative_to(SRC)}: defines {name}"
                for name in sorted(defined & gone)
            ]
        offenders += [
            f"{path.relative_to(SRC)}: imports {module}"
            for module in _imported_modules(tree)
            if module in ("repro.query.rpq", "repro.query.RPQ")
            or module.startswith("repro.query.rpq.")
        ]
    assert offenders == []


def test_the_cli_imports_no_engine_class():
    tree = ast.parse((SRC / "cli.py").read_text())
    from_engine = sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module == "repro.core.engine"
        for alias in node.names
    )
    assert from_engine == []
    assert not any(
        module in ("repro.core.engine", "repro.core.multi_target",
                   "repro.core.cheapest")
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for module in (alias.name for alias in node.names)
    )


# -- no execution knobs above the engine -------------------------------------

_VOCABULARIES = {
    "MODES": ("repro.api.query", {"iterative", "memoryless", "auto"}),
    "RESTRICTIONS": ("repro.api.query", {"walks", "trails", "simple", "any"}),
}


def test_each_request_vocabulary_is_spelled_once():
    """A tuple or list literal naming a whole vocabulary appears once,
    in its home module; the service requests and the CLI import it."""
    spelled = {name: [] for name in _VOCABULARIES}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.Tuple, ast.List)):
                continue
            values = {
                elt.value for elt in node.elts if isinstance(elt, ast.Constant)
            }
            for name, (_, words) in _VOCABULARIES.items():
                if values >= words:
                    spelled[name].append(str(path.relative_to(SRC)))
    assert spelled == {
        "MODES": ["api/query.py"],
        "RESTRICTIONS": ["api/query.py"],
    }
    wanted = {
        f"{module}.{name}" for name, (module, _) in _VOCABULARIES.items()
    }
    for path in ("service/requests.py", "cli.py"):
        imported = set(_imported_modules(ast.parse((SRC / path).read_text())))
        assert wanted <= imported, path


def test_no_thread_pool_or_default_mode_above_the_engine():
    """A batch runs its requests in order, and no tier picks an engine
    mode for the requests that name none."""
    pools = [
        f"{path.relative_to(SRC)}: {module}"
        for path in sorted((SRC / "service").rglob("*.py"))
        for module in _imported_modules(ast.parse(path.read_text()))
        if module == "concurrent.futures"
        or module.startswith("concurrent.futures.")
    ]
    assert pools == []
    knobs = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if re.search(r"\b(default_mode|CONCRETE_MODES)\b", path.read_text())
    ]
    assert knobs == []


# -- one graph snapshot format ------------------------------------------------


def test_the_wal_does_not_import_the_serving_tier():
    """Snapshots and shared memory share the segment layout of
    ``repro.graph.segment``, not each other: the WAL reaches no
    ``repro.serve`` module."""
    offenders = [
        f"{path.relative_to(SRC)}: {module}"
        for path in sorted((SRC / "wal").rglob("*.py"))
        for module in _imported_modules(ast.parse(path.read_text()))
        if module == "repro.serve" or module.startswith("repro.serve.")
    ]
    assert offenders == []


def test_the_segment_layout_is_packed_in_one_module():
    """The segment's header struct and its meta/data CRCs are packed and
    unpacked in ``graph/segment.py`` only; shared memory and snapshot
    files hand it bytes and get a graph back.  (A WAL record frame
    carries a CRC of its own, in ``wal/frames.py``.)"""
    codec = {"Struct", "pack", "pack_into", "unpack", "unpack_from", "crc32"}
    paths = [
        SRC / "serve" / "shm.py",
        *(SRC / "wal").rglob("*.py"),
        *(SRC / "graph").rglob("*.py"),
    ]
    found = {}
    for path in paths:
        called = {
            getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
        } & codec
        if called:
            found[str(path.relative_to(SRC))] = called
    assert found == {
        "graph/segment.py": {"Struct", "pack_into", "unpack_from", "crc32"},
        "wal/frames.py": {"crc32"},
    }


def test_an_int_that_is_not_a_bool_has_one_predicate():
    """``repro.exceptions.is_int`` is the one spelling of "an ``int``
    that is not a ``bool``": no ``and`` / ``or`` outside it tests
    ``isinstance(x, int)`` beside ``isinstance(x, bool)`` by hand.  The
    int-or-float checks (``isinstance(x, (int, float))``) are another
    rule and keep their own."""

    def isinstance_of(node, name):
        return (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2
            and getattr(node.args[1], "id", None) == name
        )

    offenders = set()
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "exceptions.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BoolOp):
                inner = [n for value in node.values for n in ast.walk(value)]
                if any(isinstance_of(n, "int") for n in inner) and any(
                    isinstance_of(n, "bool") for n in inner
                ):
                    offenders.add(f"{path.relative_to(SRC)}:{node.lineno}")
    assert sorted(offenders) == []
