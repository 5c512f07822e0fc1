"""Every exported function and class is used by the package itself, and
every field of a result type is read by it or by the benchmark.

A public name that only ``__init__`` and the tests reach is code no
command runs, and a field only tests read is work no command needs;
this keeps both from accumulating.
"""

import ast
import dataclasses
import importlib
import inspect
import typing
from collections import Counter
from pathlib import Path

import fluxgate

PACKAGE = Path(fluxgate.__file__).parent


def _exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return {
        name for name in names
        if inspect.isfunction(getattr(fluxgate, name)) or inspect.isclass(getattr(fluxgate, name))
    }


def _references(node: ast.AST, enclosing: frozenset = frozenset()) -> set[str]:
    """Names and attribute names referenced under ``node``, leaving out
    references to a def or class from inside its own statement."""
    found = set()
    if isinstance(node, ast.Name) and node.id not in enclosing:
        found.add(node.id)
    elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
        found.add(node.attr)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    for child in ast.iter_child_nodes(node):
        found |= _references(child, enclosing)
    return found


def test_every_exported_function_and_class_is_used_by_the_package():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _references(ast.parse(path.read_text()))
    exported = _exported_names()
    assert exported  # the parse found the exports
    assert sorted(exported - used) == []


# -- every result field has a reader ------------------------------------------

FIELD_MODULES = ("circuits", "system", "evolve", "floquet", "gates")
BENCH = PACKAGE.parents[1] / "bench"

# Fields no code reads, kept because tests check the physics through them.
READ_BY_TESTS = {
    ("TransitionResult", "scan_freqs"): "pins the one-sector scan to the full one",
    ("TransitionResult", "gaps"): "pins the one-sector scan, explains a not-found",
    ("ComputationalUnitary", "norm_drift"): "pins the window's drift check; the benchmark "
                                            "tracer should read it, not final_populations",
}

# Fields whose name another result type shares, so a read of the name
# cannot be told apart from a read of the other field: each names its
# reader, a function, method or module-level table of the package or the
# benchmark (module.name[.method]), which must read the name.
SHARED_NAME_READERS = {
    ("CompositeOperator", "matrix"): "system.label_eigenstates",
    ("CompositeOperator", "params"): "system.label_eigenstates",
    ("ComputationalUnitary", "matrix"): "gates.evaluate_gate",
    ("EvolutionResult", "norm_drift"): "tracer.LAYERS",
    ("FloquetSpectrum", "states"): "floquet._pair_gap",
    ("LabeledSpectrum", "energies"): "evolve._flat_step",
    ("LabeledSpectrum", "labels"): "evolve.propagate_computational_unitary",
    ("LabeledSpectrum", "sectors"): "evolve._flat_step",
    ("LabeledSpectrum", "states"): "evolve._flat_step",
    ("ModelOperators", "labels"): "system.label_eigenstates",
    ("ModelOperators", "sectors"): "evolve._flat_step",
    ("Monodromy", "params"): "floquet.quasienergies",
    ("Monodromy", "sectors"): "floquet.quasienergies",
    ("OptimizationResult", "gate_time"): "gates.OptimizationResult.report",
    ("SpectralData", "energies"): "system.assemble_operators",
}


def _hashed_into_run_id() -> set:
    """Dataclasses that ``cli.main`` hashes into ``run_id`` through
    ``asdict``: the device parameters and the [gate] section, with the
    dataclasses they nest. Their fields are inputs, read or not."""
    from fluxgate import gates, system

    found, todo = set(), [system.CompositeParams, gates.GateConfig]
    while todo:
        cls = todo.pop()
        found.add(cls)
        todo += [t for t in typing.get_type_hints(cls).values()
                 if dataclasses.is_dataclass(t) and t not in found]
    return found


def _result_types():
    """Dataclasses and NamedTuples defined in the layers, with their fields."""
    for name in FIELD_MODULES:
        module = importlib.import_module(f"fluxgate.{name}")
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            if dataclasses.is_dataclass(cls):
                yield cls, [f.name for f in dataclasses.fields(cls)]
            elif issubclass(cls, tuple) and hasattr(cls, "_fields"):
                yield cls, list(cls._fields)


def _attribute_reads(tree: ast.AST) -> list[tuple[str, str | None, str | None]]:
    """(attribute, enclosing class, enclosing method) of every attribute
    read under ``tree``."""
    reads = []

    def visit(node, cls, method):
        if isinstance(node, ast.ClassDef):
            cls, method = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if cls is not None and method is None:
                method = node.name
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.attr, cls, method))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, method)

    visit(tree, None, None)
    return reads


def _reads_in(reader: str) -> set[str]:
    """Attribute names read in ``reader``, as named in SHARED_NAME_READERS."""
    module, *path = reader.split(".")
    source = PACKAGE / f"{module}.py"
    if not source.exists():
        source = BENCH / f"{module}.py"
    node, body = None, ast.parse(source.read_text()).body
    for name in path:
        (node,) = [n for n in body if getattr(n, "name", None) == name
                   or name in {getattr(t, "id", None) for t in getattr(n, "targets", ())}]
        body = getattr(node, "body", [])
    return {n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_every_result_field_is_read_outside_its_class():
    # A field counts as read when its name is read as an attribute in
    # the package or the benchmark outside its own class, or inside a
    # method of its class whose name is read so. Names are matched, not
    # types, so a field whose name another result type shares counts as
    # read only through its entry in SHARED_NAME_READERS.
    assert BENCH.is_dir()
    sources = [*PACKAGE.glob("*.py"), *BENCH.glob("*.py")]
    reads = [r for path in sources for r in _attribute_reads(ast.parse(path.read_text()))]
    exempt = _hashed_into_run_id()
    types = list(_result_types())
    names = Counter(f for _, fields in types for f in fields)
    unread, shared = set(), set()
    for cls, fields in types:
        if cls in exempt:
            continue
        outside = {attr for attr, owner, _ in reads if owner != cls.__name__}
        via_methods = {attr for attr, owner, method in reads
                       if owner == cls.__name__ and method in outside}
        for f in fields:
            if names[f] > 1:
                shared.add((cls.__name__, f))
            elif f not in outside | via_methods:
                unread.add((cls.__name__, f))
    assert set(SHARED_NAME_READERS) <= shared
    unread |= shared - set(SHARED_NAME_READERS)
    assert sorted(unread) == sorted(READ_BY_TESTS)
    for (_, f), reader in SHARED_NAME_READERS.items():
        assert f in _reads_in(reader), (f, reader)


# -- layering -------------------------------------------------------------------

def _package_imports(module: str) -> set[str]:
    """Package modules that ``module`` imports from, by relative or
    absolute import anywhere in its source."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found |= {node.module} if node.module else {a.name for a in node.names}
            elif node.module and node.module.split(".")[0] == "fluxgate":
                parts = node.module.split(".")
                found |= {parts[1]} if len(parts) > 1 else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("fluxgate.")}
    return found


def test_backends_depends_on_the_package_only_through_errors():
    # The kernels take plain arrays: the physics modules build on them,
    # never the reverse.
    assert _package_imports("backends") == {"errors"}


def test_floquet_takes_from_evolve_only_the_period_and_the_frame():
    # The monodromy is evolve._period; floquet reaches no other stepping
    # internal of evolve. _flat_step is bound only for the benchmark
    # tracer's binding check (bench/tests/test_tracer.py).
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / "floquet.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "evolve":
            names |= {a.name for a in node.names}
        elif isinstance(node, (ast.ImportFrom, ast.Import)):
            assert "evolve" not in {a.name.split(".")[-1] for a in node.names}
    assert names == {"DEFAULT_DT", "_check_drive_resolved", "_period", "dressed_frame",
                     "_flat_step"}
