"""Reachability of the library: every function in ``src/omcert`` is entered
by the command line or by the benchmark's probe, or is allowlisted here with
its reason. A helper that only its own unit test calls belongs in
``tests/reference.py`` (when a test uses it as an oracle) or nowhere.

The walk runs in-process under ``sys.setprofile`` and records the code object
of every Python frame entered. The library's functions are collected from
the modules: module-level functions, the functions behind ``functools.cache``
wrappers (whose caches are cleared first, so a cached call enters the
function again), and every method, property and cached property of a class
defined there.

Design guards sit next to the walk. Every class in ``src/omcert`` is a plain
``Immutable`` or ``Exception`` subclass, so no class is generated at import
(a ``NamedTuple``, ``namedtuple`` or dataclass, a class decorator or a
metaclass), which every command-line run would pay for. Every ``Immutable``
subclass takes its ``__eq__`` and ``__hash__`` from ``Immutable``, which
compares ``_key()``, except ``SignedVector``, the type the pipeline hashes,
which keeps its own for speed. Only the validated types (``SignedVector``,
``Chirotope``, ``TopeSet``) write an ``__init__``; every record takes
``Immutable``'s, with every field given. And the packed pattern fields stay in two modules:
no module other than ``matroid``, which computes them, and ``search``, whose
kernel ORs them, imports ``pattern_bytes``. No module imports an underscore
name from another: what one module shares with another is public.
"""

from __future__ import annotations

import ast
import functools
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import omcert
from omcert.cli import main
from omcert.signed_vector import Immutable, SignedVector

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "signed_vector.Immutable._key": "key of equality and hashing; the pipeline compares only chirotopes, with their own key",
    "signed_vector.Immutable.__hash__": "hash protocol; the pipeline hashes only signed vectors, with their own hash",
    "signed_vector.Immutable.__repr__": "repr protocol, for debugging",
    "signed_vector.Immutable.__reduce__": "copy and pickle protocol",
    "signed_vector.Immutable.__setattr__": "refuses assignment; the pipeline assigns no field",
    "signed_vector.Immutable.__delattr__": "refuses deletion; the pipeline deletes no field",
    "signed_vector.SignedVector.__repr__": "repr protocol, for debugging",
    "signed_vector.SignedVector.restrict": "builds the deletions of the oracle reference.restriction_tope_set",
    "matroid.TopeSet.__contains__": "container protocol; the pipeline tests the frozenset",
}


def library_modules():
    return [importlib.import_module(f"omcert.{info.name}") for info in pkgutil.iter_modules(omcert.__path__)]


def _functions_of(obj, prefix: str):
    """(qualified name, function) pairs for a module attribute or class member."""
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    if isinstance(obj, property):
        obj = obj.fget
    if isinstance(obj, functools.cached_property):
        obj = obj.func
    if hasattr(obj, "cache_clear"):  # a functools.cache wrapper
        obj.cache_clear()
        obj = obj.__wrapped__
    if hasattr(obj, "__code__"):
        yield prefix, obj


def library_functions() -> dict[object, str]:
    """Code object -> ``module.qualname`` for every function written in ``src/omcert``."""
    src = Path(omcert.__file__).resolve().parent
    found = {}
    for module in library_modules():
        short = module.__name__.removeprefix("omcert.")
        for name, value in vars(module).items():
            pairs = list(_functions_of(value, f"{short}.{name}"))
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    pairs += _functions_of(member, f"{short}.{name}.{attr}")
            for qualname, function in pairs:
                code = function.__code__
                if Path(code.co_filename).resolve().parent == src:
                    found.setdefault(code, qualname)
    return found


def load_probe():
    spec = importlib.util.spec_from_file_location("bench_probe", ROOT / "bench" / "probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def walk(tmp_path: Path) -> None:
    """Every command, an invalid certificate, a usage error and help, then
    every probe mode."""
    search, full = str(tmp_path / "search.json"), str(tmp_path / "all.json")
    text = ["--format", "text"]
    for argv in (
        ["topes", *text],
        ["topes", "--family", "m2"],
        ["axioms", *text],
        ["strongmap", *text],
        ["lemma6", "--output", search],
        ["lemma6", *text],
        ["verify-n8", "--certificate", search, *text],
        ["all", "--output", full],
    ):
        assert main(argv) == 0, argv
    bad = tmp_path / "bad.json"
    bad.write_text(Path(search).read_text().replace('"rank": 3', '"rank": 5'))
    assert main(["verify-n8", "--certificate", str(bad)]) == 1
    for argv, code in ((["all", "--bogus"], 2), (["-h"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    probe = load_probe()
    for argv in (
        ["validate", full],
        ["oracle", "500"],
        ["trace-all", str(tmp_path / "traced.json")],
        ["trace-layers", search, full],
        ["trace-oracle", "500"],
    ):
        assert probe.main(argv) == 0, argv


def test_every_library_function_is_reached(tmp_path, capsys):
    functions = library_functions()
    assert set(ALLOWED) <= set(functions.values()), "stale allowlist entries"
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(record)
    try:
        walk(tmp_path)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    unreached = sorted(name for code, name in functions.items() if code not in entered)
    assert [name for name in unreached if name not in ALLOWED] == []


def test_every_class_is_a_plain_immutable_or_exception():
    generated = []
    for module in library_modules():
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name, None)
                plain = isinstance(cls, type) and type(cls) is type and not node.decorator_list
                if not plain or issubclass(cls, tuple) or not issubclass(cls, (Immutable, Exception)):
                    generated.append(f"{module.__name__}.{node.name}")
    assert generated == []


def test_only_validated_types_write_a_constructor():
    own_init, defaults = set(), set()
    for module in library_modules():
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, Immutable) and value is not Immutable:
                if "__init__" in vars(value):
                    own_init.add(value.__name__)
                if hasattr(value, "_defaults"):
                    defaults.add(value.__name__)
    assert own_init == {"SignedVector", "Chirotope", "TopeSet"}
    assert defaults == set()


def test_value_types_take_equality_and_hash_from_immutable():
    own = set()
    for module in library_modules():
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, Immutable):
                if value not in (Immutable, SignedVector):
                    own |= {f"{value.__name__}.{a}" for a in ("__eq__", "__hash__") if a in vars(value)}
    assert own == set()


def test_only_matroid_and_search_import_pattern_bytes():
    importers = set()
    for path in sorted(Path(omcert.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            if "pattern_bytes" in names or isinstance(node, ast.Attribute) and node.attr == "pattern_bytes":
                importers.add(path.stem)
    assert importers == {"search"}


def test_no_module_imports_a_private_name():
    private = []
    for path in sorted(Path(omcert.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("omcert")):
                private += [f"{path.stem}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []
