"""Reachability of the library: every function in ``src/omcert`` is entered
by the command line or by the benchmark's probe, or is allowlisted here with
its reason. Only protocol methods (dunder names) and ``Immutable._key`` may
be allowlisted. A helper that only its own unit test calls belongs in
``tests/reference.py`` (when a test uses it as an oracle) or nowhere. Likewise
every parameter with a default is passed by some call in ``src/omcert`` or
``bench/probe.py``, so no parameter is set only by tests; ``cli.main``'s
``argv`` is exempt, because the process entry ``cli.entry`` calls ``main()``
bare.

The walk runs in-process under ``sys.setprofile`` and records the code object
of every Python frame entered. The library's functions are collected from
the modules and the package: module-level functions, the functions behind
``functools.cache`` wrappers (whose caches are cleared first, so a cached
call enters the function again), and every method, property and cached
property of a class defined there.

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
name from another: what one module shares with another is public. Stage A,
``oracle``, imports nothing from ``search`` and none of the kernel's pattern
or axiom names, so it stays an independent check. A bare ``import omcert``
loads none of its modules (each public name resolves from one export table
on first use), and importing stage A leaves its table unbuilt.
"""

from __future__ import annotations

import ast
import functools
import gc
import importlib
import importlib.util
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import omcert
from omcert.cli import entry, main
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
    "omcert.__getattr__": "module attribute protocol; a name it resolved is kept in the package, so a later walk never enters it",
    "omcert.__dir__": "dir protocol, for interactive use",
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
    # the package last, so a function it has cached keeps its home module's name
    for module in (*library_modules(), omcert):
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


def walk(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    """Every command, an invalid certificate, a usage error and help, help
    through the process entry, then every probe mode."""
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
    # the entry's freeze is recorded, not made, so this process is not pinned
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
    monkeypatch.setattr(sys, "argv", ["omcert", "-h"])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert (exc.value.code, frozen) == (0, [True])
    probe = load_probe()
    for argv in (
        ["validate", full],
        ["oracle", "500"],
        ["trace-all", str(tmp_path / "traced.json")],
        ["trace-layers", search, full],
        ["trace-oracle", "500"],
    ):
        assert probe.main(argv) == 0, argv


def test_every_library_function_is_reached(tmp_path, capsys, monkeypatch):
    functions = library_functions()
    assert set(ALLOWED) <= set(functions.values()), "stale allowlist entries"
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(record)
    try:
        walk(tmp_path, monkeypatch)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    unreached = sorted(name for code, name in functions.items() if code not in entered)
    assert [name for name in unreached if name not in ALLOWED] == []


def test_allowlist_holds_only_protocol_methods():
    others = [
        name for name in ALLOWED
        if name != "signed_vector.Immutable._key" and not re.fullmatch(r"__\w+__", name.rsplit(".", 1)[1])
    ]
    assert others == []


def test_every_default_is_passed_by_some_call():
    # calls are matched to functions by name: a positional argument at index
    # i, or a keyword, passes a function's parameter there
    src = Path(omcert.__file__).resolve().parent
    passed = set()
    for path in (*sorted(src.glob("*.py")), ROOT / "bench" / "probe.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                passed |= {(name, i) for i in range(len(node.args))}
                passed |= {(name, k.arg) for k in node.keywords}
    unpassed = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [(f, 0) for f in tree.body if isinstance(f, ast.FunctionDef)]
        for cls in (c for c in tree.body if isinstance(c, ast.ClassDef)):
            for f in cls.body:
                if isinstance(f, ast.FunctionDef):  # an instance method takes self implicitly
                    static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
                    functions.append((f, 0 if static else 1))
        for f, implicit in functions:
            params = f.args.posonlyargs + f.args.args
            first = len(params) - len(f.args.defaults)
            defaulted = [(i - implicit, p.arg) for i, p in enumerate(params) if i >= first]
            defaulted += [(None, p.arg) for p, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None]
            for index, arg in defaulted:
                if (f.name, index) not in passed and (f.name, arg) not in passed:
                    unpassed.append(f"{path.stem}.{f.name}({arg})")
    assert [name for name in unpassed if name != "cli.main(argv)"] == []


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


def test_oracle_shares_no_kernel_code():
    # stage A is an independent check of the kernel's n=8 claim: it imports
    # nothing from ``search`` and none of the pattern or axiom code the
    # kernel and its survivors run on
    kernel = {
        "pattern_masks", "pattern_bytes", "saturation_search",
        "check_uniform_tope_axioms", "circuit_table", "circuit_on_support",
    }
    path = Path(omcert.__file__).resolve().parent / "oracle.py"
    modules, names = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module)
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            modules |= {a.name for a in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "search" not in modules and "omcert.search" not in modules
    assert names & kernel == set()


PUBLIC = [
    "AssumptionRecord", "Chirotope", "ContradictionCertificate", "CovectorAxiomReport",
    "DirectSearchOutcome", "RestrictionCheck", "SearchCertificate", "SearchInstance",
    "SignedVector", "StrongMapVerdict", "SurvivorRecord", "TopeSet", "UniformTopeReport",
    "VerificationError", "alternating_chirotope", "build_contradiction_certificate",
    "build_search_instance", "canonical_tope_count", "certificate_document",
    "check_covector_axioms", "check_restriction", "check_uniform_tope_axioms",
    "circuit_on_support", "circuits_conflict", "covectors_of", "direct_search_n8",
    "enumerate_survivors", "is_covector", "is_strong_map_covectors", "is_strong_map_topes",
    "lift_through_restriction", "pair_swap_chirotope", "phi", "search_certificate_from_document",
    "serialize_certificate", "sign_string_key", "topes_of", "validate_certificate_document",
    "validate_contradiction_document", "validate_search_document", "verify_premise",
    "verify_search_conclusions",
]
SUBMODULES = ("contradiction", "certificate", "matroid", "oracle", "search", "signed_vector", "strong_map")


def fresh(code: str) -> list[str]:
    """The words printed by ``code``, run in a fresh ``python -I`` with ``src`` on the path."""
    path = str(Path(omcert.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {path!r}); {code}"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_leaves_the_oracle_table_unbuilt():
    # a bare import of omcert loads no submodule, and importing stage A still
    # leaves its 5-point table unbuilt: it is built only when stage A runs
    assert fresh("import omcert, omcert.oracle; print(omcert.oracle.local_table.cache_info().currsize)") == ["0"]


def test_no_module_imports_a_private_name():
    private = []
    for path in sorted(Path(omcert.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("omcert")):
                private += [f"{path.stem}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []


def test_bare_import_loads_no_submodule_and_no_json():
    loaded = fresh("before = set(sys.modules); import omcert; print(*sorted(set(sys.modules) - before))")
    assert [name for name in loaded if name.startswith("omcert")] == ["omcert"]
    assert "json" not in loaded


def test_bare_import_resolves_every_submodule():
    names = " ".join(SUBMODULES)
    resolved = fresh(
        f"import omcert; print(*(getattr(omcert, m) is sys.modules['omcert.' + m] for m in {names!r}.split()))"
    )
    assert resolved == ["True"] * len(SUBMODULES)


def test_public_names_pinned():
    assert omcert.__all__ == PUBLIC


def test_every_public_name_is_its_home_modules_object():
    for name in omcert.__all__:
        value = getattr(omcert, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert vars(omcert)[name] is value, name  # kept, so the next use is a plain lookup


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from omcert import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == omcert.__all__


def test_dir_lists_the_public_names_and_modules():
    assert set(omcert.__all__) | set(SUBMODULES) <= set(dir(omcert))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        omcert.no_such_name
