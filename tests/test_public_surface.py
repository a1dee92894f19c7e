"""No public surface without a use.

Every top-level public function, class and constant of a ``phrasealign``
module must be referenced somewhere in the package outside its own
definition, or in one of the benchmark programs under ``perfbench/``. Tests
do not count as callers, and neither does the benchmark's own self-test.
References are resolved through each file's imports, so ``np.tanh`` is no
use of ``numerics.tanh``.

Every public method and property of those modules' classes, and every public
field of their dataclasses, must be read as an attribute (``x.name``) in the
same files, outside a definition of that name. The receiver's type is not
resolved, so an attribute of the same name on anything counts: the check can
miss a dead member, never flag a used one. A dataclass passed by name to
``dataclasses.fields``, ``asdict`` or ``astuple`` has all its fields read.
An instance passed to them is not resolved to its class.

Every ``bool`` or ``str`` field of ``ModelConfig`` and ``TrainConfig`` (a
config switch) must be set to a constant other than its default by a keyword
argument in the same files, such as ``enable_biatt=False``. The callee is
not resolved either: the keyword counts on any call.

``ALLOWED`` names each exception together with what will call it, or for a
switch what will set it. A name leaves the list once it has a caller; the
list can only shrink.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "phrasealign"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
CALLER_FILES = sorted(PACKAGE.glob("*.py")) + sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if p.name != "selftest.py")

# "module.name" or "module.Class.member": what will call it
ALLOWED = {
    "data.save_dataset": "ROADMAP item 2: the CLI's generate",
    "data.load_dataset": "ROADMAP item 2: the CLI's train and eval",
    "data.region_patch_indices": "ROADMAP items 2 and 9: the alignment score",
    "data.slot_of_phrase": "ROADMAP items 2 and 9: the alignment score",
    "local_align.write_heatmap_csv": "ROADMAP item 2: the CLI's heatmap",
    "local_align.write_pgm": "ROADMAP item 2: the CLI's heatmap",
    "local_align.BidirectionalWeights.pair": "ROADMAP item 2: the CLI's heatmap, "
                                             "which writes one pair's weights",
    "model.load_checkpoint": "ROADMAP item 6: resume",
    "model.load_params_state": "ROADMAP item 6: resume",
    "gradcheck.run_suite": "the CI step that runs the finite-difference suite",
    "gradcheck.TOLERANCE": "the CI step that runs the finite-difference suite",
    "trainer.TrainConfig.enable_mpm": "ROADMAP item 2's ablate and item 7's "
                                      "\"w/o MPM\" workload",
    "trainer.TrainConfig.enable_triplet": "ROADMAP item 2's ablate",
    "model.ModelConfig.tie_score_head": "ROADMAP item 4, which ties or removes "
                                        "the score head",
}

# the config dataclasses whose bool and str fields are switches
CONFIGS = (("model", "ModelConfig"), ("trainer", "TrainConfig"))


def _assigned(node) -> list[str]:
    """The plain names an assignment statement binds."""
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def public_names(module: str) -> list[str]:
    """The module's public functions, classes and constants."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        names += _assigned(node)
    return [name for name in names if not name.startswith("_")]


def _public_classes(module: str) -> list[ast.ClassDef]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return [cls for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")]


def public_members(module: str) -> list[str]:
    """"Class.member" for each public method and property of the module's
    public classes."""
    return [f"{cls.name}.{node.name}" for cls in _public_classes(module)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def public_fields(module: str) -> list[str]:
    """"Class.field" for each public field of the module's public
    dataclasses."""
    return [f"{cls.name}.{name}" for cls in _public_classes(module)
            if any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
            for node in cls.body for name in _assigned(node)
            if isinstance(node, ast.AnnAssign) and not name.startswith("_")]


def _package_module(node: ast.ImportFrom) -> str | None:
    """The ``phrasealign`` module an import takes names from: "" for the
    package itself, None for anything else. Only the package's own modules
    import relatively."""
    if node.level:
        return node.module or ""
    if node.module == "phrasealign":
        return ""
    prefix = "phrasealign."
    return node.module[len(prefix):] if (node.module or "").startswith(prefix) else None


# calls that read every field of the dataclass they are given
WHOLE_READS = ("dataclasses.fields", "dataclasses.asdict", "dataclasses.astuple")


def references(path: Path) -> set[tuple[str, str]]:
    """(module, name) pairs that ``path`` uses, each outside the top-level
    definition of that same name, and (module, "Class.*") for each package
    class whose fields a ``WHOLE_READS`` call reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = path.stem if path.parent == PACKAGE else None
    modules: dict[str, str] = {}          # local alias -> package module
    names: dict[str, tuple[str, str]] = {}  # local name -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _package_module(node)
            for alias in node.names if source is not None else ():
                local = alias.asname or alias.name
                if source == "":
                    modules[local] = alias.name
                else:
                    names[local] = (source, alias.name)
    if own is not None:
        names.update({name: (own, name) for name in public_names(own)})

    def resolve(node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id in names:
            return names[node.id]
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            return modules[node.value.id], node.attr
        return None

    found = set()
    for top in tree.body:
        defined = getattr(top, "name", None)
        for node in ast.walk(top):
            ref = resolve(node)
            if isinstance(node, ast.Call) and node.args and \
                    ast.unparse(node.func) in WHOLE_READS:
                whole = resolve(node.args[0])
                ref = whole and (whole[0], f"{whole[1]}.*")
            if ref and not (ref[0] == own and ref[1] == defined):
                found.add(ref)
    return found


def attribute_reads(path: Path) -> set[str]:
    """Attribute names that ``path`` reads (``x.name``), each outside any
    function of that same name, so a method calling itself is no use."""
    found = set()

    def visit(node, inside: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def config_switches() -> dict[str, str]:
    """"module.Class.field" -> the repr of its default, for each ``bool`` or
    ``str`` field of the ``CONFIGS``."""
    switches = {}
    for module, name in CONFIGS:
        (cls,) = [c for c in _public_classes(module) if c.name == name]
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and \
                    ast.unparse(node.annotation) in ("bool", "str"):
                switches[f"{module}.{name}.{node.target.id}"] = \
                    repr(ast.literal_eval(node.value))
    return switches


def constant_keywords(path: Path) -> set[tuple[str, str]]:
    """(keyword, repr of the constant) for each keyword argument ``path``
    passes a constant, on any call."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {(node.arg, repr(node.value.value)) for node in ast.walk(tree)
            if isinstance(node, ast.keyword) and isinstance(node.value, ast.Constant)}


def switch_is_set(name: str, keywords: set[tuple[str, str]]) -> bool:
    """Whether a keyword sets the switch "module.Class.field" to a constant
    other than its default."""
    field, default = name.rsplit(".", 1)[1], config_switches()[name]
    return any(arg == field and value != default for arg, value in keywords)


@pytest.fixture(scope="module")
def keywords() -> set[tuple[str, str]]:
    return set().union(*(constant_keywords(path) for path in CALLER_FILES))


@pytest.fixture(scope="module")
def used() -> set[str]:
    return {f"{m}.{n}" for path in CALLER_FILES for m, n in references(path)}


@pytest.fixture(scope="module")
def read_attributes() -> set[str]:
    return set().union(*(attribute_reads(path) for path in CALLER_FILES))


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_has_a_caller(module, used):
    uncalled = [f"{module}.{name}" for name in public_names(module)
                if f"{module}.{name}" not in used | ALLOWED.keys()]
    assert not uncalled, (f"public names without a caller in src/ or perfbench/: "
                          f"{uncalled}; call, delete or allow-list them")


@pytest.mark.parametrize("module", MODULES)
def test_every_public_method_has_a_caller(module, read_attributes):
    uncalled = [f"{module}.{member}" for member in public_members(module)
                if member.split(".")[1] not in read_attributes
                and f"{module}.{member}" not in ALLOWED]
    assert not uncalled, (f"public methods and properties never read in src/ or "
                          f"perfbench/: {uncalled}; call, delete or allow-list them")


def field_is_read(name: str, used: set[str], read_attributes: set[str]) -> bool:
    """Whether "module.Class.field" is read as an attribute, or with every
    field of its class."""
    module, cls, field = name.split(".")
    return field in read_attributes or f"{module}.{cls}.*" in used


@pytest.mark.parametrize("module", MODULES)
def test_every_dataclass_field_is_read(module, used, read_attributes):
    unread = [f"{module}.{field}" for field in public_fields(module)
              if not field_is_read(f"{module}.{field}", used, read_attributes)
              and f"{module}.{field}" not in ALLOWED]
    assert not unread, (f"dataclass fields never read in src/ or perfbench/: "
                        f"{unread}; read, delete or allow-list them")


def test_every_config_switch_is_set_by_a_caller(keywords):
    unset = [name for name in config_switches()
             if not switch_is_set(name, keywords) and name not in ALLOWED]
    assert not unset, (f"config switches never set to a non-default value in src/ "
                       f"or perfbench/: {unset}; set, delete or allow-list them")


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allow_listed_name_exists_without_a_caller(name, used, read_attributes,
                                                   keywords):
    module, attr = name.split(".", 1)
    if name in config_switches():
        # allow-listed for having no caller that sets it; it is still read
        assert field_is_read(name, used, read_attributes), f"{name} is never read"
        defined, called = public_fields(module), switch_is_set(name, keywords)
    elif attr in public_fields(module):
        defined, called = public_fields(module), field_is_read(name, used,
                                                               read_attributes)
    elif "." in attr:     # a method or property
        defined, called = public_members(module), attr.split(".")[1] in read_attributes
    else:
        defined, called = public_names(module), name in used
    assert attr in defined, f"{name} is allow-listed but not defined"
    assert not called, f"{name} now has a caller; take it off the allow-list"


def test_references_resolve_through_imports(tmp_path, monkeypatch):
    """Module aliases and imported names resolve to the package module;
    ``np.tanh`` is not ``nx.tanh``; a package module's name used only inside
    its own definition is no reference."""
    monkeypatch.setitem(globals(), "PACKAGE", tmp_path)
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n"
        "from . import numerics as nx\n"
        "from .data import make_batches as mb\n"
        "def tanh(x):\n    return tanh(np.tanh(nx.exp(x)))\n"
        "def helper():\n    return mb(), Used\n"
        "class Used:\n    pass\n", encoding="utf-8")
    assert references(tmp_path / "mod.py") == {
        ("numerics", "exp"), ("data", "make_batches"), ("mod", "Used")}
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "prog.py").write_text(
        "from phrasealign import model\n"
        "from phrasealign.textproc import TextPipeline\n"
        "model.cross_encode(TextPipeline(), tanh)\n", encoding="utf-8")
    assert references(tmp_path / "bench" / "prog.py") == {
        ("model", "cross_encode"), ("textproc", "TextPipeline")}


def test_method_reads_are_attribute_names(tmp_path, monkeypatch):
    """Public methods and properties of public classes are listed; any
    ``x.name`` read counts for every member called ``name``, except inside a
    function of that name."""
    monkeypatch.setitem(globals(), "PACKAGE", tmp_path)
    (tmp_path / "mod.py").write_text(
        "class Box:\n"
        "    @property\n    def size(self):\n        return 1\n"
        "    def grow(self):\n        return self.grow(), self.size\n"
        "    def _hidden(self):\n        self.stored = 0\n        return other.shrink\n"
        "class _Private:\n    def seen(self):\n        pass\n", encoding="utf-8")
    assert public_members("mod") == ["Box.size", "Box.grow"]
    assert attribute_reads(tmp_path / "mod.py") == {"size", "shrink"}


def test_constants_and_dataclass_fields_are_listed(tmp_path, monkeypatch):
    """Public module constants are public names; public dataclass fields are
    listed, and a class passed to ``dataclasses.fields`` has all of them
    read; an assignment is no use of the name it binds."""
    monkeypatch.setitem(globals(), "PACKAGE", tmp_path)
    (tmp_path / "mod.py").write_text(
        "import dataclasses\n"
        "LIMIT = 3\n_HIDDEN = 4\nUNUSED: int = 5\n"
        "@dataclasses.dataclass\nclass Row:\n    size: int = LIMIT\n    _own: int = 0\n"
        "class Plain:\n    kind: str = 'x'\n"
        "COLUMNS = dataclasses.fields(Row)\n", encoding="utf-8")
    assert public_names("mod") == ["LIMIT", "UNUSED", "Row", "Plain", "COLUMNS"]
    assert public_fields("mod") == ["Row.size"]
    assert references(tmp_path / "mod.py") == {("mod", "LIMIT"), ("mod", "Row"),
                                               ("mod", "Row.*")}


def test_switches_are_set_by_constant_keywords(tmp_path, monkeypatch):
    """A switch is a bool or str field of a config; a keyword passing a
    constant on any call sets it, and only a value other than the default
    counts."""
    monkeypatch.setitem(globals(), "PACKAGE", tmp_path)
    monkeypatch.setitem(globals(), "CONFIGS", (("mod", "Cfg"),))
    (tmp_path / "mod.py").write_text(
        "import dataclasses\n"
        "@dataclasses.dataclass\nclass Cfg:\n    size: int = 1\n"
        "    flag: bool = False\n    kind: str = 'a'\n    mode: str = 'x'\n"
        "def run(x, **over):\n"
        "    Cfg(flag=True, kind='a', mode=x, size=2, **over)\n"
        "    return run(1, kind='b')\n", encoding="utf-8")
    assert config_switches() == {"mod.Cfg.flag": "False", "mod.Cfg.kind": "'a'",
                                 "mod.Cfg.mode": "'x'"}
    keywords = constant_keywords(tmp_path / "mod.py")
    assert keywords == {("flag", "True"), ("kind", "'a'"), ("size", "2"),
                        ("kind", "'b'")}
    assert [switch_is_set(name, keywords) for name in config_switches()] == \
        [True, True, False]
