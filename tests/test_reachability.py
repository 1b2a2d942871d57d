"""Nothing public in ``repro`` lives for its own tests alone.

The scan lists every public top-level ``def`` and ``class`` in ``src/repro``
that no other program file reaches. The program files are ``src/`` (its
``__init__`` re-exports do not count), ``benchmarks/``, ``examples/`` and
``bench/``; ``tests/`` never counts. Another file reaches a name when it
uses it as a bare name, an attribute or an imported alias.

Every name the scan flags must be on ``ALLOWED`` with the reason it stays,
and every entry on ``ALLOWED`` must still be flagged, so the list cannot go
stale. A reason starts with one of ``REASONS``; "used inside its module" is
checked against the module itself.

A second scan does the same for settings: every init field of
``FedMSConfig`` and ``FaultConfig`` must be set by a program file
(``src/repro`` apart from ``config.py``, and the reader directories), as a
keyword of a ``FedMSConfig(...)`` / ``FaultConfig(...)`` call or as a key
of a dict splatted into one. A field only tests set is on ``UNSET_FIELDS``
with its reason, under the same two rules.

A third scan does it for registry keys, and has no allow-list: every key
of ``available_rules()``, ``available_attacks()`` and the codec by-name
table must be named by a program file other than the module that defines
the table. A key is a string, so a literal counts for a registry only
where it is bound to a name that names that registry (``rule`` or
``filter``, ``attack``, ``codec``): a keyword argument, an assignment
target, a parameter default, a ``for`` target or an ``add_argument``
option's ``default=``; or where it is an argument of ``make_rule``,
``make_attack`` or ``make_codec*``. A codec literal is read as a spec, so
``"topk(0.05)"`` names ``topk``. Inside a tuple, list or set a literal
counts only if every item is a string: a row label sits beside other
kinds of value, a list of names holds only names. Of a dict, only the
keys count. ``choices=available_attacks()`` names no literal, so offering
a key on the command line never reaches it. A class registered under a
reached key counts as reached by the first scan.

Print what the scans flag with ``python tests/test_reachability.py``.
"""

import ast
import dataclasses
import functools
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.aggregation import available_rules
from repro.attacks import available_attacks, make_attack
from repro.common import ConfigurationError
from repro.core.codecs import available_codecs, make_codec, parse_codec_spec
from repro.core.config import FaultConfig, FedMSConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
READER_DIRS = ("benchmarks", "examples", "bench")

REASONS = ("used inside its module", "kept for ROADMAP item ")

ALLOWED: Dict[str, str] = {
    "repro.aggregation.rules.krum_index": "used inside its module",
    "repro.aggregation.rules.mad_outlier_scores": "used inside its module",
    "repro.cli.build_parser": "used inside its module",
    "repro.common.errors.ReproError": "used inside its module",
    "repro.core.codecs.Codec": "used inside its module",
    "repro.core.codecs.CyclicSparsifier": "used inside its module",
    "repro.core.codecs.StageEncoding": "used inside its module",
    "repro.core.codecs.available_codecs": "used inside its module",
    "repro.core.codecs.make_codec": "used inside its module",
    "repro.core.codecs.parse_codec_spec": "used inside its module",
    "repro.core.engine.LateBuffer": "used inside its module",
    "repro.core.filtering.RootLossEvaluator": "used inside its module",
    "repro.core.health.BreakerState": "used inside its module",
    "repro.core.health.HealthPolicy": "used inside its module",
    "repro.core.upload.MultiUpload": "used inside its module",
    "repro.data.synthetic.class_prototypes": "used inside its module",
    "repro.execution.backend.resolve_num_workers": "used inside its module",
    "repro.execution.shared.SharedNDArray": "used inside its module",
    "repro.experiments.population.PopulationPreset": "used inside its module",
    "repro.experiments.tables.format_curves": "used inside its module",
    "repro.experiments.tables.format_rows": "used inside its module",
    "repro.models.mobilenet_v2.MobileNetV2":
        "kept for ROADMAP item 7: the paper's model, trained by items 7(b) and 8",
    "repro.nn.checkpoint.checkpoint_metadata":
        "kept for ROADMAP item 3: exact resume decides the checkpoint format",
    "repro.nn.checkpoint.load_checkpoint":
        "kept for ROADMAP item 3: exact resume decides the checkpoint format",
    "repro.nn.checkpoint.save_checkpoint":
        "kept for ROADMAP item 3: exact resume decides the checkpoint format",
    "repro.nn.layers.BatchNorm1d":
        "kept for ROADMAP item 4: the batch-norm MLP that the backend-parity "
        "and replica tests train",
    "repro.population.churn.MembershipWindow": "used inside its module",
    "repro.population.shards.BlobShardSpec": "used inside its module",
    "repro.population.trainer.exchange_tag": "used inside its module",
    "repro.simulation.faults.LinkPartition": "used inside its module",
    "repro.simulation.network.TrafficStats": "used inside its module",
    "repro.theory.bounds.lemma1_bound": "used inside its module",
    "repro.theory.bounds.lemma2_bound": "used inside its module",
    "repro.theory.bounds.lemma3_bound": "used inside its module",
    "repro.theory.rates.PowerLawFit":
        "kept for ROADMAP item 4: ties the O(1/T) shape to measured runs",
    "repro.theory.rates.fit_power_law":
        "kept for ROADMAP item 4: ties the O(1/T) shape to measured runs",
    "repro.theory.rates.halving_steps":
        "kept for ROADMAP item 4: ties the O(1/T) shape to measured runs",
    "repro.theory.verify.VerificationResult": "used inside its module",
}

CONFIG_CLASSES = (FedMSConfig, FaultConfig)

UNSET_FIELDS: Dict[str, str] = {
    "FedMSConfig.participation_fraction":
        "kept for ROADMAP item 3: its resume sweep and item 6 vary Theorem "
        "1's partial-participation term",
    "FedMSConfig.max_staleness":
        "kept for ROADMAP item 6: option (iii) admits an idle PS's aggregate "
        "through the max_staleness rule",
    "FaultConfig.max_upload_retries":
        "kept for ROADMAP item 4: the chaos fuzzer is to draw the retry "
        "policy",
    "FaultConfig.retry_backoff_s":
        "kept for ROADMAP item 4: the chaos fuzzer is to draw the retry "
        "policy",
    "FaultConfig.backoff_factor":
        "kept for ROADMAP item 4: the chaos fuzzer is to draw the retry "
        "policy",
}


@dataclasses.dataclass(frozen=True)
class Registry:
    """A by-name table: its keys, the module that defines it, the words
    a binding name names it by, and its constructor's name prefix."""

    keys: Tuple[str, ...]
    module: Path
    words: Tuple[str, ...]
    builder: str
    read: Callable[[str], str] = str
    build: Optional[Callable[[str], object]] = None


def _codec_name(spec: str) -> str:
    try:
        return parse_codec_spec(spec)[0]
    except ConfigurationError:
        return spec


REGISTRIES: Dict[str, Registry] = {
    "rules": Registry(tuple(available_rules()),
                      PACKAGE / "aggregation" / "registry.py",
                      ("rule", "filter"), "make_rule"),
    "attacks": Registry(tuple(available_attacks()),
                        PACKAGE / "attacks" / "registry.py",
                        ("attack",), "make_attack", build=make_attack),
    "codecs": Registry(tuple(available_codecs()),
                       PACKAGE / "core" / "codecs.py",
                       ("codec",), "make_codec", read=_codec_name,
                       build=make_codec),
}


@functools.lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)


def _references(tree: ast.AST) -> Iterable[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def _public_definitions(tree: ast.Module) -> List[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def scan() -> List[str]:
    """Qualified names of the public definitions no other file reaches."""
    modules = [path for path in sorted(PACKAGE.rglob("*.py"))
               if path.name != "__init__.py"]
    readers = list(modules)
    for directory in READER_DIRS:
        readers += sorted((ROOT / directory).rglob("*.py"))
    trees = {path: _tree(path) for path in readers}
    reached: Dict[Path, Set[str]] = {
        path: set(_references(tree)) for path, tree in trees.items()}
    registered = {type(registry.build(key)).__name__
                  for registry in REGISTRIES.values() if registry.build
                  for key in set(registry.keys) - set(unnamed_keys())}
    flagged = []
    for path in modules:
        for name in _public_definitions(trees[path]):
            if name not in registered and not any(
                    name in names for reader, names in reached.items()
                    if reader != path):
                flagged.append(f"{_module_name(path)}.{name}")
    return flagged


def _program_files() -> List[Path]:
    files = [path for path in sorted(PACKAGE.rglob("*.py"))
             if path.name != "config.py"]
    for directory in READER_DIRS:
        files += sorted((ROOT / directory).rglob("*.py"))
    return files


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def _dict_keys(tree: ast.AST, name: str) -> Iterable[str]:
    """Keys given to the dict bound to ``name``: ``dict(k=...)``,
    ``{"k": ...}``, ``name["k"] = ...`` and ``name.update(k=...)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    value = node.value
                    if isinstance(value, ast.Call) and _callee(value) == "dict":
                        yield from (kw.arg for kw in value.keywords if kw.arg)
                    elif isinstance(value, ast.Dict):
                        yield from (key.value for key in value.keys
                                    if isinstance(key, ast.Constant))
                elif (isinstance(target, ast.Subscript)
                      and isinstance(target.value, ast.Name)
                      and target.value.id == name
                      and isinstance(target.slice, ast.Constant)):
                    yield target.slice.value
        elif (isinstance(node, ast.Call) and _callee(node) == "update"
              and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id == name):
            yield from (kw.arg for kw in node.keywords if kw.arg)


def unset_fields() -> List[str]:
    """``Class.field`` of every config init field no program file sets."""
    names = {cls.__name__ for cls in CONFIG_CLASSES}
    set_by: Dict[str, Set[str]] = {name: set() for name in names}
    for path in _program_files():
        tree = _tree(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node) in names:
                given = set_by[_callee(node)]
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        given.add(keyword.arg)
                    elif isinstance(keyword.value, ast.Name):
                        given.update(_dict_keys(tree, keyword.value.id))
    return [f"{cls.__name__}.{f.name}" for cls in CONFIG_CLASSES
            for f in dataclasses.fields(cls)
            if f.init and f.name not in set_by[cls.__name__]]


def _literals(value: ast.AST) -> Iterable[str]:
    """The strings ``value`` binds: itself, the items of an all-string
    tuple, list or set (nested ones too), the keys of a dict, either arm
    of a conditional."""
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        yield value.value
    elif isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        if all(isinstance(item, ast.Constant) and isinstance(item.value, str)
               for item in value.elts):
            yield from (item.value for item in value.elts)
        else:
            for item in value.elts:
                if not isinstance(item, ast.Constant):
                    yield from _literals(item)
    elif isinstance(value, ast.Dict):
        yield from (key.value for key in value.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str))
    elif isinstance(value, ast.IfExp):
        yield from _literals(value.body)
        yield from _literals(value.orelse)


def _bindings(tree: ast.AST) -> Iterable[Tuple[str, ast.AST]]:
    """``(name, value)`` for every value bound to a name in ``tree``. A
    call's arguments come as ``("callee()", value)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = _callee(node) + "()"
            for argument in node.args:
                yield callee, argument
            for keyword in node.keywords:
                if keyword.arg is not None:
                    yield keyword.arg, keyword.value
                    yield callee, keyword.value
            option = node.args[0] if node.args else None
            if (callee == "add_argument()"
                    and isinstance(option, ast.Constant)
                    and isinstance(option.value, str)):
                for keyword in node.keywords:
                    if keyword.arg == "default":
                        yield option.value, keyword.value
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                name = getattr(target, "id", getattr(target, "attr", None))
                if name is not None and node.value is not None:
                    yield name, node.value
        elif isinstance(node, (ast.For, ast.comprehension)):
            if isinstance(node.target, ast.Name):
                yield node.target.id, node.iter
        elif isinstance(node, ast.arguments):
            positional = node.posonlyargs + node.args
            pairs = list(zip(positional[len(positional)
                                        - len(node.defaults):],
                             node.defaults))
            pairs += [(arg, default) for arg, default
                      in zip(node.kwonlyargs, node.kw_defaults) if default]
            for arg, default in pairs:
                yield arg.arg, default


@functools.lru_cache(maxsize=None)
def unnamed_keys() -> Tuple[str, ...]:
    """``registry:key`` of every registry key no program file names."""
    paths = sorted(PACKAGE.rglob("*.py")) + [
        path for directory in READER_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))]
    named: Dict[str, Set[str]] = {label: set() for label in REGISTRIES}
    for path in paths:
        for name, value in _bindings(_tree(path)):
            for label, registry in REGISTRIES.items():
                if path != registry.module and (
                        name.startswith(registry.builder)
                        if name.endswith("()")
                        else any(word in name.lower()
                                 for word in registry.words)):
                    named[label].update(map(registry.read, _literals(value)))
    return tuple(f"{label}:{key}" for label, registry in REGISTRIES.items()
                 for key in registry.keys if key not in named[label])


def _split(qualified: str) -> Tuple[Path, str]:
    module, name = qualified.rsplit(".", 1)
    return PACKAGE.parent.joinpath(*module.split(".")).with_suffix(".py"), name


def test_every_unreached_definition_is_allowed():
    unexplained = sorted(set(scan()) - set(ALLOWED))
    assert not unexplained, (
        "public definitions only tests reach: delete them, or add each to "
        f"ALLOWED with its reason: {unexplained}")


def test_every_allowed_definition_is_still_unreached():
    stale = sorted(set(ALLOWED) - set(scan()))
    assert not stale, f"reached or gone, remove from ALLOWED: {stale}"


def test_every_reason_is_one_of_the_three():
    odd = {name: reason for name, reason in ALLOWED.items()
           if not reason.startswith(REASONS)}
    assert not odd, odd


def test_every_unset_field_is_allowed():
    unexplained = sorted(set(unset_fields()) - set(UNSET_FIELDS))
    assert not unexplained, (
        "settings only tests set: make each a constant, or add it to "
        f"UNSET_FIELDS with its reason: {unexplained}")


def test_every_allowed_field_is_still_unset():
    stale = sorted(set(UNSET_FIELDS) - set(unset_fields()))
    assert not stale, f"set by a program or gone, remove from " \
        f"UNSET_FIELDS: {stale}"


def test_every_field_reason_keeps_a_roadmap_item():
    odd = {name: reason for name, reason in UNSET_FIELDS.items()
           if not reason.startswith(REASONS[-1])}
    assert not odd, odd


def test_every_registry_key_is_named_by_a_program():
    unnamed = unnamed_keys()
    assert not unnamed, (
        "registry keys no program names: delete each, or give it a "
        f"runner: {unnamed}")


def test_used_inside_its_module_holds():
    for qualified, reason in ALLOWED.items():
        if reason != "used inside its module":
            continue
        path, name = _split(qualified)
        tree = _tree(path)
        uses = [ref for ref in _references(tree) if ref == name]
        assert uses, f"{qualified} is not used inside its module"


if __name__ == "__main__":
    for qualified in scan():
        print(qualified, "-", ALLOWED.get(qualified, "NOT ALLOWED"))
    for qualified in unset_fields():
        print(qualified, "-", UNSET_FIELDS.get(qualified, "NOT ALLOWED"))
    for key in unnamed_keys():
        print(key, "- NAMED BY NO PROGRAM")
