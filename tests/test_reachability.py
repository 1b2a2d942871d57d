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

A second scan does the same for keywords: every defaulted keyword of a
public function, public method or public constructor in ``src/repro``
(bar the experiment drivers, the CLI and the package root, and the
definitions ``ALLOWED`` keeps for a ROADMAP item), and every init field of
``FedMSConfig`` and ``FaultConfig``, must be set by a program file to
something other than its default. A call sets a keyword when its callee
is the definition's name (a class name for a constructor, the base class
for ``super().__init__``) and it passes the keyword by name or position,
or as a key of a dict splatted into the call: a literal or ``dict(...)``,
a local dict, a ``**kwargs`` the caller's own callers fill, a parameter
the caller's own callers pass a dict, or an inner
dict of a module-level table splatted into ``make_attack``, which reaches
the registered attack class, as ``make_attack("key", ...)`` does. A call
through a parameter, ``topology(...)``, calls what the parameter names:
its default and the names the caller's own callers pass for it. A codec
spec with arguments, ``"topk(0.05)"``, sets its class's positional
parameters. A literal equal to the default sets nothing, and neither does
the caller's own parameter while that one is unset, so the scan runs to a
fixpoint. A keyword only tests set is on ``UNSET_KEYWORDS`` with its
reason, under the same two rules.

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

A fourth scan does it for members: every public method, property and
annotated (dataclass or named-tuple) field of a public class in the
modules the keyword scan reads must be read by a program file other than
its own module. A file reads a member when it loads the member's name as
an attribute, ``record.train_loss``, or names it in a string literal,
``getattr(trainer, "population")``; an ``__all__`` list names no member,
and an assignment or a constructor keyword is a write. A read inside the
body of a member no program reads does not count, so the scan runs to a
fixpoint; a member held for a ROADMAP item counts as read. The scan goes
by name alone, so a member whose name another class's member shares is
out of its sight. Each member it flags that stays is on
``ALLOWED_MEMBERS`` with a reason from ``REASONS``, under the same two
rules as ``ALLOWED``; a class ``ALLOWED`` holds is scanned too, so each
of its unread members carries its own reason.

Every "kept for ROADMAP item" reason, on any of the three allow-lists,
ends with ``DEADLINE``: the ROADMAP re-anchor that holds an entry names
the one by which its item must run the entry from a program, or the entry
goes.

Print what the scans flag with ``python tests/test_reachability.py``.
"""

import ast
import dataclasses
import functools
from pathlib import Path
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Set, Tuple)

from repro.aggregation import available_rules
from repro.attacks import available_attacks, make_attack
from repro.common import ConfigurationError
from repro.core.codecs import available_codecs, make_codec, parse_codec_spec
from repro.core.config import FaultConfig, FedMSConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
READER_DIRS = ("benchmarks", "examples", "bench")

REASONS = ("used inside its module", "kept for ROADMAP item ")
DEADLINE = "until the re-anchor the ROADMAP names as its deadline"


def _held(item: str, why: str) -> str:
    return f"{REASONS[-1]}{item}: {why}, {DEADLINE}"


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
    "repro.data.synthetic.class_prototypes": "used inside its module",
    "repro.execution.backend.resolve_num_workers": "used inside its module",
    "repro.execution.shared.SharedNDArray": "used inside its module",
    "repro.experiments.population.PopulationPreset": "used inside its module",
    "repro.experiments.tables.format_curves": "used inside its module",
    "repro.experiments.tables.format_rows": "used inside its module",
    "repro.population.churn.MembershipWindow": "used inside its module",
    "repro.population.shards.BlobShardSpec": "used inside its module",
    "repro.population.trainer.exchange_tag": "used inside its module",
    "repro.simulation.faults.LinkPartition": "used inside its module",
    "repro.theory.bounds.lemma1_bound": "used inside its module",
    "repro.theory.bounds.lemma2_bound": "used inside its module",
    "repro.theory.bounds.lemma3_bound": "used inside its module",
    "repro.theory.verify.VerificationResult": "used inside its module",
}

CONFIG_CLASSES = (FedMSConfig, FaultConfig)

UNSET_KEYWORDS: Dict[str, str] = {}


_INSIDE = REASONS[0]


def _inside(owner: str, *names: str) -> Dict[str, str]:
    return {f"{owner}.{name}": _INSIDE for name in names}


ALLOWED_MEMBERS: Dict[str, str] = {
    **_inside("repro.core.codecs.Codec", "decode_stage", "encode_stage",
              "terminal", "uses_salt"),
    **_inside("repro.core.codecs.CodecPipeline", "specs"),
    **{f"repro.core.codecs.{codec}.{stage}": _INSIDE
       for codec in ("CyclicSparsifier", "Int8Quantizer", "SignQuantizer",
                     "TopKSparsifier")
       for stage in ("decode_stage", "encode_stage")},
    **_inside("repro.core.config.FedMSConfig", "aggregation_mode",
              "execution_backend", "trim_ratio", "upload_codecs"),
    **_inside("repro.core.engine.LateBuffer", "hold", "take_admissible"),
    **_inside("repro.core.engine.Leg", "adopt", "feeds", "gate", "late", "own",
              "per_receiver", "quorum", "receivers", "retried", "senders"),
    **_inside("repro.core.engine.RoundEngine", "deadline_gate", "filter_once",
              "send_with_retry"),
    **_inside("repro.core.engine.RoundState", "addresses", "alive", "backoff_s",
              "late", "received", "retries", "send_failures", "verdicts",
              "views"),
    **_inside("repro.core.engine.Topology", "edges", "nodes", "phases",
              "quorums", "reroute", "targets", "trained", "upload_tag"),
    **_inside("repro.core.health.HealthLedger", "open_servers"),
    **_inside("repro.core.history.RoundRecord", "materialized_clients",
              "models_received", "upload_bytes"),
    **_inside("repro.nn.module.Module", "modules", "named_buffers",
              "named_parameters"),
    **_inside("repro.population.churn.ChurnPlan", "active_clients",
              "windows"),
    **_inside("repro.population.shards.BlobShardSpec", "center_scale",
              "centers_seed", "num_samples", "primary_class",
              "primary_fraction", "shard_seed"),
    **_inside("repro.population.tiers.TierTopology", "min_children"),
    **_inside("repro.simulation.clock.VirtualClock", "arrival_s"),
    **_inside("repro.simulation.faults.FaultPlan", "crashed_servers",
              "dropouts", "offline_clients", "severed_links"),
    **{f"repro.simulation.faults.{event}.{bound}": _INSIDE
       for event in ("ClientDropout", "LinkPartition", "ServerCrash")
       for bound in ("end_round", "start_round")},
    **_inside("repro.simulation.network.Message", "size_bytes"),
    **_inside("repro.simulation.network.TrafficStats", "record_cleared",
              "record_drop"),
    **_inside("repro.simulation.scheduler.RoundScheduler", "phase_names"),
    **_inside("repro.theory.bounds.ProblemConstants", "initial_gap_sq",
              "mean_sigma_sq", "sigma_sq"),
    **_inside("repro.theory.verify.VerificationResult", "std_error"),
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
    files = sorted(PACKAGE.rglob("*.py"))
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


def _keywords_scanned(module: str) -> bool:
    """False for the modules whose keywords the keyword scan does not read:
    the experiment drivers and the CLI, whose keywords tests use to shorten
    a figure run, and the package root, whose keywords are the README
    quickstart's."""
    return not (module in ("repro.__init__", "repro.cli")
                or module.startswith("repro.experiments."))


@dataclasses.dataclass(frozen=True)
class Signature:
    """A definition the keyword scan reads: the names a call reaches it
    by, its positional parameters after ``self``, and the default of each
    defaulted one (as :func:`_value` reads it)."""

    qualified: str
    callees: Tuple[str, ...]
    positional: Tuple[str, ...]
    defaults: Dict[str, object]


@dataclasses.dataclass(frozen=True)
class Site:
    """One call: what it passes by position and by keyword (``None`` for
    a key whose value is not in sight), and the function it sits in."""

    positional: Tuple[Optional[ast.AST], ...]
    keywords: Dict[str, Optional[ast.AST]]
    scope: Optional[ast.AST]


_MISSING = object()


def _value(node: ast.AST) -> object:
    """What a default or an argument reads as: its literal value if it
    has one, its expression otherwise."""
    try:
        return ("value", ast.literal_eval(node))
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        return ("expression", ast.dump(node))


def _equal(a: object, b: object) -> bool:
    return (a == b and isinstance(a[1], bool) == isinstance(b[1], bool))


def _roadmap_exempt() -> Set[str]:
    return {name for name, reason in ALLOWED.items()
            if reason.startswith(REASONS[-1])}


def _own_init(node: ast.ClassDef) -> bool:
    return any(isinstance(item, ast.FunctionDef) and item.name == "__init__"
               for item in node.body)


def _base_name(node: ast.ClassDef) -> Optional[str]:
    if not node.bases:
        return None
    base = node.bases[0]
    return getattr(base, "id", getattr(base, "attr", None))


def _init_callees() -> Dict[str, Tuple[str, ...]]:
    """Class name -> the class names whose call runs its ``__init__``:
    itself and every subclass that defines none of its own."""
    classes = {node.name: node for path in sorted(PACKAGE.rglob("*.py"))
               for node in _tree(path).body if isinstance(node, ast.ClassDef)}
    callees = {name: [name] for name in classes}
    for name, node in classes.items():
        parent = node
        while not _own_init(parent):
            base = _base_name(parent)
            if base not in classes:
                break
            parent = classes[base]
            if _own_init(parent):
                callees[parent.name].append(name)
    return {name: tuple(names) for name, names in callees.items()}


def _signature(qualified: str, callees: Tuple[str, ...],
               node: ast.FunctionDef, bound: bool) -> Signature:
    arguments = node.args
    positional = [arg.arg for arg in arguments.posonlyargs + arguments.args]
    if bound:
        positional = positional[1:]
    defaults = {arg.arg: _value(default) for arg, default in zip(
        (arguments.posonlyargs + arguments.args)[-len(arguments.defaults):]
        if arguments.defaults else [], arguments.defaults)}
    defaults.update({arg.arg: _value(default) for arg, default
                     in zip(arguments.kwonlyargs, arguments.kw_defaults)
                     if default is not None})
    return Signature(qualified, callees, tuple(positional), defaults)


def _config_signature(cls: type) -> Signature:
    fields = [f for f in dataclasses.fields(cls) if f.init]
    return Signature(
        f"{cls.__module__}.{cls.__name__}", (cls.__name__,),
        tuple(f.name for f in fields),
        {f.name: ("value", f.default)
         if f.default is not dataclasses.MISSING else ("field", f.name)
         for f in fields})


@functools.lru_cache(maxsize=None)
def signatures() -> Tuple[Tuple[Signature, Optional[ast.AST]], ...]:
    """Every definition the keyword scan reads, with its ``def`` node:
    the public functions, public methods and public constructors of
    ``src/repro`` (bar :func:`_keywords_scanned`'s modules and the
    definitions ``ALLOWED`` keeps for a ROADMAP item), and the two
    configs' init fields."""
    exempt = _roadmap_exempt()
    config_names = {cls.__name__ for cls in CONFIG_CLASSES}
    inits = _init_callees()
    found = [(_config_signature(cls), None) for cls in CONFIG_CLASSES]
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        if not _keywords_scanned(module):
            continue
        for node in _tree(path).body:
            qualified = f"{module}.{getattr(node, 'name', '')}"
            if (getattr(node, "name", "_").startswith("_")
                    or qualified in exempt or node.name in config_names):
                continue
            if isinstance(node, ast.FunctionDef):
                found.append((_signature(qualified, (node.name,), node,
                                         False), node))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    if item.name == "__init__":
                        found.append((_signature(
                            qualified, inits[node.name], item, True), item))
                    elif not item.name.startswith("_"):
                        found.append((_signature(
                            f"{qualified}.{item.name}", (item.name,), item,
                            not static), item))
    return tuple(found)


def _scoped_calls(node: ast.AST, cls: Optional[ast.ClassDef] = None,
                  scope: Optional[ast.AST] = None
                  ) -> Iterable[Tuple[ast.Call, Optional[ast.ClassDef],
                                      Optional[ast.AST]]]:
    """Every call under ``node`` with its enclosing class and function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _scoped_calls(child, child, scope)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scoped_calls(child, cls, child)
        else:
            if isinstance(child, ast.Call):
                yield child, cls, scope
            yield from _scoped_calls(child, cls, scope)


def _dicts_of_dicts(tree: ast.Module) -> Dict[str, Dict[str, ast.Dict]]:
    """Module-level ``NAME = {"key": {...}, ...}`` tables."""
    tables = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and node.value.values
                and all(isinstance(v, ast.Dict) for v in node.value.values)):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    tables[target.id] = {
                        key.value: value for key, value
                        in zip(node.value.keys, node.value.values)
                        if isinstance(key, ast.Constant)}
    return tables


def _attack_class(key: str) -> str:
    return type(make_attack(key)).__name__


def _parameters(scope: ast.AST) -> Dict[str, Optional[ast.AST]]:
    """A function's named parameters, each with its default node."""
    arguments = scope.args
    positional = arguments.posonlyargs + arguments.args
    found: Dict[str, Optional[ast.AST]] = dict.fromkeys(
        arg.arg for arg in positional + arguments.kwonlyargs)
    found.update((arg.arg, default) for arg, default in zip(
        positional[len(positional) - len(arguments.defaults):],
        arguments.defaults))
    found.update((arg.arg, default) for arg, default
                 in zip(arguments.kwonlyargs, arguments.kw_defaults))
    return found


def _site_scope_name(scope: ast.AST, cls: Optional[ast.ClassDef]) -> str:
    return cls.name if scope.name == "__init__" and cls else scope.name


@functools.lru_cache(maxsize=None)
def call_sites() -> Dict[str, Tuple[Site, ...]]:
    """Callee name -> every call a program file makes to it. A
    ``super().__init__`` call is a call to the base class; a
    ``make_attack("key", ...)`` call is also a call to the class
    registered under ``key``; a call through a parameter is also a call
    to its default and to each name callers pass for it; a codec spec
    literal with arguments, e.g.
    ``"topk(0.05)"``, is a call to its codec class with those arguments."""
    files = _program_files()
    tables: Dict[str, Dict[str, ast.Dict]] = {}
    for path in files:
        tables.update(_dicts_of_dicts(_tree(path)))
    raw: List[Tuple[str, ast.Call, int, Optional[ast.ClassDef],
                    Optional[ast.AST], ast.AST]] = []
    for path in files:
        tree = _tree(path)
        for call, cls, scope in _scoped_calls(tree):
            func = call.func
            if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                    and isinstance(func.value, ast.Call)
                    and _callee(func.value) == "super" and cls is not None):
                raw.append((_base_name(cls) or "", call, 0, cls, scope, tree))
                continue
            raw.append((_callee(call), call, 0, cls, scope, tree))
            if _callee(call) == "make_attack" and call.args:
                key = call.args[0]
                if isinstance(key, ast.Constant):
                    raw.append((_attack_class(key.value), call, 1, cls,
                                scope, tree))
    for callee, call, skip, cls, scope, tree in list(raw):
        if (skip or scope is None or not isinstance(call.func, ast.Name)
                or callee not in _parameters(scope)):
            continue
        default = _parameters(scope)[callee]
        names = {default.id} if isinstance(default, ast.Name) else set()
        name = _site_scope_name(scope, cls)
        for other, site, _, _, _, _ in raw:
            if other == name:
                names.update(keyword.value.id for keyword in site.keywords
                             if keyword.arg == callee
                             and isinstance(keyword.value, ast.Name))
        raw.extend((found, call, 0, cls, scope, tree)
                   for found in sorted(names))

    def kwargs_keys(scope, cls, seen) -> Set[str]:
        """Keys the callers of ``scope`` pass into its ``**`` parameter."""
        name = _site_scope_name(scope, cls)
        if name in seen:
            return set()
        named = {arg.arg for arg in scope.args.posonlyargs + scope.args.args
                 + scope.args.kwonlyargs}
        keys = set()
        for callee, call, skip, c, s, tree in raw:
            if callee == name:
                keys.update(key for key in explicit(call, c, s, tree,
                                                    seen | {name})
                            if key not in named)
        return keys

    def parameter_keys(scope, cls, parameter,
                       seen) -> Dict[str, Optional[ast.AST]]:
        """What the callers of ``scope`` put in the dicts they pass as its
        ``parameter``."""
        name = _site_scope_name(scope, cls)
        if name in seen:
            return {}
        given: Dict[str, Optional[ast.AST]] = {}
        for callee, call, skip, c, s, tree in raw:
            if callee == name:
                for keyword in call.keywords:
                    if keyword.arg == parameter:
                        given.update(explicit(
                            ast.Call(ast.Name("dict"), [],
                                     [ast.keyword(None, keyword.value)]),
                            c, s, tree, seen | {name}))
        return given

    def explicit(call, cls, scope, tree, seen) -> Dict[str, Optional[ast.AST]]:
        given: Dict[str, Optional[ast.AST]] = {}
        for keyword in call.keywords:
            if keyword.arg is not None:
                given[keyword.arg] = keyword.value
                continue
            value = keyword.value
            if isinstance(value, ast.BoolOp):
                # ``**(inputs or {})``: what ``inputs`` holds.
                value = value.values[0]
            if isinstance(value, ast.Dict):
                given.update((key.value, item) for key, item
                             in zip(value.keys, value.values)
                             if isinstance(key, ast.Constant))
            elif isinstance(value, ast.Call) and _callee(value) == "dict":
                given.update((kw.arg, kw.value) for kw in value.keywords
                             if kw.arg)
            elif isinstance(value, ast.Name):
                if (scope is not None and scope.args.kwarg is not None
                        and scope.args.kwarg.arg == value.id):
                    given.update(dict.fromkeys(
                        kwargs_keys(scope, cls, seen)))
                elif scope is not None and value.id in _parameters(scope):
                    given.update(parameter_keys(scope, cls, value.id, seen))
                given.update(dict.fromkeys(
                    _dict_keys(scope or tree, value.id)))
        return given

    sites: Dict[str, List[Site]] = {}
    for callee, call, skip, cls, scope, tree in raw:
        positional = []
        for argument in call.args[skip:]:
            if isinstance(argument, ast.Starred):
                break
            positional.append(argument)
        sites.setdefault(callee, []).append(Site(
            tuple(positional), explicit(call, cls, scope, tree, frozenset()),
            scope))
        if _callee(call) == "make_attack":
            for keyword in call.keywords:
                value = keyword.value
                if keyword.arg is None and isinstance(
                        value, (ast.Call, ast.Subscript)):
                    # ``**TABLE.get(name, {})`` or ``**TABLE[name]``.
                    table = getattr(getattr(value, "func", value), "value",
                                    None)
                    for key, inner in tables.get(
                            getattr(table, "id", None), {}).items():
                        sites.setdefault(_attack_class(key), []).append(Site(
                            (), {k.value: v for k, v in zip(
                                inner.keys, inner.values)}, scope))
    codecs = REGISTRIES["codecs"]
    for path in files:
        for name, value in _bindings(_tree(path)):
            if "codec" in name.lower() or name.startswith(codecs.builder):
                for spec in _literals(value):
                    try:
                        arguments = parse_codec_spec(spec)[1]
                        cls_name = type(make_codec(spec)).__name__
                    except ConfigurationError:
                        continue
                    sites.setdefault(cls_name, []).append(Site(
                        (None,) * len(arguments), {}, None))
    return {callee: tuple(found) for callee, found in sites.items()}


def _passes(site: Site, signature: Signature, name: str) -> object:
    """What ``site`` passes for ``name``: a node, ``None`` for a key
    whose value is not in sight, ``_MISSING`` for nothing."""
    if name in site.keywords:
        return site.keywords[name]
    if name in signature.positional:
        index = signature.positional.index(name)
        if index < len(site.positional):
            return site.positional[index]
    return _MISSING


@functools.lru_cache(maxsize=None)
def unset_keywords() -> Tuple[str, ...]:
    """``definition.keyword`` of every defaulted keyword in scope that no
    program file sets to anything but its default. A value forwarded from
    the calling function's own parameter counts only while that parameter
    is set in turn, so the scan runs to a fixpoint."""
    found = signatures()
    owner = {id(node): signature.qualified
             for signature, node in found if node is not None}
    sites = call_sites()
    flagged: Set[str] = set()
    while True:
        unset = set(flagged)
        for signature, _ in found:
            for name, default in signature.defaults.items():
                key = f"{signature.qualified}.{name}"
                if not any(_sets(_passes(site, signature, name), default,
                                 site, owner, flagged)
                           for callee in signature.callees
                           for site in sites.get(callee, ())):
                    unset.add(key)
        if unset == flagged:
            return tuple(sorted(flagged))
        flagged = unset


def _sets(value: object, default: object, site: Site,
          owner: Dict[int, str], flagged: Set[str]) -> bool:
    if value is _MISSING:
        return False
    if value is None:
        return True
    if _equal(_value(value), default):
        return False
    scope = owner.get(id(site.scope))
    return not (isinstance(value, ast.Name) and scope is not None
                and f"{scope}.{value.id}" in flagged)


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


def _member_names(node: ast.ClassDef) -> Iterable[str]:
    """The public methods, properties and annotated fields of a class."""
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = item.name
        elif (isinstance(item, ast.AnnAssign)
              and isinstance(item.target, ast.Name)):
            name = item.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name


@functools.lru_cache(maxsize=None)
def members() -> Dict[str, Tuple[str, str]]:
    """``module.Class.member`` -> ``(module, member)`` for every public
    member of a public class in the modules the keyword scan reads."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        if not _keywords_scanned(module):
            continue
        for node in _tree(path).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith(
                    "_"):
                for name in _member_names(node):
                    found[f"{module}.{node.name}.{name}"] = (module, name)
    return found


def _member_loads(tree: ast.Module, module: str
                  ) -> Iterable[Tuple[str, Optional[str]]]:
    """``(name, enclosing member)`` for every attribute load and string
    literal in ``tree``; the member is ``None`` outside a class's method."""
    def walk(node: ast.AST, enclosing: Optional[str]):
        for child in ast.iter_child_nodes(node):
            inner = enclosing
            if (enclosing is None and isinstance(node, ast.ClassDef)
                    and isinstance(child, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))):
                inner = f"{module}.{node.name}.{child.name}"
            if isinstance(child, ast.Assign) and any(
                    getattr(target, "id", None) == "__all__"
                    for target in child.targets):
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx,
                                                               ast.Load):
                yield child.attr, inner
            elif (isinstance(child, ast.Constant)
                  and isinstance(child.value, str)):
                yield child.value, inner
            yield from walk(child, inner)

    yield from walk(tree, None)


@functools.lru_cache(maxsize=None)
def unread_members() -> Tuple[Tuple[str, ...], FrozenSet[str]]:
    """The members no other file reads, and the members no file reads at
    all. A read inside a member no file reads does not count, and a member
    held for a ROADMAP item counts as read, so the scan runs to a
    fixpoint."""
    found = members()
    held = {name for name, reason in ALLOWED_MEMBERS.items()
            if reason.startswith(REASONS[-1])}
    reads: Dict[str, List[Tuple[str, Optional[str]]]] = {}
    for path in _program_files():
        module = (_module_name(path) if PACKAGE in path.parents
                  else path.relative_to(ROOT).as_posix())
        for name, enclosing in _member_loads(_tree(path), module):
            reads.setdefault(name, []).append((module, enclosing))
    dead: Set[str] = set()
    while True:
        unread = {qualified for qualified, (_, name) in found.items()
                  if qualified not in held and all(
                      enclosing in dead
                      for _, enclosing in reads.get(name, ()))}
        if unread == dead:
            break
        dead = unread
    flagged = tuple(sorted(
        qualified for qualified, (module, name) in found.items()
        if all(reader == module or enclosing in dead
               for reader, enclosing in reads.get(name, ()))))
    return flagged, frozenset(dead)


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
    odd = {name: reason for table in (ALLOWED, ALLOWED_MEMBERS)
           for name, reason in table.items()
           if not reason.startswith(REASONS)}
    assert not odd, odd


def test_every_unset_keyword_is_allowed():
    unexplained = sorted(set(unset_keywords()) - set(UNSET_KEYWORDS))
    assert not unexplained, (
        "keywords only tests set: make each a constant, or add it to "
        f"UNSET_KEYWORDS with its reason: {unexplained}")


def test_every_allowed_keyword_is_still_unset():
    stale = sorted(set(UNSET_KEYWORDS) - set(unset_keywords()))
    assert not stale, f"set by a program or gone, remove from " \
        f"UNSET_KEYWORDS: {stale}"


def test_every_keyword_reason_keeps_a_roadmap_item():
    odd = {name: reason for name, reason in UNSET_KEYWORDS.items()
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


def test_every_unread_member_is_allowed():
    unexplained = sorted(set(unread_members()[0]) - set(ALLOWED_MEMBERS))
    assert not unexplained, (
        "methods, properties and fields no program reads: delete them, or "
        f"add each to ALLOWED_MEMBERS with its reason: {unexplained}")


def test_every_allowed_member_is_still_unread():
    stale = sorted(set(ALLOWED_MEMBERS) - set(unread_members()[0]))
    assert not stale, f"read or gone, remove from ALLOWED_MEMBERS: {stale}"


def test_member_used_inside_its_module_holds():
    dead = unread_members()[1]
    unused = sorted(name for name, reason in ALLOWED_MEMBERS.items()
                    if reason == _INSIDE and name in dead)
    assert not unused, f"not used inside their module either: {unused}"


def test_every_held_entry_has_a_deadline():
    late = {name: reason
            for table in (ALLOWED, UNSET_KEYWORDS, ALLOWED_MEMBERS)
            for name, reason in table.items()
            if reason.startswith(REASONS[-1])
            and not reason.endswith(DEADLINE)}
    assert not late, late


if __name__ == "__main__":
    for qualified in scan():
        print(qualified, "-", ALLOWED.get(qualified, "NOT ALLOWED"))
    for keyword in unset_keywords():
        print(keyword, "-", UNSET_KEYWORDS.get(keyword, "NOT ALLOWED"))
    print(f"{len(unset_keywords())} of "
          f"{sum(len(s.defaults) for s, _ in signatures())} defaulted "
          "keywords unset")
    for key in unnamed_keys():
        print(key, "- NAMED BY NO PROGRAM")
    for member in unread_members()[0]:
        print(member, "-", ALLOWED_MEMBERS.get(member, "NOT ALLOWED"))
    print(f"{len(unread_members()[0])} of {len(members())} members unread "
          "by another file")
