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

Print what the scans flag with ``python tests/test_reachability.py``.
"""

import ast
import dataclasses
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

from repro.core.config import FaultConfig, FedMSConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
READER_DIRS = ("benchmarks", "examples", "bench")

REASONS = ("registry name", "used inside its module", "kept for ROADMAP item ")

ALLOWED: Dict[str, str] = {
    "repro.aggregation.rules.krum_index": "used inside its module",
    "repro.aggregation.rules.mad_outlier_scores": "used inside its module",
    "repro.attacks.client_attacks.ClientNoiseAttack": "registry name",
    "repro.attacks.client_attacks.ClientSameValueAttack": "registry name",
    "repro.attacks.client_attacks.ClientScalingAttack": "registry name",
    "repro.attacks.client_attacks.available_client_attacks":
        "used inside its module",
    "repro.attacks.client_attacks.make_client_attack":
        "registry name: the by-name constructor of the client attacks",
    "repro.cli.build_parser": "used inside its module",
    "repro.common.errors.ReproError": "used inside its module",
    "repro.core.codecs.Codec": "used inside its module",
    "repro.core.codecs.CyclicSparsifier": "registry name",
    "repro.core.codecs.IdentityCodec": "registry name",
    "repro.core.codecs.Int8Quantizer": "registry name",
    "repro.core.codecs.SignQuantizer": "registry name",
    "repro.core.codecs.StageEncoding": "used inside its module",
    "repro.core.codecs.TopKSparsifier": "registry name",
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
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in readers}
    reached: Dict[Path, Set[str]] = {
        path: set(_references(tree)) for path, tree in trees.items()}
    flagged = []
    for path in modules:
        for name in _public_definitions(trees[path]):
            if not any(name in names for reader, names in reached.items()
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
        tree = ast.parse(path.read_text(encoding="utf-8"))
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


def test_used_inside_its_module_holds():
    for qualified, reason in ALLOWED.items():
        if reason != "used inside its module":
            continue
        path, name = _split(qualified)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uses = [ref for ref in _references(tree) if ref == name]
        assert uses, f"{qualified} is not used inside its module"


if __name__ == "__main__":
    for qualified in scan():
        print(qualified, "-", ALLOWED.get(qualified, "NOT ALLOWED"))
    for qualified in unset_fields():
        print(qualified, "-", UNSET_FIELDS.get(qualified, "NOT ALLOWED"))
