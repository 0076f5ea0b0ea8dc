"""Public-API smoke tests: every exported name resolves and is documented."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.api",
    "repro.faults",
    "repro.simcore",
    "repro.netsim",
    "repro.dpss",
    "repro.hpss",
    "repro.volren",
    "repro.ibravr",
    "repro.scenegraph",
    "repro.netlogger",
    "repro.protocol",
    "repro.backend",
    "repro.service",
    "repro.viewer",
    "repro.core",
    "repro.live",
    "repro.datagen",
    "repro.util",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    mod = importlib.import_module(package)
    assert hasattr(mod, "__all__"), f"{package} must declare __all__"
    for name in mod.__all__:
        assert hasattr(mod, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_package_docstring(package):
    mod = importlib.import_module(package)
    assert mod.__doc__ and len(mod.__doc__.strip()) > 20


@pytest.mark.parametrize("package", PACKAGES)
def test_public_classes_and_functions_documented(package):
    """Every public item a package exports carries a docstring."""
    mod = importlib.import_module(package)
    undocumented = []
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, (
        f"{package} exports undocumented items: {undocumented}"
    )


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_api_facade_pinned():
    """repro.api is the stable facade: its exports are pinned exactly.

    Adding a name here is a deliberate API promise; removing one is a
    breaking change and needs a deprecation cycle.
    """
    from repro import api

    assert sorted(api.__all__) == [
        "AdmissionPolicy",
        "AdmissionVerdict",
        "BackendConfig",
        "CacheConfig",
        "Campaign",
        "CampaignResult",
        "CheckFinding",
        "CheckResult",
        "DpssClient",
        "ExperimentConfig",
        "FaultPlan",
        "FlowClass",
        "FlowClassPool",
        "HealthTracker",
        "NetworkConfig",
        "RequestPolicy",
        "ServiceCampaign",
        "ServiceMetrics",
        "ServiceResult",
        "ShardCampaign",
        "ShardMetrics",
        "ShardResult",
        "SimBackEnd",
        "SimViewer",
        "SiteLink",
        "SiteMetrics",
        "SiteSpec",
        "StripeConfig",
        "StripeMap",
        "TileConfig",
        "TileGrid",
        "TopologyConfig",
        "ViewerProfile",
        "WorkloadSpec",
        "XorCodec",
        "build_session",
        "campaign_names",
        "load_drill",
        "named_campaign",
        "named_topology",
        "result_payload",
        "run_campaign",
        "run_check",
        "run_experiment",
        "run_service_campaign",
        "run_shard_campaign",
        "topology_names",
    ]


def test_run_check_facade():
    """run_check via the facade returns a populated CheckResult."""
    from repro import api

    result = api.run_check(["src/repro/analysis/staticbase.py"])
    assert isinstance(result, api.CheckResult)
    assert result.files_checked == 1
    assert result.clean
    assert result.findings == []
    assert isinstance(result.summary(), str)


def test_src_never_imports_tests():
    """Reference implementations live under ``tests/oracles`` and import
    production, never the other way round; scipy, a test-only
    dependency, is one of them."""
    import repro

    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path}:{node.lineno}"
                for module in modules
                if module.split(".")[0] in ("tests", "scipy")
            ]
    assert not offenders, f"src imports tests or scipy: {offenders}"


def test_import_loads_no_scipy():
    """A fresh ``import repro.api`` leaves no ``scipy*`` module loaded."""
    import repro

    code = (
        "import sys, repro.api; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env,
    )
    assert out.stdout.strip() == "[]"


#: Public top-level names under ``src/repro`` that no production code
#: uses, each kept for the one reason given.
TEST_ONLY_ALLOWLIST = {
    "dpss.stripe.StripeStore": "byte-true oracle for striped reads",
    "volren.raycast.render_view": "ground-truth ray caster",
    "volren.raycast.view_direction": "ground-truth ray caster's view",
    "volren.compositing.composite_stack":
        "Porter-Duff reference for the slab-compositing identity",
    "ibravr.axis.off_axis_angle":
        "reference in best_view_axis's property test",
    "simcore.fairshare.max_min_allocation":
        "the validating entry to fill_rates",
    "netlogger.skew.correct_skew": "clock-skew fault detector",
    "netlogger.skew.causality_violations": "causality fault detector",
    "analysis.lint.lint_source": "the text-in-hand input to run_rules",
    "datagen.cosmology.cosmology_field": "the paper's SC99 dataset",
    "datagen.validate.check_combustion_like": "dataset validator",
    "datagen.validate.check_cosmology_like": "dataset validator",
}


def _production_files():
    """``(src/repro, every production .py file)``: ``src/repro``,
    ``bench``, ``examples`` and ``benchmarks`` -- never ``tests``."""
    root = Path(__file__).resolve().parents[1]
    src = root / "src" / "repro"
    files = sorted(src.rglob("*.py"))
    for consumer in ("bench", "examples", "benchmarks"):
        files += sorted((root / consumer).rglob("*.py"))
    return src, files


def _public_names_and_uses():
    """``({"pkg.module.Name": "Name"}, {every name used})`` by AST walk.

    A use is an ``ast.Name`` or ``ast.Attribute``, so imports and
    ``__all__`` strings do not count, and neither does a use inside the
    name's own definition.
    """
    src, files = _production_files()
    defined, used = {}, set()
    for path in files:
        in_src = src in path.parents
        parts = path.relative_to(src).with_suffix("").parts if in_src else ()
        module = ".".join(p for p in parts if p != "__init__")
        for stmt in ast.parse(path.read_text(), str(path)).body:
            names = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute))
            }
            if in_src and isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.discard(stmt.name)
                if not stmt.name.startswith("_"):
                    defined[f"{module}.{stmt.name}"] = stmt.name
            used |= names
    return defined, used


def test_no_public_name_only_tests_use():
    """Every public function or class in ``src/`` has a production
    consumer, or an allowlist entry saying why tests alone may use it."""
    defined, used = _public_names_and_uses()
    test_only = {key for key, name in defined.items() if name not in used}
    unlisted = sorted(test_only - TEST_ONLY_ALLOWLIST.keys())
    stale = sorted(TEST_ONLY_ALLOWLIST.keys() - test_only)
    assert not unlisted, (
        "public names only tests use; delete each with its tests, or "
        f"allowlist it with a reason: {unlisted}"
    )
    assert not stale, (
        "allowlist entries that no longer exist or now have a "
        f"production consumer: {stale}"
    )


#: The run-config dataclasses: every field is a run option.
RUN_CONFIGS = (
    "repro.config.StripeConfig",
    "repro.config.NetworkConfig",
    "repro.config.TileConfig",
    "repro.config.SiteSpec",
    "repro.config.SiteLink",
    "repro.config.TopologyConfig",
    "repro.config.BackendConfig",
    "repro.config.ExperimentConfig",
    "repro.core.campaign.CampaignConfig",
    "repro.service.manager.ServiceCampaign",
    "repro.service.admission.AdmissionPolicy",
    "repro.service.cache.CacheConfig",
    "repro.service.shard.ShardCampaign",
    "repro.service.workload.WorkloadSpec",
    "repro.service.workload.ViewerProfile",
    "repro.faults.policy.RequestPolicy",
)

#: Run-config fields no production code sets, each kept for the one
#: reason given.
UNSET_FIELD_ALLOWLIST = {
    "CampaignConfig.overlap_depth":
        "ROADMAP item 6 draws it; tests sweep the buffer depth",
}


def _run_config_fields():
    """``{class name: its field names in declaration order}``."""
    out = {}
    for path in RUN_CONFIGS:
        module, _, name = path.rpartition(".")
        cls = getattr(importlib.import_module(module), name)
        out[name] = [f.name for f in dataclasses.fields(cls)]
    return out


def _dict_keys(scope):
    """``{name: string keys}`` of the dicts one scope builds: the keys
    of dict literals assigned to ``name`` and of ``name["key"] = ...``."""
    keys = {}
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                found = [
                    key
                    for sub in ast.walk(value)
                    if isinstance(sub, ast.Dict)
                    for key in sub.keys
                ]
                name = target.id
            elif isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                found, name = [target.slice], target.value.id
            else:
                continue
            keys.setdefault(name, set()).update(
                key.value
                for key in found
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
    return keys


class _FieldSetters(ast.NodeVisitor):
    """Collects ``"Class.field"`` for every run-config field a call sets.

    A call to the class (or to ``cls`` inside it) sets the fields it
    passes by position or keyword; ``with_changes`` / ``replace`` set
    theirs on every run-config class declaring them, since the
    receiver's type is not known statically. ``**name`` counts the
    string keys of the dict ``name`` built in the same function.
    """

    def __init__(self, configs):
        self.configs = configs
        self.owner = None
        self.keys = {}
        self.found = set()

    def visit_ClassDef(self, node):
        outer, self.owner = self.owner, node.name
        self.generic_visit(node)
        self.owner = outer

    def visit_FunctionDef(self, node):
        outer, self.keys = self.keys, _dict_keys(node)
        self.generic_visit(node)
        self.keys = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name == "cls":
            name = self.owner
        positional = []
        if name in self.configs:
            targets, positional = [name], node.args
        elif name in ("with_changes", "replace"):
            targets = list(self.configs)
        else:
            targets = []
        passed = set()
        for keyword in node.keywords:
            if keyword.arg is not None:
                passed.add(keyword.arg)
            elif isinstance(keyword.value, ast.Name):
                passed |= self.keys.get(keyword.value.id, set())
        for target in targets:
            fields = self.configs[target]
            named = [f for f in fields if f in passed]
            for field, arg in zip(fields, positional):
                if isinstance(arg, ast.Starred):
                    break
                named.append(field)
            self.found.update(f"{target}.{field}" for field in named)
        self.generic_visit(node)


def test_every_config_field_has_a_production_setter():
    """Every run-config field is set by production code, or has an
    allowlist entry saying why its default is all that runs."""
    configs = _run_config_fields()
    visitor = _FieldSetters(configs)
    for path in _production_files()[1]:
        visitor.visit(ast.parse(path.read_text(), str(path)))
    every = {f"{cls}.{f}" for cls, fields in configs.items() for f in fields}
    unset = every - visitor.found
    unlisted = sorted(unset - UNSET_FIELD_ALLOWLIST.keys())
    stale = sorted(UNSET_FIELD_ALLOWLIST.keys() - unset)
    assert not unlisted, (
        "run-config fields no production code sets; delete each with "
        f"the code only its other values reach, or allowlist it with a "
        f"reason: {unlisted}"
    )
    assert not stale, (
        "allowlist entries that no longer exist or now have a "
        f"production setter: {stale}"
    )
