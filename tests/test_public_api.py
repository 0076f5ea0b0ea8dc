"""Public-API smoke tests: every exported name resolves and is documented."""

import ast
import importlib
import inspect
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
    "repro.mpc",
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
    production, never the other way round."""
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
                if module.split(".")[0] == "tests"
            ]
    assert not offenders, f"src imports tests: {offenders}"


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
    "analysis.threadsan.enable_thread_sanitizer": "lock-order detector",
    "analysis.threadsan.disable_thread_sanitizer": "lock-order detector",
    "datagen.cosmology.cosmology_field": "the paper's SC99 dataset",
    "datagen.validate.check_combustion_like": "dataset validator",
    "datagen.validate.check_cosmology_like": "dataset validator",
}


def _public_names_and_uses():
    """``({"pkg.module.Name": "Name"}, {every name used})`` by AST walk.

    A use is an ``ast.Name`` or ``ast.Attribute``, so imports and
    ``__all__`` strings do not count, and neither does a use inside the
    name's own definition. Consumers are ``src/repro``, ``bench``,
    ``examples`` and ``benchmarks`` -- never ``tests``.
    """
    root = Path(__file__).resolve().parents[1]
    src = root / "src" / "repro"
    files = sorted(src.rglob("*.py"))
    for consumer in ("bench", "examples", "benchmarks"):
        files += sorted((root / consumer).rglob("*.py"))
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
