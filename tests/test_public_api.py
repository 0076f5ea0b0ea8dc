"""Public-API smoke tests: every exported name resolves and is documented."""

import importlib
import inspect

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
    import ast
    from pathlib import Path

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
