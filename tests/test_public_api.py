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
        module = _module_of(src, path) if in_src else ""
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


def _module_of(src, path):
    """``"pkg.module"`` of a file under ``src/repro``."""
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(p for p in parts if p != "__init__")


def _is_visitor(cls, bases_of):
    """True when ``cls`` subclasses ``ast.NodeVisitor`` (by name)."""
    seen, todo = set(), [cls]
    while todo:
        name = todo.pop()
        if name == "NodeVisitor":
            return True
        if name not in seen:
            seen.add(name)
            todo.extend(bases_of.get(name, ()))
    return False


def _base_names(node):
    return [
        base.id if isinstance(base, ast.Name) else base.attr
        for base in node.bases
        if isinstance(base, (ast.Name, ast.Attribute))
    ]


def _public_methods(sources):
    """``{"module.Class.method": "method"}`` over ``{module: tree}``.

    Every public method, property, classmethod and staticmethod of a
    public top-level class, except the ``visit_*`` methods of an
    ``ast.NodeVisitor`` subclass, which are dispatched by name.
    """
    classes = [
        (module, stmt)
        for module, tree in sources.items()
        for stmt in tree.body
        if isinstance(stmt, ast.ClassDef)
    ]
    bases_of = {stmt.name: _base_names(stmt) for _, stmt in classes}
    methods = {}
    for module, cls in classes:
        if cls.name.startswith("_"):
            continue
        visitor = _is_visitor(cls.name, bases_of)
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name.startswith("_"):
                continue
            if visitor and stmt.name.startswith("visit_"):
                continue
            methods[f"{module}.{cls.name}.{stmt.name}"] = stmt.name
    return methods


class _Uses(ast.NodeVisitor):
    """Every name a tree uses: ``ast.Name`` ids, ``ast.Attribute``
    attrs and identifier-shaped string constants (``getattr`` by name),
    except a use of a function's own name inside its own ``def``."""

    def __init__(self):
        self.inside = []
        self.used = set()

    def _use(self, name):
        if name not in self.inside:
            self.used.add(name)

    def visit_FunctionDef(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self._use(node.value)


def _unused_methods(sources, consumers):
    """Keys of ``_public_methods(sources)`` no tree in ``consumers``
    names outside the method's own ``def``."""
    uses = _Uses()
    for tree in consumers:
        uses.visit(tree)
    return {
        key
        for key, name in _public_methods(sources).items()
        if name not in uses.used
    }


def _production_sources():
    """``({module: tree} for src/repro, [every production tree])``."""
    src, files = _production_files()
    sources, trees = {}, []
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        trees.append(tree)
        if src in path.parents:
            sources[_module_of(src, path)] = tree
    return sources, trees


#: Public methods and properties no production code names, each kept
#: for the one reason given: a reference tests compare against, a test
#: seam, the paper's quad-mesh depth extension, a named ROADMAP item's
#: use, or a CI step's use.
METHOD_ALLOWLIST = {
    "config.ExperimentConfig.from_json":
        "ROADMAP item 8: its codec must pass the from_json tests unmodified",
    "netlogger.daemon.NetLogDaemon.read_ulm":
        "CI: the shard ULM round-trip step reads logs back through it",
    "protocol.messages.TilePayload.is_reference":
        "ROADMAP item 5: the wire-fuzz harness builds on the wire types",
}


def test_no_public_method_only_tests_use():
    """Every public method of a public class in ``src/`` is named by
    production code, or has an allowlist entry saying why tests alone
    may use it."""
    sources, trees = _production_sources()
    unused = _unused_methods(sources, trees)
    unlisted = sorted(unused - METHOD_ALLOWLIST.keys())
    stale = sorted(METHOD_ALLOWLIST.keys() - unused)
    assert not unlisted, (
        "public methods only tests use; delete each with its tests, or "
        f"allowlist it with a reason: {unlisted}"
    )
    assert not stale, (
        "allowlist entries that no longer exist or now have a "
        f"production use: {stale}"
    )


def _keyword_defaults(sources):
    """``{callee name: [(key, positional params, defaulted params)]}``.

    One entry per public function, public method and public class's
    ``__init__`` (callee name: the class) in ``{module: tree}``.
    ``positional`` lists the parameters a call fills by position, past
    ``self`` / ``cls``; ``defaulted`` every parameter with a default.
    """
    out = {}

    def add(key, callee, func, bound):
        args = func.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        if bound:
            positional = positional[1:]
        n_pos = len(args.posonlyargs + args.args)
        defaulted = [
            a.arg for a in (args.posonlyargs + args.args)[
                n_pos - len(args.defaults):
            ]
        ] + [
            a.arg
            for a, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        if defaulted:
            out.setdefault(callee, []).append((key, positional, defaulted))

    for module, tree in sources.items():
        for stmt in tree.body:
            if getattr(stmt, "name", "_").startswith("_"):
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(f"{module}.{stmt.name}", stmt.name, stmt, False)
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if not isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    key = f"{module}.{stmt.name}.{sub.name}"
                    bound = not any(
                        getattr(d, "id", None) == "staticmethod"
                        for d in sub.decorator_list
                    )
                    if sub.name == "__init__":
                        add(key, stmt.name, sub, True)
                    elif not sub.name.startswith("_"):
                        add(key, sub.name, sub, bound)
    return out


class _PassedKeywords(_FieldSetters):
    """Collects ``"key.param"`` for every defaulted parameter a call
    passes, matching calls to definitions by callee name.

    A parameter is passed by keyword, by position, by a ``*args`` at or
    before its position, or by a ``**name`` splat: the string keys of
    the dict ``name`` built in the same function when there are any,
    else every keyword. ``cls(...)`` calls the enclosing class,
    ``super().__init__(...)`` its bases, and a name imported ``as``
    another calls the original.
    """

    def __init__(self, defaults):
        super().__init__({})
        self.defaults = defaults
        self.bases = []
        self.aliases = {}

    def visit_Module(self, node):
        self.aliases = {
            alias.asname: alias.name
            for sub in ast.walk(node)
            if isinstance(sub, ast.ImportFrom)
            for alias in sub.names
            if alias.asname
        }
        self.generic_visit(node)

    def visit_ClassDef(self, node):
        outer, self.bases = self.bases, _base_names(node)
        super().visit_ClassDef(node)
        self.bases = outer

    def _callees(self, func):
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name == "cls":
            return [self.owner]
        if (
            name == "__init__"
            and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", None) == "super"
        ):
            return self.bases
        return [self.aliases.get(name, name)]

    def visit_Call(self, node):
        entries = [
            entry
            for callee in self._callees(node.func)
            for entry in self.defaults.get(callee, ())
        ]
        for key, positional, defaulted in entries:
            passed = set()
            for keyword in node.keywords:
                if keyword.arg is not None:
                    passed.add(keyword.arg)
                elif (
                    isinstance(keyword.value, ast.Name)
                    and self.keys.get(keyword.value.id)
                ):
                    passed |= self.keys[keyword.value.id]
                else:
                    passed |= set(defaulted)
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    passed |= set(positional[i:])
                    break
                if i < len(positional):
                    passed.add(positional[i])
            self.found.update(
                f"{key}.{p}" for p in defaulted if p in passed
            )
        self.generic_visit(node)


def _unpassed_keywords(sources, consumers):
    """``"key.param"`` for every defaulted parameter in ``sources`` no
    call in ``consumers`` passes."""
    defaults = _keyword_defaults(sources)
    visitor = _PassedKeywords(defaults)
    for tree in consumers:
        visitor.visit(tree)
    every = {
        f"{key}.{p}"
        for entries in defaults.values()
        for key, _, defaulted in entries
        for p in defaulted
    }
    return every - visitor.found


#: Defaulted parameters no production call passes, each kept for the
#: one reason given (the same five reasons as ``METHOD_ALLOWLIST``).
KEYWORD_ALLOWLIST = {
    "core.campaign.CampaignConfig.esnet_anl_smp.n_timesteps":
        "ROADMAP item 12: the 265-step ESnet sweep",
    "dpss.stripe.StripeStore.read.erased":
        "reference: the byte-true striped read the stripe tests compare "
        "reconstructs against",
    "ibravr.compositor.IbravrModel.__init__.use_depth_meshes":
        "the paper's quad-mesh depth extension (PAPER.md section 1)",
    "volren.renderer.VolumeRenderer.__init__.with_depth":
        "the paper's quad-mesh depth extension (PAPER.md section 1)",
    "protocol.messages.StripePayload.decode.stripe_map":
        "ROADMAP item 5: the wire-fuzz harness builds on the wire types",
    "protocol.messages.TilePayload.decode.grid":
        "ROADMAP item 5: the wire-fuzz harness builds on the wire types",
    "scenegraph.raster.render.background":
        "seam: the raster parity tests preset the framebuffer the "
        "kernels blend over",
    "simcore.env.Environment.__init__.initial_time":
        "seam: tests start the clock at a chosen time",
    "volren.compositing.composite_stack.front_to_back":
        "reference: the Porter-Duff compositing identity tests compare "
        "against",
    "volren.raycast.render_view.image_size":
        "reference: the ground-truth ray caster tests compare against",
    "volren.raycast.render_view.samples_per_voxel":
        "reference: the ground-truth ray caster tests compare against",
}


def test_every_keyword_parameter_has_a_production_caller():
    """Every defaulted parameter of a public function, public method or
    public class's ``__init__`` is passed by production code, or has an
    allowlist entry saying why its default is all that runs."""
    sources, trees = _production_sources()
    unpassed = _unpassed_keywords(sources, trees)
    unlisted = sorted(unpassed - KEYWORD_ALLOWLIST.keys())
    stale = sorted(KEYWORD_ALLOWLIST.keys() - unpassed)
    assert not unlisted, (
        "defaulted parameters no production call passes; make each a "
        "constant and delete the code only its other values reach, or "
        f"allowlist it with a reason: {unlisted}"
    )
    assert not stale, (
        "allowlist entries that no longer exist or now have a "
        f"production caller: {stale}"
    )


def _planted(source):
    return {"planted": ast.parse(source)}


_PLANTED_DEFS = """
import ast

def fetch(path, retries=3, timeout=1.0, verbose=False):
    pass

class Store:
    def __init__(self, root, cache=None):
        pass

    def get(self, key, default=None):
        return key

    def only_tests_call(self):
        return self.only_tests_call

class Walker(ast.NodeVisitor):
    def visit_Name(self, node):
        pass
"""


def test_keyword_census_flags_a_keyword_nothing_passes():
    caller = ast.parse("fetch('p', 5)\nStore('r')\n")
    unpassed = _unpassed_keywords(_planted(_PLANTED_DEFS), [caller])
    assert "planted.fetch.retries" not in unpassed  # by position
    assert {
        "planted.fetch.timeout",
        "planted.fetch.verbose",
        "planted.Store.__init__.cache",
        "planted.Store.get.default",
    } <= unpassed


def test_keyword_census_counts_star_args_and_splats():
    caller = ast.parse(
        "def run(*args, **kwargs):\n"
        "    fetch('p', *args)\n"
        "    options = {'verbose': True}\n"
        "    fetch('p', **options)\n"
        "    Store('r', **kwargs)\n"
        "    Store('r').get('k', 'fallback')\n"
    )
    unpassed = _unpassed_keywords(_planted(_PLANTED_DEFS), [caller])
    assert unpassed == set()


def test_keyword_census_resolves_super_and_import_aliases():
    defs = _planted(
        "class Base:\n"
        "    def __init__(self, name=''):\n"
        "        pass\n"
        "def render(scene, width=8):\n"
        "    pass\n"
    )
    caller = ast.parse(
        "from planted import render as draw\n"
        "class Child(Base):\n"
        "    def __init__(self):\n"
        "        super().__init__('child')\n"
        "draw(None, 16)\n"
    )
    assert _unpassed_keywords(defs, [caller]) == set()


def test_method_census_flags_a_method_only_tests_call():
    sources = _planted(_PLANTED_DEFS)
    production = ast.parse("store = Store('r')\nstore.get('k')\n")
    unused = _unused_methods(sources, [sources["planted"], production])
    # a use inside its own def does not count; visit_* is dispatched
    assert unused == {"planted.Store.only_tests_call"}
    by_name = ast.parse("getattr(store, 'only_tests_call')()\n")
    assert _unused_methods(sources, [production, by_name]) == set()
