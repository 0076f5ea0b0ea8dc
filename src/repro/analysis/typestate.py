"""Protocol typestate checks: the VIS21x rule group of ``visapult check``.

The pipeline's correctness rests on a handful of object protocols that
runtime sanitizers can only catch when a fuzz run happens to exercise
the broken path.  This pass proves the pairing statically:

``VIS210`` (reserve/commit pairing)
    Every scope that calls ``<buffer>.reserve()`` must also discharge
    the credit on that buffer with ``commit(...)`` -- the one way
    ``simcore.sync.BoundedBuffer`` releases a reserved slot -- and vice
    versa.  Split-phase protocols are
    honoured: the *scope* is the enclosing class (or the module's
    free functions), so a stage that reserves in ``_run`` and commits
    in ``_emit`` is balanced.
``VIS211`` (render-cache claim lifecycle)
    Every ``<cache>.begin(...)`` claim must have a ``publish(...)``
    *and* an ``abandon(...)`` reachable on the same cache within the
    scope -- a lead claim has exactly two legal exits, and losing the
    abandon leg is how degraded slabs leak into the cache.
``VIS212`` (connection open/close balance)
    A locally-bound connection (``socket.socket(...)``,
    ``create_connection(...)``, ``.accept(...)``, bare ``open(...)``)
    must be closed in scope, enter a ``with`` block, or escape (be
    returned, stored, or passed on); otherwise it leaks on every path.
``VIS213`` (exhaustive MsgType dispatch)
    Every ``MsgType`` enum member must have a decoder branch in the
    protocol registry (``_TYPE_OF``); a new tile/heavy/control message
    without one becomes a static finding, not a runtime fuzz catch.
    Payload-less control frames are allowlisted at the member line
    (``# vis: allow[VIS213]``).

Receivers are normalized through local aliases (``cache =
self.render_cache`` makes ``cache.begin`` and
``self.render_cache.publish`` the same receiver), so the split-phase
acquire/finish legs in the back end check as one protocol.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.staticbase import CheckFinding, ParsedModule

#: method name -> (protocol kind, role); role "source" opens an
#: obligation, the listed discharge names close it
_RESERVE_SOURCES = frozenset({"reserve"})
_RESERVE_DISCHARGES = frozenset({"commit"})
_CLAIM_SOURCES = frozenset({"begin"})
_CLAIM_DISCHARGES = frozenset({"publish", "abandon"})

#: connection-opening callables (dotted) and method names
_CONN_OPEN_DOTTED = frozenset(
    {
        "socket.socket",
        "socket.create_connection",
        "socket.create_server",
        "open",
    }
)
_CONN_OPEN_METHODS = frozenset({"accept"})
_CONN_CLOSE_METHODS = frozenset({"close", "shutdown", "stop"})


@dataclass
class _Site:
    """One protocol call site."""

    node: ast.AST
    receiver: str
    method: str


@dataclass
class _ScopeUse:
    """Protocol call sites collected over one class/module scope."""

    name: str
    reserve_sources: List[_Site] = field(default_factory=list)
    reserve_discharges: List[_Site] = field(default_factory=list)
    claim_sources: List[_Site] = field(default_factory=list)
    claim_discharges: List[_Site] = field(default_factory=list)


def _receiver_text(node: ast.AST, aliases: Dict[str, str]) -> str:
    """Canonical receiver spelling with local aliases resolved."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failure
        return "<recv>"
    head, sep, rest = text.partition(".")
    resolved = aliases.get(head)
    if resolved is not None:
        return f"{resolved}{sep}{rest}" if sep else resolved
    return text


def _local_aliases(module: ParsedModule, fn: ast.AST) -> Dict[str, str]:
    """Map local names to the ``self.attr`` chains they alias.

    Only simple, unconditional ``name = self.attr[...attr]`` bindings
    are tracked -- enough to see through the ``cache =
    self.render_cache`` convention without real pointer analysis.
    """
    aliases: Dict[str, str] = {}
    for node in module.own_nodes(fn):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        parts: List[str] = []
        while isinstance(value, ast.Attribute):
            parts.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name) and value.id == "self" and parts:
            aliases[target.id] = ".".join(["self"] + list(reversed(parts)))
    return aliases


def _collect_sites(
    module: ParsedModule, scope: _ScopeUse, fn: ast.AST
) -> None:
    """Add ``fn``'s own buffer/cache protocol call sites to ``scope``.

    A nested function is a scope member of its own; entering it here
    would double-count its call sites.
    """
    aliases = _local_aliases(module, fn)
    for node in module.own_nodes(fn):
        if not (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        ):
            continue
        func = node.func
        # An argument-taking ``reserve(cost, ...)`` is a different API
        # (a token bucket's), not the buffer credit handshake.
        if func.attr in _RESERVE_SOURCES:
            if node.args or node.keywords:
                continue
            sites = scope.reserve_sources
        elif func.attr in _RESERVE_DISCHARGES:
            sites = scope.reserve_discharges
        elif func.attr in _CLAIM_SOURCES:
            sites = scope.claim_sources
        elif func.attr in _CLAIM_DISCHARGES:
            sites = scope.claim_discharges
        else:
            continue
        recv = _receiver_text(func.value, aliases)
        # The primitive's own implementation *is* the protocol; plain
        # ``self`` receivers are exempt.
        if recv != "self":
            sites.append(_Site(node=node, receiver=recv, method=func.attr))


def _check_pairing(
    module: ParsedModule,
    scope: _ScopeUse,
    sources: List[_Site],
    discharges: List[_Site],
    code: str,
    open_what: str,
    close_what: str,
    *,
    require_all: Sequence[str] = (),
) -> List[CheckFinding]:
    """Unmatched source/discharge findings for one protocol kind."""
    findings: List[CheckFinding] = []
    discharge_methods: Dict[str, Set[str]] = {}
    for site in discharges:
        discharge_methods.setdefault(site.receiver, set()).add(site.method)
    opened = {s.receiver for s in sources}
    for site in sources:
        call = f"{site.receiver}.{site.method}() opens {open_what}"
        if site.receiver not in discharge_methods:
            findings.append(
                module.finding(
                    site.node,
                    code,
                    f"{call} but {scope.name} never calls {close_what} "
                    "on it",
                )
            )
            continue
        missing = sorted(set(require_all) - discharge_methods[site.receiver])
        if missing:
            findings.append(
                module.finding(
                    site.node,
                    code,
                    f"{call} but {scope.name} has no {'/'.join(missing)} "
                    "leg for it",
                )
            )
    for site in discharges:
        if site.receiver not in opened:
            findings.append(
                module.finding(
                    site.node,
                    code,
                    f"{site.receiver}.{site.method}() discharges "
                    f"{open_what} that {scope.name} never opens",
                )
            )
    return findings


def check_buffer_protocols(module: ParsedModule) -> List[CheckFinding]:
    """VIS210/VIS211 over every class scope of one module.

    The scope of a def is its *outermost* enclosing class, by
    ``ClassDef`` identity (two classes of one name are two scopes);
    the defs outside every class share the module scope.
    """
    scopes: Dict[Optional[ast.ClassDef], _ScopeUse] = {}
    for record in module.functions:
        outermost = record.classes[0] if record.classes else None
        if outermost not in scopes:
            scopes[outermost] = _ScopeUse(
                name=f"class {outermost.name}" if outermost else "module scope"
            )
        _collect_sites(module, scopes[outermost], record.node)
    findings: List[CheckFinding] = []
    for scope in scopes.values():
        findings.extend(
            _check_pairing(
                module,
                scope,
                scope.reserve_sources,
                scope.reserve_discharges,
                "VIS210",
                "a buffer credit",
                "commit()",
            )
        )
        findings.extend(
            _check_pairing(
                module,
                scope,
                scope.claim_sources,
                scope.claim_discharges,
                "VIS211",
                "a cache claim",
                "publish()/abandon()",
                require_all=("publish", "abandon"),
            )
        )
    return findings


# -- VIS212: connection lifecycle -------------------------------------


def _is_conn_open(module: ParsedModule, node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    if module.dotted(node.func) in _CONN_OPEN_DOTTED:
        return True
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in _CONN_OPEN_METHODS
    )


def _names_in(expr: Optional[ast.AST]) -> Iterator[str]:
    """Every bare name mentioned anywhere inside ``expr``."""
    if expr is not None:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name):
                yield sub.id


def check_connections(module: ParsedModule) -> List[CheckFinding]:
    """VIS212: locally-bound connections must close or escape."""
    findings: List[CheckFinding] = []
    for record in module.functions:
        own = module.own_nodes(record.node)
        opens: Dict[str, ast.AST] = {}
        closed: Set[str] = set()
        escaped: Set[str] = set()
        for node in own:
            if isinstance(node, ast.Assign) and _is_conn_open(
                module, node.value
            ):
                for target in node.targets:
                    names = [target]
                    if isinstance(target, (ast.Tuple, ast.List)):
                        # ``conn, addr = sock.accept()``: only the
                        # first element is the connection.
                        names = list(target.elts[:1])
                    for name in names:
                        # anything but a bare name is stored straight
                        # into an attribute or container: closed
                        # elsewhere by design
                        if isinstance(name, ast.Name):
                            opens.setdefault(name.id, node.value)
            elif isinstance(node, ast.With):
                for item in node.items:
                    if _is_conn_open(module, item.context_expr):
                        # ``with`` guarantees the close
                        if isinstance(item.optional_vars, ast.Name):
                            closed.add(item.optional_vars.id)
                    if isinstance(item.context_expr, ast.Name):
                        closed.add(item.context_expr.id)
        if not opens:
            continue
        for node in own:
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.attr in _CONN_CLOSE_METHODS
                ):
                    closed.add(func.value.id)
                for arg in list(node.args) + [
                    kw.value for kw in node.keywords
                ]:
                    escaped.update(_names_in(arg))
            elif isinstance(node, (ast.Return, ast.Yield)):
                escaped.update(_names_in(node.value))
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in node.targets
            ):
                escaped.update(_names_in(node.value))
        for name, open_node in opens.items():
            if name in closed or name in escaped:
                continue
            findings.append(
                module.finding(
                    open_node,
                    "VIS212",
                    f"connection {name!r} opened in {record.node.name}() "
                    "is never closed, stored or handed off; it leaks "
                    "on every path",
                )
            )
    return findings


# -- VIS213: MsgType decoder exhaustiveness ---------------------------


def _enum_members(module: ParsedModule) -> List[Tuple[str, ast.stmt]]:
    """(name, defining statement) of each ``MsgType`` member here."""
    members: List[Tuple[str, ast.stmt]] = []
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.ClassDef) and node.name == "MsgType"):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        members.append((target.id, stmt))
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                members.append((stmt.target.id, stmt))
    return members


def _registry_handled(module: ParsedModule) -> Optional[Set[str]]:
    """MsgType members appearing in this module's ``_TYPE_OF`` registry.

    Returns None when the module defines no registry.
    """
    handled: Optional[Set[str]] = None
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "_TYPE_OF"
            for t in node.targets
        ):
            continue
        handled = set()
        for sub in ast.walk(node.value):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "MsgType"
            ):
                handled.add(sub.attr)
    return handled


def check_protocol_registry(
    modules: Sequence[ParsedModule],
) -> List[CheckFinding]:
    """VIS213 across the checked tree.

    Fires only when both halves are visible: a module defining the
    ``MsgType`` enum and a module defining the ``_TYPE_OF`` decoder
    registry.  A member with no registry entry (and no allow pragma on
    its definition line) has no decoder branch -- the exact state a
    newly added message type starts in.
    """
    enum_sites: List[Tuple[ParsedModule, str, ast.stmt]] = []
    handled: Optional[Set[str]] = None
    for module in modules:
        for name, stmt in _enum_members(module):
            enum_sites.append((module, name, stmt))
        module_handled = _registry_handled(module)
        if module_handled is not None:
            handled = (handled or set()) | module_handled
    if not enum_sites or handled is None:
        return []
    return [
        module.finding(
            stmt,
            "VIS213",
            f"MsgType.{name} has no decoder branch in the protocol "
            "registry (_TYPE_OF); every wire type needs a payload "
            "class or an allow pragma",
        )
        for module, name, stmt in enum_sites
        if name not in handled
    ]


def analyze_module(module: ParsedModule) -> List[CheckFinding]:
    """Run the per-module typestate rules (VIS210-VIS212)."""
    return check_buffer_protocols(module) + check_connections(module)
