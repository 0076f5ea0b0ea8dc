"""The static-analysis core: the module index and the one driver."""

import ast

import pytest

from repro import cli
from repro.analysis.check import run_check
from repro.analysis.lint import lint_source
from repro.analysis.staticbase import parse_module

INDEXED = '''\
import os.path
import numpy as np
from socket import create_connection as dial

if os.name == "posix":
    def under_if():
        pass

try:
    def under_try():
        pass
except ImportError:
    def under_except():
        import json as js
else:
    def under_try_else():
        pass
finally:
    def under_finally():
        pass

with open(__file__) as fh:
    def under_with():
        pass

for _ in ():
    pass
else:
    def under_for_else():
        pass


def factory():
    class Local:
        def method(self):
            def helper():
                pass

    return Local


class Twin:
    def first(self):
        pass


class Twin:
    if True:
        def second(self):
            pass

    class Inner:
        def deep(self):
            pass
'''


@pytest.fixture(scope="module")
def indexed():
    return parse_module("indexed.py", INDEXED)


def test_functions_are_indexed_once_in_source_order(indexed):
    assert [r.qualname for r in indexed.functions] == [
        "under_if",
        "under_try",
        "under_except",
        "under_try_else",
        "under_finally",
        "under_with",
        "under_for_else",
        "factory",
        "Local.method",
        "Local.method.<locals>.helper",
        "Twin.first",
        "Twin.second",
        "Inner.deep",
    ]
    lines = [r.node.lineno for r in indexed.functions]
    assert lines == sorted(lines)


def test_function_record_owner_class_chain_and_parent(indexed):
    by_name = {r.qualname: r for r in indexed.functions}
    under_if = by_name["under_if"]
    assert (under_if.owner, under_if.classes, under_if.parent) == (
        None, (), None
    )
    # a class inside a function: the class restarts the qualname, the
    # enclosing def is still the parent
    method = by_name["Local.method"]
    assert method.owner.name == "Local"
    assert [c.name for c in method.classes] == ["Local"]
    assert method.parent is by_name["factory"]
    # a def inside a method has no owner but keeps the class chain
    helper = by_name["Local.method.<locals>.helper"]
    assert helper.owner is None
    assert helper.classes == method.classes
    assert helper.parent is method
    # two classes of one name are two ClassDefs
    first, second = by_name["Twin.first"], by_name["Twin.second"]
    assert first.owner.name == second.owner.name == "Twin"
    assert first.owner is not second.owner
    # a def under ``if`` in a class body is still owned by the class
    assert second.classes == (second.owner,)
    deep = by_name["Inner.deep"]
    assert deep.owner.name == "Inner"
    assert deep.classes == (second.owner, deep.owner)
    assert deep.parent is None


def test_aliases_and_dotted_names(indexed):
    assert indexed.aliases == {
        "np": "numpy",
        "dial": "socket.create_connection",
        "js": "json",
    }

    def dotted(text):
        return indexed.dotted(ast.parse(text, mode="eval").body)

    assert dotted("np.random.rand") == "numpy.random.rand"
    assert dotted("dial") == "socket.create_connection"
    assert dotted("os.path.join") == "os.path.join"
    assert dotted("f().attr") is None


def test_own_nodes_yields_a_nested_def_without_entering_it():
    module = parse_module(
        "own.py",
        "def outer():\n"
        "    a = 1\n"
        "    def inner():\n"
        "        b = 2\n"
        "    class K:\n"
        "        c = 3\n"
        "    return lambda: a\n",
    )
    outer, inner = (r.node for r in module.functions)
    own = module.own_nodes(outer)
    assert inner in own
    stored = [
        n.id for n in own
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    ]
    # the class body and the lambda are outer's own; inner's body is not
    assert stored == ["a", "c"]
    assert any(isinstance(n, ast.Lambda) for n in own)
    inner_names = [
        n.id for n in module.own_nodes(inner) if isinstance(n, ast.Name)
    ]
    assert inner_names == ["b"]
    # the module's own nodes are the code outside every def
    assert not any(
        isinstance(n, ast.Assign) for n in module.own_nodes(module.tree)
    )


def test_finding_is_located_at_the_node(indexed):
    node = indexed.functions[0].node
    finding = indexed.finding(node, "VIS999", "m")
    assert (finding.path, finding.line, finding.col, finding.code) == (
        "indexed.py", node.lineno, node.col_offset + 1, "VIS999"
    )


BARE_EXCEPT = "try:\n    pass\nexcept:{pragma}\n    pass\n"


def test_one_pragma_filter_serves_every_code(tmp_path):
    """``allow[VIS105]`` is honoured by lint as ``allow[VIS202]`` is by
    check: the same filter, in the same driver."""
    path = "src/repro/simcore/example.py"
    flagged = lint_source(BARE_EXCEPT.format(pragma=""), path)
    assert [f.code for f in flagged] == ["VIS105"]
    allowed = BARE_EXCEPT.format(pragma="  # vis: allow[VIS105] fixture")
    assert lint_source(allowed, path) == []
    # a pragma for another code does not cover it
    other = BARE_EXCEPT.format(pragma="  # vis: allow[VIS202]")
    assert [f.code for f in lint_source(other, path)] == ["VIS105"]
    memo = "def f(seen, o):\n    seen.add(id(o)){pragma}\n"
    mod = tmp_path / "memo.py"
    mod.write_text(memo.format(pragma=""))
    assert [f.code for f in run_check([str(mod)]).findings] == ["VIS202"]
    mod.write_text(memo.format(pragma="  # vis: allow[VIS202] fixture"))
    result = run_check([str(mod)])
    assert (result.findings, result.allowed) == ([], 1)


@pytest.mark.parametrize(
    "flag", [["--baseline", "x"], ["--no-baseline"], ["--update-baseline"]]
)
def test_removed_check_flags_are_argparse_errors(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
