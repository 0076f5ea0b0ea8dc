"""Tests for ``visapult check`` (the VIS2xx analyzers and driver).

Three layers: per-rule behaviour over the checked-in fixture modules,
driver mechanics (pragmas, SARIF, CLI exit codes), and the acceptance
gate -- the real tree must have no finding, and reintroducing a known
defect class must produce exactly one.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro import cli
from repro.analysis.check import run_check, to_sarif
from repro.analysis.staticbase import normalize_path, scan_allow_pragmas

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


def check_fixture(name):
    """Run the analyzers over one fixture."""
    return run_check([str(FIXTURES / name)])


# -- per-rule fixtures -------------------------------------------------

FIXTURE_EXPECTATIONS = {
    # fixture -> [(line, code), ...] in report order
    "det_set_order.py": [(7, "VIS201"), (13, "VIS201")],
    "det_identity.py": [(6, "VIS202"), (11, "VIS202"), (13, "VIS202")],
    "det_unseeded_rng.py": [(7, "VIS203"), (11, "VIS203")],
    "det_wall_clock.py": [(8, "VIS204")],
    "ts_reserve.py": [(6, "VIS210"), (29, "VIS210")],
    "ts_claim.py": [(6, "VIS211")],
    "ts_conn.py": [(7, "VIS212")],
    "ts_msgtype.py": [(6, "VIS213")],
    "ts_nested.py": [(8, "VIS212"), (26, "VIS210"), (29, "VIS210")],
}


@pytest.mark.parametrize("name", sorted(FIXTURE_EXPECTATIONS))
def test_fixture_findings(name):
    """Each fixture trips exactly its annotated rule sites."""
    result = check_fixture(name)
    got = [(f.line, f.code) for f in result.findings]
    assert got == FIXTURE_EXPECTATIONS[name]
    # any finding trips the gate
    assert not result.clean


def test_fixture_negatives_stay_clean():
    """The laundered/balanced halves of the fixtures stay silent."""
    result = check_fixture("det_set_order.py")
    flagged_lines = {f.line for f in result.findings}
    # sorted() and dict.fromkeys() loops must not be in the set
    assert flagged_lines == {7, 13}


def test_nested_def_is_its_own_scope():
    """ts_nested: a leak in a nested def is reported once, against the
    def that opened it, and a nested def's aliases stay its own."""
    result = check_fixture("ts_nested.py")
    leaks = [f for f in result.findings if f.code == "VIS212"]
    assert len(leaks) == 1 and "opened in inner()" in leaks[0].message
    credits = [f.message for f in result.findings if f.code == "VIS210"]
    assert len(credits) == 2
    assert credits[0].startswith("self.out.commit() discharges")
    assert credits[1].startswith("buf.reserve() opens")
    assert all("class LeakyAcrossDefs" in m for m in credits)


def test_cancel_does_not_discharge_a_reserve():
    """ts_reserve: BoundedBuffer releases a reserved slot by commit()
    only, so a reserve() followed by cancel() alone is a leak."""
    result = check_fixture("ts_reserve.py")
    [leak] = [f for f in result.findings if f.line == 29]
    assert leak.message == (
        "self.buffer.reserve() opens a buffer credit but class "
        "CancelOnlyStage never calls commit() on it"
    )


def test_allow_pragma_suppresses_at_source():
    """Pragmas (including multi-line comments) suppress at the sink."""
    result = check_fixture("allowed_ok.py")
    assert result.findings == []
    assert result.allowed == 2
    assert result.clean


def test_msgtype_pragma_exempts_control_frames():
    """ts_msgtype: QUIT carries a pragma, ORPHAN does not."""
    result = check_fixture("ts_msgtype.py")
    assert result.allowed == 1
    assert [f.code for f in result.findings] == ["VIS213"]
    assert "ORPHAN" in result.findings[0].message


def test_pragma_scanner_multiline_comment_block():
    source = (
        "# vis: allow[VIS202] reason line one\n"
        "# continues on a second comment line\n"
        "seen.add(id(obj))\n"
    )
    allow = scan_allow_pragmas(source)
    assert "VIS202" in allow[1]
    assert "VIS202" in allow[2]
    assert "VIS202" in allow[3]


def test_syntax_error_is_vis200(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    result = run_check([str(bad)])
    assert [f.code for f in result.findings] == ["VIS200"]
    assert result.findings[0].line == 1


# -- acceptance scenarios ----------------------------------------------


def test_clean_tree_has_no_finding():
    """src/repro has no finding: every sink is fixed or pragma'd."""
    result = run_check([str(SRC_REPRO)])
    assert result.findings == [], result.summary()
    assert result.clean


def test_new_set_loop_is_one_new_finding(tmp_path):
    """Acceptance (a): an unordered-set loop in a sim package."""
    pkg = tmp_path / "repro" / "backend"
    pkg.mkdir(parents=True)
    mod = pkg / "spread.py"
    mod.write_text(
        "def spread(hosts):\n"
        "    out = []\n"
        "    for h in set(hosts):\n"
        "        out.append(h)\n"
        "    return out\n"
    )
    result = run_check([str(mod)])
    assert [(f.line, f.code) for f in result.findings] == [(3, "VIS201")]


def test_new_unseeded_rng_is_one_new_finding(tmp_path):
    """Acceptance (b): an unseeded random.Random()."""
    mod = tmp_path / "jitter.py"
    mod.write_text(
        "import random\n"
        "\n"
        "def jitter():\n"
        "    return random.Random().random()\n"
    )
    result = run_check([str(mod)])
    assert [(f.line, f.code) for f in result.findings] == [(4, "VIS203")]


def test_new_msgtype_without_decoder_is_one_new_finding(tmp_path):
    """Acceptance (c): a new MsgType member with no registry branch."""
    proto = tmp_path / "repro" / "protocol"
    proto.mkdir(parents=True)
    for name in ("framing.py", "messages.py"):
        shutil.copy(SRC_REPRO / "protocol" / name, proto / name)
    framing = proto / "framing.py"
    framing.write_text(
        framing.read_text().replace("    TILE = 6\n", "    TILE = 6\n    PING = 7\n")
    )
    result = run_check([str(proto)])
    assert [f.code for f in result.findings] == ["VIS213"]
    finding = result.findings[0]
    assert "MsgType.PING" in finding.message
    assert finding.path.endswith("framing.py")
    assert finding.line > 0


def test_stripe_msgtype_is_dispatched():
    """MsgType.STRIPE has a live registry branch: no VIS213 in the
    shipped protocol package."""
    result = run_check([str(SRC_REPRO / "protocol")])
    assert not any(
        f.code == "VIS213" and "STRIPE" in f.message
        for f in result.findings
    ), result.summary()


def test_unregistering_stripe_payload_is_one_new_finding(tmp_path):
    """Dropping StripePayload from _TYPE_OF makes MsgType.STRIPE an
    orphaned wire type and VIS213 must say so by name."""
    proto = tmp_path / "repro" / "protocol"
    proto.mkdir(parents=True)
    for name in ("framing.py", "messages.py"):
        shutil.copy(SRC_REPRO / "protocol" / name, proto / name)
    messages = proto / "messages.py"
    messages.write_text(
        messages.read_text().replace(
            "    StripePayload: MsgType.STRIPE,\n", ""
        )
    )
    result = run_check([str(proto)])
    assert [f.code for f in result.findings] == ["VIS213"]
    finding = result.findings[0]
    assert "MsgType.STRIPE" in finding.message
    assert finding.path.endswith("framing.py")


# -- paths ------------------------------------------------------------


def test_normalize_path_strips_checkout_prefix():
    assert normalize_path("src/repro/backend/sim.py") == (
        "repro/backend/sim.py"
    )
    assert normalize_path("/opt/venv/lib/repro/core/a.py") == (
        "repro/core/a.py"
    )


# -- reports and CLI ---------------------------------------------------


def test_sarif_report_shape():
    result = check_fixture("det_unseeded_rng.py")
    sarif = to_sarif(result)
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == ["VIS203"]
    assert len(run["results"]) == 2
    assert {r["level"] for r in run["results"]} == {"error"}
    loc = run["results"][0]["locations"][0]["physicalLocation"]
    assert loc["region"]["startLine"] == 7


def test_cli_exit_codes_and_reports(tmp_path, capsys):
    dirty = str(FIXTURES / "det_unseeded_rng.py")
    clean = str(FIXTURES / "allowed_ok.py")
    json_path = tmp_path / "report.json"
    sarif_path = tmp_path / "report.sarif"
    rc = cli.main(
        ["check", dirty, "--json", str(json_path),
         "--sarif", str(sarif_path)]
    )
    assert rc == 1
    report = json.loads(json_path.read_text())
    assert report["counts"] == {"VIS203": 2}
    assert json.loads(sarif_path.read_text())["version"] == "2.1.0"
    assert cli.main(["check", clean]) == 0
    capsys.readouterr()
