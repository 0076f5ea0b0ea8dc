"""FaultPlan and drill-file tests: validation, ordering, JSON."""

import dataclasses
import json

import pytest

from repro.faults import (
    FaultPlan,
    LinkFlap,
    LossSpike,
    MasterStall,
    RequestPolicy,
    ServerCrash,
    ServerSlowdown,
    event_from_dict,
    load_drill,
    plan_from_data,
    policy_from_spec,
)


class TestEvents:
    def test_validation_windows(self):
        with pytest.raises(ValueError):
            ServerCrash(at=-1.0, duration=1.0, server="dpss0")
        with pytest.raises(ValueError):
            ServerCrash(at=0.0, duration=0.0, server="dpss0")
        with pytest.raises(ValueError):
            MasterStall(at=0.0, duration=-2.0)

    def test_validation_factors(self):
        with pytest.raises(ValueError):
            ServerSlowdown(at=0.0, duration=1.0, server="s", factor=0.0)
        with pytest.raises(ValueError):
            LossSpike(at=0.0, duration=1.0, link="wan", factor=1.5)
        # The boundary factor 1.0 is a no-op but legal.
        LossSpike(at=0.0, duration=1.0, link="wan", factor=1.0)

    def test_round_trip_every_kind(self):
        events = [
            ServerCrash(at=1.0, duration=2.0, server="dpss0"),
            ServerSlowdown(at=1.5, duration=1.0, server="dpss1", factor=0.5),
            LinkFlap(at=2.0, duration=0.5, link="wan"),
            LossSpike(at=3.0, duration=1.0, link="wan", factor=0.3),
            MasterStall(at=4.0, duration=0.25),
        ]
        for ev in events:
            data = {"kind": ev.kind, **dataclasses.asdict(ev)}
            assert event_from_dict(data) == ev

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            event_from_dict({"kind": "meteor_strike", "at": 0.0})


class TestPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan.of([
            MasterStall(at=5.0, duration=1.0),
            ServerCrash(at=1.0, duration=1.0, server="dpss0"),
            LinkFlap(at=3.0, duration=1.0, link="wan"),
        ])
        assert [ev.at for ev in plan.events] == [1.0, 3.0, 5.0]

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan.empty()
        assert len(FaultPlan.empty()) == 0
        assert FaultPlan.empty().horizon == 0.0

    def test_horizon_covers_last_window(self):
        plan = FaultPlan.of([
            ServerCrash(at=1.0, duration=10.0, server="dpss0"),
            MasterStall(at=8.0, duration=1.0),
        ])
        assert plan.horizon == 11.0

    def test_targets_sorted_and_distinct(self):
        plan = FaultPlan.of([
            ServerCrash(at=0.0, duration=1.0, server="dpss1"),
            ServerSlowdown(at=1.0, duration=1.0, server="dpss1"),
            LinkFlap(at=2.0, duration=1.0, link="wan"),
            MasterStall(at=3.0, duration=1.0),
        ])
        assert plan.targets() == ["dpss1", "wan"]

    def test_json_round_trip(self):
        plan = FaultPlan.of([
            ServerCrash(at=1.0, duration=2.0, server="dpss0"),
            LossSpike(at=3.0, duration=1.0, link="wan", factor=0.4),
        ])
        text = json.dumps({"events": [
            {"kind": "server_crash", "at": 1.0, "duration": 2.0,
             "server": "dpss0"},
            {"kind": "loss_spike", "at": 3.0, "duration": 1.0,
             "link": "wan", "factor": 0.4},
        ]})
        assert plan_from_data(json.loads(text)) == plan

    def test_json_accepts_bare_list(self):
        text = json.dumps([
            {"kind": "master_stall", "at": 1.0, "duration": 0.5}
        ])
        plan = plan_from_data(json.loads(text))
        assert len(plan) == 1 and plan.events[0].kind == "master_stall"

    def test_json_rejects_non_list(self):
        with pytest.raises(ValueError):
            plan_from_data("not a plan")


class TestPolicySpec:
    def test_none_and_passthrough(self):
        assert policy_from_spec(None) is None
        p = RequestPolicy(timeout=1.0)
        assert policy_from_spec(p) is p

    def test_presets(self):
        assert policy_from_spec("default") == RequestPolicy()
        assert policy_from_spec("aggressive") == RequestPolicy.aggressive()
        with pytest.raises(ValueError):
            policy_from_spec("yolo")

    def test_dict_spec(self):
        p = policy_from_spec({"timeout": 5.0, "max_retries": 1})
        assert p.timeout == 5.0 and p.max_retries == 1

    def test_bad_type(self):
        with pytest.raises(ValueError, match="42"):
            policy_from_spec(42)


class TestDrillFile:
    def test_bare_list(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps([
            {"kind": "link_flap", "at": 1.0, "duration": 0.5, "link": "wan"}
        ]))
        drill = load_drill(str(path))
        assert len(drill.plan) == 1
        assert drill.campaign is None and drill.policy is None

    def test_full_drill(self, tmp_path):
        path = tmp_path / "drill.json"
        path.write_text(json.dumps({
            "campaign": "sc99_showfloor",
            "scaled": True,
            "seed": 7,
            "policy": "aggressive",
            "events": [
                {"kind": "server_crash", "at": 1.0, "duration": 2.0,
                 "server": "dpss0"},
            ],
        }))
        drill = load_drill(str(path))
        assert drill.campaign == "sc99_showfloor"
        assert drill.scaled and drill.seed == 7
        assert drill.policy == RequestPolicy.aggressive()
        assert drill.plan.targets() == ["dpss0"]

    def test_shipped_example_parses(self):
        drill = load_drill("examples/plans/sc99_flaky.json")
        assert drill.campaign == "sc99_showfloor"
        assert len(drill.plan) == 5


_CRASH = {"kind": "server_crash", "at": 0.0, "duration": 1.0, "server": "s"}


@pytest.mark.parametrize(
    "loader, document, named",
    [
        ("plan", [{k: v for k, v in _CRASH.items() if k != "server"}],
         "fault event 0: server_crash: missing"),
        ("drill", {"events": [_CRASH, {**_CRASH, "serve": "s"}]},
         "fault event 1: server_crash: unknown key"),
        ("plan", [{**_CRASH, "at": "0"}],
         "fault event 0: server_crash: key 'at' must be a JSON number"),
        ("drill", [5], "fault event 0: must be an object"),
        ("experiment", {"campaign": "lan_e4500", "policy": 7},
         "policy must be"),
        ("experiment", {"campaign": "lan_e4500", "policy": {"bogus": 1}},
         "unknown policy key.*'bogus'"),
        # ``bool("false")`` is True: a drill must not load as another run
        ("drill", {"scaled": "false", "events": []}, "drill key 'scaled'"),
        ("drill", {"overlapped": "no", "events": []},
         "drill key 'overlapped'"),
        ("drill", {"seed": "7", "events": []}, "drill key 'seed'"),
        ("drill", {"campaign": 5, "events": []}, "drill key 'campaign'"),
        ("drill", {"sedd": 7, "events": []}, "unknown drill key.*'sedd'"),
        ("drill", {"events": 5}, "must be a list"),
    ],
)
def test_hostile_json_raises_value_error(tmp_path, loader, document, named):
    """Malformed drills, events and policies raise ``ValueError`` naming
    the key, or the event's index and kind -- never ``TypeError``, and
    never a run of some other configuration."""
    from repro.config import ExperimentConfig

    text = json.dumps(document)
    path = tmp_path / "doc.json"
    path.write_text(text)
    load = {
        "plan": lambda text: plan_from_data(json.loads(text)),
        "drill": lambda _: load_drill(str(path)),
        "experiment": ExperimentConfig.from_json,
    }[loader]
    with pytest.raises(ValueError, match=named):
        load(text)
