"""The benchmark's own tests, at the ``--quick`` size.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q`` from the
repository root (outside tier-1 ``testpaths``: a full quick run of five
workloads, two rounds and a traced round takes about a minute).
"""

import copy
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

from bench import compare, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
RUN = [sys.executable, os.path.join(ROOT, "bench", "run.py")]

#: where each end-to-end metric applies (README, metric table); the
#: three host metrics and delivered_share apply everywhere
APPLIES = {
    "sim_s_per_frame": {
        "paper_figs", "multiviewer", "serve10k", "flaky_striped",
    },
    "sim_load_mbps": {"paper_figs", "multiviewer", "flaky_striped"},
    "sim_ttff_p95_s": {"multiviewer", "serve10k"},
    "sim_read_p99_s": {"flaky_striped"},
    "sim_viewer_bytes": {"paper_figs", "multiviewer", "flaky_striped"},
    "paper_error": {"paper_figs"},
    "image_rms_error": {"live_render"},
}


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def envelope(tmp_path_factory):
    """One full ``--quick`` run: two rounds plus the traced round."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_e2e.json"
    proc = subprocess.run(
        RUN + ["--quick", "--rounds", "2", "--output", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout
    with open(out) as f:
        payload = json.load(f)
    payload["_stdout"] = proc.stdout
    payload["_path"] = str(out)
    return payload


def test_spec_meets_the_driver_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["bench"]
    assert 1 <= spec["run_seconds"] <= 60
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [w["name"] for w in spec["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            assert name_re.match(metric["name"]), metric
            assert unit_re.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")
            names.append(metric["name"])
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(spec["end_to_end"]) == 11
    # the workloads are the code's, with the code's reasons
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_every_metric_is_emitted_finite_and_unit_tagged(spec, envelope):
    assert envelope["schema_version"] == 1 and envelope["kind"] == "bench"
    for workload in spec["workloads"]:
        name = workload["name"]
        emitted = envelope["metrics"][name]
        for metric in spec["end_to_end"]:
            applies = name in APPLIES.get(metric["name"], {name})
            assert (metric["name"] in emitted) == applies, (
                name, metric["name"],
            )
            if applies:
                record = emitted[metric["name"]]
                assert math.isfinite(record["value"]) and record["value"] > 0
                assert record["unit"] == metric["unit"]
                # every metric is printed by name with its unit
                assert re.search(
                    rf"^\s+{re.escape(metric['name'])}\s.*"
                    rf"{re.escape(metric['unit'])}",
                    envelope["_stdout"], re.M,
                )
        layers = envelope["per_layer"][name]
        assert set(layers) == {m["name"] for m in spec["per_layer"]}
        for metric in spec["per_layer"]:
            record = layers[metric["name"]]
            assert math.isfinite(record["value"]), (name, metric["name"])
            assert record["unit"] == metric["unit"]


def test_rounds_agree_and_checks_pass(spec, envelope):
    for workload in spec["workloads"]:
        name = workload["name"]
        checks = envelope["checks"][name]
        # run.py fails the run if a sim_* value, a count or a digest
        # differs between the two rounds and the traced round
        assert checks["problems"] == [] and checks["failed"] == 0
        assert checks["attempted"] >= 1
        for metric, record in envelope["metrics"][name].items():
            if metric in ("setup_s", "host_s", "peak_rss_mb"):
                assert len(record["samples"]) == 2  # every round is kept
            else:
                assert "samples" not in record
    environment = envelope["environment"]
    assert environment["rounds"] == 2 and environment["seed"] == 0
    for key in ("commit", "nproc", "load_1min_start", "load_1min_end",
                "python", "numpy"):
        assert key in environment


def test_trace_covers_the_pass_and_separates_the_layers(spec, envelope):
    for workload in spec["workloads"]:
        layers = envelope["per_layer"][workload["name"]]
        assert 0.95 <= layers["trace.coverage"]["value"] <= 1.05
        assert layers["trace.overhead"]["value"] > 0
        assert layers["trace.py_calls"]["value"] > 0
    def share(name, *parts):
        layers = envelope["per_layer"][name]
        total = sum(
            v["value"] for k, v in layers.items() if k.endswith(".self_s")
        )
        return sum(layers[f"{p}.self_s"]["value"] for p in parts) / total
    assert share("live_render", "volren", "scenegraph") > 0.5
    assert share("serve10k", "volren", "scenegraph") == 0.0
    assert share("serve10k", "simcore.flowclass") > 0.2
    assert share("paper_figs", "simcore.flowclass") == 0.0
    serve = envelope["per_layer"]["serve10k"]
    assert serve["simcore.fluid.set_cap_calls"]["value"] == 0
    assert serve["simcore.fluid.set_usage_calls"]["value"] > 0
    assert envelope["per_layer"]["paper_figs"][
        "simcore.fluid.set_cap_calls"]["value"] > 0


def test_compare_same_against_itself_worse_against_doctored(
    envelope, tmp_path, capsys
):
    path = envelope["_path"]
    assert compare.main([path, path]) == 0
    table = capsys.readouterr().out
    verdicts = {line.split()[-1] for line in table.splitlines()[1:-1]}
    assert verdicts == {"same"}

    doctored = copy.deepcopy(envelope)
    host = doctored["metrics"]["serve10k"]["host_s"]
    host["value"] *= 1.5
    host["samples"] = [s * 1.5 for s in host["samples"]]
    doctored["metrics"]["paper_figs"]["sim_s_per_frame"]["value"] *= 1.001
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(doctored))
    assert compare.main([path, str(slower)]) == 1
    rows = [
        line.split() for line in capsys.readouterr().out.splitlines()
    ]
    worse = {(r[0], r[1]) for r in rows if r and r[-1] == "worse"}
    assert worse == {
        ("host_s", "serve10k"), ("sim_s_per_frame", "paper_figs"),
    }


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_contract_line(spec, trace):
    proc = subprocess.run(
        RUN + ["--workload", "flaky_striped", "--seed", "3", "--seconds",
               "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in spec[section]}
    for metric in spec[section]:
        record = result["metrics"][metric["name"]]
        assert set(record) == {"value", "unit"}
        assert record["unit"] == metric["unit"]
        assert math.isfinite(record["value"])
        if not trace:
            assert record["value"] != 0
    assert not os.path.exists(os.path.join(ROOT, ".bench_work"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve10k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
