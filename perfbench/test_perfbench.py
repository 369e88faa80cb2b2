"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest perfbench/test_perfbench.py -q

They check that the tracer wraps every binding of a traced function and
puts the originals back, that each workload exercises the functions it is
meant to and fills every per-layer metric of BENCHMARK.json, that a
failing op is counted, and that only the documented power-fit defect is
excused. About a minute on two cores, most of it the traced lit IV sweep.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Functions each workload must reach, with the namespace the call goes
# through where it is not the defining module.
EXERCISED = {
    "band_scan": [
        "cli.main", "cli.cmd_bandedges", "device.load_reference_stack",
        "device.build_mesh", "device.doping_profile", "device.element_profile",
        "materials.lookup_material", "materials.mobility_at",
        "electrostatics.fermi_half", "electrostatics.fermi_half_deriv",
        "electrostatics.inverse_fermi_half", "electrostatics.build_device_arrays",
        "electrostatics.neutral_potential", "electrostatics.solve_equilibrium",
        "electrostatics.solve_bias", "electrostatics.quasi_fermi_split",
        "electrostatics.BandDiagram.to_csv", "dataio.write_table",
    ],
    "iv_lit_optics": [
        "cli.cmd_iv", "transport.iv_sweep", "transport.solve_drift_diffusion",
        "transport.bernoulli", "transport.hole_flux", "transport.IVCurve.to_csv",
        "electrostatics.fermi_half", "electrostatics.fermi_half_deriv",
        "electrostatics.inverse_fermi_half", "electrostatics.carrier_densities",
        "cli.cmd_synthmap", "cli.cmd_fit", "qd_model.load_reference_lines",
        "qd_model.load_charge_ladder", "qd_model.synth_emission_map",
        "qd_model.occupancy_at", "qd_model.stark_wavelength",
        "qd_model.EmissionMap.to_csv", "spectro_fit.fit_peaks",
        "spectro_fit.extract_fss", "spectro_fit.fit_g2", "spectro_fit.g2_model",
        "spectro_fit.antibunching_dip", "spectro_fit.fit_lifetime",
        "spectro_fit.fit_power_law", "spectro_fit.lorentzian_profile",
        "spectro_fit.voigt_profile_peak", "dataio.read_table", "dataio.write_report",
    ],
}
# (child, direct parent) pairs that only occur when a re-bound name is
# wrapped: transport.fermi_half and friends, cli.solve_bias, and the
# spectro_fit._SHAPES table.
THROUGH_REBINDING = {
    "band_scan": [("electrostatics.solve_bias", "cli.cmd_bandedges")],
    "iv_lit_optics": [
        ("electrostatics.fermi_half", "transport.solve_drift_diffusion"),
        ("electrostatics.fermi_half_deriv", "transport.solve_drift_diffusion"),
        ("electrostatics.build_device_arrays", "transport.solve_drift_diffusion"),
        ("electrostatics.solve_bias", "transport.solve_drift_diffusion"),
        ("transport.iv_sweep", "cli.cmd_iv"),
        ("qd_model.synth_emission_map", "cli.cmd_synthmap"),
        ("spectro_fit.voigt_profile_peak", "spectro_fit.fit_peaks"),
    ],
}


def _bindings():
    return [(ns, key, value) for ns in tracing.namespaces()
            for key, value in ns.items() if callable(value)]


def test_tracer_wraps_every_binding_and_restores_it():
    originals = {id(fn) for _, fn in tracing.traced_functions()}
    before = _bindings()
    assert sum(id(v) in originals for _, _, v in before) > len(originals)
    with tracing.Tracer():
        left = [(key, v) for _, key, v in _bindings() if id(v) in originals]
        assert left == []
        from dotdiode import cli, transport
        for fn in (transport.fermi_half, transport.build_device_arrays,
                   transport.solve_bias, cli.solve_bias, cli.iv_sweep,
                   cli.synth_emission_map):
            assert hasattr(fn, "__wrapped__")
    after = _bindings()
    assert len(after) == len(before)
    assert all(a[2] is b[2] and a[1] == b[1] for a, b in zip(before, after))
    from dotdiode.qd_model import EmissionMap
    assert not hasattr(EmissionMap.to_csv, "__wrapped__")


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_workload_exercises_its_functions(name, tmp_path):
    workload = workloads.make_workload(name, 3, tmp_path)
    with tracing.Tracer() as tracer:
        _, outcomes = run.run_pass(workload, tracer)
    ops = workload.check(outcomes)
    assert all(op.ok or op.known for op in ops), [op for op in ops if not op.ok]
    stats = tracer.stats()
    missing = [f for f in EXERCISED[name] if f not in stats]
    assert missing == []
    for child, parent in THROUGH_REBINDING[name]:
        assert tracer.child_calls(child, parent) > 0, (child, parent)
    metrics = run.layer_metrics(tracer, outcomes, ops, 1.0, 1.0)
    assert list(metrics) == list(run.PER_LAYER)
    if name == "band_scan":
        assert metrics["electrostatics.build_device_arrays.calls"]["value"] == 80
    # every span belongs to a command, and IV points and diagrams get ops of their own
    assert {op for *_, op, _ in tracer.spans} <= set(tracer.op_labels)
    assert len(tracer.op_labels) > len(workload.commands()) + 1


def test_forced_failing_op_raises_failed_frac(tmp_path):
    workload = workloads.OpticsWorkload("optics", 3, tmp_path)
    _, outcomes = run.run_pass(workload)
    baseline = run.tally(workload.check(outcomes))
    assert baseline["correct"]

    # a wrong power-law slope is a real failure, not the cutoff defect
    slope, p_sat = workload.truth["power"]
    workload.truth["power"] = (slope + 0.5, p_sat)
    wrong_slope = run.tally(workload.check(outcomes))
    assert not wrong_slope["correct"]
    assert [f["known"] for f in wrong_slope["failures"] if f["op"] == "fit_power"] == [False]
    workload.truth["power"] = (slope, p_sat)

    (workload.inputs / "g2.csv").write_text("delay_ns,coincidences\n1,2,3\n")
    # a series that saturates after two points: the automatic cutoff keeps too few
    power = np.geomspace(0.01, 100.0, 60)
    workloads.dataio.write_table(workload.inputs / "power.csv",
                                 [power, np.minimum(power, power[1])],
                                 ["power_uW", "intensity"])
    _, outcomes = run.run_pass(workload)
    forced = run.tally(workload.check(outcomes))
    assert forced["attempted"] == baseline["attempted"]
    assert forced["failed_frac"] > baseline["failed_frac"]
    assert not forced["correct"]
    known = {f["op"]: f["known"] for f in forced["failures"]}
    assert known == {"fit_g2": False, "fit_power": True}


def test_written_amount_does_not_depend_on_the_return_value(tmp_path, monkeypatch):
    from dotdiode import dataio

    def write_table(path, columns, names, meta=None):  # a writer that returns None
        Path(path).write_text("a\n1\n2\n")

    write_table.__module__ = dataio.__name__
    monkeypatch.setattr(dataio, "write_table", write_table)
    with tracing.Tracer() as tracer:
        dataio.write_table(tmp_path / "t.csv", [[1.0, 2.0]], ["a"])
        dataio.read_table(tmp_path / "t.csv")
    stats = tracer.stats()
    assert stats["dataio.write_table"].amount == 6
    assert stats["dataio.read_table"].amount == 2


def test_same_seed_same_inputs(tmp_path):
    a = workloads.make_workload("band_scan", 5, tmp_path / "a")
    b = workloads.make_workload("band_scan", 5, tmp_path / "b")
    c = workloads.make_workload("band_scan", 6, tmp_path / "c")
    assert a.biases == b.biases != c.biases
    assert len({workloads.band_file_name(v) for v in a.biases}) == len(a.biases)
    x = workloads.OpticsWorkload("optics", 5, tmp_path / "x")
    y = workloads.OpticsWorkload("optics", 5, tmp_path / "y")
    for path in sorted(x.inputs.iterdir()):
        assert path.read_bytes() == (y.inputs / path.name).read_bytes()


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(workloads.WORKLOADS)
