import numpy as np
import pytest

from dotdiode.cli import build_parser
from dotdiode.device import (
    DOPED_CONTACT_THRESHOLD, Layer, LayerStack, Mesh1D, SchemaError, MeshOptionError,
    ProfileConsistencyError, parse_stack, build_mesh,
    doping_profile, element_profile, load_reference_stack,
)
from dotdiode.materials import UnknownMaterialError


def test_reference_config_is_a_ten_layer_stack(reference_stack):
    assert len(reference_stack.layers) == 10
    assert reference_stack.temperature == 300.0


def test_reference_intrinsic_thickness_near_240nm(reference_stack):
    """The undoped layers of the bundled device sum to 241 nm, within 2 nm of
    the lever-arm thickness that stark and synthmap take by default."""
    undoped = sum(l.thickness_nm for l in reference_stack.layers
                  if l.donor_cm3 + l.acceptor_cm3 < DOPED_CONTACT_THRESHOLD)
    assert undoped == 241.0
    for command in ("stark", "synthmap"):
        assert build_parser().parse_args([command]).di == pytest.approx(undoped, abs=2.0)


def test_empty_layer_list_rejected():
    with pytest.raises(SchemaError):
        parse_stack({"temperature_K": 300.0, "layers": []})


def test_unknown_material_names_layer_index():
    doc = {"layers": [{"material": "InP", "thickness_nm": 10.0},
                      {"material": "Kryptonite", "thickness_nm": 10.0}]}
    with pytest.raises(SchemaError, match="layer 1"):
        parse_stack(doc)


def test_a_layer_of_unknown_material_fails_when_it_is_built():
    with pytest.raises(UnknownMaterialError, match="Kryptonite"):
        Layer("Kryptonite", 10.0)


def test_nonpositive_thickness_names_layer_index():
    doc = {"layers": [{"material": "InP", "thickness_nm": 0.0}]}
    with pytest.raises(SchemaError, match="layer 0"):
        parse_stack(doc)


def test_missing_field_rejected():
    with pytest.raises(SchemaError, match="thickness_nm"):
        parse_stack({"layers": [{"material": "InP"}]})


def test_two_layer_total_thickness_is_sum():
    stack = parse_stack({"layers": [
        {"material": "InP", "thickness_nm": 120.0},
        {"material": "InP", "thickness_nm": 80.0}]})
    assert stack.total_thickness_nm == 200.0


def test_uniform_layer_mesh_node_count():
    stack = LayerStack(layers=(Layer("InP", 100.0, donor_cm3=1e16),))
    mesh = build_mesh(stack, max_spacing=1.0, fine_spacing=1.0, refine_width=0.0)
    assert mesh.nodes.size == 101
    assert np.allclose(np.diff(mesh.nodes), 1.0)


def test_mesh_build_is_deterministic(reference_stack):
    a = build_mesh(reference_stack)
    b = build_mesh(reference_stack)
    assert a.nodes.tobytes() == b.nodes.tobytes()
    assert np.array_equal(a.node_layer, b.node_layer)


def test_interface_appears_exactly_once():
    stack = LayerStack(layers=(Layer("InP", 50.0), Layer("InAs", 30.0)))
    mesh = build_mesh(stack, max_spacing=3.0, fine_spacing=0.5, refine_width=5.0)
    assert np.count_nonzero(mesh.nodes == 50.0) == 1


def test_every_boundary_is_a_node(reference_stack, reference_mesh):
    for edge in reference_stack.boundaries_nm():
        assert np.any(reference_mesh.nodes == edge)


def test_spacing_contract(reference_stack):
    opts = dict(max_spacing=2.0, fine_spacing=0.25, refine_width=10.0)
    mesh = build_mesh(reference_stack, **opts)
    h = mesh.spacings()
    assert np.all(h <= opts["max_spacing"] * (1 + 1e-12))
    lo, hi = mesh.nodes[:-1], mesh.nodes[1:]
    for edge in reference_stack.boundaries_nm():
        overlap = (lo < edge + opts["refine_width"] - 1e-9) & \
                  (hi > edge - opts["refine_width"] + 1e-9)
        assert np.all(h[overlap] <= opts["fine_spacing"] * (1 + 1e-12))


def test_halving_spacing_never_moves_boundary_nodes(reference_stack):
    coarse = build_mesh(reference_stack, 2.0, 0.25, 10.0)
    fine = build_mesh(reference_stack, 1.0, 0.125, 10.0)
    edges = reference_stack.boundaries_nm()
    coarse_pos = coarse.nodes[np.isin(coarse.nodes, edges)]
    fine_pos = fine.nodes[np.isin(fine.nodes, edges)]
    assert np.array_equal(coarse_pos, fine_pos)


def test_bad_mesh_options_rejected(reference_stack):
    with pytest.raises(MeshOptionError):
        build_mesh(reference_stack, max_spacing=-1.0)
    with pytest.raises(MeshOptionError):
        build_mesh(reference_stack, max_spacing=1.0, fine_spacing=2.0)


def test_reference_doping_values(reference_stack, reference_mesh):
    nd, na = doping_profile(reference_stack, reference_mesh)
    x = reference_mesh.nodes
    assert nd[np.argmin(np.abs(x - 150.0))] == 2.0e18      # bottom contact
    assert nd[np.argmin(np.abs(x - 355.0))] == 7.0e14      # lower barrier
    assert nd[np.argmin(np.abs(x - 310.0))] == 2.0e15      # undoped spacer
    assert np.all(na == 0.0)


def test_interface_node_takes_the_substrate_side_doping(reference_stack, reference_mesh):
    nd, _ = doping_profile(reference_stack, reference_mesh)
    idx = int(np.flatnonzero(reference_mesh.nodes == 300.0)[0])
    assert nd[idx] == 2.0e18          # substrate side wins


def test_undoped_layer_has_only_declared_background():
    stack = parse_stack({"layers": [{"material": "InP", "thickness_nm": 50.0}]})
    mesh = build_mesh(stack, 2.0, 1.0, 5.0)
    nd, na = doping_profile(stack, mesh)
    assert np.all(nd == 0.0) and np.all(na == 0.0)


def test_sheet_density_accounting(reference_stack, reference_mesh):
    nd_el, na_el, _ = element_profile(reference_stack, reference_mesh)
    h = reference_mesh.spacings()
    integral = float(np.sum(nd_el * h))
    expected = sum(l.thickness_nm * l.donor_cm3 for l in reference_stack.layers)
    assert integral == pytest.approx(expected, rel=1e-12)


def test_profile_requires_matching_stack(reference_stack, reference_mesh):
    other = LayerStack(layers=(Layer("InP", 100.0, donor_cm3=1e17),))
    with pytest.raises(ProfileConsistencyError):
        doping_profile(other, reference_mesh)


def test_bundled_configs_validate_against_shipped_schemas():
    import json
    from importlib import resources

    jsonschema = pytest.importorskip("jsonschema")
    data = resources.files("dotdiode.data")
    pairs = [("device_fig1a.json", "device_schema.json"),
             ("reference_lines.json", "reference_lines_schema.json"),
             ("charge_ladder.json", "charge_ladder_schema.json")]
    for doc_name, schema_name in pairs:
        doc = json.loads(data.joinpath(doc_name).read_text())
        schema = json.loads(data.joinpath(schema_name).read_text())
        jsonschema.validate(doc, schema)
