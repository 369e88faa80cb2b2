"""Device description, 1D mesh generation and doping/permittivity profiles.

A device is an ordered stack of layers, substrate side first. Stacks load
from JSON (schema below) through ``load_reference_stack``, which reads the
bundled ``device_fig1a.json``, the golden reference input used throughout
the test suite, or a user file. Each fact is checked once, where it is
built: ``Layer`` checks its material name against the database and its
numbers, ``LayerStack`` the layer count and the device temperature.

JSON schema::

    {
      "name": str (optional),
      "temperature_K": number,
      "layers": [
        {"material": str, "thickness_nm": number > 0,
         "donor_cm3": number >= 0, "acceptor_cm3": number >= 0,
         "label": str (optional)},
        ...
      ]
    }

Meshes place a node exactly on every layer boundary; spacing is at most
``fine_spacing`` within ``refine_width`` of any boundary (including the two
device ends) and at most ``max_spacing`` elsewhere. Construction is pure
arithmetic on the layer table, so repeated builds are byte-identical and
halving the spacings never moves boundary nodes.

Profile conventions: quantities are piecewise constant per layer. Node
arrays hold only doping, sampled with a substrate-side tie-break at
interface nodes; the element arrays (one value per mesh interval, taken
from the layer containing the interval) carry the permittivity too, are the
authoritative accounting, and integrate to the exact layer sheet densities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dataio
from .materials import T_MAX, lookup_material, UnknownMaterialError

DOPED_CONTACT_THRESHOLD = 1.0e17  # cm^-3; layers at or above count as contacts
MAX_MESH_NODES = 100_000          # 60x the reference mesh's 1,628 nodes
_STACK_SCHEMA = {"name?": str, "temperature_K?": float, "layers": [{
    "material": str, "thickness_nm": float, "donor_cm3?": float, "acceptor_cm3?": float,
    "label?": str}]}


class SchemaError(ValueError):
    """Raised for malformed device configuration documents."""


class MeshOptionError(ValueError):
    """Raised for invalid mesh spacing options."""


class ProfileConsistencyError(ValueError):
    """Raised when a mesh does not belong to the given stack."""


@dataclass(frozen=True)
class Layer:
    material: str
    thickness_nm: float
    donor_cm3: float = 0.0
    acceptor_cm3: float = 0.0
    label: str = ""

    def __post_init__(self):
        lookup_material(self.material)      # UnknownMaterialError unless in the database
        for name in ("thickness_nm", "donor_cm3", "acceptor_cm3"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"layer {name} must be finite, got {value}")
        if self.thickness_nm <= 0:
            raise ValueError("layer thickness must be positive")
        if self.donor_cm3 < 0 or self.acceptor_cm3 < 0:
            raise ValueError("doping densities must be non-negative")


@dataclass(frozen=True)
class LayerStack:
    layers: tuple[Layer, ...]
    temperature: float = 300.0
    name: str = ""

    def __post_init__(self):
        if not self.layers:
            raise ValueError("'layers' list must not be empty")
        if not 0.0 < self.temperature <= T_MAX:
            raise ValueError(
                f"device temperature {self.temperature} K outside (0, {T_MAX}] K")

    @property
    def total_thickness_nm(self):
        return float(sum(l.thickness_nm for l in self.layers))

    def boundaries_nm(self):
        """Positions of all layer boundaries, ends included (len = n_layers+1)."""
        return np.concatenate([[0.0], np.cumsum([l.thickness_nm for l in self.layers])])


def parse_stack(doc, where="device"):
    """Build a validated LayerStack from the parsed JSON document `doc`.

    Schema violations raise SchemaError naming `where` (the file) and the
    offending field, with its layer index.
    """
    try:
        dataio.check_json(doc, _STACK_SCHEMA, where)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    layers = []
    for idx, entry in enumerate(doc["layers"]):
        try:
            layers.append(Layer(
                material=entry["material"],
                thickness_nm=float(entry["thickness_nm"]),
                donor_cm3=float(entry.get("donor_cm3", 0.0)),
                acceptor_cm3=float(entry.get("acceptor_cm3", 0.0)),
                label=entry.get("label", ""),
            ))
        except (UnknownMaterialError, ValueError) as exc:
            raise SchemaError(f"{where}: layer {idx}: {exc.args[0]}") from None
    try:
        return LayerStack(layers=tuple(layers), name=doc.get("name", ""),
                          temperature=float(doc.get("temperature_K", 300.0)))
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def load_reference_stack(path=None):
    """The bundled reference diode configuration (device_fig1a.json), or the
    device file at `path`. A malformed file raises ValueError naming it."""
    return parse_stack(*dataio.load_json(path, "device_fig1a.json"))


@dataclass(frozen=True)
class Mesh1D:
    """Strictly increasing node positions [nm] with layer bookkeeping.

    `node_layer` assigns each node to a layer with the substrate-side
    tie-break at boundaries (a boundary node belongs to the layer below
    it); `element_layer` assigns each interval to its containing layer.
    """

    nodes: np.ndarray
    node_layer: np.ndarray
    element_layer: np.ndarray
    stack_fingerprint: tuple = field(repr=False, default=())

    def spacings(self):
        return np.diff(self.nodes)


def _stack_fingerprint(stack):
    return tuple((l.material, l.thickness_nm, l.donor_cm3, l.acceptor_cm3)
                 for l in stack.layers) + (stack.temperature,)


def build_mesh(stack, max_spacing=2.0, fine_spacing=0.125, refine_width=10.0):
    """Generate a graded mesh for `stack` (all options in nm).

    Every layer boundary becomes a node. Intervals within `refine_width`
    of a boundary use `fine_spacing`, the rest `max_spacing`. On the
    reference diode at 0 V, halving both default spacings once changes Ec
    by at most 0.635 meV, which a mesh-halving test holds below 1 meV. The
    error converges only at first order, so the defaults differ from a 16x
    refined mesh by about 1.2 meV (at the n+/n++ doping step). The heavily
    doped contact junctions set the fine spacing, their Debye length being
    ~1.5 nm.
    Raises MeshOptionError, before any node is placed, if the mesh would
    have more than ``MAX_MESH_NODES`` nodes.
    """
    if not (0 < max_spacing < np.inf and 0 < fine_spacing < np.inf):
        raise MeshOptionError("spacings must be finite and positive")
    if fine_spacing > max_spacing:
        raise MeshOptionError("fine_spacing must not exceed max_spacing")
    if not 0 <= refine_width < np.inf:
        raise MeshOptionError("refine_width must be finite and non-negative")

    edges = stack.boundaries_nm()
    segments = []                       # (start, end, intervals), counted as floats
    for k in range(len(edges) - 1):
        x0, x1 = edges[k], edges[k + 1]
        cuts = sorted({x0, min(x0 + refine_width, x1), max(x1 - refine_width, x0), x1})
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b <= a:
                continue
            near_boundary = (a < x0 + refine_width - 1e-12) or (b > x1 - refine_width + 1e-12)
            h = fine_spacing if near_boundary else max_spacing
            segments.append((a, b, max(1.0, np.ceil((b - a) / h - 1e-12))))
    count = 1.0 + sum(nsub for *_, nsub in segments)
    if not count <= MAX_MESH_NODES:
        raise MeshOptionError(
            f"max_spacing {max_spacing} nm, fine_spacing {fine_spacing} nm and refine_width "
            f"{refine_width} nm over the {stack.total_thickness_nm:g} nm stack give "
            f"{count:.4g} mesh nodes, above the cap of {MAX_MESH_NODES}")
    nodes = [0.0]
    for a, b, nsub in segments:
        nodes.extend(np.linspace(a, b, int(nsub) + 1)[1:].tolist())
    nodes = np.asarray(nodes)         # linspace ends each segment on its end exactly

    node_layer = np.searchsorted(edges, nodes, side="left") - 1
    node_layer[0] = 0
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    element_layer = np.searchsorted(edges, mids, side="left") - 1

    mesh = Mesh1D(nodes=nodes, node_layer=node_layer, element_layer=element_layer,
                  stack_fingerprint=_stack_fingerprint(stack))
    _check_mesh(mesh, stack, max_spacing, fine_spacing, refine_width)
    return mesh


def _check_mesh(mesh, stack, max_spacing, fine_spacing, refine_width):
    h = mesh.spacings()
    if np.any(h <= 0):
        raise AssertionError("mesh nodes are not strictly increasing")
    if np.any(h > max_spacing * (1 + 1e-9)):
        raise AssertionError("max_spacing violated")
    edges = stack.boundaries_nm()
    lo, hi = mesh.nodes[:-1], mesh.nodes[1:]
    near = np.zeros_like(h, dtype=bool)
    for e in edges:
        near |= (lo < e + refine_width - 1e-9) & (hi > e - refine_width + 1e-9)
    if np.any(h[near] > fine_spacing * (1 + 1e-9)):
        raise AssertionError("fine_spacing violated near an interface")
    for e in edges:
        if not np.any(mesh.nodes == e):
            raise AssertionError(f"layer boundary {e} nm is not a mesh node")


def _layer_table(stack, mesh):
    """Per-layer (N_D, N_A, eps_r) arrays of `stack`, which `mesh` must belong to."""
    if mesh.stack_fingerprint != _stack_fingerprint(stack):
        raise ProfileConsistencyError("mesh was not built from this stack")
    return (np.array([l.donor_cm3 for l in stack.layers]),
            np.array([l.acceptor_cm3 for l in stack.layers]),
            np.array([lookup_material(l.material, stack.temperature).eps_r
                      for l in stack.layers]))


def doping_profile(stack, mesh):
    """Per-node (N_D, N_A) arrays sampled from the layer table.

    Doping at interface nodes takes the substrate-side layer's value. For
    exact integrals use element_profile, whose values integrate to
    sum(thickness * density) per layer to < 1e-12 relative.
    """
    nd_layer, na_layer, _ = _layer_table(stack, mesh)
    return nd_layer[mesh.node_layer], na_layer[mesh.node_layer]


def element_profile(stack, mesh):
    """Per-element (N_D, N_A, eps_r) arrays from the containing layer."""
    nd_layer, na_layer, eps_layer = _layer_table(stack, mesh)
    el = mesh.element_layer
    return nd_layer[el], na_layer[el], eps_layer[el]
