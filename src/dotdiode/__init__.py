"""dotdiode: 1D gated quantum-dot diode simulator and spectroscopy toolkit."""

__version__ = "0.1.0"

from .materials import lookup_material, band_offsets, mobility
from .device import (Layer, LayerStack, parse_stack, build_mesh, doping_profile,
                     load_reference_stack)
from .electrostatics import (BandDiagram, fermi_half, solve_bias, band_sweep,
                             field_lever_arm)
from .transport import IVPoint, IVCurve, iv_sweep
from .qd_model import (ExcitonLine, FssModel, ChargeLadder, stark_energy,
                       stark_wavelength, tuning_range, fss_at, occupancy_at,
                       synth_emission_map, load_reference_lines,
                       load_charge_ladder)
from .spectro_fit import (Spectrum, PeakFit, G2Trace, DecayTrace, FitResult,
                          fit_peaks, extract_fss, fit_power_law, fit_g2,
                          fit_lifetime)

__all__ = [
    "__version__",
    "lookup_material", "band_offsets", "mobility",
    "Layer", "LayerStack", "parse_stack", "build_mesh", "doping_profile",
    "load_reference_stack",
    "BandDiagram", "fermi_half", "solve_bias", "band_sweep", "field_lever_arm",
    "IVPoint", "IVCurve", "iv_sweep",
    "ExcitonLine", "FssModel", "ChargeLadder", "stark_energy",
    "stark_wavelength", "tuning_range", "fss_at", "occupancy_at",
    "synth_emission_map", "load_reference_lines", "load_charge_ladder",
    "Spectrum", "PeakFit", "G2Trace", "DecayTrace", "FitResult",
    "fit_peaks", "extract_fss", "fit_power_law", "fit_g2", "fit_lifetime",
]
