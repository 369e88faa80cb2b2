"""Physical constants, CODATA 2018 values to 6 significant figures.

Unit conventions used throughout the package:
  lengths   nm in user-facing APIs, cm inside the solvers
  energies  eV
  densities cm^-3
  fields    V/cm (solvers) or kV/cm (Stark-shift APIs)
"""

Q_E = 1.602177e-19        # elementary charge [C]
K_B_EV = 8.617333e-5      # Boltzmann constant [eV/K]
EPS_0 = 8.854188e-14      # vacuum permittivity [F/cm]

HC_EV_NM = 1239.841984    # h*c [eV nm], for energy <-> wavelength
NM_TO_CM = 1.0e-7

# Effective density of states prefactor: Nc = NC300 * (m*/m0 * T/300)^(3/2),
# evaluated from 2*(2*pi*m0*kB*300/h^2)^(3/2) in cm^-3.
NC_PREFACTOR_300K = 2.509412e19


def thermal_voltage(temperature):
    """kT/q in volts."""
    return K_B_EV * temperature


def effective_dos(mass_rel, temperature):
    """Effective density of states [cm^-3] for a parabolic band."""
    return NC_PREFACTOR_300K * (mass_rel * temperature / 300.0) ** 1.5
