"""Plane-wave mechanics of spin-1/2 pseudotachyons and ordinary Dirac particles.

Pseudotachyons carry a spacelike four-momentum (p^2 = -m^2) yet move at
subluminal mean velocity: the velocity operator is alpha, and its plane-wave
expectation is the dual eps p / k^2 of the classical p/eps, with magnitude
below c.  The package constructs every closed-form plane-wave amplitude of
both theories in the standard and Weyl bases, their discrete symmetry
operators, Lorentz spinor maps, expectation values, and dispersion laws, each
backed by machine-verifiable residual suites (see ``ptdirac.verify`` and the
``ptdirac`` command line).

Each name below is imported from its module on first access (PEP 562), so
``import ptdirac`` loads no submodule until one of its names is used.
"""
import importlib

_EXPORTS = {
    "clifford": ("METRIC", "GammaSet", "Representation", "gamma_set",
                 "representation_change", "slash"),
    "kinematics": ("DispersionTable", "FourVector", "MassNotZero", "NonPhysicalMomentum",
                   "Species", "SpeedTriple", "ZeroMomentum", "boost", "dispersion_table",
                   "dual_momentum", "energy_from_momentum", "minkowski_dot", "speeds"),
    "observables": ("ExpectationReport", "MasslessSpecies", "constraint_residuals",
                    "energy_eigencheck", "expectation_report", "hamiltonian",
                    "mean_four_velocity", "mean_spin_four_vector", "mean_velocity"),
    "spinors": ("NormalizationContext", "PlaneWaveSpec", "TranscendentDivision", "amplitude",
                "convert_representation", "dirac_operator", "helicity_spinor",
                "normalization_factor", "proportionality_defect", "solution_residual",
                "wave_operator"),
    "symmetries": ("DiscreteKind", "Sector", "SymmetryMatrix", "apply_boost", "apply_discrete",
                   "discrete_operator", "first_order_covariance_residual",
                   "lorentz_boost_spinor", "lorentz_generator", "pct_phase", "pct_product"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
