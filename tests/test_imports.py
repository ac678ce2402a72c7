"""What a cold start loads, and the package's public names.

`import ptdirac` loads each submodule on first use of one of its names, and
each command imports only the modules it runs.  The fresh interpreters run
with warnings as errors and list what they imported with `-X importtime`.
"""
import importlib
import os
import subprocess
import sys

import pytest

import ptdirac

# The names `ptdirac/__init__.py` imported eagerly from each module, in its order.
EXPORTED = {
    "clifford": ["METRIC", "GammaSet", "Representation", "gamma_set",
                 "representation_change", "slash"],
    "kinematics": ["DispersionTable", "FourVector", "MassNotZero", "NonPhysicalMomentum",
                   "Species", "SpeedTriple", "ZeroMomentum", "boost", "dispersion_table",
                   "dual_momentum", "energy_from_momentum", "minkowski_dot", "speeds"],
    "observables": ["ExpectationReport", "MasslessSpecies", "energy_eigencheck",
                    "expectation_report", "hamiltonian", "mean_four_velocity",
                    "mean_spin_four_vector", "mean_velocity"],
    "spinors": ["PlaneWaveSpec", "TranscendentDivision", "amplitude", "convert_representation",
                "dirac_operator", "helicity_spinor", "normalization_factor",
                "proportionality_defect", "solution_residual", "wave_operator"],
    "symmetries": ["DiscreteKind", "apply_boost", "apply_discrete", "discrete_operator",
                   "first_order_covariance_residual", "lorentz_boost_spinor",
                   "lorentz_generator", "pct_phase", "pct_product"],
}
NAMES = [name for names in EXPORTED.values() for name in names]

SPEC = ["--species", "pt", "--momentum", "0.6,0,0.8", "--mass", "0.5"]
CORE = {"ptdirac", "ptdirac.cli", "ptdirac.clifford", "ptdirac.kinematics",
        "ptdirac.observables", "ptdirac.spinors"}


def loaded(*args: str) -> tuple[int, set[str]]:
    """Exit code and ptdirac modules of one fresh `python -W error` run."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-W", "error", "-X", "importtime", *args],
                          capture_output=True, text=True, env=env)
    modules = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:")}
    return proc.returncode, {m for m in modules if m.split(".")[0] == "ptdirac"}


@pytest.mark.parametrize("argv, code, extra", [
    (["expect", *SPEC], 0, set()),
    (["spinor", *SPEC], 0, set()),
    (["dispersion", "--mass", "3", "--eps-max", "10", "--steps", "11"], 0, {"ptdirac.gformat"}),
    (["transform", "--op", "P", *SPEC], 0, {"ptdirac.symmetries"}),
    (["verify", "--trials", "3"], 0, {"ptdirac.symmetries", "ptdirac.verify"}),
    (["verify", "--seed", "-1"], 2, set()),
], ids=["expect", "spinor", "dispersion", "transform", "verify", "verify-bad-seed"])
def test_each_command_loads_only_what_it_runs(argv, code, extra):
    assert loaded("-m", "ptdirac", *argv) == (code, CORE | extra)


def test_import_loads_no_submodule():
    assert loaded("-c", "import ptdirac") == (0, {"ptdirac"})


def test_from_import_still_finds_submodules():
    code, modules = loaded("-c", "from ptdirac import verify, gformat")
    assert code == 0
    assert {"ptdirac.verify", "ptdirac.gformat"} <= modules


def test_all_lists_the_exported_names():
    assert ptdirac.__all__ == NAMES


def test_each_name_is_the_object_in_its_home_module():
    for module, names in EXPORTED.items():
        home = importlib.import_module(f"ptdirac.{module}")
        for name in names:
            assert getattr(ptdirac, name) is getattr(home, name), name
            assert vars(ptdirac)[name] is getattr(home, name), name  # cached on first use


def test_dir_and_star_import_list_every_name():
    assert set(NAMES) <= set(dir(ptdirac))
    namespace = {}
    exec("from ptdirac import *", namespace)
    for name in NAMES:
        assert namespace[name] is getattr(ptdirac, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ptdirac.no_such_name
    assert not hasattr(ptdirac, "__no_such_dunder__")
