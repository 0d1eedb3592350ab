import inspect

import spinorlab
from spinorlab import dispersion, lattice, sections


def _defined_here(module) -> set[str]:
    """Public functions and classes a module defines itself."""
    return {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }


def test_every_export_resolves():
    assert len(set(spinorlab.__all__)) == len(spinorlab.__all__)
    missing = [name for name in spinorlab.__all__ if not hasattr(spinorlab, name)]
    assert not missing


def test_the_package_holds_only_its_exports_and_modules():
    public = {
        name
        for name, obj in vars(spinorlab).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert public == set(spinorlab.__all__)


def test_one_dispersion_api_and_an_oracle_only_lattice():
    # branch_energies is the one way to a branch energy or a gap; ModeSpec
    # stays unexported for the benchmark tracer's binding
    assert _defined_here(dispersion) == {
        "Branch",
        "BranchEnergies",
        "ModeSpec",
        "Preference",
        "Structure",
        "branch_energies",
        "default_degeneracy_tol",
        "preferred_branch",
        "signed_shift",
    }
    assert "ModeSpec" not in spinorlab.__all__
    assert _defined_here(lattice) == {
        "RingSpec",
        "Spectrum",
        "analytic_levels",
        "dirac_ring_spectrum",
        "mode_indices",
        "ring_spectrum",
    }


def test_sections_exports_one_bound_list():
    # map_checks is the one reader of the phase-map bounds; the bound
    # constants stay private
    assert sections.__all__ == [
        "SampledSection",
        "HalfWindingPhase",
        "half_phase",
        "to_standard",
        "to_exotic",
        "ring_derivative",
        "standard_dirac",
        "exotic_dirac",
        "intertwining_residual",
        "commutation_residual",
        "density_residual",
        "map_residuals",
        "kernel_residuals",
        "map_checks",
        "grid_norm",
        "random_band_limited_section",
        "plane_wave_section",
        "kernel_mode",
        "section_to_json",
        "section_from_json",
    ]
    assert _defined_here(sections) == set(sections.__all__)
    assert not {"MAP_TOL", "MAP_BOUNDS", "KERNEL_BOUNDS"} & set(vars(sections))
