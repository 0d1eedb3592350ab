import ast
import dataclasses
import inspect
import re
import subprocess
import sys
from pathlib import Path

import spinorlab
from spinorlab import chains, dispersion, lattice, sections, winding


def _defined_here(module) -> set[str]:
    """Public functions and classes a module defines itself."""
    return {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }


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
        "energy",
        "preferred_branch",
        "signed_shift",
    }
    assert _defined_here(lattice) == {
        "RingSpec",
        "analytic_levels",
        "mode_indices",
        "ring_modes",
        "ring_spectrum",
    }


def test_a_winding_gradient_is_k_and_its_shift_coefficient():
    # no free holonomy rides along: holonomy(theta) computes it from the
    # angle field, and shift_coefficient is the one conversion s -> c
    fields = [field.name for field in dataclasses.fields(winding.WindingGradient)]
    assert fields == ["k", "scale"]
    assert _defined_here(winding) == {
        "ThetaField",
        "WindingGradient",
        "build_theta",
        "circuit_increments",
        "gradient_field",
        "holonomy",
        "involute",
        "involuted",
        "pointwise_gradient",
        "shift_coefficient",
        "wrap_angle",
    }


def test_chains_holds_no_context_type():
    # an involution mirrors the active table, so no type carries a field,
    # momentum and tol to re-derive it
    assert _defined_here(chains) == {"ChainEvent", "ChainStep", "run_chain", "select_table"}


def test_sections_exports_one_bound_list():
    # map_checks is the one reader of the phase-map bounds; the bound
    # constants stay private, and the half phase lives on ThetaField
    assert _defined_here(sections) == {
        "SampledSection",
        "commutation_residual",
        "density_residual",
        "dirac",
        "grid_norm",
        "intertwining_residual",
        "kernel_mode",
        "map_checks",
        "plane_wave_section",
        "random_band_limited_section",
        "ring_derivative",
        "section_from_json",
        "section_to_json",
        "to_exotic",
        "to_standard",
    }
    assert not {"MAP_TOL", "MAP_BOUNDS", "KERNEL_BOUNDS"} & set(vars(sections))


# the message text of each rule that errors owns, as a string literal or the
# literal part of an f-string ends with it
_RULE_TEXT = re.compile(
    r"must be (finite|finite and non-negative|positive and finite|a 3-vector"
    r"|non-negative|an integer|positive and finite, got )$"
)


def _rule_texts(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and _RULE_TEXT.search(node.value)
    ]


def test_each_shared_rule_is_worded_only_in_errors():
    package = Path(spinorlab.__file__).parent
    restated = {
        path.name: _rule_texts(path)
        for path in sorted(package.glob("*.py"))
        if path.name != "errors.py"
    }
    assert {name: texts for name, texts in restated.items() if texts} == {}
    # the scan sees the rules where they are worded
    assert len(_rule_texts(package / "errors.py")) == 7


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads or lists in __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        node.value
        for assign in tree.body
        if isinstance(assign, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in assign.targets)
        for node in ast.walk(assign.value)
        if isinstance(node, ast.Constant)
    }
    return sorted(imported - read - exported)


def test_no_module_imports_a_name_it_does_not_use():
    # no linter runs on the package, so this scan stands in for its unused-import rule
    package = Path(spinorlab.__file__).parent
    unused = {
        path.name: _unused_imports(path.read_text()) for path in sorted(package.glob("*.py"))
    }
    assert {name: names for name, names in unused.items() if names} == {}
    # the scan sees an unused import, a dotted one and an aliased one
    source = "import math\nimport os.path\nfrom numpy import pi as p, e\nprint(e)\n"
    assert _unused_imports(source) == ["math", "os", "p"]


def _fresh(script: str) -> str:
    """stdout of script run in an isolated interpreter that sees this package."""
    source = str(Path(spinorlab.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {source!r})\n{script}"],
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


def test_errors_loads_without_numpy():
    # magma imports only errors, so errors must not pull numpy in at load
    # time; the validators that take arrays import it when they run
    script = (
        "from spinorlab import errors, magma\n"
        "errors.check_circumference(1.0); errors.as_winding(2.0)\n"
        """table = magma.from_json('{"carrier": ["e", "g"], "table": [[0, 1], [1, 0]]}')\n"""
        "assert magma.analyze(table).is_group and magma.compose(table, 'g', 'g') == 'e'\n"
        "print('numpy' in sys.modules)\n"
    )
    assert _fresh(script) == "False\n"


def test_the_package_loads_no_module_and_cli_loads_numpy():
    # the package namespace re-exports nothing; cli imports numpy at load,
    # which the benchmark's import-time trace reads
    loaded = "print(sorted(sys.modules.keys() & {'numpy', 'spinorlab.magma'}))\n"
    assert _fresh("import spinorlab\n" + loaded) == "[]\n"
    assert _fresh("import spinorlab.cli\n" + loaded) == "['numpy', 'spinorlab.magma']\n"
