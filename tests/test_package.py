import ast
import importlib
import inspect
from pathlib import Path

import spherelab

# Layer order, bottom up; each module's __all__ is the one list of its public names.
MODULES = ("legendre", "sphere", "quadrature", "harmonics", "random_bases", "beams", "experiments")

COLUMNS = (
    "SCALING_COLUMNS",
    "NORM_COLUMNS",
    "VERIFY_COLUMNS",
    "AVERAGE_L4_COLUMNS",
    "ENVELOPE_COLUMNS",
    "MONTE_CARLO_COLUMNS",
    "BEAM_EXPERIMENT_COLUMNS",
    "TUBE_RATIO_COLUMNS",
    "SUPERLEVEL_COLUMNS",
)

RETIRED = (
    "tube_mask",
    "arc_tube_masses",
    "entry_moment",
    "BeamFamily",
    "OrthonormalizationReport",
    "beam_count_rule",
    "synthesize_rings",
    "tube_mass",
    "TubeResolutionWarning",
    "_tube_points",
    "wallis_integral",
    "beam_overlap",
    "ExperimentRecord",
    "write_csv",
    "write_json",
    "timed",
    "SpherePoint",
    "GreatCircle",
    "_point",
    "_random_rotation",
    "_greedy_select",
    "circle_angle",
    "geodesic_distance",
    "lp_norm",
    "_lq_norm",
)


def test_package_surface():
    modules = [importlib.import_module(f"spherelab.{name}") for name in MODULES]
    assert spherelab.__all__ == ["__version__"] + [name for m in modules for name in m.__all__]
    assert len(set(spherelab.__all__)) == len(spherelab.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(spherelab, name) is getattr(module, name), name
    assert set(COLUMNS) <= set(spherelab.__all__)
    assert set(COLUMNS) == {name for name in vars(spherelab.experiments) if name.endswith("_COLUMNS")}
    for name in RETIRED:
        assert name not in spherelab.__all__
        assert not any(hasattr(module, name) for module in (spherelab, *modules))


def test_retired_members_are_gone():
    members = {
        spherelab.QuadratureGrid: ("phi", "to_json"),
        spherelab.HarmonicField: ("label", "k", "l2_norm"),
    }
    for cls, names in members.items():
        for name in names:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    assert "validate" not in inspect.signature(spherelab.CoefficientBasis).parameters
    assert "grid" not in inspect.signature(spherelab.orthonormalize).parameters
    assert "j_rule" not in inspect.signature(spherelab.beam_experiment).parameters
    assert "seed" not in inspect.signature(spherelab.place_separated_axes).parameters
    assert "max_points" not in inspect.signature(spherelab.build_grid).parameters
    assert "label" not in inspect.signature(spherelab.coefficient_field).parameters
    assert list(inspect.signature(spherelab.HarmonicField).parameters) == ["grid", "values"]
    arc_parameters = inspect.signature(spherelab.arc_selections).parameters
    assert list(arc_parameters) == ["grid", "axis", "width"]


def _package_imports(source: str) -> set:
    """Package modules that source imports by ``from .name import`` or ``from . import name``."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [alias.name for alias in node.names] if node.module is None else [node.module]
            imported |= {name.split(".")[0] for name in names}
    return imported


def test_package_import_rule_catches_what_it_should():
    source = "import numpy\nfrom .sphere import _as_unit\nfrom . import legendre, beams\n"
    assert _package_imports(source) == {"sphere", "legendre", "beams"}
    assert _package_imports("from numpy.linalg import norm\nimport spherelab\n") == set()


def test_each_module_imports_only_the_layers_below_it():
    # cli sits on top of the package and may import any of it
    package = Path(spherelab.__file__).parent
    for i, name in enumerate(MODULES):
        above = _package_imports((package / f"{name}.py").read_text()) - set(MODULES[:i])
        assert above == set(), f"{name} imports {sorted(above)}"


def _unused_imports(source: str) -> list:
    """Module-level imports of source that no name load, attribute root or __all__ entry uses."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in used)


def test_unused_import_rule_catches_what_it_should():
    source = "import os\nimport sys as system\nfrom math import pi, tau\nprint(pi)\n"
    assert _unused_imports(source) == ["line 1: os", "line 2: system", "line 3: tau"]
    used = "import numpy as np\nfrom .x import *\nfrom .v import V\n__all__ = ['V']\nnp.pi\n"
    assert _unused_imports(used) == []


def test_package_has_no_unused_imports():
    package = Path(spherelab.__file__).parent
    unused = {path.name: _unused_imports(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in unused.items() if lines} == {}


# Defaulted parameters no call in the package sets.  beam_coefficients' grid
# is ignored; bench/worker.py still passes it until the bench stops doing so.
UNSET_KNOB_EXCEPTIONS = ("beam_coefficients.grid",)


def _unset_knobs(functions: dict, sources) -> list:
    """``name.param`` for each defaulted parameter of functions that no call in sources passes.

    A call matches by the called name, bare or as an attribute; it passes a
    parameter by keyword, or by position when it has more positional
    arguments (starred ones not counted) than the parameters before it.
    """
    passed = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                args = passed.setdefault(name, set())
                args.add(sum(not isinstance(arg, ast.Starred) for arg in node.args))
                args |= {keyword.arg for keyword in node.keywords}
    unset = []
    for name, function in functions.items():
        calls = passed.get(name, set())
        positional = max((n for n in calls if isinstance(n, int)), default=0)
        for i, param in enumerate(inspect.signature(function).parameters.values()):
            by_position = param.kind != param.KEYWORD_ONLY and i < positional
            if param.default is not param.empty and param.name not in calls and not by_position:
                unset.append(f"{name}.{param.name}")
    return unset


def test_unset_knob_rule_catches_what_it_should():
    def knobs(a, b=1, *, c=2):
        pass

    def other(x=0):
        pass

    functions = {"knobs": knobs, "other": other}
    assert _unset_knobs(functions, ["knobs(1, 2)\nother(*xs)\n"]) == ["knobs.c", "other.x"]
    assert _unset_knobs(functions, ["knobs(1, c=3)\n", "m.other(5)\n"]) == ["knobs.b"]
    assert _unset_knobs(functions, ["knobs(1, 2, c=3)\nother(x=1)\n"]) == []


def test_every_public_knob_has_a_caller():
    package = Path(spherelab.__file__).parent
    functions = {}
    for name in MODULES:
        module = importlib.import_module(f"spherelab.{name}")
        functions.update(
            (member, getattr(module, member))
            for member in module.__all__
            if inspect.isfunction(getattr(module, member))
        )
    sources = [path.read_text() for path in sorted(package.glob("*.py"))]
    assert _unset_knobs(functions, sources) == list(UNSET_KNOB_EXCEPTIONS)


# Public names no code in the package uses: bench/worker.py calls all three until
# the bench keeps its own round-trip oracle and Gaussian-limit check.
UNCALLED_PUBLIC_EXCEPTIONS = ("beam_field", "coefficient_field", "gaussian_limit_check")


def _uncalled(names, sources) -> list:
    """The names no statement of sources uses, outside the statement that defines the name.

    A use is a name load or an attribute of that name; import lines and
    ``__all__`` strings are not uses.
    """
    used = set()
    for source in sources:
        for node in ast.parse(source).body:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            defined = {getattr(node, "name", None)} | {getattr(t, "id", None) for t in targets}
            for child in ast.walk(node):
                if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                    used |= {child.id} - defined
                elif isinstance(child, ast.Attribute):
                    used |= {child.attr} - defined
    return [name for name in names if name not in used]


def test_uncalled_public_name_rule_catches_what_it_should():
    sources = [
        "def f(n):\n    return f(n - 1)\n\n\ndef g():\n    return h\n",
        "from .a import f, g\n__all__ = ['f', 'g']\nX = 1\nY = m.X\n",
    ]
    assert _uncalled(["f", "g", "h", "X", "Y"], sources) == ["f", "g", "Y"]
    assert _uncalled(["f"], sources + ["print(f)\n"]) == []


def test_every_public_name_has_a_caller():
    package = Path(spherelab.__file__).parent
    modules = [importlib.import_module(f"spherelab.{name}") for name in MODULES]
    names = [name for module in modules for name in module.__all__]
    sources = [path.read_text() for path in sorted(package.glob("*.py"))]
    assert _uncalled(names, sources) == list(UNCALLED_PUBLIC_EXCEPTIONS)
