"""The package namespace as the introspecting tests and tools see it, and
a public surface in which every name, and every method and property of
a public class, has a caller in the package or a written reason to be
public without one."""

import ast
import importlib
import inspect
import types
from pathlib import Path

import betajacobi

SRC = Path(betajacobi.__file__).resolve().parent

# the modules whose __all__ makes up the package's (errors holds the
# exception types); cli and acceptance are reached through the CLI
LAYERS = ("coeffs", "spectral", "hypergeom", "analytic", "ensemble", "dynamics", "errors")

# public names with no caller in the package, each with why it stays public
REASONS = {
    "empirical_measure": "one sampled spectrum as a measure: the public "
    "one-trial form of the `sample` kernel, which the benchmark's warm-up "
    "calls (bench/worker.py)",
    "sample_model": "the paper's matrix model B, and the only public draw "
    "of the bidiagonal factor",
}

# public methods and properties with no caller in the package, as
# "Class.member", each with why it stays public
MEMBER_REASONS: dict = {}


def _public_names() -> set:
    return set(betajacobi.__all__) - {"__version__"}


def _called_names() -> set:
    """Names loaded anywhere in src/betajacobi/*.py but __init__.py,
    outside the top-level def or class that defines the same name; an
    import or an __all__ string is no caller."""
    called = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id != own:
                        called.add(node.id)
    return called


def _attribute_loads(tree, module: str) -> set:
    """(name, module, top-level class or None) of every attribute load in
    tree that is not on an imported module (np.size is no caller)."""
    modules = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    loads = set()
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, ast.ClassDef) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                on = node.value
                if not (isinstance(on, ast.Name) and on.id in modules):
                    loads.add((node.attr, module, owner))
    return loads


def _callerless_members(classes, loads) -> set:
    """"Class.member" for every function and property, its name without a
    leading underscore, in the own vars() of each of classes (dataclass
    fields are neither) that no load in loads reads outside its class."""
    return {
        f"{cls.__name__}.{name}"
        for cls in classes
        for name, obj in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or isinstance(obj, property))
        and not any(
            attr == name and (module, owner) != (cls.__module__, cls.__name__)
            for attr, module, owner in loads
        )
    }


def test_public_callables_are_plain_functions():
    # the option, count and real-input walks (tests/test_counts.py,
    # tests/test_reals.py) and the benchmark's span tracer pick functions
    # out of __all__ with inspect.isfunction; a decorated public name (a
    # functools.lru_cache wrapper, say) would drop out of all of them
    for name in betajacobi.__all__:
        obj = getattr(betajacobi, name)
        if callable(obj) and not inspect.isclass(obj):
            assert inspect.isfunction(obj), name


def test_every_public_name_has_a_caller_or_a_reason():
    callerless = _public_names() - _called_names()
    missing = sorted(callerless - set(REASONS))
    assert not missing, f"public names with no caller in the package: {missing}"


def test_no_stale_reason():
    # a reason goes once its name gains a caller or stops being public
    stale = sorted(set(REASONS) - (_public_names() - _called_names()))
    assert not stale, f"REASONS entries for names that are called or gone: {stale}"


def test_layer_all_entries_resolve():
    # bench/spans.public_functions calls getattr on every entry of the
    # layer modules' __all__; one stale entry would crash a traced run
    for layer in LAYERS:
        mod = importlib.import_module(f"betajacobi.{layer}")
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"betajacobi.{layer}.__all__ names nothing for {missing}"


def test_package_all_is_the_union_of_the_layers():
    # constants (upper-case names) stay in their module's namespace
    layers = set()
    for layer in LAYERS:
        mod = importlib.import_module(f"betajacobi.{layer}")
        layers |= {name for name in mod.__all__ if not name.isupper()}
    assert len(betajacobi.__all__) == len(set(betajacobi.__all__))
    assert _public_names() == layers
    for name in layers:
        assert hasattr(betajacobi, name), name


def _leaked(package) -> list:
    """Public attributes of package that are none of: a name in its
    __all__, a betajacobi submodule, an upper-case name of a layer's
    __all__ (the constants, bound but not republished)."""
    constants = {
        name
        for layer in LAYERS
        for name in importlib.import_module(f"betajacobi.{layer}").__all__
        if name.isupper()
    }
    return sorted(
        name
        for name, obj in vars(package).items()
        if not name.startswith("_")
        and name not in package.__all__
        and name not in constants
        and not (inspect.ismodule(obj) and obj.__name__ == f"betajacobi.{name}")
    )


def test_package_binds_nothing_but_the_layers_public_names():
    # every public attribute of the package is declared by a layer's
    # __all__ or is a submodule: a name bound in __init__ itself, or by
    # a wildcard import of a module without __all__ (math, np, ...),
    # fails.  The check is not blind: the namespace with hypergeom's
    # wildcard taken as if it had no __all__
    from betajacobi import hypergeom

    planted = types.ModuleType("betajacobi")
    vars(planted).update(vars(betajacobi))
    vars(planted).update({k: v for k, v in vars(hypergeom).items() if not k.startswith("_")})
    assert {"cmath", "math"} <= set(_leaked(planted))
    assert not _leaked(betajacobi), f"package attributes outside __all__: {_leaked(betajacobi)}"


# the one-order forms of the moment rows: a caller that wants a sequence
# m_0..m_K takes the row (spectral._operator_moments,
# ensemble._exact_moments), one pass, not one pass per order
PER_ORDER = {"moment11", "exact_moment"}
_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _per_order_calls_in_loops(tree) -> list:
    """(name, line) of every call of a PER_ORDER name inside a loop or a
    comprehension of tree."""
    found = []

    def walk(node, looped):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if looped and name in PER_ORDER:
                found.append((name, node.lineno))
        for child in ast.iter_child_nodes(node):
            walk(child, looped or isinstance(node, _LOOPS))

    walk(tree, False)
    return found


def test_per_order_moment_calls_stay_out_of_loops():
    # the walk is not blind: the per-order loops the row replaced
    planted = (
        "for k in range(13):\n    op = moment11(kind, p, k)\n"
        "ref = [spectral.moment11(kind, p, k) for k in range(5)]\n"
        "devs = {n: [exact_moment(n, 1.0 / n, a, b, k) for k in ks] for n in ns}\n"
        "one = moment11(kind, p, 3)\n"
    )
    assert _per_order_calls_in_loops(ast.parse(planted)) == [
        ("moment11", 2), ("moment11", 3), ("exact_moment", 4),
    ]
    found = {
        path.name: calls
        for path in sorted(SRC.glob("*.py"))
        if (calls := _per_order_calls_in_loops(ast.parse(path.read_text())))
    }
    assert not found, f"per-order moment calls in a loop; take the row: {found}"


def test_every_public_member_has_a_caller_or_a_reason():
    # the walk is not blind: a method read only inside its own class, a
    # property read only as a module attribute, a method with an outside
    # caller and a dataclass field no one reads
    planted = (
        "import dataclasses\n"
        "import numpy as np\n"
        "@dataclasses.dataclass\n"
        "class Box:\n"
        "    values: list\n"
        "    def lonely(self):\n        return self.size\n"
        "    @property\n    def size(self):\n        return np.size(self.values)\n"
        "    def used(self):\n        return self.lonely()\n"
        "def caller(box):\n    return box.used()\n"
    )
    space = {"__name__": "planted"}
    exec(compile(planted, "planted", "exec"), space)
    loads = _attribute_loads(ast.parse(planted), "planted")
    assert _callerless_members([space["Box"]], loads) == {"Box.lonely", "Box.size"}
    classes = [obj for name in _public_names() if inspect.isclass(obj := getattr(betajacobi, name))]
    loads = set()
    for path in sorted(SRC.glob("*.py")):
        loads |= _attribute_loads(ast.parse(path.read_text()), f"betajacobi.{path.stem}")
    callerless = _callerless_members(classes, loads)
    missing = sorted(callerless - set(MEMBER_REASONS))
    assert not missing, f"public members with no caller in the package: {missing}"
    stale = sorted(set(MEMBER_REASONS) - callerless)
    assert not stale, f"MEMBER_REASONS entries for members that are called or gone: {stale}"
