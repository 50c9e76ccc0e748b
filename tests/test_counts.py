"""One input policy for counts: every size, order, degree, depth, trial
and thread count of the public API accepts ints, numpy integers and
integral floats alike, and rejects a non-integral, non-finite,
too-small or too-large value with ParameterError; every bound is an
argument of errors.as_count.  And no dead options: every public
parameter with a default is set by some caller in the package."""

import argparse
import ast
import dataclasses
import enum
import importlib
import inspect
import pathlib
import re

import numpy as np
import pytest

import betajacobi as bj
from betajacobi import JacobiParams, ModelKind, ParameterError, cli

P = JacobiParams(0.3, 0.7, 1.2)
K = ModelKind.ASSOC_III
CFG = bj.EnsembleConfig(3, 2.0, 0.5, 0.5)


def _simulate(n=3, paths=4, k_max=2, seed=1):
    return bj.simulate_moments(n, 0.5, 0.5, 0.5, 0.5, 0.01, 0.005, paths, k_max, seed=seed)


# "callable.parameter" -> (call with the count, smallest admissible count,
# a valid count)
COUNTS = {
    "tridiag_entries.size": (lambda v: bj.tridiag_entries(K, P, v), 1, 4),
    "jacobi_matrix.size": (lambda v: bj.jacobi_matrix(K, P, v), 1, 4),
    "moment11.k": (lambda v: bj.moment11(K, P, v), 0, 3),
    "gauss_quadrature.m": (lambda v: bj.gauss_quadrature(K, P, v), 1, 3),
    "DiscreteMeasure.moment.k": (
        lambda v: bj.gauss_quadrature(K, P, 3).moment(v), 0, 2
    ),
    "stieltjes_cf.depth": (
        lambda v: bj.stieltjes_cf(K, P, 2.0 + 0.5j, depth=v, warn_tol=None), 2, 40
    ),
    "pochhammer.n": (lambda v: bj.pochhammer(0.3, v), 0, 4),
    "recurrence_rn.n": (lambda v: bj.recurrence_rn(P, v, 0.4), 0, 3),
    "wimp_rn.n": (lambda v: bj.wimp_rn(P, v, 0.4), 0, 3),
    "pn_recurrence.n": (lambda v: bj.pn_recurrence(P, v, 0.4), 0, 3),
    "pn_combination.n": (lambda v: bj.pn_combination(P, v, 0.4), 0, 3),
    "pn_explicit.n": (lambda v: bj.pn_explicit(P, v, 0.4), 0, 3),
    "zeta_n.n": (lambda v: bj.zeta_n(P, v), 0, 3),
    "EnsembleConfig.N": (lambda v: bj.EnsembleConfig(v, 2.0, 0.5, 0.5), 1, 4),
    "substream.index": (lambda v: bj.substream(11, v).random(3), 0, 5),
    "substream.seed": (lambda v: bj.substream(v, 5).random(3), 0, 11),
    "mc_moments.k_max": (lambda v: bj.mc_moments(CFG, v, 50, seed=3), 0, 4),
    "mc_moments.trials": (lambda v: bj.mc_moments(CFG, 2, v, seed=3), 2, 50),
    "mc_moments.seed": (lambda v: bj.mc_moments(CFG, 2, 50, seed=v), 0, 3),
    # two chunks, so that two threads share the work
    "mc_moments.threads": (
        lambda v: bj.mc_moments(CFG, 2, 70_000, seed=3, threads=v), 1, 2
    ),
    "exact_moment.n": (lambda v: bj.exact_moment(v, 1.0, 0.5, 0.25, 3), 1, 3),
    "exact_moment.k": (lambda v: bj.exact_moment(3, 1.0, 0.5, 0.25, v), 0, 3),
    "limit_pq.size": (lambda v: bj.limit_pq(v, 6.0, 1.0, 2.0), 1, 4),
    "limit_bidiagonal_squares.size": (
        lambda v: bj.limit_bidiagonal_squares(v, 6.0, 1.0, 2.0), 1, 4
    ),
    "simulate_moments.n": (lambda v: _simulate(n=v), 1, 3),
    "simulate_moments.paths": (lambda v: _simulate(paths=v), 2, 4),
    "simulate_moments.k_max": (lambda v: _simulate(k_max=v), 0, 2),
    "simulate_moments.seed": (lambda v: _simulate(seed=v), 0, 1),
    "stationary_uk.k_max": (lambda v: bj.stationary_uk(P, v), 0, 4),
}

# capped counts: "callable.parameter" -> (the largest admissible count,
# the name its ParameterError gives it)
CAPS = {
    "tridiag_entries.size": (2**22, "size"),
    "jacobi_matrix.size": (2**22, "size"),
    # both take time quadratic in the order: about 0.66 and 0.53 s at 2**14
    "moment11.k": (2**14, "moment order"),
    "gauss_quadrature.m": (2**12, "quadrature points m"),
    # the seed reads two rows past the depth
    "stieltjes_cf.depth": (2**22 - 2, "depth"),
    "zeta_n.n": (2**22, "index"),
    "EnsembleConfig.N": (2**22, "N"),
    # below mc_moments' chunk keys, 2**62 + chunk
    "substream.index": (2**62 - 1, "stream index"),
    "exact_moment.n": (2**22, "N"),
    "exact_moment.k": (8, "k"),
    "limit_pq.size": (2**22, "size"),
    "limit_bidiagonal_squares.size": (2**22, "size"),
    "simulate_moments.n": (2**22, "N"),
    "stationary_uk.k_max": (2**14, "k_max"),
    # a call starts this many threads at most, each with a work set of up
    # to 24.3 MiB (ensemble._ChunkWork at a full chunk); refused before
    # any thread starts
    "mc_moments.threads": (64, "threads"),
    "verify.--threads": (64, "--threads"),
}

# capped count flags of the CLI: "command.--flag" -> call of the command's
# handler with the count, refused before any criterion runs
CLI_COUNTS = {
    "verify.--threads": lambda v: cli.cmd_verify(
        argparse.Namespace(threads=v, only=["gauss-exactness"], output=None)
    ),
}

# count-named parameters that are not counts, with the reason
EXEMPT = {
    "zeta_asymptotic.n": "real by design: the large-n shape is continuous in n",
    "limit_pq.n_param": "real by design: the limit formulas continue analytically in N",
    "lambda_n.n": "an index array; the stream is rational in n + c, _as_index "
    "checks that n is finite and >= 0",
    "mu_n.n": "an index array; the stream is rational in n + c, _as_index "
    "checks that n is finite and >= 0",
    "ode_rhs.m": "the moment vector, not a count",
}

COUNT_NAMES = {
    "n", "N", "k", "k_max", "m", "size", "depth", "trials", "paths",
    "threads", "index", "seed",
}

# public parameter with a default -> "module.function" of a caller outside
# the tests that passes it by keyword
OPTIONS = {
    "stieltjes_cf.depth": "acceptance._mfunction",
    "stieltjes_cf.warn_tol": "acceptance._mfunction",
    "density_numeric.eps": "analytic.density_profile",
    "density_profile.method": "cli.cmd_density",
    "density_profile.eps": "cli.cmd_density",
    "mc_moments.threads": "acceptance._weak_convergence",
}

# defaulted parameters that are not options, with the reason
OPTION_EXEMPT = {
    "JacobiParams.c": "a model parameter: c = 0 is the classical model",
}


def _public_parameters():
    """{"callable.parameter": inspect.Parameter} over betajacobi.__all__:
    functions, class constructors and the public methods of public
    classes; enum classes are skipped (their signature is the enum
    machinery)."""
    out = {}
    for name in bj.__all__:
        obj = getattr(bj, name)
        targets = []
        if inspect.isfunction(obj):
            targets = [(name, obj)]
        elif inspect.isclass(obj) and not issubclass(
            obj, (BaseException, Warning, enum.Enum)
        ):
            targets = [(name, obj)] + [
                (f"{name}.{attr}", fn)
                for attr, fn in vars(obj).items()
                if not attr.startswith("_") and inspect.isfunction(fn)
            ]
        for label, fn in targets:
            for p in inspect.signature(fn).parameters.values():
                out[f"{label}.{p.name}"] = p
    return out


def _bits(v):
    """An exact, comparable image of a result, type names included."""
    if dataclasses.is_dataclass(v):
        return type(v).__name__, tuple(
            _bits(getattr(v, f.name)) for f in dataclasses.fields(v)
        )
    if isinstance(v, (tuple, list)):
        return tuple(_bits(x) for x in v)
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    return type(v).__name__, repr(v)


@pytest.mark.parametrize("label", sorted(COUNTS))
class TestCountPolicy:
    def test_bad_counts_raise(self, label):
        call, minimum, _ = COUNTS[label]
        for bad in (2.5, np.nan, np.inf, minimum - 1):
            with pytest.raises(ParameterError):
                call(bad)

    def test_integer_types_agree(self, label):
        call, _, v = COUNTS[label]
        want = _bits(call(v))
        assert _bits(call(np.int64(v))) == want
        assert _bits(call(float(v))) == want


@pytest.mark.parametrize("label", sorted(CAPS))
def test_count_above_its_cap_names_the_parameter(label):
    call = CLI_COUNTS[label] if label in CLI_COUNTS else COUNTS[label][0]
    top, name = CAPS[label]
    bound = rf"(2\*\*\d+( - 1)? = )?{top}"
    message = rf"^{re.escape(name)} must be <= {bound}, got {top + 1}$"
    with pytest.raises(ParameterError, match=message):
        call(top + 1)


# the bounds of counts, and the functions that may compare a count with
# them: the guard, and _cf_depth, whose refusal names the point its depth
# comes from
_CAP_NAMES = {
    "_MAX_SIZE", "_MAX_ORDER", "_MAX_MOMENT_ORDER", "MAX_EXACT_K", "_CHUNK_KEY_BASE", "_MAX_THREADS"
}
_CAP_CHECKERS = {"as_count", "_cf_depth"}


def _cap_comparisons():
    """(module, enclosing functions, line) of every comparison in the
    package's source that names one of _CAP_NAMES."""
    found = []

    class Walk(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.where = module, []

        def visit_FunctionDef(self, node):
            self.where.append(node.name)
            self.generic_visit(node)
            self.where.pop()

        def visit_Compare(self, node):
            names = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            if names & _CAP_NAMES:
                found.append((self.module, tuple(self.where), node.lineno))
            self.generic_visit(node)

    for path in sorted(pathlib.Path(bj.__file__).parent.glob("*.py")):
        Walk(path.name).visit(ast.parse(path.read_text(), str(path)))
    return found


def test_counts_meet_their_caps_only_in_the_guard():
    found = _cap_comparisons()
    # the walk sees the one exempt comparison, so it is not blind
    assert [f[:2] for f in found if "_cf_depth" in f[1]] == [("spectral.py", ("_cf_depth",))]
    stray = [f for f in found if not _CAP_CHECKERS & set(f[1])]
    assert not stray, f"a count compared with its cap outside errors.as_count: {stray}"


def test_every_count_parameter_is_covered():
    public = set(_public_parameters())
    stale = sorted((set(COUNTS) | set(EXEMPT)) - public)
    assert not stale, f"entries name no public parameter: {stale}"
    counted = {label for label in public if label.rsplit(".", 1)[1] in COUNT_NAMES}
    missing = sorted(counted - set(COUNTS) - set(EXEMPT))
    assert not missing, f"count parameters outside the count table: {missing}"


def test_every_option_has_a_caller():
    options = {
        label
        for label, p in _public_parameters().items()
        if p.default is not inspect.Parameter.empty
    }
    stale = sorted((set(OPTIONS) | set(OPTION_EXEMPT)) - options)
    assert not stale, f"entries name no public parameter with a default: {stale}"
    missing = sorted(options - set(OPTIONS) - set(OPTION_EXEMPT))
    assert not missing, f"options without a recorded caller: {missing}"
    for label, where in OPTIONS.items():
        callee, param = label.rsplit(".", 1)
        module, func = where.split(".")
        src = inspect.getsource(
            getattr(importlib.import_module(f"betajacobi.{module}"), func)
        )
        assert f"{callee}(" in src and f"{param}=" in src, (
            f"{where} does not pass {param}= to {callee}"
        )


# parameters the benchmark's tracer (bench/spans.py) binds by name, with
# defaults applied, to count levels, trials and steps
TRACED = {
    "stieltjes_cf": ("z", "depth", "warn_tol"),
    "mc_moments": ("trials",),
    "simulate_moments": ("n", "paths", "t_end", "dt"),
    "integrate_moments": ("t_end", "dt"),
}


@pytest.mark.parametrize("func", sorted(TRACED))
def test_traced_parameters_exist(func):
    params = inspect.signature(getattr(bj, func)).parameters
    missing = [name for name in TRACED[func] if name not in params]
    assert not missing, f"{func} lost the traced parameters {missing}"


def test_stieltjes_cf_depth_default_is_an_int():
    # the tracer computes int(depth) from the bound default
    default = inspect.signature(bj.stieltjes_cf).parameters["depth"].default
    assert type(default) is int and default >= 2
