"""The package namespace as the introspecting tests and tools see it."""

import inspect

import betajacobi


def test_public_callables_are_plain_functions():
    # the option, count and real-input walks (tests/test_counts.py,
    # tests/test_reals.py) and the benchmark's span tracer pick functions
    # out of __all__ with inspect.isfunction; a decorated public name (a
    # functools.lru_cache wrapper, say) would drop out of all of them
    for name in betajacobi.__all__:
        obj = getattr(betajacobi, name)
        if callable(obj) and not inspect.isclass(obj):
            assert inspect.isfunction(obj), name
