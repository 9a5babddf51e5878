"""One table of bad values for every public numeric parameter.

geometry holds the package's only number rules: a scalar is a Python or
numpy int or float, never a bool, a real scalar is read as a float, so
an int beyond the float range is refused, and an array holds bools, ints
or floats only.  The point of every Mobius ``apply`` is an array too.  Every parameter below is checked by them, so each refuses
the same bad values with a ParameterError that names it, and no numpy
warning escapes on the way.
"""

import math
import warnings

import numpy as np
import pytest

from hypmetrics.geometry import FiniteComplement, ParameterError, UnitBall, UpperHalfSpace, as_point
from hypmetrics.mobius import (
    MobiusMap,
    Orthogonal,
    Scaling,
    SphereInversion,
    Translation,
    ball_automorphism,
    cayley_map,
    inversion_unit,
)
from hypmetrics.suite import catalog, check_case, run_probe

BAD_SCALARS = {"True": True, "str": "1", "complex": 1j, "None": None, "nan": math.nan}
BAD_INTEGERS = {**BAD_SCALARS, "float": 2.0}
# a real parameter is read as a float, which an int beyond the float
# range is not; a dimension or a count of 10**400 is a valid integer
BAD_REALS = {**BAD_SCALARS, "huge": 10**400, "-huge": -(10**400)}
# an array takes a bool as 1.0, so its entries get the other bad scalars
BAD_ENTRIES = {k: v for k, v in BAD_SCALARS.items() if k != "True"}

_POINT = "^(a point must be a vector|point has non-finite coordinates)"
_DIM = "^domains require an integer dimension >= 2, got "


def _check_case(**kwargs):
    return check_case(catalog().case("AX-U"), **{"n_samples": 2, **kwargs})


# (parameter, the call with the value in its place, a good value, the message's start)
SCALARS = [
    ("scaling factor", Scaling, 2.5, "^scaling factor must be "),
    ("inversion radius", lambda v: SphereInversion([0.0, 0.0], v), 2.5, "^inversion radius must be "),
    ("slack", lambda v: _check_case(slack=v), 0.5, "^slack must be a finite number >= 0, got "),
    ("schedule", lambda v: run_probe(catalog().probe("P2"), (0.1, 0.01, 0.001, v)), 1e-4,
     "^probe schedule values must be "),
]
INTEGERS = [
    ("UnitBall dim", UnitBall, 3, _DIM),
    ("UpperHalfSpace dim", UpperHalfSpace, 3, _DIM),
    ("FiniteComplement dim", lambda v: FiniteComplement(v, [[1.0, 0.0, 0.0]]), 3, _DIM),
    ("cayley_map dim", cayley_map, 3, _DIM),
    ("inversion_unit dim", inversion_unit, 3, _DIM),
    ("n_samples", lambda v: _check_case(n_samples=v), 3, "^n_samples must be an integer >= 1, got "),
    ("seed", lambda v: _check_case(seed=v), 3, "^seed must be an integer, got "),
]
ARRAYS = [
    ("point", as_point, [0.5, 0.0], _POINT),
    ("removed point", lambda v: FiniteComplement(2, [v]), [1.0, 0.0], _POINT),
    ("translation", Translation, [1.0, 0.0], _POINT),
    ("orthogonal matrix", Orthogonal, [[0.0, 1.0], [1.0, 0.0]], "^orthogonal generator needs "),
    ("inversion center", lambda v: SphereInversion(v, 1.0), [0.0, 0.0], _POINT),
    ("ball_automorphism", ball_automorphism, [0.5, 0.0], _POINT),
    ("translation apply", Translation([1.0, 0.0]).apply, [0.5, 0.0], _POINT),
    ("scaling apply", Scaling(2.0).apply, [0.5, 0.0], _POINT),
    ("orthogonal apply", Orthogonal([[0.0, 1.0], [1.0, 0.0]]).apply, [0.5, 0.0], _POINT),
    ("inversion apply", SphereInversion([0.0, 0.0], 1.0).apply, [0.5, 0.0], _POINT),
    ("MobiusMap apply", MobiusMap([Translation([1.0, 0.0]), Scaling(2.0)]).apply, [0.5, 0.0], _POINT),
]


def _with_first_entry(array: list, v) -> list:
    if isinstance(array[0], list):
        return [_with_first_entry(array[0], v), *array[1:]]
    return [v, *array[1:]]


def _bad_arrays(good: list) -> dict:
    """``good`` with its first entry replaced by each bad entry, and
    made ragged by nesting its first item one level deeper."""
    return {**{k: _with_first_entry(good, v) for k, v in BAD_ENTRIES.items()}, "ragged": [[good[0]], *good[1:]]}


TABLE = [
    pytest.param(call, bad, match, id=f"{name}-{label}")
    for rows, bads in ((SCALARS, lambda good: BAD_REALS), (INTEGERS, lambda good: BAD_INTEGERS), (ARRAYS, _bad_arrays))
    for name, call, good, match in rows
    for label, bad in bads(good).items()
]


@pytest.mark.parametrize("call, bad, match", TABLE)
def test_a_bad_value_is_refused_with_a_message(call, bad, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=match):
            call(bad)


@pytest.mark.parametrize(
    "call, good",
    [pytest.param(call, good, id=name) for rows in (SCALARS, INTEGERS, ARRAYS) for name, call, good, _ in rows],
)
def test_the_same_parameters_take_python_and_numpy_numbers(call, good):
    # the table is not vacuous: each call runs on a good value, a Python
    # number or list and the numpy scalar or array of it alike
    numpy_good = np.array(good)[()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(good)
        call(numpy_good)
