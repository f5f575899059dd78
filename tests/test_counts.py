"""Every count, size and seed the library takes is refused or accepted by one rule,
and so is every real-valued step and budget.

A bool, a non-integer or a value below the floor raises ``ValueError`` worded
``"<what> must be an integer of at least <floor>, got <value!r>"`` (a seed has no
floor: ``"seed must be an integer, got ..."``); a numpy integer is an integer and
gives the same bits as the int.  Entry points with a cache (the rule builders,
``quadrature_moments`` and the kept draw of ``sample``) refuse alike whether the
cache is cold or holds the result for the value's int.

A bool, a non-real value, NaN or a real value outside the interval raises
``ValueError`` worded ``"<what> must be a real number in <interval>, got <value!r>"``;
a numpy float gives the same bits as the float.
"""

import dataclasses
import numbers
import re

import numpy as np
import pytest

from codedflow import (
    EngineSpec,
    InputDistribution,
    SystemMatrices,
    directional_derivative,
    grad11_matches_matrix_form,
    grad_oracle,
    precoder_ascent,
    sample,
    seeded_diamond_symbols,
)
from codedflow import quadrature
from codedflow.estimator import quadrature_moments
from codedflow.flowmodel import draw_inputs_and_noise

QPSK1 = InputDistribution.qpsk(1)
M1 = np.array([[0.8 + 0.3j]])
UNIT = SystemMatrices.from_factors(np.eye(1), np.eye(1), np.eye(1), form="compact")


def _forget_caches():
    quadrature.complex_gauss_hermite.cache_clear()
    quadrature.phase_orbit_rule.cache_clear()
    quadrature.real_gauss_hermite.cache_clear()
    QPSK1._kept.clear()  # its quadrature passes and its kept draw


# name: (call with the count, what the message names, its floor, whether a cache sits in front)
ENTRY_POINTS = {
    "EngineSpec-nodes": (lambda v: EngineSpec(nodes=v), "engine nodes", 1, False),
    "EngineSpec-samples": (lambda v: EngineSpec(samples=v), "engine samples", 1, False),
    "EngineSpec-seed": (lambda v: EngineSpec(seed=v), "engine seed", None, False),
    "EngineSpec-workers": (lambda v: EngineSpec(workers=v), "engine workers", 1, False),
    "gaussian-dimension": (lambda v: InputDistribution.gaussian(v), "input dimension", 1, False),
    "qpsk-dimension": (lambda v: InputDistribution.qpsk(v), "input dimension", 1, False),
    "default_nodes-dim": (lambda v: quadrature.default_nodes(v), "dim", 1, False),
    "complex_gauss_hermite-nodes": (lambda v: quadrature.complex_gauss_hermite(1, v), "nodes", 1, True),
    "complex_gauss_hermite-dim": (lambda v: quadrature.complex_gauss_hermite(v, 2), "dim", 1, True),
    "phase_orbit_rule-nodes": (lambda v: quadrature.phase_orbit_rule(1, v, 4), "nodes", 1, True),
    "phase_orbit_rule-dim": (lambda v: quadrature.phase_orbit_rule(v, 2, 4), "dim", 1, True),
    "real_gauss_hermite-nodes": (lambda v: quadrature.real_gauss_hermite(1, v), "nodes", 1, True),
    "real_gauss_hermite-dim": (lambda v: quadrature.real_gauss_hermite(v, 2), "dim", 1, True),
    "quadrature_moments-nodes": (lambda v: quadrature_moments(M1, QPSK1, v), "nodes", 1, True),
    "draw_inputs_and_noise-count": (lambda v: draw_inputs_and_noise(QPSK1, 1, 0, v), "count", 1, False),
    "draw_inputs_and_noise-seed": (lambda v: draw_inputs_and_noise(QPSK1, 1, v, 8), "seed", None, False),
    "sample-count": (lambda v: sample(M1, QPSK1, 0, v), "count", 1, True),
    "sample-seed": (lambda v: sample(M1, QPSK1, v, 8), "seed", None, True),
    "seeded_diamond_symbols-seed": (lambda v: seeded_diamond_symbols(v), "seed", None, False),
    "grad11-draws": (lambda v: grad11_matches_matrix_form(draws=v, seed=1), "draws", 1, False),
    "grad11-seed": (lambda v: grad11_matches_matrix_form(draws=2, seed=v), "seed", None, False),
    "precoder_ascent-iterations": (
        lambda v: precoder_ascent(UNIT, InputDistribution.gaussian(1), 0.1, v, 1.0), "iterations", 0, False
    ),
}
FLOORED = [name for name, entry in ENTRY_POINTS.items() if entry[2] is not None]  # a seed has no floor
NOT_COUNTS = [True, 2.5, np.float64(4.0), "3"]
NOT_COUNT_IDS = ["True", "2.5", "float64-4.0", "str-3"]
# a cached entry point with each value whose int it accepts (no rule exists above 3 complex dimensions)
WARM = [
    pytest.param(name, value, id=f"{name}-{value_id}")
    for name, entry in ENTRY_POINTS.items()
    for value, value_id in zip(NOT_COUNTS, NOT_COUNT_IDS)
    if entry[3] and not (name.endswith("-dim") and int(value) > quadrature.MAX_COMPLEX_DIM)
]


def _message(what, floor, value):
    at_least = "" if floor is None else f" of at least {floor}"
    return re.escape(f"{what} must be an integer{at_least}, got {value!r}")


def _bits(result):
    """``result`` as nested tuples that compare equal exactly when every number in it has the same bits."""
    if isinstance(result, np.ndarray):
        return result.dtype.kind, result.shape, result.tobytes()
    if isinstance(result, numbers.Number):
        return _bits(np.asarray(result))
    if isinstance(result, (tuple, list)):
        return tuple(_bits(item) for item in result)
    if isinstance(result, dict):
        return tuple((key, _bits(item)) for key, item in result.items())
    if dataclasses.is_dataclass(result):
        return tuple(_bits(getattr(result, f.name)) for f in dataclasses.fields(result))
    return result


@pytest.mark.parametrize("value", NOT_COUNTS, ids=NOT_COUNT_IDS)
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_a_value_that_is_not_a_count_is_refused_with_the_one_wording(name, value):
    call, what, floor, _ = ENTRY_POINTS[name]
    _forget_caches()
    with pytest.raises(ValueError, match=_message(what, floor, value)):
        call(value)


@pytest.mark.parametrize("name", FLOORED)
def test_a_count_below_its_floor_is_refused_with_the_one_wording(name):
    call, what, floor, _ = ENTRY_POINTS[name]
    with pytest.raises(ValueError, match=_message(what, floor, floor - 1)):
        call(floor - 1)


@pytest.mark.parametrize("name, value", WARM)
def test_a_warm_cache_refuses_what_a_cold_one_does(name, value):
    # the cache first holds the result for the value's int: 4.0 or True must not be served it
    call, what, floor, _ = ENTRY_POINTS[name]
    _forget_caches()
    call(int(value))
    with pytest.raises(ValueError, match=_message(what, floor, value)):
        call(value)


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_a_numpy_integer_gives_the_bits_of_the_int(name):
    call, _, floor, _ = ENTRY_POINTS[name]
    value = 2 if floor is None else max(floor, 1) + 1
    _forget_caches()
    expected = _bits(call(value))
    _forget_caches()
    assert _bits(call(np.int64(value))) == expected


GAUSS1 = InputDistribution.gaussian(1)
# name: (call with the value, what the message names, its interval as written, values inside, values outside)
REAL_ENTRY_POINTS = {
    "grad_oracle-step": (
        lambda v: grad_oracle(UNIT, GAUSS1, "B", step=v),
        "step", "[1e-05, 0.01]", [1e-5, 1e-3, 1e-2], [9e-6, 0.011, -np.inf],
    ),
    "directional_derivative-step": (
        lambda v: directional_derivative(UNIT, GAUSS1, "B", np.eye(1), step=v),
        "step", "(0, inf)", [1e-4, 1.0], [0.0, -1e-4, np.inf],
    ),
    "precoder_ascent-step": (
        lambda v: precoder_ascent(UNIT, GAUSS1, v, 1, 1.0), "step", "[0, inf)", [0.0, 0.5], [-0.1, np.inf]
    ),
    "precoder_ascent-norm_budget": (
        lambda v: precoder_ascent(UNIT, GAUSS1, 0.1, 1, v), "norm budget", "(0, inf)", [1.0], [0.0, -1.0, np.inf]
    ),
}
NOT_REALS = [True, np.True_, 1j, np.nan, "0.5"]
NOT_REAL_IDS = ["True", "numpy-True", "1j", "nan", "str-0.5"]


def _real_message(what, interval, value):
    return re.escape(f"{what} must be a real number in {interval}, got {value!r}")


@pytest.mark.parametrize("value", NOT_REALS, ids=NOT_REAL_IDS)
@pytest.mark.parametrize("name", list(REAL_ENTRY_POINTS))
def test_a_value_that_is_not_real_is_refused_with_the_one_wording(name, value):
    call, what, interval, _, _ = REAL_ENTRY_POINTS[name]
    with pytest.raises(ValueError, match=_real_message(what, interval, value)):
        call(value)


@pytest.mark.parametrize("name", list(REAL_ENTRY_POINTS))
def test_a_real_value_outside_its_interval_is_refused_with_the_one_wording(name):
    call, what, interval, _, outside = REAL_ENTRY_POINTS[name]
    for value in outside:
        with pytest.raises(ValueError, match=_real_message(what, interval, value)):
            call(value)


@pytest.mark.parametrize("name", list(REAL_ENTRY_POINTS))
def test_a_real_value_inside_its_interval_is_taken_and_a_numpy_float_gives_the_bits_of_the_float(name):
    # a closed end is inside
    call, _, _, inside, _ = REAL_ENTRY_POINTS[name]
    for value in inside:
        assert _bits(call(np.float64(value))) == _bits(call(value))
