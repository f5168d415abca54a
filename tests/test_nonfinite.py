"""Library entry points given NaN, infinite or malformed values raise a domain error.

The NaN cases run under the `alarm` fixture: a NaN bound passes every
`bisect`, so the g-integer walk once never returned, and a regression must
fail instead of hanging the suite.
"""
import math

import pytest

from beurling import count_N, from_list, g_integer_values, gaussian_system, psi, rational_primes, stream_gintegers
from beurling.errors import ParameterError
from beurling.mellin import expansion_from_json, residual_series_from_json
from beurling.perron import PerronParams
from beurling.zeta import zeta_dirichlet, zeta_mellin_identity_check

P = rational_primes(100)
NAN = math.nan


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: count_N(P, NAN), id="count_N"),
        pytest.param(lambda: g_integer_values(P, NAN), id="g_integer_values"),
        pytest.param(lambda: next(iter(stream_gintegers(P, NAN))), id="stream_gintegers"),
        pytest.param(lambda: zeta_dirichlet(P, 2, NAN), id="zeta_dirichlet"),
        pytest.param(lambda: zeta_mellin_identity_check(P, 2, NAN), id="zeta_mellin_identity_check"),
        pytest.param(lambda: psi(P, NAN), id="psi"),
        # an infinite bound under an infinite horizon has no end either
        pytest.param(lambda: count_N(from_list([2, 3], math.inf), math.inf), id="count_N-inf"),
        pytest.param(lambda: zeta_dirichlet(from_list([2, 3], math.inf), 2), id="zeta_dirichlet-inf"),
    ],
)
def test_nan_or_endless_bound_raises(call, alarm):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: rational_primes(math.inf), id="rational_primes"),
        pytest.param(lambda: gaussian_system(math.inf), id="gaussian_system"),
        pytest.param(lambda: PerronParams(x=10.5, T=math.inf), id="PerronParams-T"),
        pytest.param(lambda: PerronParams(x=10.5, T=10.0, c=math.inf), id="PerronParams-c"),
    ],
)
def test_non_finite_parameter_raises(call):
    with pytest.raises(ParameterError):
        call()


def test_list_with_infinite_limit_stays_valid():
    # a finite list complete everywhere: every count below any x is exact
    system = from_list([2, 3], math.inf)
    assert count_N(system, 100) == sum(1 for a in range(7) for b in range(5) if 2**a * 3**b <= 100)


@pytest.mark.parametrize("parse", [expansion_from_json, residual_series_from_json])
@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '"abc"',
        "[1]",
        '{"a": 1}',
        '[{"lambda": [1]}]',
        '[{"a": [1], "mu": [0, 0], "nu": 0}]',
        '[{"lambda": [1, 0], "coeffs": [["x", 0]]}]',
        '[{"a": [1, 0], "mu": [0, 0], "nu": 1e400}]',
    ],
)
def test_malformed_json_raises(parse, text):
    with pytest.raises(ParameterError):
        parse(text)
