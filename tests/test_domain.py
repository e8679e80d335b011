"""Property test of the closed forms over the whole double range of rates.

Every parameter draw must either be rejected by ``SystemParams`` with a
``ValueError`` or give finite outputs that keep the documented bounds.
"""

import math
import sys
from dataclasses import asdict

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavity_squeezing import (
    SystemParams,
    single_mode_stats,
    steady_atom,
    superposed_squeezing,
    superposed_stats,
)


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda x: 10.0 ** x)


# Decimal exponents spanning the subnormals up to the largest double.
WHOLE_RANGE = _log_uniform(-323.0, 308.25)
# Half the draws near the valid rate window, so that accepted cases are common.
RATES = st.one_of(WHOLE_RANGE, _log_uniform(-40.0, 40.0))


@st.composite
def rate_points(draw):
    gamma_c, kappa = draw(RATES), draw(RATES)
    # Drives near the optimum sqrt(kappa*gamma_c/8), where S approaches 1/2.
    near_optimum = st.floats(-3.0, 3.0).map(
        lambda y: math.sqrt(kappa * gamma_c / 8.0) * 10.0 ** y
    )
    eps = draw(st.one_of(st.just(0.0), WHOLE_RANGE, near_optimum))
    return gamma_c, kappa, eps


@settings(max_examples=400, deadline=None)
@given(rate_points())
def test_closed_forms_are_finite_and_bounded_or_rejected(point):
    try:
        params = SystemParams.from_gamma_c(*point)
    except ValueError:
        return
    atom = steady_atom(params)
    single = single_mode_stats(params)
    sup = superposed_stats(params)
    values = [*asdict(atom).values(), *asdict(single).values(),
              *asdict(sup).values(), *superposed_squeezing(params)]
    assert all(np.isfinite(v) for v in values)
    assert 0.0 <= single.squeezing <= 0.5
    assert superposed_squeezing(params)[2] == single.squeezing
    assert atom.eta_a + atom.eta_b == 1.0
    # At eps -> 0 bound and product coincide and differ by an ulp either way.
    assert single.f_a <= single.f_b * (1.0 + 1e-12)
    assert sup.f_c <= sup.f_d * (1.0 + 1e-12)
    assert single.var_minus == single.vac_var
    assert sup.var_plus == sup.var_minus


# S = 16 gamma_c kappa eps**2 / D**2 and 4 sigma**2 = 64 g**2 eps**2 / D**2 are
# the same number, since gamma_c kappa = 4 g**2.  Their float evaluations take
# at most 16 roundings of half an ulp between them (S: five products and a
# quotient; 4 sigma**2: g's square root and halving, then sigma's three
# operations, squared, and the final product), so they agree to 16 * 2**-53
# relative, 1.8e-15; the largest difference seen over 10**4 random draws was
# 6.6e-16.  The bound holds wherever sigma**2 is a normal double: below that
# it underflows to a subnormal or to 0 and keeps no relative precision.  Where
# S's numerator 16 gamma_c kappa eps**2 underflows, S is evaluated as
# (8 g eps / D)**2, so it is not exempt there.
S_VS_SIGMA_REL = 16 * 2.0**-53


@settings(max_examples=400, deadline=None)
@given(rate_points())
@example((1e-38, 1e-38, 1e-140))  # the numerator underflows, 4 sigma**2 is 1.6e-203
def test_squeezing_is_four_sigma_squared(point):
    try:
        params = SystemParams.from_gamma_c(*point)
    except ValueError:
        return
    sigma_sq = steady_atom(params).sigma ** 2
    s = single_mode_stats(params).squeezing
    if sigma_sq < sys.float_info.min:
        return
    assert abs(s - 4.0 * sigma_sq) <= S_VS_SIGMA_REL * max(s, 4.0 * sigma_sq)
