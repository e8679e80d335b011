"""Property test of the closed forms over the whole double range of rates.

Every parameter draw must either be rejected by ``SystemParams`` with a
``ValueError`` or give finite outputs that keep the documented bounds.
"""

import math
from dataclasses import asdict

import numpy as np
from hypothesis import given, settings
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
