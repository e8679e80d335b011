"""Property tests of the closed forms and of the oracle over their domains.

Every parameter draw must either be rejected by ``SystemParams`` with a
``ValueError`` or give finite outputs that keep the documented bounds.
Every ``oracle`` draw inside the validated range must end in exit 0, 3 or
4, and an accepted state must be a physical one.
"""

import contextlib
import io
import json
import math
import sys
from dataclasses import asdict

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cavity_squeezing import cli
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


@st.composite
def oracle_points(draw):
    """gamma_c log-uniform over the rate window, kappa/gamma_c in [1e-3, 1e6] with kappa
    in the window, and x = (eps/eps*)**2 in [1e-4, 1e4], eps* = sqrt(kappa gamma_c/8)."""
    lg = draw(st.floats(-38.0, 38.0))
    ratio = draw(st.floats(max(-3.0, -38.0 - lg), min(6.0, 38.0 - lg)))
    gamma_c, kappa = 10.0 ** lg, 10.0 ** (lg + ratio)
    x = 10.0 ** draw(st.floats(-4.0, 4.0))
    epsilon = math.sqrt(kappa * gamma_c / 8.0 * x)
    assume(8.0 * epsilon * epsilon + kappa * gamma_c <= 1e77)  # the drive bound
    return gamma_c, kappa, epsilon


def run_oracle(gamma_c, kappa, epsilon):
    """``oracle``'s exit code and, on exit 0, its parsed report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["oracle", "--gamma-c", repr(gamma_c), "--kappa", repr(kappa),
                         "--epsilon", repr(epsilon)])
    return code, json.loads(out.getvalue()) if code == 0 else None


@settings(max_examples=60, deadline=None)
@given(oracle_points())
@example((1e-30, 1e30, 1.0))
@example((1e-38, 1e-38, 1e-140))
def test_oracle_ends_in_a_documented_exit_with_a_physical_state(point):
    code, report = run_oracle(*point)
    assert code in (0, 3, 4)
    if code:
        return
    oracle = {name: entry["oracle"] for name, entry in report["comparisons"].items()}
    assert report["trace_error"] <= 1e-12
    assert report["min_eigenvalue"] >= -1e-10
    assert abs(oracle["sigma"]) <= 0.5
    assert 0.0 <= oracle["eta_a"] <= 1.0
    assert oracle["var_plus"] * oracle["var_minus"] >= 1.0 - 1e-10
