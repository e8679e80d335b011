import json
import math
import os

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from cavity_squeezing import oracle
from cavity_squeezing import (
    DensityMatrix,
    DimensionCap,
    HilbertConfig,
    SingularSystem,
    SystemParams,
    compare_with_closed_form,
    cutoff_converged,
    decoupled_benchmark,
    decoupled_cavity_steady,
    evolve_density,
    hamiltonian_matrix,
    liouvillian_matrix,
    standard_quadrature_variances,
    steady_density,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def params_at(eps, gamma_c=0.4, kappa=0.8):
    return SystemParams.from_gamma_c(gamma_c, kappa, eps)


def lindblad_action(rho, hamiltonian, a, kappa):
    """Dense ``drho/dt`` from dense ``H`` and ``a``, independent of the sparse generator."""
    ad = a.conj().T
    n_op = ad @ a
    return (
        -1j * (hamiltonian @ rho - rho @ hamiltonian)
        + kappa * (a @ rho @ ad - 0.5 * (n_op @ rho + rho @ n_op))
    )


def full_space_stationary(lv, d):
    """Stationary state from all ``d**2`` unknowns: the generator's first
    (redundant) row is replaced by the trace condition, and the system is solved."""
    system = sp.vstack([sp.csr_matrix(np.eye(d).reshape(1, -1, order="F")), lv[1:]],
                       format="csc")
    rhs = np.zeros(d * d)
    rhs[0] = 1.0
    return spsolve(system, rhs).reshape((d, d), order="F")


def fold_matrix_system(lv, d):
    """The folded stationary system built by matrix algebra: the trace row stacked
    on the generator rows ``(i, j)``, ``i <= j`` but ``(0, 0)``, times a 0/1 matrix
    that adds the columns of ``(r, s)`` and ``(s, r)``."""
    i, j = np.triu_indices(d)
    pos = np.empty((d, d), dtype=np.int64)
    pos[i, j] = pos[j, i] = np.arange(i.size)
    fold = sp.csr_matrix((np.ones(d * d), (np.arange(d * d), pos.reshape(-1, order="F"))),
                         shape=(d * d, i.size))
    trace_row = sp.csr_matrix(np.eye(d).reshape(1, -1, order="F"))
    return (sp.vstack([trace_row, lv[(i + d * j)[1:]]]) @ fold).tocsc()


def lab_frame_density(params, n_cut):
    """Lab-frame stationary state at a fixed cutoff, from the public pieces,
    solved on the full space with zero frame shift."""
    ops = HilbertConfig(n_cut)
    lv = liouvillian_matrix(hamiltonian_matrix(params.g, params.epsilon, ops),
                            ops.a, params.kappa)
    rho = full_space_stationary(lv, ops.dim)
    residual = float(np.abs(lv @ rho.reshape(-1, order="F")).max())
    return DensityMatrix(matrix=rho, residual=residual, ops=ops)


def lab_frame_moments(rho):
    """The report's oracle moments, read directly off a lab-frame state."""
    ops = rho.ops
    a = ops.a
    var_plus, var_minus = standard_quadrature_variances(rho)
    moments = {
        "mean_photon_number": rho.expect(a.T @ a),
        "mean_field": rho.expect(a),
        "mean_field_squared": rho.expect(a @ a),
        "eta_a": rho.expect(ops.eta_a),
        "eta_b": rho.expect(ops.eta_b),
        "sigma": rho.expect(ops.sigma),
    }
    return {**{k: v.real for k, v in moments.items()},
            "var_plus": var_plus, "var_minus": var_minus}


# Both entry points of the Fock-cutoff doubling ladder, at eps = 0.2, kappa = 0.8.
LADDERS = {
    "cutoff_converged": lambda **limits: cutoff_converged(params_at(0.2), **limits),
    "decoupled_benchmark": lambda **limits: decoupled_benchmark(0.2, 0.8, **limits),
}


class TestHilbertConfig:
    def test_dimension(self):
        assert HilbertConfig(16).dim == 34

    @pytest.mark.parametrize("n_cut", [0, 1, -3, 2.5])
    def test_rejects_small_or_fractional_cutoffs(self, n_cut):
        with pytest.raises(ValueError):
            HilbertConfig(n_cut)

    def test_cap_is_enforced_at_construction(self):
        HilbertConfig(127)  # dim 256 exactly
        with pytest.raises(DimensionCap):
            HilbertConfig(128)
        with pytest.raises(DimensionCap):
            HilbertConfig(8, dim_cap=16)


class TestOperators:
    def test_shapes_and_ladder_entries(self):
        ops = HilbertConfig(2)
        assert ops.a.shape == (6, 6)
        a = ops.a
        fock = a[:3, :3]
        assert fock[0, 1] == 1.0
        assert fock[1, 2] == pytest.approx(np.sqrt(2.0), rel=1e-15)
        np.testing.assert_array_equal(a[:3, 3:], np.zeros((3, 3)))

    def test_operators_are_real(self):
        ops = HilbertConfig(4)
        for op in (ops.a, ops.sigma, ops.eta_a, ops.eta_b):
            assert isinstance(op, np.ndarray)
            assert op.dtype == np.float64

    def test_atomic_projectors(self):
        ops = HilbertConfig(4)
        s, eta_a, eta_b = ops.sigma, ops.eta_a, ops.eta_b
        sd = s.conj().T
        np.testing.assert_allclose(sd @ s, eta_a, atol=1e-15)
        np.testing.assert_allclose(s @ sd, eta_b, atol=1e-15)
        np.testing.assert_allclose(eta_a + eta_b, np.eye(10), atol=1e-15)

    def test_truncated_commutator(self):
        n_cut = 5
        a = HilbertConfig(n_cut).a
        comm = a @ a.conj().T - a.conj().T @ a
        block = np.diag([1.0] * n_cut + [-float(n_cut)])
        np.testing.assert_allclose(comm, np.kron(np.eye(2), block), atol=1e-13)


class TestHamiltonian:
    def test_zero_rates_give_zero_matrix(self):
        ops = HilbertConfig(3)
        np.testing.assert_array_equal(hamiltonian_matrix(0.0, 0.0, ops),
                                      np.zeros((8, 8)))
        np.testing.assert_array_equal(hamiltonian_matrix(0.0, 0.0, ops, shift=2.0),
                                      np.zeros((8, 8)))

    def test_hermitian(self, canonical):
        ops = HilbertConfig(12)
        for shift in (0.0, 0.5):
            h = hamiltonian_matrix(canonical.g, canonical.epsilon, ops, shift=shift)
            assert np.abs(h - h.conj().T).max() <= 1e-14

    def test_drive_matrix_element(self):
        ops = HilbertConfig(4)
        h = hamiltonian_matrix(0.0, 0.3, ops)
        m = 5  # atom in lower level, vacuum
        assert h[m, m] == 0.0
        assert h[m + 1, m] == pytest.approx(0.3j, abs=1e-15)

    def test_coupling_matrix_element(self):
        ops = HilbertConfig(4)
        h = hamiltonian_matrix(0.7, 0.0, ops)
        # emission path |upper,0> -> |lower,1> enters through -i g a^dag sigma
        assert h[5 + 1, 0] == pytest.approx(-0.7j, abs=1e-15)

    def test_frame_shift_pumps_the_atom(self):
        ops = HilbertConfig(4)
        h = hamiltonian_matrix(0.7, 0.0, ops, shift=0.5) - hamiltonian_matrix(0.7, 0.0, ops)
        # the shift adds i g shift (sigma^dag - sigma): |lower,n> -> |upper,n>
        expected = 1j * 0.35 * (ops.sigma.T - ops.sigma)
        np.testing.assert_allclose(h, expected, atol=1e-15)


class TestLiouvillian:
    def test_action_matches_matrix(self, canonical):
        ops = HilbertConfig(6)
        rng = np.random.default_rng(3)
        d = ops.dim
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        for shift in (0.0, 0.5):  # the lab and a displaced frame
            h = hamiltonian_matrix(canonical.g, canonical.epsilon, ops, shift=shift)
            lv = liouvillian_matrix(h, ops.a, canonical.kappa)
            assert lv.dtype == np.float64
            direct = lindblad_action(rho, h, ops.a, canonical.kappa)
            via_matrix = (lv @ rho.reshape(-1, order="F")).reshape((d, d), order="F")
            np.testing.assert_allclose(via_matrix, direct, rtol=1e-12, atol=1e-13)

    def test_rejects_a_generator_that_is_not_real(self):
        ops = HilbertConfig(3)
        h = hamiltonian_matrix(0.7, 0.2, ops)
        with pytest.raises(ValueError):
            liouvillian_matrix(h + ops.eta_a, ops.a, 0.8)  # a real diagonal part
        with pytest.raises(ValueError):
            liouvillian_matrix(h, 1j * ops.a, 0.8)

    def test_conserves_trace(self, canonical):
        ops = HilbertConfig(6)
        h = hamiltonian_matrix(canonical.g, canonical.epsilon, ops)
        rng = np.random.default_rng(4)
        d = ops.dim
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert abs(np.trace(lindblad_action(rho, h, ops.a, canonical.kappa))) <= 1e-12


class TestSteadyDensity:
    def test_invariants_at_canonical_point(self, canonical):
        rho = steady_density(canonical, HilbertConfig(16))
        assert rho.residual <= 1e-10
        assert rho.trace_error() <= 1e-10
        assert rho.hermiticity_error() <= 1e-10
        assert rho.min_eigenvalue() >= -1e-8

    def test_undriven_system_rests_in_the_ground_state(self):
        rho = steady_density(params_at(0.0), HilbertConfig(8))
        ground = np.zeros((rho.ops.dim, rho.ops.dim), dtype=complex)
        ground[9, 9] = 1.0  # lower level, zero photons
        assert np.abs(rho.matrix - ground).max() <= 1e-10
        var_plus, var_minus = standard_quadrature_variances(rho)
        assert var_plus == pytest.approx(1.0, abs=1e-10)
        assert var_minus == pytest.approx(1.0, abs=1e-10)

    def test_moments_are_real_for_real_drive(self, canonical):
        rho = steady_density(canonical, HilbertConfig(16))
        ops = rho.ops
        assert rho.matrix.dtype == np.float64
        for op in (ops.a, ops.a @ ops.a, ops.sigma):
            assert abs(rho.expect(op).imag) <= 1e-12

    def test_expect_is_the_trace_of_the_product(self):
        # complex states too: the gather takes the trace of the product for any dtype
        ops = HilbertConfig(4)
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        rho = DensityMatrix(matrix=matrix, residual=0.0, ops=ops)
        for op in (ops.a, ops.a.T @ ops.a @ ops.a, ops.sigma, ops.eta_a, np.eye(10)):
            assert rho.expect(op) == pytest.approx(np.trace(op @ matrix), abs=1e-12)

    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo", "dia"])
    def test_expect_refuses_a_sparse_operator(self, fmt):
        # the gather reads the dense operator's nonzeros; a sparse matrix raises
        # rather than return a number (np.sum(op * rho.T) would give 16 here)
        rho = DensityMatrix(matrix=np.ones((4, 4)), residual=0.0,
                            ops=HilbertConfig(2))
        with pytest.raises(TypeError):
            rho.expect(sp.identity(4, format=fmt))


class TestSymmetricSolve:
    """The stationary solve runs on the ``d(d+1)/2`` entries ``i <= j``."""

    @pytest.mark.parametrize("problem", ["displaced", "decoupled"])
    def test_matches_the_full_space_solve(self, problem, canonical):
        config = HilbertConfig(16)
        if problem == "displaced":
            alpha = 2.0 * canonical.epsilon / canonical.kappa
            lv = liouvillian_matrix(hamiltonian_matrix(canonical.g, 0.0, config, shift=alpha),
                                    config.a, canonical.kappa)
            full = full_space_stationary(lv, config.dim)
            folded = steady_density(canonical, config).matrix
        else:
            m = config.n_cut + 1
            a = config.a[:m, :m]
            lv = liouvillian_matrix(0.2j * (a.T - a), a, 0.8)
            full = np.kron(np.diag([0.0, 1.0]), full_space_stationary(lv, m))
            folded = decoupled_cavity_steady(0.2, 0.8, config).matrix
        assert np.abs(folded - full).max() <= 1e-13
        assert np.array_equal(folded, folded.T)

    def test_solver_sees_the_folded_unknowns(self, canonical, monkeypatch):
        shapes = []

        def recording(system, rhs):
            shapes.append((system.shape, rhs.shape))
            return spsolve(system, rhs)

        monkeypatch.setattr(oracle, "spsolve", recording)
        steady_density(canonical, HilbertConfig(16))
        n = 34 * 35 // 2
        assert shapes == [((n, n), (n,))]

    def test_residual_gate_reads_the_unfolded_generator(self, canonical):
        rho = steady_density(canonical, HilbertConfig(16))
        ops = rho.ops
        alpha = 2.0 * canonical.epsilon / canonical.kappa
        lv = liouvillian_matrix(hamiltonian_matrix(canonical.g, 0.0, ops, shift=alpha),
                                ops.a, canonical.kappa)
        noise = np.random.default_rng(3).normal(size=rho.matrix.shape)
        perturbed = rho.matrix + 1e-6 * (noise + noise.T)
        assert oracle._checked(rho.matrix, lv, ops, shift=alpha).residual <= 1e-10
        with pytest.raises(SingularSystem, match="stationary residual"):
            oracle._checked(perturbed, lv, ops, shift=alpha)


class TestFoldedSystem:
    """The system handed to the solver is, entry for entry, the generator's rows
    ``i <= j`` with the trace row first, folded by the 0/1 matrix of
    :func:`fold_matrix_system`."""

    @staticmethod
    def solved_system(monkeypatch, solve):
        systems = []

        def recording(system, rhs):
            systems.append(system)
            return spsolve(system, rhs)

        monkeypatch.setattr(oracle, "spsolve", recording)
        solve()
        assert len(systems) == 1
        return systems[0]

    @staticmethod
    def assert_same_system(system, reference):
        assert system.shape == reference.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(system, part), getattr(reference, part)), part

    @pytest.mark.parametrize("n_cut", [8, 16])
    @pytest.mark.parametrize("eps", [0.0, 0.2, 1e4])
    def test_displaced_solve(self, n_cut, eps, monkeypatch):
        params, config = params_at(eps), HilbertConfig(n_cut)
        system = self.solved_system(monkeypatch, lambda: steady_density(params, config))
        shift = 2.0 * params.epsilon / params.kappa
        lv = liouvillian_matrix(hamiltonian_matrix(params.g, 0.0, config, shift=shift),
                                config.a, params.kappa)
        self.assert_same_system(system, fold_matrix_system(lv, config.dim))

    @pytest.mark.parametrize("n_cut", [8, 16])
    def test_decoupled_cavity_solve(self, n_cut, monkeypatch):
        config = HilbertConfig(n_cut)
        system = self.solved_system(monkeypatch,
                                    lambda: decoupled_cavity_steady(0.2, 0.8, config))
        m = n_cut + 1
        a = config.a[:m, :m]
        lv = liouvillian_matrix(0.2j * (a.T - a), a, 0.8)
        self.assert_same_system(system, fold_matrix_system(lv, m))


class TestStrongDrive:
    """At eps = 1e4 the full model's coherence settles at sigma eps / g = 1/4.

    The closed forms eliminate the cavity adiabatically and give 1/2; here
    the atom's Rabi frequency 4 g eps / kappa is about 1.4e4, far above
    kappa, outside the regime of that elimination.
    """

    def test_one_state_at_every_cutoff(self):
        params = params_at(1e4)
        sigmas = []
        for n_cut in (8, 16, 32, 64):
            rho = steady_density(params, HilbertConfig(n_cut))
            assert rho.residual <= 1e-10
            assert rho.hermiticity_error() == 0.0
            sigmas.append(rho.expect(rho.ops.sigma).real)
        assert max(sigmas) - min(sigmas) <= 1e-12
        assert abs(sigmas[0] * params.epsilon / params.g - 0.25) <= 1e-6


class TestVariancesAtEveryDrive:
    """Read in the solved frame, the standard variances keep their precision at
    any drive; read off the lab-frame moments, terms of size 4 alpha**2 cancel
    down to them, and from eps = 1e7 they break V+ V- >= 1 by rounding alone.
    The grid stops at 1e8: from about 1e10 the residual gate refuses the state."""

    def test_uncertainty_relation_from_weak_to_strong_drive(self):
        for eps in np.logspace(-3, 8, 23):
            _, report = cutoff_converged(params_at(float(eps)))
            v_plus = report.comparisons["var_plus"]["oracle"]
            v_minus = report.comparisons["var_minus"]["oracle"]
            assert v_plus * v_minus >= 1.0 - 1e-12, (eps, v_plus, v_minus)
            assert 0.5 * (v_plus + v_minus) >= 1.0 - 1e-12, (eps, v_plus, v_minus)


class TestCutoffConvergence:
    def test_undriven_system_converges_immediately(self):
        n_cut, report = cutoff_converged(params_at(0.0))
        assert n_cut == 16  # first comparison, 8 vs 16
        assert report.comparisons["eta_b"]["oracle"] == pytest.approx(1.0, abs=1e-12)

    def test_canonical_point_converges_at_moderate_cutoff(self, canonical):
        n_cut, report = cutoff_converged(canonical)
        assert n_cut == 16
        assert report.n_cut == 16
        assert report.residual <= 1e-10

    @pytest.mark.parametrize("ladder", sorted(LADDERS))
    def test_cap_stops_runaway_doubling(self, ladder):
        with pytest.raises(DimensionCap):
            LADDERS[ladder](tol=1e-30, dim_cap=64)

    @pytest.mark.parametrize("ladder", sorted(LADDERS))
    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan")])
    def test_rejects_bad_tolerance(self, ladder, tol):
        with pytest.raises(ValueError):
            LADDERS[ladder](tol=tol)


class TestOperatorBuilds:
    """Each Fock rung builds its product-space operators once."""

    def test_built_on_first_use_and_kept(self):
        config = HilbertConfig(4)
        names = ("a", "sigma", "eta_a", "eta_b")
        assert not set(names) & set(vars(config))  # none at construction
        for name in names:
            assert getattr(config, name) is getattr(config, name)

    @pytest.mark.parametrize(
        "run,builds",
        [
            (lambda: cutoff_converged(params_at(0.2)), 2),  # rungs 8 and 16
            # rungs 8, 16 and 32: <a^2> at rung 8 is 1.1e-8 from rung 16
            (lambda: decoupled_benchmark(0.2, 0.8), 3),
            (lambda: compare_with_closed_form(params_at(0.2), HilbertConfig(16)), 1),
        ],
        ids=["cutoff_converged", "decoupled_benchmark", "compare_with_closed_form"],
    )
    def test_one_build_per_rung(self, run, builds, monkeypatch):
        calls = []
        prop = vars(HilbertConfig)["a"]
        build = prop.func

        def counting(config):
            calls.append(config.n_cut)
            return build(config)

        monkeypatch.setattr(prop, "func", counting)
        run()
        assert len(calls) == builds


def test_one_generator_per_decoupled_rung(monkeypatch):
    """The ``g = 0`` solve and its residual gate read the same generator."""
    calls = []

    def counting(*args):
        calls.append(args)
        return liouvillian_matrix(*args)

    monkeypatch.setattr(oracle, "liouvillian_matrix", counting)
    decoupled_benchmark(0.2, 0.8)
    assert len(calls) == 3  # rungs 8, 16 and 32


class TestMomentReads:
    """Each state's solved-frame moments are read once, in ``DensityMatrix.moments``."""

    @pytest.mark.parametrize(
        "run,reads",
        [
            # five moments at rungs 8 and 16, plus eta_b in the report
            (lambda: cutoff_converged(params_at(0.2)), 11),
            (lambda: compare_with_closed_form(params_at(0.2), HilbertConfig(16)), 6),
            # five moments at rungs 8, 16 and 32; the benchmark reads no more
            (lambda: decoupled_benchmark(0.2, 0.8), 15),
        ],
        ids=["cutoff_converged", "compare_with_closed_form", "decoupled_benchmark"],
    )
    def test_expect_calls_per_run(self, run, reads, monkeypatch):
        calls = []
        expect = DensityMatrix.expect

        def counting(self, op):
            calls.append(op)
            return expect(self, op)

        monkeypatch.setattr(DensityMatrix, "expect", counting)
        run()
        assert len(calls) <= reads

    @pytest.mark.parametrize("shift", [0.0, 0.5])
    def test_moments_are_the_direct_reads(self, shift):
        ops = HilbertConfig(n_cut=6)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((ops.dim, ops.dim))
        rho = DensityMatrix(matrix=x @ x.T / np.trace(x @ x.T), residual=0.0, ops=ops,
                            shift=shift)
        b = ops.a
        direct = [rho.expect(op) for op in (b, b @ b, b.T @ b, ops.sigma, ops.eta_a)]
        assert rho.moments == tuple(direct)  # bit for bit
        assert rho.moments is rho.moments  # read once per state
        s = shift
        assert rho.field_moments() == (s + direct[0], s * s + 2.0 * s * direct[0] + direct[1],
                                       s * s + 2.0 * s * direct[0].real + direct[2])


class TestReport:
    def test_fixture_regression(self, canonical):
        with open(os.path.join(FIXTURES, "oracle_canonical.json")) as fh:
            frozen = json.load(fh)
        n_cut, report = cutoff_converged(canonical)
        assert n_cut == frozen["n_cut"]
        assert report.residual <= 10.0 * max(frozen["residual"], 1e-12)
        for name, entry in frozen["comparisons"].items():
            got = report.comparisons[name]
            assert got["oracle"] == pytest.approx(entry["oracle"], rel=1e-9, abs=1e-12)
            assert got["closed_form"] == pytest.approx(
                entry["closed_form"], rel=1e-9, abs=1e-12
            )

    def test_report_is_complete_and_serialisable(self, canonical):
        report = compare_with_closed_form(canonical, HilbertConfig(16))
        payload = report.to_dict()
        assert set(payload["comparisons"]) == {
            "mean_photon_number", "mean_field", "mean_field_squared",
            "eta_a", "eta_b", "sigma", "var_plus", "var_minus",
        }
        for entry in payload["comparisons"].values():
            assert entry["delta"] == entry["oracle"] - entry["closed_form"]
        assert payload["max_imag_part"] <= 1e-12
        assert payload["framework_note"]
        json.dumps(payload)  # must not raise

    def test_population_moments_match_closed_form_without_drive(self):
        report = compare_with_closed_form(params_at(0.0), HilbertConfig(8))
        for name in ("mean_photon_number", "mean_field", "eta_a", "eta_b", "sigma"):
            assert abs(report.comparisons[name]["delta"]) <= 1e-10


class TestDecoupled:
    def test_matches_coherent_state(self):
        bench = decoupled_benchmark(0.2, 0.8)
        comparisons = bench["comparisons"]
        assert abs(comparisons["mean_photon_number"]["delta"]) <= 1e-8
        assert abs(comparisons["mean_field"]["delta"]) <= 1e-8
        assert abs(comparisons["var_plus"]["delta"]) <= 1e-8
        assert abs(comparisons["var_minus"]["delta"]) <= 1e-8
        assert bench["residual"] <= 1e-10

    def test_atom_is_pinned_to_the_lower_level(self):
        rho = decoupled_cavity_steady(0.2, 0.8, HilbertConfig(8))
        assert rho.expect(rho.ops.eta_b).real == pytest.approx(1.0, abs=1e-12)
        assert rho.trace_error() <= 1e-12

    def test_undriven_decoupled_cavity_is_empty(self):
        rho = decoupled_cavity_steady(0.0, 0.8, HilbertConfig(8))
        a = rho.ops.a
        assert abs(rho.expect(a.conj().T @ a)) <= 1e-12

    @pytest.mark.parametrize("epsilon", [math.nan, -1.0, math.inf])
    def test_refuses_the_drives_system_params_refuses(self, epsilon):
        with pytest.raises(ValueError) as want:
            params_at(epsilon)
        with pytest.raises(ValueError) as got:
            decoupled_cavity_steady(epsilon, 0.8, HilbertConfig(8))
        assert str(got.value) == str(want.value)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            decoupled_cavity_steady(-0.1, 0.8, HilbertConfig(8))
        with pytest.raises(ValueError):
            decoupled_cavity_steady(0.2, 0.0, HilbertConfig(8))
        with pytest.raises(ValueError):  # kappa outside [1e-38, 1e38]
            decoupled_cavity_steady(1.0, 1e-200, HilbertConfig(8))


class TestEvolution:
    def test_relaxes_to_the_stationary_state(self, canonical):
        # evolve_density stays in the lab frame, so it relaxes to the lab-frame state
        config = HilbertConfig(16)
        evolved = evolve_density(canonical, config, t_final=50.0 / canonical.kappa)
        stationary = lab_frame_density(canonical, config.n_cut)
        assert np.abs(evolved.matrix - stationary.matrix).max() <= 1e-6
        displaced = compare_with_closed_form(canonical, config).comparisons
        for name, value in lab_frame_moments(evolved).items():
            assert value == pytest.approx(displaced[name]["oracle"], abs=1e-6)

    def test_preserves_trace_and_hermiticity(self, canonical):
        config = HilbertConfig(12)
        evolved = evolve_density(canonical, config, t_final=5.0)
        assert evolved.trace_error() <= 1e-12
        assert evolved.hermiticity_error() <= 1e-12

    def test_matches_the_dense_propagator_at_the_final_time(self, canonical):
        config = HilbertConfig(4)
        evolved = evolve_density(canonical, config, t_final=5.0)
        ops = evolved.ops
        h = hamiltonian_matrix(canonical.g, canonical.epsilon, ops)
        lv = liouvillian_matrix(h, ops.a, canonical.kappa).toarray()
        d = ops.dim
        ground = np.zeros(d * d, dtype=complex)
        ground[(config.n_cut + 1) * (d + 1)] = 1.0  # lower level, zero photons
        exact = (scipy.linalg.expm(5.0 * lv) @ ground).reshape((d, d), order="F")
        assert np.abs(evolved.matrix - exact).max() <= 1e-12

    def test_rejects_bad_horizon(self, canonical):
        with pytest.raises(ValueError):
            evolve_density(canonical, HilbertConfig(8), t_final=0.0)


# Three points of the old rung-32 band (alpha = 2 eps/kappa in [0.65, 1.25]),
# whose lab-frame ladder stopped at n_cut 32: (gamma_c, kappa, epsilon).
RUNG32_POINTS = [(0.4, 0.8, 0.4), (0.25, 3.0, 1.05), (0.6, 1.5, 0.9)]


class TestDisplacedFrame:
    @pytest.mark.parametrize("point", RUNG32_POINTS)
    def test_report_matches_the_lab_frame(self, point):
        params = params_at(point[2], *point[:2])
        lab = lab_frame_density(params, 32)
        assert lab.residual <= 1e-10
        n_cut, report = cutoff_converged(params)
        assert n_cut == 16
        assert report.max_imag_part == 0.0
        for name, value in lab_frame_moments(lab).items():
            assert abs(report.comparisons[name]["oracle"] - value) <= 1e-12, name

    def test_fluctuation_field_stays_small_at_strong_drive(self):
        # alpha = 4: the lab-frame ladder needed n_cut 128, beyond the cap
        rho = steady_density(params_at(1.6), HilbertConfig(16))
        b = rho.ops.a
        assert rho.shift == 4.0
        assert rho.expect(b.T @ b).real <= 0.2
        mean_a, _, mean_n = rho.field_moments()
        assert mean_a.real == pytest.approx(4.0 + rho.expect(b).real, abs=0.0)
        assert mean_n.real > 15.0


class TestBadCavityOrder:
    """Oracle minus closed form falls at second order in g/kappa.

    The closed forms come from eliminating the cavity adiabatically, valid
    for kappa >> g (Rice & Carmichael, IEEE JQE 24, 1351 (1988)).  At the
    optimal drive eps* = sqrt(kappa gamma_c / 8) with gamma_c fixed, each
    step kappa -> 4 kappa halves g/kappa = sqrt(gamma_c/kappa)/2, so an
    order-p error falls by 2**p per step.  The first steps start from
    g/kappa = 0.35 and 0.18, outside the expansion (sigma's orders there are
    1.21 and 1.79), so the order is gated on the steps with g/kappa <= 0.1
    at both ends, and every step must shrink the delta.
    """

    def test_observed_order_is_at_least_1_8(self):
        gamma_c = 0.4
        coupling, deltas = [], {"eta_a": [], "sigma": [], "mean_field": []}
        for j in range(5):
            kappa = 0.8 * 4.0**j
            params = params_at(math.sqrt(kappa * gamma_c / 8.0), gamma_c, kappa)
            coupling.append(params.g / kappa)
            _, report = cutoff_converged(params)
            for name, values in deltas.items():
                values.append(abs(report.comparisons[name]["delta"]))
        in_regime = np.array(coupling[:-1]) <= 0.1
        assert in_regime.sum() == 2  # kappa = 12.8 -> 51.2 -> 204.8
        for name, values in deltas.items():
            orders = np.log2(np.array(values[:-1]) / np.array(values[1:]))
            assert orders.min() > 0.0, (name, values)
            assert orders[in_regime].min() >= 1.8, (name, values, orders)


class TestBadCavityLimit:
    """The full model's variances against the paper's uncertainty relation
    and their exact bad-cavity limit.

    With ``x = 8 eps**2 / (kappa gamma_c)``, adiabatic elimination of the
    cavity gives, to first order in ``gamma_c/kappa``,

        (V+ - 1) kappa/gamma_c -> -x (1 - x) / (1 + x)**2
        (V- - 1) kappa/gamma_c ->  x / (1 + x)

    Each step kappa -> 4 kappa at fixed gamma_c quarters ``gamma_c/kappa``,
    so a first-order approach shrinks the error 4x per step.  Every point
    also obeys ``V+ V- >= 1`` (the paper's uncertainty relation) and
    ``(V+ + V-)/2 >= 1`` (the superposed mode squeezes in neither quadrature).
    """

    GAMMA_C = 0.4
    XS = (1.0 / 9.0, 1.0 / 3.0, 1.0, 3.0)
    KAPPAS = tuple(0.8 * 4.0**j for j in range(6))

    @staticmethod
    def limit(x):
        return -x * (1.0 - x) / (1.0 + x) ** 2, x / (1.0 + x)

    @pytest.fixture(scope="class")
    def variances(self):
        """``{x: [(kappa, V+, V-), ...]}`` from the cutoff ladder."""
        table = {}
        for x in self.XS:
            table[x] = []
            for kappa in self.KAPPAS:
                params = params_at(math.sqrt(x * kappa * self.GAMMA_C / 8.0), self.GAMMA_C, kappa)
                _, report = cutoff_converged(params)
                table[x].append((kappa, report.comparisons["var_plus"]["oracle"],
                                 report.comparisons["var_minus"]["oracle"]))
        return table

    def test_uncertainty_relation_holds(self, variances):
        for x, rows in variances.items():
            for kappa, v_plus, v_minus in rows:
                assert v_plus * v_minus >= 1.0 - 1e-12, (x, kappa, v_plus, v_minus)

    def test_superposed_mean_variance_is_not_squeezed(self, variances):
        for x, rows in variances.items():
            for kappa, v_plus, v_minus in rows:
                assert (v_plus + v_minus) / 2.0 >= 1.0 - 1e-12, (x, kappa, v_plus, v_minus)

    def test_approach_to_the_limit_is_first_order(self, variances):
        for x, rows in variances.items():
            kappa, v_plus, v_minus = map(np.array, zip(*rows))
            scale = kappa / self.GAMMA_C
            for name, v, lim in zip(("V+", "V-"), (v_plus, v_minus), self.limit(x)):
                errors = np.abs((v - 1.0) * scale - lim)
                orders = np.log(errors[:-1] / errors[1:]) / np.log(4.0)
                assert orders[-2:].min() >= 0.9, (x, name, errors, orders)
