import dataclasses
import json
import math
import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from cavity_squeezing import oracle
from cavity_squeezing.params import _require_bounded_drive, _require_drive, _require_rate
from cavity_squeezing import (
    DensityMatrix,
    DimensionCap,
    HilbertConfig,
    SingularSystem,
    SystemParams,
    compare_with_closed_form,
    cutoff_converged,
    decoupled_benchmark,
    standard_quadrature_variances,
    steady_density,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def params_at(eps, gamma_c=0.4, kappa=0.8):
    return SystemParams.from_gamma_c(gamma_c, kappa, eps)


def dense_operators(n_cut):
    """``a``, ``sigma``, ``eta_a`` and ``eta_b`` on the product space, from raw Kronecker
    products: atom slow, Fock fast, atomic basis ``[upper, lower]``."""
    m = n_cut + 1
    return {"a": np.kron(np.eye(2), np.diag(np.sqrt(np.arange(1.0, m)), 1)),
            "sigma": np.kron([[0.0, 0.0], [1.0, 0.0]], np.eye(m)),  # |lower><upper|
            "eta_a": np.kron(np.diag([1.0, 0.0]), np.eye(m)),
            "eta_b": np.kron(np.diag([0.0, 1.0]), np.eye(m))}


def dense_hamiltonian(g, epsilon, n_cut, shift=0.0):
    """The model's Hamiltonian ``i g (sigma^dag a - a^dag sigma) + i eps (a^dag - a)`` as a
    dense complex array, in the frame ``a -> shift + a``, which adds the atomic pump
    ``i g shift (sigma^dag - sigma)``."""
    ops = dense_operators(n_cut)
    a, s = ops["a"], ops["sigma"]
    return 1j * (g * (s.T @ a - a.T @ s + shift * (s.T - s)) + epsilon * (a.T - a))


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


def triu_numbering(d):
    """``pos`` of the entries ``i <= j`` numbered in ``triu`` order, as the plan
    numbered them before it ordered them for SuperLU."""
    i, j = np.triu_indices(d)
    pos = np.empty((d, d), dtype=np.int64)
    pos[i, j] = pos[j, i] = np.arange(i.size)
    return pos


def frame_parts(hamiltonian, a):
    """A frame of the dense ``hamiltonian`` and ``a`` for the solve's own assembly,
    ``oracle._generator``: its one unit is ``K = -i H``; and ``K``'s nonzero entries."""
    frame = oracle._Frame(np.asarray(a, dtype=np.float64), [(-1j * np.asarray(hamiltonian)).real])
    return frame, frame.units[0]


def stationary(hamiltonian, a, kappa):
    """The state and residual of ``oracle._stationary`` on the generator of the dense
    ``hamiltonian`` and ``a``."""
    return oracle._stationary(*frame_parts(hamiltonian, a), kappa)[:2]


def planned_numbering(hamiltonian, a):
    """The plan's ``pos`` for the generator of ``hamiltonian`` with jump operator ``a``."""
    frame, _ = frame_parts(hamiltonian, a)
    return oracle._fold_plan(frame, oracle._generator_plan(frame, frame.slots))[0]


def fold_matrix_system(lv, d, pos):
    """The folded stationary system built by matrix algebra: the trace row stacked
    on the generator rows ``(i, j)``, ``i <= j`` but ``(0, 0)``, times a 0/1 matrix
    that adds the columns of ``(r, s)`` and ``(s, r)``; then the row and the column
    of ``(i, j)``, the trace row for ``(0, 0)``, both moved to ``pos[i, j]``."""
    i, j = np.triu_indices(d)
    fold = sp.csr_matrix((np.ones(d * d), (np.arange(d * d), triu_numbering(d).ravel("F"))),
                         shape=(d * d, i.size))
    trace_row = sp.csr_matrix(np.eye(d).reshape(1, -1, order="F"))
    by_number = np.argsort(pos[i, j])
    return (sp.vstack([trace_row, lv[(i + d * j)[1:]]]) @ fold)[by_number][:, by_number].tocsc()


def kron_triplets(c, x, y):
    """COO triplets of the nonzeros of ``c * kron(x, y)``."""
    (xr, xc), (yr, yc), step = np.nonzero(x), np.nonzero(y), y.shape[0]
    return (np.ravel(xr[:, None] * step + yr), np.ravel(xc[:, None] * step + yc),
            np.ravel(c * x[xr, xc][:, None] * y[yr, yc]))


def coo_liouvillian(hamiltonian, a, kappa):
    """The generator of the dense ``hamiltonian`` and jump operator ``a`` built without a
    plan: every term's COO triplets, summed by scipy's COO -> CSR conversion."""
    k, a = (-1j * np.asarray(hamiltonian)).real, np.asarray(a)
    d = k.shape[0]
    eye, n_op = np.eye(d), a.T @ a
    terms = ((1.0, eye, k), (-1.0, k.T, eye), (kappa, a, a),
             (-0.5 * kappa, eye, n_op), (-0.5 * kappa, n_op.T, eye))
    rows, cols, data = map(np.concatenate, zip(*(kron_triplets(*t) for t in terms)))
    return sp.csr_matrix((data, (rows, cols)), shape=(d * d, d * d))


def cavity_state(epsilon, kappa, n_cut):
    """The ``g = 0`` state solved directly at ``n_cut`` on the cavity's own ``n_cut + 1``
    states, from the drive and ``kappa`` that ``decoupled_benchmark`` checks."""
    return direct_state(False, *oracle._cavity(epsilon, kappa), n_cut)


def sliced_decoupled_steady(epsilon, kappa, config):
    """The ``g = 0`` state and residual by the product-space route: the full
    generator's lower-atom block sliced out by index, folded and solved, and the
    state tensored with the lower level and gated on the full generator."""
    epsilon, kappa = _require_drive(float(epsilon)), _require_rate("kappa", kappa)
    _require_bounded_drive(epsilon)
    m, d = config.n_cut + 1, config.dim
    h, a = dense_hamiltonian(0.0, epsilon, config.n_cut), dense_operators(config.n_cut)["a"]
    lv = coo_liouvillian(h, a, kappa)
    lower = np.add.outer(np.arange(m, d), d * np.arange(m, d)).ravel("F")
    block = lv[lower][:, lower]
    # the fold plan of the block's pattern, which the block's own K and a give
    frame, _ = frame_parts(h[m:, m:], a[m:, m:])
    plan = oracle._generator_plan(frame, frame.slots)
    assert np.array_equal(plan.indptr, block.indptr) and np.array_equal(plan.indices, block.indices)
    pos, kept, system = oracle._fold_plan(frame, plan)
    system = system(np.r_[np.ones(m), block.data[kept]])
    try:
        x = oracle.spsolve(system, np.eye(1, system.shape[0], pos[0, 0])[0])
    except RuntimeError as exc:
        raise SingularSystem(f"stationary solve failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystem("stationary solve produced non-finite entries")
    rho = np.kron(np.diag([0.0, 1.0]), x[pos])
    residual = float(np.abs(lv @ rho.ravel("F")).max())
    tol = oracle._RESIDUAL_TOL
    if not math.isfinite(residual) or residual > tol:
        raise SingularSystem(f"stationary residual {residual:.3e} exceeds {tol:.3e}")
    return rho, residual


def pad(rho, levels, n_cut):
    """``rho``, on ``levels`` atomic levels (slow) times a shorter Fock ladder (fast), on
    the Fock states 0..``n_cut``: 0 at every Fock number above its own."""
    m, big = len(rho) // levels, n_cut + 1
    padded = np.zeros((levels, big, levels, big))
    padded[:, :m, :, :m] = rho.reshape(levels, m, levels, m)
    return padded.reshape(levels * big, levels * big)


def assert_same_bits(matrix, reference):
    """Same shape, structure and data, signed zeros included."""
    assert matrix.shape == reference.shape
    assert matrix.dtype == reference.dtype == np.float64
    for part in ("indptr", "indices"):
        assert np.array_equal(getattr(matrix, part), getattr(reference, part)), part
    assert np.array_equal(matrix.data.view(np.uint64), reference.data.view(np.uint64))


CACHES = {"_frame": oracle._frame}


def clear_caches():
    for cache in CACHES.values():
        cache.cache_clear()


def count_plan_builds(monkeypatch):
    """``[generator plans, folded-system plans]`` built from this call on."""
    built = [0, 0]
    for i, name in enumerate(("_generator_plan", "_fold_plan")):
        def counting(*args, build=getattr(oracle, name), i=i):
            built[i] += 1
            return build(*args)
        monkeypatch.setattr(oracle, name, counting)
    return built


def held_plans(frame):
    """The plans ``frame`` holds by pattern: the identities of its generator plan and of
    its folded-system plan, ``None`` while no solve has built that one."""
    return {key: tuple(None if x is None else id(x) for x in entry)
            for key, entry in frame.plans.items()}


def whole_units(frame, mask):
    """Whether the nonzero ``mask`` over ``frame.slots`` covers each unit's slots wholly or
    not at all."""
    return all(len(set(mask[unit != 0])) <= 1 for unit in frame.units)


def lab_frame_density(params, n_cut):
    """Lab-frame stationary state at a fixed cutoff, from the dense references,
    solved on the full space with zero frame shift."""
    ops = HilbertConfig(n_cut)
    lv = coo_liouvillian(dense_hamiltonian(params.g, params.epsilon, n_cut),
                         dense_operators(n_cut)["a"], params.kappa)
    rho = full_space_stationary(lv, ops.dim)
    residual = float(np.abs(lv @ rho.reshape(-1, order="F")).max())
    return DensityMatrix(matrix=rho, residual=residual, ops=ops)


def lab_frame_moments(rho):
    """The report's oracle moments, read directly off a lab-frame state."""
    ops = dense_operators(rho.ops.n_cut)
    a = ops["a"]
    var_plus, var_minus = standard_quadrature_variances(rho)
    moments = {
        "mean_photon_number": rho.expect(a.T @ a),
        "mean_field": rho.expect(a),
        "mean_field_squared": rho.expect(a @ a),
        "eta_a": rho.expect(ops["eta_a"]),
        "eta_b": rho.expect(ops["eta_b"]),
        "sigma": rho.expect(ops["sigma"]),
    }
    return {**{k: v.real for k, v in moments.items()},
            "var_plus": var_plus, "var_minus": var_minus}


# Both entry points of the Fock-cutoff doubling ladder, at points whose rung 16 misses and
# rung 32 passes, and the cutoff each accepts: a good cavity's (gamma_c 0.4, kappa 0.1,
# eps 0.3), and the cavity's coherent state at alpha = 0.5.
LADDERS = {
    "cutoff_converged": lambda **limits: cutoff_converged(params_at(0.3, kappa=0.1), **limits)[0],
    "decoupled_benchmark": lambda **limits: decoupled_benchmark(0.2, 0.8, **limits)["n_cut"],
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
    """The product space's dense operators, from which ``_frame`` builds a coupled frame's
    parts and gathers."""

    def test_shapes_and_ladder_entries(self):
        a = oracle._product_operators(2)["a"]
        assert a.shape == (6, 6)
        fock = a[:3, :3]
        assert fock[0, 1] == 1.0
        assert fock[1, 2] == pytest.approx(np.sqrt(2.0), rel=1e-15)
        np.testing.assert_array_equal(a[:3, 3:], np.zeros((3, 3)))

    def test_operators_are_real(self):
        ops, reference = oracle._product_operators(4), dense_operators(4)
        assert set(ops) == set(reference)
        for name, op in ops.items():
            assert isinstance(op, np.ndarray)
            assert op.dtype == np.float64
            assert not op.flags.writeable
            assert np.array_equal(op.view(np.uint64), reference[name].view(np.uint64)), name

    def test_atomic_projectors(self):
        ops = oracle._product_operators(4)
        s, eta_a, eta_b = ops["sigma"], ops["eta_a"], ops["eta_b"]
        sd = s.conj().T
        np.testing.assert_allclose(sd @ s, eta_a, atol=1e-15)
        np.testing.assert_allclose(s @ sd, eta_b, atol=1e-15)
        np.testing.assert_allclose(eta_a + eta_b, np.eye(10), atol=1e-15)

    def test_truncated_commutator(self):
        n_cut = 5
        a = oracle._product_operators(n_cut)["a"]
        comm = a @ a.conj().T - a.conj().T @ a
        block = np.diag([1.0] * n_cut + [-float(n_cut)])
        np.testing.assert_allclose(comm, np.kron(np.eye(2), block), atol=1e-13)


def frame_k(n_cut, g, epsilon, shift=0.0):
    """``K = -i H`` as the coupled solves evaluate it on ``_frame``'s slots, scattered
    into a dense matrix."""
    frame = oracle._frame(n_cut, True)
    k = np.zeros(frame.d * frame.d)
    k[frame.slots] = frame.at(g, epsilon, shift)
    return k.reshape(frame.d, frame.d)


class TestHamiltonian:
    """The Hamiltonian the solves evaluate, ``H = i K`` with ``K`` from ``_Frame.at``."""

    def test_zero_rates_give_zero_matrix(self):
        np.testing.assert_array_equal(frame_k(3, 0.0, 0.0), np.zeros((8, 8)))
        np.testing.assert_array_equal(frame_k(3, 0.0, 0.0, shift=2.0), np.zeros((8, 8)))

    def test_hermitian(self, canonical):
        # H = i K is Hermitian when K is real and antisymmetric
        for shift in (0.0, 0.5):
            k = frame_k(12, canonical.g, canonical.epsilon, shift=shift)
            assert np.array_equal(k, -k.T)

    def test_drive_matrix_element(self):
        k = frame_k(4, 0.0, 0.3)
        m = 5  # atom in lower level, vacuum
        assert k[m, m] == 0.0
        assert k[m + 1, m] == pytest.approx(0.3, abs=1e-15)  # H = i K

    def test_coupling_matrix_element(self):
        k = frame_k(4, 0.7, 0.0)
        # emission path |upper,0> -> |lower,1> enters through -i g a^dag sigma
        assert k[5 + 1, 0] == pytest.approx(-0.7, abs=1e-15)

    def test_frame_shift_pumps_the_atom(self):
        h = 1j * (frame_k(4, 0.7, 0.0, shift=0.5) - frame_k(4, 0.7, 0.0))
        # the shift adds i g shift (sigma^dag - sigma): |lower,n> -> |upper,n>
        s = dense_operators(4)["sigma"]
        np.testing.assert_allclose(h, 1j * 0.35 * (s.T - s), atol=1e-15)


class TestLiouvillian:
    """The solves' generator against the dense master equation."""

    def test_action_matches_matrix(self, canonical):
        n_cut, frame = 6, oracle._frame(6, True)
        a, d = dense_operators(n_cut)["a"], frame.d
        rng = np.random.default_rng(3)
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        for shift in (0.0, 0.5):  # the lab and a displaced frame
            k = frame.at(canonical.g, canonical.epsilon, shift)
            lv, _ = oracle._generator(frame, k, canonical.kappa)
            assert lv.dtype == np.float64
            h = dense_hamiltonian(canonical.g, canonical.epsilon, n_cut, shift=shift)
            direct = lindblad_action(rho, h, a, canonical.kappa)
            via_matrix = (lv @ rho.reshape(-1, order="F")).reshape((d, d), order="F")
            np.testing.assert_allclose(via_matrix, direct, rtol=1e-12, atol=1e-13)

    def test_conserves_trace(self, canonical):
        frame = oracle._frame(6, True)
        k = frame.at(canonical.g, canonical.epsilon, 0.0)
        lv, _ = oracle._generator(frame, k, canonical.kappa)
        rng = np.random.default_rng(4)
        d = frame.d
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        drho = (lv @ rho.reshape(-1, order="F")).reshape((d, d), order="F")
        assert abs(np.trace(drho)) <= 1e-12


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
        a, sigma = (dense_operators(16)[name] for name in ("a", "sigma"))
        assert rho.matrix.dtype == np.float64
        for op in (a, a @ a, sigma):
            assert abs(rho.expect(op).imag) <= 1e-12

    def test_expect_is_the_trace_of_the_product(self):
        # on a real symmetric state, as DensityMatrix documents its matrix
        ops = dense_operators(4)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 10))
        matrix = x + x.T
        rho = DensityMatrix(matrix=matrix, residual=0.0, ops=HilbertConfig(4))
        a = ops["a"]
        for op in (a, a.T @ a @ a, ops["sigma"], ops["eta_a"], np.eye(10)):
            value = rho.expect(op)
            assert type(value) is float
            assert value == pytest.approx(np.trace(op @ matrix), abs=1e-12)

    def test_expect_refuses_a_complex_operator(self):
        # a float read would drop the imaginary part; the gather refuses the cast instead
        rho = DensityMatrix(matrix=np.eye(4) / 4, residual=0.0, ops=HilbertConfig(2))
        with pytest.raises(TypeError):
            rho.expect(np.eye(4) + 1j * np.eye(4, k=1))

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
            lv = coo_liouvillian(dense_hamiltonian(canonical.g, 0.0, 16, shift=alpha),
                                 dense_operators(16)["a"], canonical.kappa)
            full = full_space_stationary(lv, config.dim)
            folded = steady_density(canonical, config).matrix
        else:
            m = config.n_cut + 1
            a = dense_operators(16)["a"][:m, :m]
            lv = coo_liouvillian(0.2j * (a.T - a), a, 0.8)
            full = full_space_stationary(lv, m)
            folded = cavity_state(0.2, 0.8, 16).matrix
        assert np.abs(folded - full).max() <= 1e-13
        assert np.array_equal(folded, folded.T)

    def test_every_state_is_exactly_symmetric(self, canonical, monkeypatch):
        # min_eigenvalue hands the matrix to eigvalsh, which reads one triangle
        solved, stationary = [], oracle._stationary

        def recording(*args):
            solution = stationary(*args)
            solved.append(solution[0])
            return solution

        monkeypatch.setattr(oracle, "_stationary", recording)
        cutoff_converged(canonical)
        decoupled_benchmark(0.2, 0.8)
        fixed = [steady_density(params_at(rates[2], *rates[:2]), HilbertConfig(127)).matrix
                 for rates in ((0.4, 0.8, 0.2), (0.4, 0.004, 0.2))]
        # the ladders' rung 16, and g = 0's 16 and 32; at n_cut 127 the canonical rung 16,
        # which passes, and a good cavity's rungs 16, 32 and 64, which miss, then 127 itself
        assert [len(rho) for rho in solved] == [34, 17, 33, 34, 34, 66, 130, 256]
        assert [len(rho) for rho in fixed] == [34, 256]  # each on the space it was solved on
        for rho in [*solved, *fixed]:
            assert np.array_equal(rho, rho.T)

    def test_solver_sees_the_folded_unknowns(self, canonical, monkeypatch):
        shapes = []

        def recording(system, rhs):
            shapes.append((system.shape, rhs.shape))
            return spsolve(system, rhs)

        monkeypatch.setattr(oracle, "spsolve", recording)
        steady_density(canonical, HilbertConfig(16))
        n = 34 * 35 // 2
        assert shapes == [((n, n), (n,))]

    def test_residual_gate_reads_the_unfolded_generator(self, canonical, monkeypatch):
        # a solve that returns the folded solution perturbed by 1e-6 is refused
        config = HilbertConfig(16)
        solves = {"displaced": lambda: steady_density(canonical, config),
                  "decoupled": lambda: cavity_state(0.2, 0.8, 16)}
        for solve in solves.values():
            assert solve().residual <= 1e-10
        rng = np.random.default_rng(3)
        monkeypatch.setattr(oracle, "spsolve", lambda system, rhs: (
            spsolve(system, rhs) + 1e-6 * rng.normal(size=rhs.size)))
        for solve in solves.values():
            with pytest.raises(SingularSystem, match="stationary residual"):
                solve()


class TestFoldedSystem:
    """The system handed to the solver is, entry for entry, the generator's rows
    ``i <= j`` and the trace row, folded by the 0/1 matrix of
    :func:`fold_matrix_system` and numbered by the plan's ``pos``."""

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
        h, a = dense_hamiltonian(params.g, 0.0, n_cut, shift=shift), dense_operators(n_cut)["a"]
        lv = coo_liouvillian(h, a, params.kappa)
        self.assert_same_system(system, fold_matrix_system(lv, config.dim,
                                                           planned_numbering(h, a)))

    @pytest.mark.parametrize("n_cut", [8, 16])
    def test_decoupled_cavity_solve(self, n_cut, monkeypatch):
        system = self.solved_system(monkeypatch,
                                    lambda: cavity_state(0.2, 0.8, n_cut))
        m = n_cut + 1
        a = dense_operators(n_cut)["a"][:m, :m]
        h = 0.2j * (a.T - a)
        lv = coo_liouvillian(h, a, 0.8)
        self.assert_same_system(system, fold_matrix_system(lv, m, planned_numbering(h, a)))


# Rates with exact zeros, ordinary sizes, and sizes whose products underflow
# (to subnormals, or to zeros of either sign).
RATES = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(1e-160, 1e-150),
                  st.floats(5e-324, 1e-300))
SIGNED = st.tuples(st.sampled_from([1.0, -1.0]), RATES).map(lambda t: t[0] * t[1])
POINTS = st.tuples(SIGNED, SIGNED, RATES, SIGNED)  # g, eps, kappa, shift


class TestPlannedGenerator:
    """The generator summed from its plan equals the COO build of the dense Hamiltonian
    bit for bit."""

    @pytest.mark.thorough
    @settings(deadline=None)
    @given(n_cut=st.integers(2, 32), first=POINTS, second=POINTS)
    @example(n_cut=8, first=(0.3, 0.0, 0.8, 0.5), second=(0.0, 0.2, 0.8, 0.0))
    @example(n_cut=2, first=(0.0, 0.0, 0.0, 0.0), second=(1e-160, -1e-160, 5e-324, 0.0))
    def test_equals_the_coo_build(self, n_cut, first, second):
        # the second call may switch pattern, and the third comes back to the first's plan
        frame, a = oracle._frame(n_cut, True), dense_operators(n_cut)["a"]
        for g, eps, kappa, shift in (first, second, first):
            assert_same_bits(oracle._generator(frame, frame.at(g, eps, shift), kappa)[0],
                             coo_liouvillian(dense_hamiltonian(g, eps, n_cut, shift), a, kappa))

    def test_operators_without_nonzeros(self):
        zero = np.zeros((6, 6))
        lv, _ = oracle._generator(*frame_parts(zero, zero), 0.8)
        assert lv.nnz == 0
        assert_same_bits(lv, coo_liouvillian(zero, zero, 0.8))

    def test_index_arrays_are_read_only(self, canonical):
        # an in-place change of the structure fails rather than reach the plan; a copy may
        frame, rates = oracle._frame(4, True), (canonical.g, canonical.epsilon, 0.0)
        lv, _ = oracle._generator(frame, frame.at(*rates), canonical.kappa)
        assert not lv.indices.flags.writeable and not lv.indptr.flags.writeable
        with pytest.raises(ValueError):
            lv.eliminate_zeros()
        copy = lv.copy()
        copy.data[::2] = 0.0
        copy.eliminate_zeros()
        assert_same_bits(oracle._generator(frame, frame.at(*rates), canonical.kappa)[0],
                         coo_liouvillian(dense_hamiltonian(canonical.g, canonical.epsilon, 4),
                                         dense_operators(4)["a"], canonical.kappa))


# Rates for the plan patterns: 0 of either sign, subnormals, sizes whose products
# underflow (1e-160 squared is subnormal, 1e-160 times 1e-300 is 0) and ordinary sizes.
PATTERN_RATES = st.tuples(st.sampled_from([1.0, -1.0]), st.one_of(
    st.just(0.0), st.floats(5e-324, 2.2e-308), st.floats(1e-300, 1e-150),
    st.floats(1e-3, 1e3))).map(lambda t: t[0] * t[1])


class TestPlanCache:
    """Each frame holds one plan per pattern of ``K``, at most 8."""

    def test_one_plan_per_pattern(self):
        # the coupled and the g = 0 frames hold their own, reused at another drive
        oracle._frame.cache_clear()
        config = HilbertConfig(16)
        for coupled, solve in ((True, lambda eps: steady_density(params_at(eps), config)),
                               (False, lambda eps: cavity_state(eps, 0.8, 16))):
            solve(0.2)
            frame = oracle._frame(16, coupled)
            held = held_plans(frame)
            assert len(held) == 1 and None not in next(iter(held.values()))
            solve(0.5)
            assert held_plans(frame) == held
        assert oracle._frame.cache_info().currsize == 2

    def test_stays_bounded(self, monkeypatch):
        # every pattern the rates can give, on more frames than the cache keeps
        monkeypatch.setattr(oracle, "spsolve", lambda system, rhs: np.zeros(rhs.size))
        oracle._frame.cache_clear()
        rates = [(0.0, 0.0, 0.0), (0.0, 0.2, 0.0), (0.3, 0.0, 0.0), (0.3, 0.2, 0.0),
                 (0.3, 0.0, 0.5), (0.3, 0.2, 0.5), (1e-160, 0.0, 1e-160)]  # g, eps, shift
        for n_cut in range(2, 33):
            frame = oracle._frame(n_cut, True)
            for g, eps, shift in rates:  # the zero state passes the residual gate
                oracle._stationary(frame, frame.at(g, eps, shift), 0.8)
            assert len(frame.plans) == 6  # g = 1e-160 with g shift underflowing is g J
            assert all(whole_units(frame, np.frombuffer(key, bool)) for key in frame.plans)
            info = oracle._frame.cache_info()
            assert info.currsize <= info.maxsize
        assert info.currsize == info.maxsize

    @pytest.mark.thorough
    @settings(deadline=None)
    @given(n_cut=st.sampled_from([2, 3, 8, 16, 32]), coupled=st.booleans(), g=PATTERN_RATES,
           epsilon=PATTERN_RATES, shift=PATTERN_RATES)
    @example(n_cut=8, coupled=True, g=1e-160, epsilon=0.0, shift=-1e-160)  # g shift subnormal
    @example(n_cut=8, coupled=True, g=1e-160, epsilon=5e-324, shift=1e-300)  # g shift 0
    @example(n_cut=2, coupled=False, g=0.3, epsilon=-5e-324, shift=0.5)
    def test_patterns_are_unions_of_whole_units(self, n_cut, coupled, g, epsilon, shift):
        frame = oracle._frame(n_cut, coupled)
        k = frame.at(g, epsilon, shift)
        assert whole_units(frame, k != 0)
        oracle._generator(frame, k, 0.8)
        assert 1 <= len(frame.plans) <= 8
        assert all(whole_units(frame, np.frombuffer(key, bool)) for key in frame.plans)


# The three frames a solve builds its generator in, and the rates each leaves at 0.
FRAMES = {"displaced": ("epsilon",), "lab": ("shift",), "cavity": ("g", "shift")}


class TestRatePath:
    """The solves evaluate their rates on a frame's cached unit parts; the generator
    equals the COO build from the dense Hamiltonian, bit for bit."""

    @pytest.mark.thorough
    @settings(deadline=None)
    @given(n_cut=st.integers(2, 24), frame=st.sampled_from(sorted(FRAMES)), g=SIGNED,
           epsilon=SIGNED, shift=SIGNED, kappa=RATES)
    @example(n_cut=8, frame="displaced", g=0.3, epsilon=0.0, shift=0.5, kappa=0.8)
    @example(n_cut=2, frame="lab", g=1e-160, epsilon=-1e-160, shift=0.0, kappa=5e-324)
    @example(n_cut=3, frame="cavity", g=0.0, epsilon=5e-324, shift=0.0, kappa=1e-155)
    def test_equals_the_coo_build_of_the_dense_hamiltonian(self, n_cut, frame, g, epsilon,
                                                           shift, kappa):
        rates = {"g": g, "epsilon": epsilon, "shift": shift}
        rates.update(dict.fromkeys(FRAMES[frame], 0.0))
        m = n_cut + 1
        h, a = dense_hamiltonian(n_cut=n_cut, **rates), dense_operators(n_cut)["a"]
        if frame == "cavity":
            h, a = h[m:, m:], a[m:, m:]
        frame = oracle._frame(n_cut, frame != "cavity")
        assert_same_bits(oracle._generator(frame, frame.at(**rates), kappa)[0],
                         coo_liouvillian(h, a, kappa))

    @pytest.mark.parametrize("coupled", [True, False])
    def test_refuses_an_overflowing_rate_as_the_dense_route_does(self, coupled):
        # the frame's K overflows where the dense Hamiltonian's does, and _generator
        # refuses it rather than build a generator of infinities
        with np.errstate(over="ignore", invalid="ignore"):
            h = (-1j * dense_hamiltonian(0.0, 1e308, 8)).real
            frame = oracle._frame(8, coupled)
            k = frame.at(0.0, 1e308, 0.0)
            with pytest.raises(ValueError, match="^K = -i H has a non-finite entry$"):
                oracle._generator(frame, k, 1.0)
        dense = np.zeros(frame.d * frame.d)
        dense[frame.slots] = k
        want = h if coupled else h[9:, 9:]  # the cavity block at n_cut 8
        assert np.array_equal(np.isfinite(dense), np.isfinite(want.ravel()))


def arrays_in(value):
    """Every numpy array held by a cached value, through its tuples, lists, dicts
    and the attributes of the oracle's plan objects."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from arrays_in(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from arrays_in(item)
    elif isinstance(value, (oracle._Frame, oracle._IndexPlan)):
        yield from arrays_in(vars(value))


class TestCachedParts:
    """What a rung keeps is shared, read-only, and built once per cutoff, frame and
    pattern."""

    def test_shared_and_read_only(self, canonical):
        config = HilbertConfig(8)
        oracle._frame.cache_clear()
        steady_density(canonical, config)
        cavity_state(0.2, 0.8, 8)
        frames = [oracle._frame(8, coupled) for coupled in (True, False)]
        for frame in frames:  # the walk reaches both plans of every pattern
            assert frame.plans and all(None not in entry for entry in frame.plans.values())
        assert oracle._frame(8, True) is frames[0]
        assert len(list(arrays_in(frames[0].gathers))) == 18  # 6 gathers of 3 arrays
        assert len(list(arrays_in(frames[1].gathers))) == 9  # b, b^2 and b^dag b
        arrays = list(arrays_in(frames))  # the gathers among them
        assert len(arrays) >= 40
        assert not [x for x in arrays if x.flags.writeable]
        with pytest.raises(ValueError):
            frames[0].units[0, 0] = 2.0

    def test_one_build_per_cutoff_frame_and_pattern(self):
        # an oracle_ladder cycle's ops: ladders that end at rung 16 (K = g J without drive),
        # the canonical n_cut 127, which rung 16 settles, and g = 0 ladders that try rung 16
        # and end at 32; each rung is certified on its own top shell
        def ladder():
            for eps in (0.0, 0.2, 0.3):
                cutoff_converged(params_at(eps))
            compare_with_closed_form(params_at(0.2), HilbertConfig(127))
            for eps in (0.2, 0.3):
                decoupled_benchmark(eps, 0.8)

        clear_caches()
        ladder()
        built = {name: cache.cache_info().misses for name, cache in CACHES.items()}
        frames = {(n_cut, coupled): oracle._frame(n_cut, coupled)
                  for n_cut, coupled in ((16, True), (16, False), (32, False))}
        assert oracle._frame.cache_info().misses == built["_frame"]  # the frames cached
        held = {key: held_plans(frame) for key, frame in frames.items()}
        ladder()  # a replay builds nothing
        assert {name: cache.cache_info().misses for name, cache in CACHES.items()} == built
        assert {key: held_plans(frame) for key, frame in frames.items()} == held
        # coupled 16; cavity 16 and 32, which the g = 0 states' moments read too
        assert built == {"_frame": 3}
        # (generator plans, fold plans) per frame: g J + g alpha S and g J
        assert {key: (len(plans), sum(None not in entry for entry in plans.values()))
                for key, plans in held.items()} == {
            (16, True): (2, 2), (16, False): (1, 1), (32, False): (1, 1)}


class TestFoldedSystemOnACacheHit:
    """Patterns the benchmark's ladders never draw, solved a second time with other
    values, so that the generator and the folded system come from cached plans."""

    @staticmethod
    def second_system(monkeypatch, solve, value):
        oracle._frame.cache_clear()
        solve(2.0 * value)
        built = count_plan_builds(monkeypatch)
        system = TestFoldedSystem.solved_system(monkeypatch, lambda: solve(value))
        assert built == [0, 0]
        return system

    def test_coupled_without_drive(self, monkeypatch):
        config = HilbertConfig(16)
        system = self.second_system(
            monkeypatch, lambda kappa: steady_density(params_at(0.0, kappa=kappa), config), 0.8)
        params = params_at(0.0)
        h, a = dense_hamiltonian(params.g, 0.0, 16), dense_operators(16)["a"]
        lv = coo_liouvillian(h, a, params.kappa)
        TestFoldedSystem.assert_same_system(
            system, fold_matrix_system(lv, config.dim, planned_numbering(h, a)))

    def test_decoupled_cavity_at_n_cut_32(self, monkeypatch):
        system = self.second_system(
            monkeypatch, lambda eps: cavity_state(eps, 0.8, 32), 0.2)
        a = dense_operators(32)["a"][:33, :33]
        h = 0.2j * (a.T - a)
        lv = coo_liouvillian(h, a, 0.8)
        TestFoldedSystem.assert_same_system(system,
                                            fold_matrix_system(lv, 33, planned_numbering(h, a)))


def assert_dissected(u, v):
    """Sites ``(u, v)`` listed by number are a nested dissection: a set of more than
    4 sites is numbered as the sites on one side of a line across its longer extent,
    then those on the other, then the line; each side holds at most half the set and
    is out of the other's reach, and each is numbered so in turn."""
    if u.size <= 4:
        return
    along = v if np.ptp(v) >= np.ptp(u) else u
    line = along == along[-1]
    assert line[-np.count_nonzero(line):].all(), "the line is numbered last"
    below, above = along < along[-1], along > along[-1]
    assert np.all(np.diff(above[~line].astype(int)) >= 0), "one side after the other"
    assert max(np.count_nonzero(below), np.count_nonzero(above)) <= u.size // 2
    sides = (bu, bv), (au, av) = [(u[s], v[s]) for s in (below, above)]
    reach = (np.abs(bu[:, None] - au) <= 1) & (np.abs(bv[:, None] - av) <= 1)
    assert not reach.any(), "no generator term links the sides"
    for side in sides:
        assert_dissected(*side)


class TestNestedDissection:
    """The plan numbers the folded unknowns for SuperLU, which factors in that order."""

    @pytest.mark.parametrize("n_cut", [2, 3, 8, 16, 33])
    def test_sites_are_dissected(self, n_cut):
        u, v = np.triu_indices(n_cut + 1)
        number = np.argsort(oracle._dissection(u, v), kind="stable")
        assert_dissected(u[number], v[number])

    @pytest.mark.parametrize("problem", ["displaced", "decoupled"])
    @pytest.mark.parametrize("n_cut", [2, 8, 16])
    def test_numbering_and_right_hand_side(self, problem, n_cut, canonical, monkeypatch):
        # pos is a symmetric bijection onto range(N), and the trace row's 1 is at pos[0, 0]
        config, solves = HilbertConfig(n_cut), []
        monkeypatch.setattr(oracle, "spsolve",
                            lambda system, rhs: solves.append((system, rhs)) or spsolve(system, rhs))
        if problem == "displaced":
            steady_density(canonical, config)
            alpha = 2.0 * canonical.epsilon / canonical.kappa
            a = dense_operators(n_cut)["a"]
            h = dense_hamiltonian(canonical.g, 0.0, n_cut, shift=alpha)
        else:
            cavity_state(0.2, 0.8, n_cut)
            a = dense_operators(n_cut)["a"][: n_cut + 1, : n_cut + 1]
            h = 0.2j * (a.T - a)
        pos, ((system, rhs),) = planned_numbering(h, a), solves
        i, j = np.triu_indices(len(a))
        assert np.array_equal(pos, pos.T)
        assert np.array_equal(np.sort(pos[i, j]), np.arange(i.size))
        fock = np.rint(np.einsum("ij,ij->j", a, a))
        high = np.maximum(fock[i], fock[j])[np.argsort(pos[i, j])]  # by number
        line = high == high[-1]
        assert line[-np.count_nonzero(line):].all(), "the root separator is numbered last"
        assert rhs.shape == (i.size,)
        assert np.flatnonzero(rhs).tolist() == [pos[0, 0]] and rhs[pos[0, 0]] == 1.0
        trace_row = system.tocsr()[pos[0, 0]]
        assert sorted(trace_row.indices) == sorted(np.diag(pos)) and np.all(trace_row.data == 1)

    def test_a_cold_solve_equals_a_cached_one(self, canonical, monkeypatch):
        config, built = HilbertConfig(16), count_plan_builds(monkeypatch)
        for solve in (lambda: steady_density(canonical, config),
                      lambda: cavity_state(0.2, 0.8, 16)):
            oracle._frame.cache_clear()
            built[:] = [0, 0]
            cold, cached = solve(), solve()
            assert built == [1, 1]  # both plans on the cold solve, none on the cached one
            assert np.array_equal(cold.matrix.view(np.uint64), cached.matrix.view(np.uint64))
            assert np.float64(cold.residual).view(np.uint64) == np.float64(cached.residual).view(np.uint64)

    def test_trace_row_away_from_the_first_number(self, canonical):
        # with the basis reversed, (0, 0) holds the top Fock state and is not numbered first
        h, a = dense_hamiltonian(canonical.g, 0.0, 8, shift=0.5), dense_operators(8)["a"]
        rho, _ = stationary(h, a, canonical.kappa)
        p = np.arange(len(a))[::-1]
        h, a = h[np.ix_(p, p)], a[np.ix_(p, p)]
        assert planned_numbering(h, a)[0, 0] > 0
        reversed_rho, residual = stationary(h, a, canonical.kappa)
        assert residual <= 1e-12
        assert np.abs(reversed_rho - rho[np.ix_(p, p)]).max() <= 1e-13

    @pytest.mark.parametrize("problem", ["no generator", "no decay"])
    def test_singular_system_is_refused(self, problem):
        # the trace row alone, or a Hamiltonian's degenerate stationary manifold
        a = dense_operators(4)["a"]
        h = np.zeros_like(a) if problem == "no generator" else dense_hamiltonian(0.3, 0.2, 4)
        with pytest.raises(SingularSystem, match="^stationary solve failed: .*singular"):
            stationary(h, a, 0.0)

    @pytest.mark.thorough
    @settings(deadline=None)
    @given(n_cut=st.integers(2, 24), decoupled=st.booleans(),
           rates=st.tuples(*[st.floats(0.05, 2.0)] * 3))
    @example(n_cut=8, decoupled=False, rates=(0.4, 0.8, 0.2))
    @example(n_cut=24, decoupled=True, rates=(0.4, 0.8, 2.0))
    def test_matches_colamd_on_the_triu_numbering(self, n_cut, decoupled, rates):
        # scipy's spsolve (COLAMD) on the unpermuted folded system is the reference
        gamma_c, kappa, eps = rates
        config = HilbertConfig(n_cut)
        if decoupled:
            rho = cavity_state(eps, kappa, n_cut).matrix
            a = dense_operators(n_cut)["a"][: n_cut + 1, : n_cut + 1]
            h = 1j * eps * (a.T - a)
        else:
            params = params_at(eps, gamma_c, kappa)
            rho = pad(steady_density(params, config).matrix, 2, n_cut)  # rung 16's above 16
            a = dense_operators(n_cut)["a"]
            h = dense_hamiltonian(params.g, 0.0, n_cut, shift=2.0 * eps / kappa)
        d, pos = len(a), triu_numbering(len(a))
        system = fold_matrix_system(coo_liouvillian(h, a, kappa), d, pos)
        want = spsolve(system, np.eye(1, system.shape[0])[0])[pos]
        assert np.abs(rho - want).max() <= 1e-12


def colamd_outcome(params, n_cut):
    """The displaced state at ``n_cut`` by scipy's ``spsolve`` (COLAMD) on
    :func:`fold_matrix_system` of the triu numbering, and its residual, or ``None``
    where the residual gate would refuse it."""
    h = dense_hamiltonian(params.g, 0.0, n_cut, shift=2.0 * params.epsilon / params.kappa)
    lv = coo_liouvillian(h, dense_operators(n_cut)["a"], params.kappa)
    d, pos = len(h), triu_numbering(len(h))
    rho = spsolve(fold_matrix_system(lv, d, pos), np.eye(1, d * (d + 1) // 2)[0])[pos]
    residual = float(np.abs(lv @ rho.ravel("F")).max())
    return (rho, residual) if residual <= oracle._RESIDUAL_TOL else None


def count_factorisations(monkeypatch):
    """The sizes of the systems factored from this call on, by LAPACK's banded LU or
    by SuperLU."""
    import scipy.linalg.lapack
    import scipy.sparse.linalg
    sizes, splu, dgbtrf = [], scipy.sparse.linalg.splu, scipy.linalg.lapack.dgbtrf
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda system, **options: sizes.append(system.shape[0]) or
                        splu(system, **options))
    monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf",
                        lambda ab, *args, **options: sizes.append(ab.shape[1]) or
                        dgbtrf(ab, *args, **options))
    return sizes


# Rates log-uniform over six decades.  Inside them the accepted residuals stay far
# below the 1e-8 gate, so a rounding-level move cannot flip it.
WIDE_RATES = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
# Above a pump g alpha of 1e4 kappa the two direct solves' states part by more than
# 1e-12 at rung 17 (1.5e-10 at gamma_c 100, kappa 1e-3, eps 1e3); at or below it, by
# at most 3e-13 on the grid of powers of 10 at rungs 17 and 40.
MAX_PUMP = 1e4


class TestAboveRungSixteen:
    """A displaced solve at a fixed cutoff N above 16 takes the first rung below N whose state
    passes on its own top Fock shell, and solves N directly only if none does."""

    @pytest.mark.thorough
    @settings(deadline=None, max_examples=max(1, settings.default.max_examples // 10))
    @given(n_cut=st.integers(17, 40), rates=st.tuples(WIDE_RATES, WIDE_RATES, WIDE_RATES))
    @example(n_cut=127, rates=(0.4, 0.8, 0.2))
    @example(n_cut=127, rates=(0.4, 0.8, 5.0))
    @example(n_cut=127, rates=(0.4, 400.0, 0.2))
    @example(n_cut=127, rates=(0.4, 0.1, 0.3))  # the padded rung-16 state is 2.7e-9 off
    @example(n_cut=127, rates=(1.0, 0.5, 3.0))
    def test_matches_colamd(self, n_cut, rates):
        # a tenth of the profile's examples: each draws two solves of up to 3,403 unknowns
        params = params_at(rates[2], *rates[:2])
        assume(2.0 * params.g * params.epsilon <= MAX_PUMP * params.kappa**2)
        want = colamd_outcome(params, n_cut)
        try:
            got = steady_density(params, HilbertConfig(n_cut))
        except SingularSystem:
            got = None
        assert (got is None) == (want is None)
        if got is not None:  # a settling rung's state, padded onto N's space
            assert np.abs(pad(got.matrix, 2, n_cut) - want[0]).max() <= 1e-12
            assert got.residual <= 1e-10

    def test_factorisations(self, monkeypatch):
        # rung 16 alone, at any power-of-2 scale of the rates; at gamma_c 1, kappa 0.5,
        # eps 3, rung 32 passes; at kappa 0.004 no rung below 127 passes, and the whole
        # system is factored once
        config, sizes = HilbertConfig(127), count_factorisations(monkeypatch)
        for scale in (1.0, 2.0**-20, 2.0**20):
            steady_density(params_at(0.2 * scale, 0.4 * scale, 0.8 * scale), config)
            assert sizes == [595]
            sizes.clear()
        for params, want in ((params_at(3.0, 1.0, 0.5), [595, 2211]),
                             (params_at(0.2, kappa=0.004), [595, 2211, 8515, 32896])):
            steady_density(params, config)
            assert sizes == want
            sizes.clear()

    def test_the_ladder_keeps_one_direct_solve_per_rung(self, monkeypatch):
        sizes = count_factorisations(monkeypatch)
        cutoff_converged(params_at(0.2))
        decoupled_benchmark(0.2, 0.8)
        assert sizes == [595, 153, 561]  # rung 16, and g = 0's 16 and 32; no check factors

    def test_a_settled_cutoff_builds_no_plan_of_its_own(self, monkeypatch):
        # rung 16 settles n_cut 127: the report and the state are rung 16's 34 x 34 one,
        # certified on its own top shell, and no frame but 16's is built
        clear_caches()
        shapes, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: shapes.append(m.shape) or eigvalsh(m))
        assert compare_with_closed_form(params_at(0.2), HilbertConfig(127)).n_cut == 127
        rho = steady_density(params_at(0.2), HilbertConfig(127))
        assert rho.matrix.shape == (34, 34) and rho.ops == HilbertConfig(16)
        assert shapes == [(34, 34)]
        assert oracle._frame.cache_info().misses == 1
        oracle._frame(16, True)
        assert oracle._frame.cache_info().misses == 1  # cached: no other frame was built

    @pytest.mark.thorough
    @settings(deadline=None, max_examples=max(1, settings.default.max_examples // 10))
    @given(gamma_c=st.floats(0.2, 0.8), ratio=st.floats(0.3, 3.0).map(lambda e: 10.0**e),
           alpha=st.floats(0.05, 2.6))
    @example(gamma_c=0.4, ratio=2.0, alpha=0.5)  # the canonical point
    @example(gamma_c=0.4, ratio=2.0, alpha=12.5)  # eps 5
    def test_a_settled_cutoff_reports_what_the_ladder_does(self, gamma_c, ratio, alpha):
        # bad-cavity rates, kappa/gamma_c from 2 to 1,000, and the bare amplitude alpha =
        # 2 eps/kappa of the benchmark's ladder.  Rung n settles n_cut 127 and ends the
        # ladder, and both report its state: the fixed cutoff's residual takes in the top
        # shell's ring, and the padding adds zeros to the spectrum.
        kappa = gamma_c * ratio
        params = params_at(alpha * kappa / 2.0, gamma_c, kappa)
        n_cut, ladder = cutoff_converged(params)
        got, want = compare_with_closed_form(params, HilbertConfig(127)).to_dict(), ladder.to_dict()
        assert (got.pop("n_cut"), want.pop("n_cut")) == (127, n_cut)
        assert got.pop("residual") >= want.pop("residual")
        want["min_eigenvalue"] = min(want["min_eigenvalue"], 0.0)
        assert got == want

    @pytest.mark.parametrize("eps", [0.2, 5.0])
    def test_a_padded_state_keeps_its_residual_on_the_whole_space(self, eps):
        # a settled cutoff's residual, from rung 16's own rows and its top shell's ring, is
        # bit for bit that of the state padded onto n_cut 127's own generator; at eps 5 the
        # largest row is one that rung 16 does not have
        params = params_at(eps)
        got = steady_density(params, HilbertConfig(127))
        assert got.ops.n_cut == 16
        frame = oracle._frame(127, True)
        lv, _ = oracle._generator(frame, frame.at(*oracle._displaced(params)), params.kappa)
        assert got.residual == float(np.abs(lv @ pad(got.matrix, 2, 127).ravel("F")).max())
        assert got.residual >= steady_density(params, HilbertConfig(16)).residual


@st.composite
def ladder_points(draw):
    """``(coupled, gamma_c, kappa, eps)`` from the benchmark's ``oracle_ladder`` ranges, every
    rate times one power of 2: coupled, gamma_c in [0.2, 0.8], kappa/gamma_c log-uniform in
    [2, 16] and the bare amplitude 2 eps/kappa in [0.05, 4.5]; or ``g = 0``, kappa in [0.4,
    4] and the amplitude in [0.1, 1.2].  The scale stops at 2**20: the residual gate is
    absolute and a solve's rounding grows with the rates, from 1.5e-11 to 1.7e-10 at 2**20
    up to the gate's 1e-8 at 2**27 to 2**28, where either solve may miss it."""
    scale = 2.0 ** draw(st.integers(-100, 20))
    if draw(st.booleans()):
        gamma_c = draw(st.floats(0.2, 0.8))
        kappa, alpha = gamma_c * 2.0 ** draw(st.floats(1.0, 4.0)), draw(st.floats(0.05, 4.5))
        return True, gamma_c * scale, kappa * scale, alpha * kappa / 2.0 * scale
    kappa, alpha = draw(st.floats(0.4, 4.0)), draw(st.floats(0.1, 1.2))
    return False, 0.0, kappa * scale, alpha * kappa / 2.0 * scale


def direct_state(coupled, rates, kappa, n_cut):
    """The state at ``n_cut`` solved directly, no rung below it tried, as a
    :class:`DensityMatrix` that may exceed the default dimension cap."""
    frame = oracle._frame(n_cut, coupled)
    rho, residual, _ = oracle._stationary(frame, frame.at(*rates), kappa)
    return DensityMatrix(rho, residual, HilbertConfig(n_cut, dim_cap=2 * (n_cut + 1)), rates[2])


def padded_residual(frame, rates, kappa, rho):
    """The reference rule: the residual on ``frame`` of ``rho``, one Fock number short of
    it, padded with zeros; or ``None`` unless that state passes, on ``frame``'s folded system
    (built, never factored) and on the residual gate, as a stationary state of ``frame``."""
    lv, pos, system = oracle._folded(frame, frame.at(*rates), kappa)
    padded = pad(rho, frame.d // (frame.fock.max() + 1), frame.fock.max())
    x = np.empty(system.shape[0])
    x[pos] = padded
    rhs = np.eye(1, x.size, pos[0, 0])[0]
    # |b - A x| <= tol (|A| |x| + |b|) in the infinity norm, in each row block, the
    # generator's and the trace row's
    norms = np.full(x.size, np.delete(abs(system) @ np.ones(x.size), pos[0, 0]).max())
    norms[pos[0, 0]] = frame.d
    if not np.all(np.abs(rhs - system @ x) <= oracle._BACKWARD_TOL * (norms * np.abs(x).max() + rhs)):
        return None
    residual = float(np.abs(lv @ padded.ravel("F")).max())
    return residual if residual <= oracle._RESIDUAL_TOL else None


def padded_settled(coupled, rates, kappa, config=None):
    """The reference ladder: ``oracle._settled`` with rung n checked on rung n + 1's folded
    system by :func:`padded_residual`."""
    n_cut = 16
    while config is None or n_cut < config.n_cut:
        rung = HilbertConfig(n_cut)
        try:
            rho, residual, _ = oracle._stationary(frame := oracle._frame(n_cut, coupled),
                                                  frame.at(*rates), kappa)
            wide = padded_residual(oracle._frame(n_cut + 1, coupled), rates, kappa, rho)
        except SingularSystem:
            if config is None:
                raise
            wide = None
        if wide is not None:
            if config is not None:
                residual = wide
            break
        n_cut *= 2
    else:
        return direct_state(coupled, rates, kappa, config.n_cut)
    return DensityMatrix(rho, residual, rung, rates[2])


class TestOneAcceptanceRule:
    """Every cutoff is accepted by one rule, ``oracle._settled``: rung n passes when its top
    Fock shell certifies it, which is what its state, padded with zeros, shows on rung
    n + 1."""

    @pytest.mark.thorough
    @settings(deadline=None, max_examples=max(1, settings.default.max_examples // 10))
    @given(rates=st.tuples(WIDE_RATES, WIDE_RATES, WIDE_RATES), decoupled=st.booleans(),
           alpha=st.floats(0.0, 1.2))
    @example(rates=(0.4, 0.1, 0.3), decoupled=False, alpha=0.0)  # rung 16 misses, 32 passes
    @example(rates=(0.4, 3.9280327822506456, 0.0), decoupled=True,
             alpha=0.39335439191446053)  # rung 16 misses at 1.6e-15, with rung 32's moments
    def test_accepted_rung_matches_twice_the_rung(self, rates, decoupled, alpha):
        # a tenth of the profile's examples: a draw may solve rung 128 directly.  A fixed
        # cutoff's direct solve is checked against COLAMD in test_matches_colamd.
        if decoupled:  # the cavity's coherent state of amplitude alpha
            kappa = rates[1]
            coupled, solve_at = False, (0.0, alpha * kappa / 2.0, 0.0)
        else:
            params = params_at(rates[2], *rates[:2])
            assume(2.0 * params.g * params.epsilon <= MAX_PUMP * params.kappa**2)
            kappa, coupled = params.kappa, True
            solve_at = (params.g, 0.0, 2.0 * params.epsilon / params.kappa)
        try:
            rho = oracle._settled(coupled, solve_at, kappa)
        except (DimensionCap, SingularSystem):  # the ladder's two refusals
            return
        n_cut = rho.ops.n_cut
        twice = direct_state(coupled, solve_at, kappa, 2 * n_cut)
        assert np.abs(np.subtract(rho.moments, twice.moments)).max() <= 1e-12
        if coupled:  # a fixed cutoff above the accepted rung takes its state
            got = steady_density(params, HilbertConfig(127))
            assert got.ops == rho.ops and np.array_equal(got.matrix, rho.matrix)

    @pytest.mark.thorough
    @settings(deadline=None, max_examples=max(1, settings.default.max_examples // 10))
    @given(point=ladder_points())
    @example(point=(True, 0.4, 0.8, 0.2))  # the canonical point
    @example(point=(False, 0.0, 3.9280327822506456, 0.39335439191446053 * 3.9280327822506456 / 2))
    @example(point=(True, 0.4, 0.1, 0.3))  # rung 16 misses, 32 passes
    @example(point=(False, 0.0, 224.52817578245697, 42.89226707590098))  # at the margin
    def test_the_top_shell_matches_the_padded_reference(self, point):
        # a tenth of the profile's examples: a draw may solve rung 64 twice.  The same
        # verdict, n_cut, state and residual, bit for bit, as the ladder and as a fixed
        # cutoff one above the accepted rung, whose residual the ring gives.  The one
        # difference is the norm: the reference scales its bound by rung n + 1's, the rule
        # by rung n's, which is smaller, so a ring between the two bounds passes the
        # reference alone (rung 16 at g = 0, kappa 224.5, eps 42.89: 6.83e-12 against
        # 6.60e-12 and 7.00e-12)
        coupled, gamma_c, kappa, eps = point
        if coupled:
            params = SystemParams.from_gamma_c(gamma_c, kappa, eps)
            rates, kappa = oracle._displaced(params), params.kappa
        else:
            rates, kappa = oracle._cavity(eps, kappa)
        outcomes = []
        for settle in (oracle._settled, padded_settled):
            try:
                outcomes.append(settle(coupled, rates, kappa))
            except (DimensionCap, SingularSystem) as exc:
                outcomes.append(type(exc))
        got, want = outcomes
        if isinstance(want, type):
            assert got is want
            return
        if isinstance(got, type) or got.ops != want.ops:
            n = want.ops.n_cut
            rho, _, norm = oracle._stationary(frame := oracle._frame(n, coupled),
                                              frame.at(*rates), kappa)
            _, pos, system = oracle._folded(wider := oracle._frame(n + 1, coupled),
                                            wider.at(*rates), kappa)
            wide = np.delete(abs(system) @ np.ones(system.shape[0]), pos[0, 0]).max()
            ring = rates[0 if coupled else 1] * math.sqrt(n + 1) * np.abs(rho[n]).max()
            bound = oracle._BACKWARD_TOL * np.abs(rho).max()
            assert norm < wide and norm * bound < ring <= wide * bound
            assert isinstance(got, type) or got.ops.n_cut > n
            return
        fixed = HilbertConfig(want.ops.n_cut + 1)
        for got, want in ((got, want), (oracle._settled(coupled, rates, kappa, fixed),
                                        padded_settled(coupled, rates, kappa, fixed))):
            assert got.ops.n_cut == want.ops.n_cut
            assert np.array_equal(got.matrix.view(np.uint64), want.matrix.view(np.uint64))
            assert np.float64(got.residual).view(np.uint64) == np.float64(want.residual).view(np.uint64)


def ladder_solves(coupled, gamma_c, kappa, eps):
    """The ladder's accepted state, or the type of its refusal, and every solve it made as
    ``(system, rhs, solution)``."""
    if coupled:
        params = SystemParams.from_gamma_c(gamma_c, kappa, eps)
        rates, kappa = oracle._displaced(params), params.kappa
    else:
        rates, kappa = oracle._cavity(eps, kappa)
    solves, solve = [], oracle.spsolve
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "spsolve", lambda system, rhs: solves.append(
            (system, rhs, x := solve(system, rhs))) or x)
        try:
            return oracle._settled(coupled, rates, kappa), solves
        except (DimensionCap, SingularSystem) as exc:  # the ladder's two refusals
            return type(exc), solves


class TestBandedSolve:
    """Folded systems of at most ``oracle._BAND_MAX`` unknowns are solved by LAPACK's banded
    LU in a reverse Cuthill-McKee order, with one step of iterative refinement; larger ones
    by SuperLU."""

    def test_an_exactly_singular_factor_exits_3(self, monkeypatch, capsys):
        # the trace row alone: dgbtrf finds a pivot that is exactly 0 (info > 0)
        from cavity_squeezing import cli
        solve, message = oracle.spsolve, "stationary solve failed: Factor is exactly singular"

        def trace_row_alone(system, rhs):
            system.data[system.indices != rhs.argmax()] = 0.0
            return solve(system, rhs)

        monkeypatch.setattr(oracle, "spsolve", trace_row_alone)
        with pytest.raises(SingularSystem, match=f"^{message}: U"):
            steady_density(params_at(0.2), HilbertConfig(16))
        assert cli.main(["oracle", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0.2"]) == 3
        assert capsys.readouterr().err.startswith(f"error: {message}: U")

    def test_a_refinement_step_that_raises_the_residual_is_dropped(self):
        # at eps 1e9 the step's own residual carries the rounding of entries of about 7e8
        # (6.0e-8 on the gate); gamma_c = kappa = 1e-38 in tests/test_domain.py needs it kept
        n_cut, report = cutoff_converged(params_at(1e9))
        assert n_cut == 16 and report.residual <= 1e-10

    def test_the_size_rule(self, monkeypatch):
        # rung 32 and the g = 0 rung 64 are factored as bands, rung 64 by SuperLU, each once
        systems, solve = [], oracle.spsolve
        monkeypatch.setattr(oracle, "spsolve",
                            lambda system, rhs: systems.append(system) or solve(system, rhs))
        sizes = count_factorisations(monkeypatch)
        for n_cut, coupled, rates in ((32, True, (0.2, 0.0, 0.5)), (64, False, (0.0, 0.2, 0.0)),
                                      (64, True, (0.2, 0.0, 0.5))):
            oracle._stationary(frame := oracle._frame(n_cut, coupled), frame.at(*rates), 0.8)
        assert [(len(system.indptr) - 1, "band" in vars(system.plan)) for system in systems] == [
            (2211, True), (2145, True), (8515, False)]
        assert sizes == [2211, 2145, 8515]

    @pytest.mark.parametrize("n_cut, coupled, rates", [
        (16, True, (0.2, 0.0, 0.5)), (17, True, (0.2, 0.0, 0.5)), (32, True, (0.2, 0.0, 0.5)),
        (16, False, (0.0, 0.2, 0.0)), (64, False, (0.0, 0.2, 0.0)),
        (16, True, (0.2, 0.0, 0.0)), (8, True, (0.0, 0.0, 0.0))])
    def test_order_is_scipys_reverse_cuthill_mckee(self, n_cut, coupled, rates):
        # node for node on a connected pattern; without drive the pattern falls apart, and
        # where components tie on degree the starts may differ, but not the bandwidths
        from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee
        frame = oracle._frame(n_cut, coupled)
        _, _, system = oracle._folded(frame, frame.at(*rates), 0.8)
        graph = abs(system) + abs(system.T)
        graph.data[:] = 1.0
        band, want = system.plan.band, reverse_cuthill_mckee(graph.tocsr(), symmetric_mode=True)
        if connected_components(graph)[0] == 1:
            assert np.array_equal(band.order, want)
        number = np.argsort(want)
        rows, cols = number[system.indices], number[np.repeat(np.arange(len(want)),
                                                              np.diff(system.indptr))]
        assert (band.kl, band.ku) == ((rows - cols).max(), (cols - rows).max())
        assert np.array_equal(np.sort(band.order), np.arange(len(want)))

    @pytest.mark.thorough
    @settings(deadline=None, max_examples=max(1, settings.default.max_examples // 10))
    @given(point=ladder_points())
    @example(point=(True, 0.4, 0.8, 0.2))  # the canonical point
    @example(point=(True, 1e-30, 1e30, 1.0))  # the domain test's extreme points
    @example(point=(True, 1e-38, 1e-38, 1e-140))
    def test_matches_superlu(self, point):
        # a tenth of the profile's examples: a draw may solve rung 64 twice
        banded, solves = ladder_solves(*point)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_BAND_MAX", 0)
            superlu, _ = ladder_solves(*point)
            for system, rhs, x in solves:
                want = oracle.spsolve(system, rhs)
                assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()
        if isinstance(banded, type):
            assert banded is superlu
        else:
            assert banded.ops == superlu.ops
            assert banded.residual <= oracle._RESIDUAL_TOL


class TestStrongDrive:
    """At eps = 1e4 the full model's coherence settles at sigma eps / g = 1/4.

    The closed forms eliminate the cavity adiabatically and give 1/2; here
    the atom's Rabi frequency 4 g eps / kappa is about 1.4e4, far above
    kappa, outside the regime of that elimination.
    """

    def test_one_state_at_every_cutoff(self):
        params = params_at(1e4)
        sigmas = []
        for n_cut in (8, 16, 32, 64):  # rung 16 settles 32 and 64
            rho = steady_density(params, HilbertConfig(n_cut))
            assert rho.residual <= 1e-10
            assert rho.hermiticity_error() == 0.0
            sigmas.append(rho.expect(dense_operators(rho.ops.n_cut)["sigma"]).real)
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
        assert n_cut == 16  # the first rung, which passes on rung 17
        assert report.comparisons["eta_b"]["oracle"] == pytest.approx(1.0, abs=1e-12)

    def test_canonical_point_converges_at_moderate_cutoff(self, canonical):
        n_cut, report = cutoff_converged(canonical)
        assert n_cut == 16
        assert report.n_cut == 16
        assert report.residual <= 1e-10

    @pytest.mark.parametrize("ladder", sorted(LADDERS))
    def test_cap_stops_runaway_doubling(self, ladder):
        assert LADDERS[ladder](dim_cap=66) == 32  # rung 32's dimension
        with pytest.raises(DimensionCap, match=r"^dimension 2\*\(32\+1\)=66 exceeds cap 64$"):
            LADDERS[ladder](dim_cap=64)


class TestOperatorBuilds:
    """Each Fock cutoff builds the parts a solve keeps of its operators once."""

    def test_built_on_first_use_and_kept(self):
        clear_caches()
        config = HilbertConfig(4)
        assert vars(config) == {"n_cut": 4, "dim_cap": 256}  # a config holds no operator
        assert [cache.cache_info().currsize for cache in CACHES.values()] == [0]
        assert oracle._frame(4, True) is oracle._frame(4, True)

    @pytest.mark.parametrize(
        "run,builds",
        [
            (lambda: cutoff_converged(params_at(0.2)), 1),  # rung 16, on its own top shell
            # the cavity's rungs 16 and 32, whose gathers read the accepted state's moments
            (lambda: decoupled_benchmark(0.2, 0.8), 2),
            (lambda: compare_with_closed_form(params_at(0.2), HilbertConfig(16)), 1),
        ],
        ids=["cutoff_converged", "decoupled_benchmark", "compare_with_closed_form"],
    )
    def test_one_build_per_rung(self, run, builds):
        # a second run builds none: the parts are kept per cutoff, not per config
        clear_caches()
        run()
        run()
        assert oracle._frame.cache_info().misses == builds


def test_one_generator_per_decoupled_rung(monkeypatch):
    """The ``g = 0`` solve and its residual gate read the same generator, the
    cavity block's, and its top shell certifies it: no product-space generator and no
    generator of the next rung is built."""
    rows, generator = [], oracle._generator

    def counting(*args):
        lv, plan = generator(*args)
        rows.append(lv.shape[0])
        return lv, plan

    monkeypatch.setattr(oracle, "_generator", counting)
    decoupled_benchmark(0.2, 0.8)
    assert rows == [(n_cut + 1) ** 2 for n_cut in (16, 32)]


class TestMomentReads:
    """Each state's solved-frame moments are read once, in ``DensityMatrix.moments``."""

    @pytest.mark.parametrize(
        "run,reads",
        [
            # the accepted rung's six moments, eta_b among them, which the report reads
            # as they are; no rung's moments decide the cutoff
            (lambda: cutoff_converged(params_at(0.2)), 6),
            (lambda: compare_with_closed_form(params_at(0.2), HilbertConfig(16)), 6),
            # the cavity frame's three moments of the accepted rung; the benchmark reads
            # no more
            (lambda: decoupled_benchmark(0.2, 0.8), 3),
        ],
        ids=["cutoff_converged", "compare_with_closed_form", "decoupled_benchmark"],
    )
    def test_expect_calls_per_run(self, run, reads, monkeypatch):
        # every read goes through DensityMatrix._read, expect's too
        calls = []
        read = DensityMatrix._read

        def counting(self, gather):
            calls.append(gather)
            return read(self, gather)

        monkeypatch.setattr(DensityMatrix, "_read", counting)
        run()
        assert len(calls) == reads

    @pytest.mark.parametrize("shift", [0.0, 0.5])
    def test_moments_are_the_direct_reads(self, shift):
        # six reads on the product space, three on the g = 0 cavity's own states
        ops, dense = HilbertConfig(n_cut=6), dense_operators(6)
        rng = np.random.default_rng(3)
        for d, atom in ((ops.dim, ("sigma", "eta_a", "eta_b")), (ops.n_cut + 1, ())):
            x = rng.standard_normal((d, d))
            rho = DensityMatrix(matrix=x @ x.T / np.trace(x @ x.T), residual=0.0, ops=ops,
                                shift=shift)
            b = dense["a"][:d, :d]
            direct = [rho.expect(op) for op in (b, b @ b, b.T @ b, *map(dense.get, atom))]
            assert rho.moments == tuple(direct)  # bit for bit
            assert rho.moments is rho.moments  # read once per state
            assert all(type(value) is float for value in rho.moments)
            s = shift
            assert rho.field_moments() == (s + direct[0], s * s + 2.0 * s * direct[0] + direct[1],
                                           s * s + 2.0 * s * direct[0] + direct[2])


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

    def test_dict_is_the_callers_own(self, canonical):
        report = compare_with_closed_form(canonical, HilbertConfig(8))
        payload = report.to_dict()
        assert payload == dataclasses.asdict(report)
        assert list(payload) == list(dataclasses.asdict(report))
        payload["comparisons"]["sigma"]["oracle"] = 0.0
        payload["comparisons"].clear()
        assert report.to_dict() == dataclasses.asdict(report)
        assert len(report.comparisons) == 8 and report.comparisons["sigma"]["oracle"] != 0.0

    def test_population_moments_match_closed_form_without_drive(self):
        report = compare_with_closed_form(params_at(0.0), HilbertConfig(8))
        for name in ("mean_photon_number", "mean_field", "eta_a", "eta_b", "sigma"):
            assert abs(report.comparisons[name]["delta"]) <= 1e-10


# (epsilon, kappa) at g = 0: kappa of ordinary size, at the rate window's edges
# [1e-38, 1e38] and one step outside them; epsilon 0, subnormal or tiny, or up to
# alpha = 2 eps / kappa = 3.
EDGES = [1e-38, 1e38, float(np.nextafter(1e-38, 0.0)), float(np.nextafter(1e38, math.inf))]
KAPPAS = st.one_of(st.floats(1e-3, 1e3), st.sampled_from(EDGES), st.floats(1e-38, 1e-36),
                   st.floats(1e36, 1e38))
DECOUPLED_POINTS = KAPPAS.flatmap(lambda kappa: st.tuples(
    st.one_of(st.just(0.0), st.floats(5e-324, 1e-300),
              st.floats(0.0, 1.5).map(lambda u: u * kappa)),
    st.just(kappa)))


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
        # the cavity's state with the atom in its lower level is a stationary state of the
        # g = 0 product-space generator, with the cavity block's residual, bit for bit
        rho = cavity_state(0.2, 0.8, 8)
        assert rho.matrix.shape == (9, 9) and rho.trace_error() <= 1e-12
        lifted = np.kron(np.diag([0.0, 1.0]), rho.matrix)
        eta_b = DensityMatrix(lifted, 0.0, rho.ops).expect(dense_operators(8)["eta_b"])
        assert eta_b.real == pytest.approx(1.0, abs=1e-12)
        frame = oracle._frame(8, True)
        lv, _ = oracle._generator(frame, frame.at(0.0, 0.2, 0.0), 0.8)
        assert float(np.abs(lv @ lifted.ravel("F")).max()) == rho.residual

    def test_undriven_decoupled_cavity_is_empty(self):
        rho = cavity_state(0.0, 0.8, 8)
        a = dense_operators(8)["a"][:9, :9]
        assert abs(rho.expect(a.conj().T @ a)) <= 1e-12

    @pytest.mark.parametrize("epsilon", [math.nan, -1.0, math.inf, 1.2e38, 1e307, 1e308])
    def test_refuses_the_drives_system_params_refuses(self, epsilon):
        with pytest.raises(ValueError) as want:
            params_at(epsilon)
        with pytest.raises(ValueError) as got:
            cavity_state(epsilon, 0.8, 8)
        assert str(got.value) == str(want.value)

    @pytest.mark.thorough
    @settings(deadline=None)
    @given(n_cut=st.integers(2, 32), point=DECOUPLED_POINTS)
    @example(n_cut=8, point=(0.2, 0.8))
    @example(n_cut=2, point=(0.0, 1e-38))
    @example(n_cut=4, point=(5e-324, 1e38))
    @example(n_cut=16, point=(1e38, 1e38))  # the residual gate refuses
    @example(n_cut=4, point=(1.5e38, 1e38))  # the drive bound refuses
    def test_equals_the_sliced_product_space_route(self, n_cut, point):
        # the route's state is the cavity's, lifted with the atom in its lower level
        try:
            want = sliced_decoupled_steady(*point, HilbertConfig(n_cut))
        except (ValueError, SingularSystem) as exc:
            with pytest.raises(type(exc)) as got:
                cavity_state(*point, n_cut)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            return
        rho = cavity_state(*point, n_cut)
        lifted = np.kron(np.diag([0.0, 1.0]), rho.matrix)
        assert np.array_equal(lifted.view(np.uint64), want[0].view(np.uint64))
        assert np.float64(rho.residual).view(np.uint64) == np.float64(want[1]).view(np.uint64)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            cavity_state(-0.1, 0.8, 8)
        with pytest.raises(ValueError):
            cavity_state(0.2, 0.0, 8)
        with pytest.raises(ValueError):  # kappa outside [1e-38, 1e38]
            cavity_state(1.0, 1e-200, 8)


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
        b = dense_operators(16)["a"]
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
    at both ends, and every step must shrink the delta.  The mean photon
    number and the mean field squared converge at second order in
    gamma_c/kappa, fourth in g/kappa, and are gated at x = 8 eps**2 /
    (kappa gamma_c) = 1/3 and 1.
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

    @pytest.mark.parametrize("x", [1.0 / 3.0, 1.0])
    def test_photon_number_and_field_squared_fall_at_order_3_6(self, x):
        # Second order in gamma_c/kappa, the margin of the test above doubled:
        # measured 3.96 and 3.99 at x = 1/3, and at x = 1 3.95 and 3.99 for the
        # photon number and 7.87 and 7.97 for the field squared, whose closed
        # form is 0 there.
        gamma_c = 0.4
        coupling, deltas = [], {"mean_photon_number": [], "mean_field_squared": []}
        for j in range(5):
            kappa = 0.8 * 4.0**j
            params = params_at(math.sqrt(x * kappa * gamma_c / 8.0), gamma_c, kappa)
            coupling.append(params.g / kappa)
            _, report = cutoff_converged(params)
            for name, values in deltas.items():
                values.append(abs(report.comparisons[name]["delta"]))
        in_regime = np.array(coupling[:-1]) <= 0.1
        assert in_regime.sum() == 2  # kappa = 12.8 -> 51.2 -> 204.8
        for name, values in deltas.items():
            orders = np.log2(np.array(values[:-1]) / np.array(values[1:]))
            assert orders.min() > 0.0, (name, values)
            assert orders[in_regime].min() >= 3.6, (name, values, orders)


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
