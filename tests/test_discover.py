"""Tests for the Hankel-system machinery and common-zero extraction."""

import math
import os
import pickle
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose

from cubasquare.basis2d import basis_for, dim_upto, three_term
from cubasquare.cli import _discover_peak
from cubasquare.cubature import exactness_check, weights_from_vandermonde
from cubasquare.discover import (
    KNOWN_EVEN_HANKEL,
    KNOWN_ODD_HANKEL,
    _STALL_STATUS,
    _STALL_WINDOW,
    CommonZeroError,
    HankelParam,
    align_to_reference,
    common_zeros,
    _HankelSystem,
    _jacobi_system,
    _Stalled,
    _StallWatch,
    gamma_coefficient,
    least_squares,
    odd_system_search,
    scaling_matrix,
    solve_even_system,
)
from cubasquare.nodes import NodeSet
from cubasquare.weights import constant


def legendre_A(n):
    """Three-term matrices A_{n,1}, A_{n,2} of the constant weight."""
    tt = three_term(constant(), n)
    return tt.A1, tt.A2


def odd_W(n, h):
    G = scaling_matrix(n)
    H = HankelParam("odd", n, h).matrix
    return np.eye(n + 1) - G @ H @ G.T


def residual(mode, n, h):
    return HankelParam(mode, n, h).residual()


class TestBuildingBlocks:
    def test_gamma_against_big_integers(self):
        for k in range(21):
            exact = Fraction(math.comb(2 * k, k), 2**k)
            assert gamma_coefficient(k) == pytest.approx(float(exact) * math.sqrt(2 * k + 1), rel=1e-15)

    def test_a_entry_k0(self):
        # reference 1/sqrt(3) rounded once from 28 digits; float 1 / math.sqrt(3)
        # is itself 7.8e-17 above the true value
        A1, _ = legendre_A(0)
        assert A1[0, 0] == pytest.approx(float(1 / Decimal(3).sqrt()), abs=1e-16)

    def test_banded_structure(self):
        A1, A2 = legendre_A(5)
        assert ((A1 != 0).sum(axis=1) == 1).all()
        assert ((A2 != 0).sum(axis=1) == 1).all()

    def test_three_term_residual(self):
        rng = np.random.default_rng(0)
        x, y = rng.uniform(-1, 1, (2, 30))
        b = basis_for(constant())
        for n in range(1, 6):
            A1n, A2n = legendre_A(n)
            A1m, A2m = legendre_A(n - 1)
            Pn = b.eval_degree(n, x, y)
            Pn1 = b.eval_degree(n + 1, x, y)
            Pm = b.eval_degree(n - 1, x, y)
            assert np.abs(x * Pn - A1n @ Pn1 - A1m.T @ Pm).max() < 1e-12
            assert np.abs(y * Pn - A2n @ Pn1 - A2m.T @ Pm).max() < 1e-12

    def test_hankel_param_shapes(self):
        with pytest.raises(ValueError):
            HankelParam("even", 3, np.zeros(5))
        with pytest.raises(ValueError):
            HankelParam("odd", 3, np.zeros(6))
        H = KNOWN_ODD_HANKEL[3].matrix
        assert H.shape == (4, 4)
        assert np.abs(H - H.T).max() == 0.0

    @pytest.mark.parametrize("n", range(2, 8))
    def test_system_is_the_closed_formula(self, n):
        rng = np.random.default_rng(n)
        h_even, h_odd = rng.standard_normal(2 * n), rng.standard_normal(2 * n + 1)
        gamma = scaling_matrix(n) @ HankelParam("even", n, h_even).matrix @ scaling_matrix(n - 1).T
        assert np.array_equal(HankelParam("even", n, h_even).system, gamma)
        assert np.array_equal(HankelParam("odd", n, h_odd).system, odd_W(n, h_odd))


class TestStructuralIdentities:
    def test_even_hankel_parameterization_symmetry(self):
        # A_{n-1,i} (G H G') is symmetric for every Hankel H
        rng = np.random.default_rng(1)
        for n in range(2, 9):
            h = rng.standard_normal(2 * n)
            Gam = scaling_matrix(n) @ HankelParam("even", n, h).matrix @ scaling_matrix(n - 1).T
            A1, A2 = legendre_A(n - 1)
            assert np.abs(A1 @ Gam - (A1 @ Gam).T).max() < 1e-10
            assert np.abs(A2 @ Gam - (A2 @ Gam).T).max() < 1e-10

    def test_odd_hankel_parameterization_symmetry(self):
        # A1 (W - I) A2^T = A2 (W - I) A1^T for every Hankel H
        rng = np.random.default_rng(2)
        for n in range(2, 9):
            h = rng.standard_normal(2 * n + 1)
            W = odd_W(n, h)
            A1, A2 = legendre_A(n - 1)
            D = W - np.eye(n + 1)
            assert np.abs(A1 @ D @ A2.T - A2 @ D @ A1.T).max() < 1e-10

    def test_residual_dimensions(self):
        for n in (3, 5, 7):
            assert residual("even", n, np.zeros(2 * n)).shape == (n * (n - 1) // 2,)
            assert residual("odd", n, np.zeros(2 * n + 1)).shape == (n * (n + 1) // 2,)

    def test_zero_hankel_even_residual(self):
        n = 4
        A1, A2 = legendre_A(n - 1)
        C = A1 @ A2.T - A2 @ A1.T
        iu = np.triu_indices(n, 1)
        assert_allclose(residual("even", n, np.zeros(2 * n)), -C[iu], atol=1e-15)


def reference_even_jacobian(n, h):
    """Per-entry loop: columns dR/dh_l of Gamma^T M Gamma, Gamma = G_n H G_{n-1}^T."""
    G1, G0 = scaling_matrix(n), scaling_matrix(n - 1)
    A1, A2 = legendre_A(n - 1)
    M = A1.T @ A2 - A2.T @ A1
    iu = np.triu_indices(n, 1)
    Gam = G1 @ HankelParam("even", n, h).matrix @ G0.T
    cols = []
    for l in range(2 * n):
        E = np.zeros((n + 1, n))
        for i in range(n + 1):
            if 0 <= l - i < n:
                E[i, l - i] = 1.0
        Gl = G1 @ E @ G0.T
        cols.append((Gl.T @ M @ Gam + Gam.T @ M @ Gl)[iu])
    return np.array(cols).T


def hankel_system(mode, n, rank_penalty=False):
    """A freshly built system; penalised through ``penalised()``, its one route."""
    system = _HankelSystem(mode, n)
    return system.penalised() if rank_penalty else system


def reference_odd_jacobian(n, h, rank_penalty):
    """Per-entry loop: columns dR/dh_l of W M W (and the trailing eigenvalues of W)."""
    G = scaling_matrix(n)
    A1, A2 = legendre_A(n - 1)
    M = A1.T @ A2 - A2.T @ A1
    iu = np.triu_indices(n + 1, 1)
    W = odd_W(n, h)
    Qt = np.linalg.eigh(W)[1][:, : (n + 1) - n // 2]
    cols = []
    for l in range(2 * n + 1):
        E = np.zeros((n + 1, n + 1))
        for i in range(n + 1):
            if 0 <= l - i <= n:
                E[i, l - i] = 1.0
        dW = -(G @ E @ G.T)
        col = (dW @ M @ W + W @ M @ dW)[iu]
        if rank_penalty:
            col = np.concatenate([col, np.einsum("ik,ij,jk->k", Qt, dW, Qt)])
        cols.append(col)
    return np.array(cols).T


class TestJacobian:
    """The batched analytic Jacobian against the per-entry reference loops."""

    @staticmethod
    def close(got, ref):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_even(self, n):
        h = np.random.default_rng(n).standard_normal(2 * n) * _HankelSystem("even", n).scale
        self.close(_HankelSystem("even", n).jacobian(h), reference_even_jacobian(n, h))

    @pytest.mark.parametrize("rank_penalty", [True, False])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_odd(self, n, rank_penalty):
        system = hankel_system("odd", n, rank_penalty)
        h = np.random.default_rng(n).standard_normal(2 * n + 1) * system.scale
        self.close(system.jacobian(h), reference_odd_jacobian(n, h, rank_penalty))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_odd_restricted(self, n):
        system = _HankelSystem("odd", n).penalised().restricted()
        x = np.random.default_rng(n).standard_normal(n + 1) * system.scale
        h = np.zeros(2 * n + 1)
        h[::2] = x
        self.close(system.jacobian(x), reference_odd_jacobian(n, h, True)[:, ::2])


def reference_residual(mode, n, h, rank_penalty=False):
    """(X0 + sum_l h_l B_l)^T M (X0 + sum_l h_l B_l) - C on the strict upper
    triangle, formed directly, and the trailing eigenvalues of X when penalised."""
    A1, A2 = legendre_A(n - 1)
    M = A1.T @ A2 - A2.T @ A1
    cols = n if mode == "even" else n + 1
    B = [scaling_matrix(n) @ HankelParam(mode, n, e).matrix @ scaling_matrix(cols - 1).T
         for e in np.eye(n + cols)]
    if mode == "even":
        X, C = sum(hl * Bl for hl, Bl in zip(h, B)), A1 @ A2.T - A2 @ A1.T
    else:
        X, C = np.eye(n + 1) - sum(hl * Bl for hl, Bl in zip(h, B)), 0.0
    r = (X.T @ M @ X - C)[np.triu_indices(cols, 1)]
    if rank_penalty:
        r = np.concatenate([r, np.linalg.eigvalsh(X)[: (n + 1) - n // 2]])
    return r


QUADRATIC_CASES = [(mode, n, rp, sub) for n in range(3, 8) for sub in (False, True)
                   for mode, rp in (("even", False), ("odd", False), ("odd", True))]


class TestQuadraticForm:
    """The precomputed a + L h + 1/2 (Q h) h against the direct matrix product."""

    @staticmethod
    def system_and_embed(mode, n, rank_penalty, restricted):
        system = hankel_system(mode, n, rank_penalty)
        if restricted:
            system = system.restricted()

        def full(x):
            h = np.zeros(system.nvar)
            h[system.free] = x
            return h

        return system, full

    @pytest.mark.parametrize("mode,n,rank_penalty,restricted", QUADRATIC_CASES)
    def test_residual_matches_direct_product(self, mode, n, rank_penalty, restricted):
        system, full = self.system_and_embed(mode, n, rank_penalty, restricted)
        rng = np.random.default_rng(10 * n + restricted)
        for _ in range(4):
            x = rng.standard_normal(len(system.free)) * system.scale * 3.0 ** rng.integers(-1, 2)
            ref = reference_residual(mode, n, full(x), rank_penalty)
            got = system.residual(x)
            assert got.shape == ref.shape == (system.neq,)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("mode,n,rank_penalty,restricted", QUADRATIC_CASES)
    def test_jacobian_matches_central_differences(self, mode, n, rank_penalty, restricted):
        system, full = self.system_and_embed(mode, n, rank_penalty, restricted)
        x = np.random.default_rng(n).standard_normal(len(system.free)) * system.scale
        step = 1e-6 * system.scale
        fd = np.array([(reference_residual(mode, n, full(x + step * e), rank_penalty)
                        - reference_residual(mode, n, full(x - step * e), rank_penalty)) / (2 * step)
                       for e in np.eye(len(x))]).T
        J = system.jacobian(x)
        assert J.shape == (system.neq, len(system.free))
        assert np.abs(J - fd).max() <= 1e-7 * np.abs(fd).max()

    @pytest.mark.parametrize("mode,n", [("even", 6), ("odd", 7)])
    def test_q_symmetric(self, mode, n):
        Q = _HankelSystem(mode, n).Q
        assert np.array_equal(Q, np.swapaxes(Q, 1, 2))


def hankel_systems():
    """Every Hankel system of n = 3..7: even, odd and penalised odd, full and
    restricted, as (label, system)."""
    for n in range(3, 8):
        for mode, rp in (("even", False), ("odd", False), ("odd", True)):
            system = hankel_system(mode, n, rp)
            for sub in (False, True):
                yield f"{mode}{n}-{'pen' if rp else 'alg'}-{'sub' if sub else 'full'}", (
                    system.restricted() if sub else system)


LM_SYSTEMS = {label: s for label, s in hankel_systems() if s.method == "lm"}
TRF_SYSTEMS = [pytest.param(s, id=label) for label, s in hankel_systems() if s.method == "trf"]
FIT_TOLS = dict(xtol=1e-15, ftol=1e-15, gtol=1e-15)


def fixed_starts(system, count=3):
    rng = np.random.default_rng(len(system.free) + 100 * system.neq)
    return [rng.uniform(-1.0, 1.0, len(system.free)) * system.scale * 3.0 ** rng.integers(-1, 2)
            for _ in range(count)]


def write_lm_fits(path):
    """Fit every LM system from its fixed starts with ``discover.least_squares``
    and with scipy's ``least_squares``; pickle {label: [(got, ref), ...]} to path."""
    fits = {label: [tuple(fit(system.residual, x0, jac=system.jacobian, method="lm",
                              max_nfev=600, **FIT_TOLS)
                          for fit in (least_squares, scipy.optimize.least_squares))
                    for x0 in fixed_starts(system)]
            for label, system in LM_SYSTEMS.items()}
    Path(path).write_bytes(pickle.dumps(fits))


WATCHED_SYSTEMS = [label for label, s in LM_SYSTEMS.items() if s.tail and label[:4] in ("odd4", "odd5")]


def write_watched_fits(path):
    """Fit the odd 4 and odd 5 rank-penalised systems from their fixed starts
    with ``_HankelSystem.fit`` (under the stall watch) and with plain
    ``discover.least_squares``; pickle {label: [(watched, plain), ...]} to path."""
    fits = {}
    for label in WATCHED_SYSTEMS:
        system, pairs = LM_SYSTEMS[label], []
        for x0 in fixed_starts(system):
            h0 = np.zeros(system.nvar)
            h0[system.free] = x0
            plain = least_squares(system.residual, x0, jac=system.jacobian, method="lm",
                                  max_nfev=600, **FIT_TOLS)
            pairs.append((system.fit(h0, 600), plain))
        fits[label] = pairs
    Path(path).write_bytes(pickle.dumps(fits))


def fits_in_child(tmp_path_factory, writer):
    """The fits pickled by ``test_discover.<writer>``, run in a fresh
    interpreter in which glibc overwrites all freed memory with the byte 0x01
    (no thread cache).

    scipy's MINPACK lmder (scipy 1.17) reads the double just past its m x n
    Jacobian buffer, and a large stale value there (1e2 is enough for
    odd4-alg-full) changes the pivot order of its QR factorisation.  In a
    long test session that value depends on the heap's history, so two
    identical fits in one process can end at different points.
    """
    path = tmp_path_factory.mktemp("lm") / "fits.pickle"
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]),
               MALLOC_PERTURB_="1", GLIBC_TUNABLES="glibc.malloc.tcache_count=0")
    code = f"import test_discover; test_discover.{writer}({str(path)!r})"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return pickle.loads(path.read_bytes())


@pytest.fixture(scope="module")
def lm_fits(tmp_path_factory):
    """The LM fits of ``write_lm_fits``, run by ``fits_in_child``."""
    return fits_in_child(tmp_path_factory, "write_lm_fits")


@pytest.fixture(scope="module")
def watched_fits(tmp_path_factory):
    """The fits of ``write_watched_fits``, run by ``fits_in_child``."""
    return fits_in_child(tmp_path_factory, "write_watched_fits")


class TestLeastSquares:
    """``discover.least_squares`` (MINPACK through ``leastsq``) against scipy's
    ``least_squares``, and the LAPACK rank tail against numpy's eigensolvers."""

    @pytest.mark.parametrize("label", list(LM_SYSTEMS))
    def test_lm_matches_scipy_least_squares(self, label, lm_fits):
        system = LM_SYSTEMS[label]
        assert len(lm_fits[label]) == 3
        for got, ref in lm_fits[label]:
            assert np.abs(got.x - ref.x).max() <= 1e-12 * system.scale
            assert np.abs(got.fun - ref.fun).max() <= 1e-12 * np.abs(system.a).max()
            assert (got.nfev, got.njev, got.status) == (ref.nfev, ref.njev, ref.status)

    @pytest.mark.parametrize("system", TRF_SYSTEMS)
    def test_trf_is_scipy_least_squares(self, system):
        x0 = fixed_starts(system, 1)[0]
        got = least_squares(system.residual, x0, jac=system.jacobian, method="trf",
                            max_nfev=400, **FIT_TOLS)
        ref = scipy.optimize.least_squares(system.residual, x0, jac=system.jacobian,
                                           method="trf", max_nfev=400, **FIT_TOLS)
        assert np.array_equal(got.x, ref.x)
        assert (got.nfev, got.njev, got.status) == (ref.nfev, ref.njev, ref.status)
        assert np.array_equal(got.optimality, ref.optimality)

    @pytest.mark.parametrize("system", [pytest.param(s, id=label) for label, s in hankel_systems()
                                        if s.tail])
    def test_rank_tail_matches_numpy_eigensolvers(self, system):
        """dsyevd's tail and its Jacobian rows against np.linalg.eigvalsh/eigh
        and d lambda_k / dh_l = q_k^T B_l q_k written out."""
        m = system.X0.shape[0]
        B = system.B.reshape(-1, m, m)
        for x in fixed_starts(system):
            X, P = system.X(x), system.neq - system.tail
            ref_r = np.concatenate([system.a + (system.L + 0.5 * (system.Q @ x)) @ x,
                                    np.linalg.eigvalsh(X)[: system.tail]])
            q = np.linalg.eigh(X)[1][:, : system.tail]
            ref_J = np.vstack([system.L + system.Q @ x, np.einsum("ik,lij,jk->kl", q, B, q)])
            r, J = system.residual(x), system.jacobian(x)
            assert np.abs(r[:P] - ref_r[:P]).max() <= 1e-14 * np.abs(ref_r[:P]).max()
            assert np.abs(r[P:] - ref_r[P:]).max() <= 1e-14 * np.abs(ref_r[P:]).max()
            assert np.abs(J - ref_J).max() <= 1e-14 * np.abs(ref_J).max()


def reference_quadratic_form(mode, n):
    """a, L and Q formed as ``_HankelSystem`` first did: one ``HankelParam``
    per anti-diagonal matrix E_l, and einsum's own contraction-path search."""
    A1, A2 = legendre_A(n - 1)
    M = A1.T @ A2 - A2.T @ A1
    cols = n if mode == "even" else n + 1
    E = np.array([HankelParam(mode, n, e).matrix for e in np.eye(n + cols)])
    B = scaling_matrix(n) @ E @ scaling_matrix(cols - 1).T
    if mode == "even":
        X0, C = np.zeros((n + 1, cols)), A1 @ A2.T - A2 @ A1.T
    else:
        X0, C, B = np.eye(n + 1), 0.0, -B
    i, j = np.triu_indices(cols, 1)
    D = np.swapaxes(B, 1, 2) @ (M @ X0) + (X0.T @ M) @ B
    T = np.einsum("lap,ab,mbp->plm", B[:, :, i], M, B[:, :, j], optimize=True)
    return (X0.T @ M @ X0 - C)[i, j], np.ascontiguousarray(D[:, i, j].T), T + np.swapaxes(T, 1, 2)


REUSE_CASES = [(mode, n, rp, sub) for n in (4, 5) for sub in (False, True)
               for mode, rp in (("even", False), ("odd", False), ("odd", True))]


def fresh_system(mode, n, rank_penalty, restricted):
    system = hankel_system(mode, n, rank_penalty)
    return system.restricted() if restricted else system


def same_bits(got, ref):
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestProductReuse:
    """The system's construction and its penalised copy, and the Q h and X(h)
    that a Jacobian reuses from the residual at the same h: each must give
    the bits a freshly built system gives."""

    @pytest.mark.parametrize("mode", ["even", "odd"])
    @pytest.mark.parametrize("n", [*range(2, 11), 30])
    def test_construction_matches_per_entry_reference(self, mode, n):
        system = _HankelSystem(mode, n)
        for got, ref in zip((system.a, system.L, system.Q), reference_quadratic_form(mode, n)):
            same_bits(got, ref)

    @pytest.mark.parametrize("mode", ["even", "odd"])
    def test_einsum_path_is_the_searched_one_at_every_admitted_n(self, mode):
        """The fixed contraction path is what optimize=True picks from the
        operand shapes alone, at every n up to the CLI's memory bound;
        zero-stride operands keep this free of allocation."""
        n = 2
        while _discover_peak(mode, n) <= 2**30:
            cols = n + (mode == "odd")
            Bi = np.broadcast_to(0.0, (2 * n + (mode == "odd"), n + 1, cols * (cols - 1) // 2))
            M = np.broadcast_to(0.0, (n + 1, n + 1))
            assert np.einsum_path("lap,ab,mbp->plm", Bi, M, Bi, optimize=True)[0] == [
                "einsum_path", (0, 1), (0, 1)], n
            n += 1
        assert n - 1 == {"odd": 70, "even": 71}[mode]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_penalised_copy_shares_the_quadratic_form(self, n):
        algebraic = _HankelSystem("odd", n)
        penalised = algebraic.penalised()
        assert penalised.Q is algebraic.Q and penalised.a is algebraic.a and penalised.L is algebraic.L
        assert penalised.tail == (n + 1) - n // 2 and penalised.neq == len(algebraic.a) + penalised.tail
        assert algebraic.tail == 0 and algebraic.neq == len(algebraic.a)

    @pytest.mark.parametrize("case", REUSE_CASES)
    def test_jacobian_after_residual(self, case):
        system = fresh_system(*case)
        x1, x2 = fixed_starts(system, 2)
        system.residual(x1)
        same_bits(system.jacobian(x2), fresh_system(*case).jacobian(x2))  # another point
        same_bits(system.residual(x1), fresh_system(*case).residual(x1))
        same_bits(system.jacobian(x1), fresh_system(*case).jacobian(x1))  # the residual's point
        h = x1.copy()  # one array changed in place between the calls, as MINPACK does with its x
        system.residual(h)
        h[:] = x2
        same_bits(system.jacobian(h), fresh_system(*case).jacobian(x2))
        same_bits(system.residual(h), fresh_system(*case).residual(x2))

    @pytest.mark.parametrize("case", REUSE_CASES)
    def test_returned_arrays_are_new(self, case):
        system = fresh_system(*case)
        x = fixed_starts(system, 1)[0]
        r, J = system.residual(x), system.jacobian(x)
        r_ref, J_ref = r.copy(), J.copy()
        r[:], J[:] = np.nan, np.nan
        same_bits(system.jacobian(x), J_ref)
        same_bits(system.residual(x), r_ref)
        J = system.jacobian(x)
        J[:] = np.nan
        same_bits(system.jacobian(x), J_ref)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_copies_keep_no_products(self, n):
        """restricted() and penalised() copies of a system already called at
        h give a fresh system's bits, and their calls leave the parent's alone."""
        algebraic = _HankelSystem("odd", n)
        h = fixed_starts(algebraic, 1)[0]
        algebraic.residual(h)
        penalised = algebraic.penalised()
        same_bits(penalised.jacobian(h), hankel_system("odd", n, True).jacobian(h))
        sub = algebraic.restricted()
        x = h[sub.free]
        same_bits(sub.jacobian(x), _HankelSystem("odd", n).restricted().jacobian(x))
        penalised.residual(2.0 * h)
        same_bits(algebraic.jacobian(h), _HankelSystem("odd", n).jacobian(h))
        pen_sub = penalised.restricted()
        same_bits(pen_sub.jacobian(x), hankel_system("odd", n, True).restricted().jacobian(x))


class TestStallExit:
    """The stall watch of the rank-penalised fits (``tail > 0``)."""

    def test_window_rule(self):
        """A flat |r| stops at evaluation _STALL_WINDOW + 1 with the first x,
        one that falls by 0.6 per window there with the last x; one that
        halves in fewer than _STALL_WINDOW evaluations never stops."""
        for rate, best_x in ((1.0, 1.0), (0.6, _STALL_WINDOW + 1.0)):
            watch = _StallWatch(lambda x: np.array([rate ** (x[0] / _STALL_WINDOW)]), None)
            with pytest.raises(_Stalled) as stop:
                for k in range(1, 3 * _STALL_WINDOW):
                    watch.residual(np.array([float(k)]))
            assert (stop.value.nfev, stop.value.njev, stop.value.x[0]) == (_STALL_WINDOW + 1, 0, best_x)
        steady = _StallWatch(lambda x: np.array([0.5 ** (x[0] / (_STALL_WINDOW - 1))]), None)
        for k in range(1, 5 * _STALL_WINDOW):
            steady.residual(np.array([float(k)]))

    def test_penalised_odd7_fit_stalls(self):
        system = LM_SYSTEMS["odd7-pen-full"]
        res = system.fit(fixed_starts(system, 1)[0], 600)
        assert res.status == _STALL_STATUS
        assert _STALL_WINDOW < res.nfev < 600 and 0 < res.njev < res.nfev
        assert np.linalg.norm(res.fun) > 1e-3
        assert np.array_equal(res.fun, system.residual(res.x))  # the best point and its residual
        report = odd_system_search(7, seeds=3, rng_seed=0)
        assert report.status == "not-found" and report.stalled == 3

    def test_converged_fits_run_as_unwatched(self, watched_fits):
        """Where the plain fit converges within the window, the watched fit
        ends at the same point (to rounding: MINPACK fits are not
        bit-reproducible within a process) with the same counts and status."""
        compared = 0
        for label in WATCHED_SYSTEMS:
            system = LM_SYSTEMS[label]
            for watched, plain in watched_fits[label]:
                if plain.nfev > _STALL_WINDOW or np.abs(plain.fun).max() > 1e-10:
                    continue
                compared += 1
                assert np.abs(watched.x[system.free] - plain.x).max() <= 1e-12 * system.scale, label
                assert (watched.nfev, watched.njev, watched.status) == (plain.nfev, plain.njev,
                                                                         plain.status), label
        assert compared >= 7

    def test_unpenalised_fits_are_not_watched(self):
        # from this start the fit plateaus at |r| ~ 1e-2 and ends by xtol after 218 evaluations
        system = _HankelSystem("odd", 6).restricted()
        h0 = np.zeros(system.nvar)
        h0[system.free] = fixed_starts(system, 1)[0]
        res = system.fit(h0, 600)
        assert res.nfev > _STALL_WINDOW and res.status != _STALL_STATUS

    @pytest.mark.parametrize("method", ["lm", "trf"])
    def test_least_squares_returns_the_stall(self, method):
        system = LM_SYSTEMS["odd5-pen-full"] if method == "lm" else _HankelSystem("odd", 3)
        assert system.method == method
        x0 = fixed_starts(system, 1)[0]
        best = system.residual(x0)

        def fun(x):
            raise _Stalled(x0, best, 7, 3)

        res = least_squares(fun, x0, jac=system.jacobian, method=method, max_nfev=600, **FIT_TOLS)
        assert res.status == _STALL_STATUS and (res.nfev, res.njev) == (7, 3)
        assert res.x is x0 and res.fun is best


def reference_poly_system(n, coeff_n, coeff_nm1, x, y):
    """F, dF/dx, dF/dy of coeff_n P_n (+ coeff_nm1 P_{n-1}), the members formed one k at a time."""
    from cubasquare.univariate import jacobi_normalized_table_with_derivative as table

    tx, dtx = table(0.0, 0.0, n, x)
    ty, dty = table(0.0, 0.0, n, y)
    out = None
    for c, d in ((coeff_n, n), (coeff_nm1, n - 1)):
        if c is None:
            continue
        P = [np.array([a[d - k] * b[k] for k in range(d + 1)]) for a, b in ((tx, ty), (dtx, ty), (tx, dty))]
        part = [c @ p for p in P]
        out = part if out is None else [o + p for o, p in zip(out, part)]
    return out


def library_poly_system(n, coeff_n, coeff_nm1, x, y):
    """F, dF/dx, dF/dy from the library's total-degree row stacks, combined per degree
    as in the reference."""
    from cubasquare.basis2d import _total_degree_rows
    from cubasquare.univariate import jacobi_normalized_table_with_derivative as table

    (tx, dtx), (ty, dty) = table(0.0, 0.0, n, x), table(0.0, 0.0, n, y)
    stacks = [_total_degree_rows(a, b) for a, b in ((tx, ty), (dtx, ty), (tx, dty))]
    out = [coeff_n @ rows[dim_upto(n - 1):] for rows in stacks]
    if coeff_nm1 is not None:
        out = [o + coeff_nm1 @ rows[dim_upto(n - 2):dim_upto(n - 1)] for o, rows in zip(out, stacks)]
    return out


class TestPolySystemStacks:
    """The reference evaluator behind ``reference_common_zeros`` against the
    library's stacked basis rows, which the check of ``common_zeros`` evaluates."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("with_nm1", [False, True])
    def test_bitwise_equal_to_per_member_loop(self, n, with_nm1):
        rng = np.random.default_rng(n)
        coeff_n = rng.standard_normal((3, n + 1))
        coeff_nm1 = rng.standard_normal((3, n)) if with_nm1 else None
        x, y = rng.uniform(-1.3, 1.3, (2, 257))
        got = library_poly_system(n, coeff_n, coeff_nm1, x, y)
        ref = reference_poly_system(n, coeff_n, coeff_nm1, x, y)
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))

    @pytest.mark.parametrize("n", [5, 7])
    @pytest.mark.parametrize("with_nm1", [False, True])
    def test_values_without_derivative_tables(self, n, with_nm1):
        # eval_upto uses the plain Jacobi tables, whose rows are those of the derivative kernel
        rng = np.random.default_rng(10 + n)
        coeff_n, coeff_nm1 = rng.standard_normal((4, n + 1)), rng.standard_normal((4, n)) if with_nm1 else None
        x, y = (g.ravel() for g in np.meshgrid(*2 * [np.linspace(-1.3, 1.3, 60)]))
        rows = basis_for(constant()).eval_upto(n, x, y)
        F = coeff_n @ rows[dim_upto(n - 1):]
        if with_nm1:
            F = F + coeff_nm1 @ rows[dim_upto(n - 2):dim_upto(n - 1)]
        assert np.array_equal(F, reference_poly_system(n, coeff_n, coeff_nm1, x, y)[0])


class TestFixtures:
    def test_even_h3(self):
        assert np.abs(KNOWN_EVEN_HANKEL[3].residual()).max() < 1e-10

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_odd_fixtures_solve(self, n):
        assert np.abs(KNOWN_ODD_HANKEL[n].residual()).max() < 1e-10

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_odd_fixtures_psd_rank(self, n):
        W = odd_W(n, KNOWN_ODD_HANKEL[n].h)
        ev = np.linalg.eigvalsh(W)
        r = n // 2
        assert ev[0] > -1e-9
        assert ev[-(r):].min() > 1e-8
        assert np.abs(ev[: (n + 1) - r]).max() < 1e-9


class TestSolvers:
    def test_even_n5_solution_found(self):
        sols = solve_even_system(5, seeds=40, rng_seed=0)
        assert len(sols) >= 1
        for s in sols:
            assert np.abs(s.residual()).max() < 1e-10

    def test_determinism(self):
        a = solve_even_system(5, seeds=20, rng_seed=7)
        b = solve_even_system(5, seeds=20, rng_seed=7)
        assert len(a) == len(b)
        for s, t in zip(a, b):
            assert np.array_equal(s.h, t.h)

    def test_even_basin_recovery_of_known_h3(self):
        # the n=3 solution set is a manifold; verify the known matrix is on it
        # and is recovered from a nearby start
        from scipy.optimize import least_squares

        ref = KNOWN_EVEN_HANKEL[3].h
        rng = np.random.default_rng(4)
        x0 = ref + rng.normal(scale=1e-3, size=ref.shape)
        r = least_squares(lambda h: residual("even", 3, h), x0, method="trf",
                          xtol=1e-15, ftol=1e-15, gtol=1e-15)
        assert np.abs(residual("even", 3, r.x)).max() < 1e-11

    def test_odd_n3_recovers_known_h3(self):
        sols = odd_system_search(3, seeds=20, rng_seed=1).verified
        dists = [align_to_reference(s, KNOWN_ODD_HANKEL[3])[1] for s in sols]
        assert min(dists) < 1e-8

    def test_odd_n5_recovers_known_h5(self):
        sols = odd_system_search(5, seeds=60, rng_seed=0).verified
        assert sols
        dists = [align_to_reference(s, KNOWN_ODD_HANKEL[5])[1] for s in sols]
        assert min(dists) < 1e-8

    def test_odd_solution_factorization(self):
        # every verified W is PSD with floor(n/2) positive and (n+1) - floor(n/2) zero eigenvalues
        sols = odd_system_search(5, seeds=60, rng_seed=0).verified
        assert sols
        for s in sols:
            assert np.array_equal(s.system, odd_W(5, s.h))
            ev = np.linalg.eigvalsh(s.system)
            assert np.abs(ev[:4]).max() <= 1e-9
            assert ev[4:].min() > 1e-8

    def test_align_to_reference(self):
        ref = KNOWN_ODD_HANKEL[5]
        mirrored = HankelParam("odd", 5, ref.h[::-1] * (-1.0) ** np.arange(11))
        best, dist = align_to_reference(mirrored, ref)
        assert dist == 0.0 and np.array_equal(best.h, ref.h) and best.mode == "odd"
        with pytest.raises(ValueError, match="cannot align"):
            align_to_reference(KNOWN_ODD_HANKEL[3], ref)

    def test_odd_search_report_status(self):
        rep = odd_system_search(4, seeds=10, rng_seed=0)
        assert rep.status == "found"


class TestCommonZeros:
    def test_odd_n3_seven_nodes_degree5(self):
        pts = common_zeros(KNOWN_ODD_HANKEL[3])
        assert len(pts) == 7
        ns = NodeSet(points=pts, family="discovered_odd", n=3, expected_count=7)
        rule = weights_from_vandermonde(ns, constant(), 5)
        assert exactness_check(rule).passed

    def test_odd_n5_seventeen_interior_nodes_degree9(self):
        pts = common_zeros(KNOWN_ODD_HANKEL[5])
        assert len(pts) == 17
        assert np.all(np.abs(pts) <= 1.0)
        ns = NodeSet(points=pts, family="discovered_odd", n=5, expected_count=17)
        rule = weights_from_vandermonde(ns, constant(), 9)
        assert exactness_check(rule).passed

    def test_even_n5_one_node_outside(self, even5):
        pts = common_zeros(even5)
        assert len(pts) == 15
        outside = (~np.all(np.abs(pts) <= 1 + 1e-10, axis=1)).sum()
        assert outside == 1


def generating_coeffs(hankel):
    """coeff_n, coeff_nm1 of a solution's generating polynomials: P_n + Gamma P_{n-1}
    (even) or U^T P_n with U the null space of W (odd)."""
    n = hankel.n
    if hankel.mode == "even":
        return np.eye(n + 1), scaling_matrix(n) @ hankel.matrix @ scaling_matrix(n - 1).T
    return np.linalg.eigh(odd_W(n, hankel.h))[1][:, : (n + 1) - n // 2].T, None


def reference_common_zeros(n, coeff_n, coeff_nm1, region=1.3, grid=60, tol=1e-10, dedupe_tol=1e-9):
    """Gauss-Newton from every start of a grid x grid lattice through 80 sweeps,
    then a per-point Python dedupe: the zeros inside [-region, region]^2."""
    g = np.linspace(-region, region, grid)
    X, Y = np.meshgrid(g, g, indexing="ij")
    x, y = X.ravel().copy(), Y.ravel().copy()

    def fj(x, y):
        return reference_poly_system(n, coeff_n, coeff_nm1, x, y)

    for _ in range(80):
        F, Jx, Jy = fj(x, y)
        a, b, c = (Jx * Jx).sum(0), (Jx * Jy).sum(0), (Jy * Jy).sum(0)
        g1, g2 = (Jx * F).sum(0), (Jy * F).sum(0)
        det = a * c - b * b
        det = np.where(np.abs(det) < 1e-300, 1.0, det)
        x = x - (c * g1 - b * g2) / det
        y = y - (a * g2 - b * g1) / det
        bad = ~np.isfinite(x) | ~np.isfinite(y) | (np.abs(x) > 10) | (np.abs(y) > 10)
        x[bad] = 0.0
        y[bad] = 0.0
    F, _, _ = fj(x, y)
    ok = (np.abs(F).max(axis=0) <= tol) & (np.abs(x) <= region + 1e-8) & (np.abs(y) <= region + 1e-8)
    out = []
    for p in sorted(zip(x[ok], y[ok])):
        if not any(abs(p[0] - q[0]) <= dedupe_tol and abs(p[1] - q[1]) <= dedupe_tol for q in out[-200:]):
            out.append(p)
    return np.array(out).reshape(-1, 2)


def one_to_one_distance(got, ref):
    """Largest distance from a point of got to its nearest point of ref, after
    checking that nearest partners pair the two sets one to one."""
    assert got.shape == ref.shape
    D = np.abs(got[:, None, :] - ref[None, :, :]).max(axis=2)
    assert sorted(D.argmin(axis=1)) == list(range(len(ref)))
    return D.min(axis=1).max()


@pytest.fixture(scope="module")
def even5():
    return solve_even_system(5, seeds=40, rng_seed=0)[0]


# the fixture solutions and their node counts n(n+1)/2 (even), n(n+1)/2 + floor(n/2) (odd)
SOLUTION_CASES = {"odd3": 7, "odd4": 12, "odd5": 17, "even3": 6, "even5": 15}


def solution_case(case, request):
    if case == "even5":
        return request.getfixturevalue("even5")
    known = KNOWN_EVEN_HANKEL if case.startswith("even") else KNOWN_ODD_HANKEL
    return known[int(case[-1])]


class TestCommonZerosReference:
    """The joint eigenvalues against Gauss-Newton on the generating polynomials."""

    @pytest.mark.parametrize("case", SOLUTION_CASES)
    def test_same_points_as_dense_loop(self, case, request):
        hankel = solution_case(case, request)
        ref = reference_common_zeros(hankel.n, *generating_coeffs(hankel))
        got = common_zeros(hankel)
        assert len(got) == len(ref) == SOLUTION_CASES[case]
        assert one_to_one_distance(got, ref) <= 1e-14
        key = np.round(got, 12)
        assert np.array_equal(got, got[np.lexsort((key[:, 1], key[:, 0]))])

    @pytest.mark.parametrize("n,ties", [(3, 2), (4, 3)])
    def test_x_ties_by_ascending_y(self, n, ties):
        # nodes whose x agree to 12 decimals come out by ascending y, whatever the last bits of h
        hankel = KNOWN_ODD_HANKEL[n]
        orders = []
        for h in (hankel.h, hankel.h * (1.0 + 2.0**-52)):
            pts = common_zeros(HankelParam("odd", n, h))
            tied = np.flatnonzero(np.round(pts[1:, 0], 12) == np.round(pts[:-1, 0], 12))
            assert len(tied) == ties
            assert (pts[tied + 1, 1] > pts[tied, 1]).all()
            orders.append(np.round(pts, 12))
        assert np.array_equal(*orders)


class TestJacobiMatrices:
    @pytest.mark.parametrize("case", SOLUTION_CASES)
    def test_commute_at_solutions(self, case, request):
        J, _ = _jacobi_system(solution_case(case, request))
        count = SOLUTION_CASES[case]
        assert J.shape == (2, count, count)
        assert np.abs(J[0] @ J[1] - J[1] @ J[0]).max() <= 1e-15

    @pytest.mark.parametrize("case", SOLUTION_CASES)
    def test_perturbed_hankel_raises(self, case, request):
        hankel = solution_case(case, request)
        rng = np.random.default_rng(0)
        h = hankel.h * (1.0 + 1e-6 * rng.standard_normal(hankel.h.size))
        with pytest.raises(CommonZeroError, match="above 1e-10") as exc:
            common_zeros(HankelParam(hankel.mode, hankel.n, h))
        assert len(exc.value.found) == SOLUTION_CASES[case]


def canonical_complement_combos(U):
    """Row-reduce span(U^T) so each row has a unit coefficient on one of the
    trailing member slots (descending), zeros on the others."""
    B = np.asarray(U, dtype=float).T
    q = B.shape[0]
    return np.linalg.solve(B[:, -q:], B)[::-1]


# the paper's degree-5 complement combinations in the product-Legendre basis,
# rows with a unit coefficient on members 5, 4, 3, 2 respectively
KNOWN_ODD5_COMBOS = np.array(
    [
        [10.0 * math.sqrt(86.0) / 189.0, 1081.0 * math.sqrt(11.0) / (2835.0 * math.sqrt(3.0)), 0.0, 0.0, 0.0, 1.0],
        [205.0 / (21.0 * math.sqrt(33.0)), 10.0 * math.sqrt(86.0) / 189.0, 0.0, 0.0, 1.0, 0.0],
        [-5.0 * math.sqrt(430.0) / (27.0 * math.sqrt(77.0)), 62.0 * math.sqrt(5.0) / (81.0 * math.sqrt(21.0)),
         0.0, 1.0, 0.0, 0.0],
        [-10.0 * math.sqrt(5.0) / (3.0 * math.sqrt(77.0)), -math.sqrt(430.0) / (9.0 * math.sqrt(21.0)),
         1.0, 0.0, 0.0, 0.0],
    ]
)


class TestQDisplay:
    def test_n5_complement_combos_match_reference(self):
        W = odd_W(5, KNOWN_ODD_HANKEL[5].h)
        ev, Q = np.linalg.eigh(W)
        U = Q[:, :4]
        C = canonical_complement_combos(U)
        for i in range(4):
            row = C[i] if C[i][5 - i] > 0 else -C[i]
            assert np.abs(row - KNOWN_ODD5_COMBOS[i]).max() < 1e-10

    def test_combos_orthogonal_to_lower_degrees(self):
        from cubasquare.weights import tensor_oracle

        W = odd_W(5, KNOWN_ODD_HANKEL[5].h)
        ev, Q = np.linalg.eigh(W)
        X, Y, wts = tensor_oracle(constant(), 12)
        vals = Q[:, :4].T @ basis_for(constant()).eval_degree(5, X, Y)
        low = basis_for(constant()).eval_upto(4, X, Y)
        assert np.abs((vals * wts) @ low.T).max() < 1e-10

    def test_count_matches_moeller_complement(self):
        # (n + 1) - floor(n/2) polynomials of degree n with n(n+1)/2 + floor(n/2) common zeros
        for n in (3, 4, 5):
            coeff_n, _ = generating_coeffs(KNOWN_ODD_HANKEL[n])
            assert coeff_n.shape[0] == (n + 1) - n // 2
            assert len(common_zeros(KNOWN_ODD_HANKEL[n])) == n * (n + 1) // 2 + n // 2
