import fractions
import math
import re
import warnings

import numpy as np
import pytest

from adgd import linalg, problems
from adgd.errors import ConvergenceError, DomainError
from adgd.manifolds import BuresWasserstein
from adgd.optimizers import RunConfig, adgd_run

from conftest import bits, cofactor_det, random_spd, random_sym


class TestSymEig:
    def test_identity(self):
        e = linalg.sym_eig(np.eye(3))
        assert np.allclose(e.eigenvalues, [1.0, 1.0, 1.0])
        assert np.allclose(e.basis @ e.basis.T, np.eye(3), atol=1e-14)

    def test_diagonal_sorted_ascending(self):
        e = linalg.sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(e.eigenvalues, [1.0, 2.0, 3.0])

    def test_seeded_8x8_reconstruction(self):
        rng = np.random.default_rng(42)
        m = random_sym(rng, 8)
        e = linalg.sym_eig(m)
        resid = np.linalg.norm((e.basis * e.eigenvalues) @ e.basis.T - m)
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(m))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_invariants_random(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            m = random_sym(rng, n)
            e = linalg.sym_eig(m)
            assert np.linalg.norm((e.basis * e.eigenvalues) @ e.basis.T - m) <= 1e-10 * (1.0 + np.linalg.norm(m))
            assert np.linalg.norm(e.basis.T @ e.basis - np.eye(n)) <= 1e-12 * n
            assert np.all(np.diff(e.eigenvalues) >= 0.0)

    def test_eigenvalue_sum_matches_trace(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 9):
            m = random_sym(rng, n)
            e = linalg.sym_eig(m)
            tr = float(np.trace(m))
            assert abs(float(np.sum(e.eigenvalues)) - tr) <= 1e-10 * max(1.0, abs(tr))

    def test_eigenvalue_product_matches_cofactor_determinant(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            for _ in range(5):
                m = random_sym(rng, n)
                prod = float(np.prod(linalg.sym_eig(m).eigenvalues))
                det = cofactor_det(m)
                assert abs(prod - det) <= 1e-8 * max(1.0, abs(det))

    def test_matches_numpy_eigvalsh(self):
        rng = np.random.default_rng(3)
        m = random_sym(rng, 10)
        w = linalg.sym_eig(m).eigenvalues
        assert np.allclose(w, np.linalg.eigvalsh(m), atol=1e-11)

    def test_zero_matrix(self):
        e = linalg.sym_eig(np.zeros((4, 4)))
        assert np.allclose(e.eigenvalues, 0.0)

    def test_sweep_cap_raises_explicitly(self, monkeypatch):
        rng = np.random.default_rng(0)
        m = random_sym(rng, 6)
        monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError):
            linalg.sym_eig(m)

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 2.0], [0.5, 1.0]])
        with pytest.raises(ValueError):
            linalg.sym_eig(m)

    @pytest.mark.parametrize("shape", [(2, 3), (3,)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"sym_eig input must be square, got shape {shape}")):
            linalg.sym_eig(np.zeros(shape))


def two_sided_jacobi(m, max_sweeps=100):
    """The two-sided cyclic Jacobi loop ``sym_eig`` replaced, kept as its
    bitwise oracle: each rotation updates rows p and q, then recomputes
    columns p and q from the updated matrix.

    Returns ``(eigenvalues, basis, info)``; ``info`` holds the number of
    sweeps run before the convergence check passed, how often each
    ``tau`` overflow branch was taken and how often ``tau`` was ``-0.0``.
    """
    info = {"sweeps": 0, "nonfinite_tau": 0, "huge_tau": 0, "negzero_tau": 0}
    a = linalg.check_symmetric(m, "oracle input").copy()
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    q = np.eye(n)
    if n == 1:
        return a[0].copy(), q, info

    target = 1e-14 * math.sqrt(float(np.sum(a * a)))

    def off_mass(mat):
        off = mat.copy()
        np.fill_diagonal(off, 0.0)
        return math.sqrt(float(np.sum(off * off)))

    converged = False
    for sweep in range(max_sweeps):
        off = off_mass(a)
        if off <= target:
            converged = True
            break
        info["sweeps"] += 1
        thresh = 0.2 * off / n if sweep < 3 else 0.0
        for p in range(n - 1):
            for qq in range(p + 1, n):
                apq = float(a[p, qq])
                if apq == 0.0 or abs(apq) <= thresh:
                    continue
                app = float(a[p, p])
                aqq_d = float(a[qq, qq])
                tau = (aqq_d - app) / (2.0 * apq)
                if not math.isfinite(tau):
                    info["nonfinite_tau"] += 1
                    t = 0.0
                elif abs(tau) > 1e150:
                    info["huge_tau"] += 1
                    t = 1.0 / (2.0 * tau)
                elif tau >= 0.0:
                    info["negzero_tau"] += math.copysign(1.0, tau) < 0.0
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c

                row_p = c * a[p, :] - s * a[qq, :]
                row_q = s * a[p, :] + c * a[qq, :]
                a[p, :] = row_p
                a[qq, :] = row_q
                col_p = c * a[:, p] - s * a[:, qq]
                col_q = s * a[:, p] + c * a[:, qq]
                a[:, p] = col_p
                a[:, qq] = col_q
                a[p, p] = app - t * apq
                a[qq, qq] = aqq_d + t * apq
                a[p, qq] = 0.0
                a[qq, p] = 0.0

                qcol_p = c * q[:, p] - s * q[:, qq]
                qcol_q = s * q[:, p] + c * q[:, qq]
                q[:, p] = qcol_p
                q[:, qq] = qcol_q
    if not converged and off_mass(a) > target:
        raise ConvergenceError(f"oracle did not converge in {max_sweeps} sweeps")

    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], q[:, order], info


def _nearly_symmetric_with_spectrum(rng, w):
    """Eigenvalues w in a random orthonormal basis, not symmetrized: the
    product's rounding mostly leaves it slightly asymmetric, so the
    kernels and the oracle each symmetrize it."""
    q = np.linalg.qr(rng.standard_normal((len(w), len(w))))[0]
    return (q * w) @ q.T


def _signed_zero_diagonal(rng, n):
    """A random coupled matrix with every third row and column zeroed but
    for its diagonal entry, which is -0.0 (+0.0 at every sixth index):
    the rotations run beside entries that must keep their sign."""
    m = random_sym(rng, n)
    free = np.flatnonzero(np.arange(n) % 3 == 2)
    m[free, :] = 0.0
    m[:, free] = 0.0
    m[free, free] = np.where(free % 6 == 5, 0.0, -0.0)
    return m


def _equal_diagonal(rng, n):
    """Equal diagonal entries and negative couplings: the first rotation
    of the first sweep has ``tau = 0.0 / (2 apq) = -0.0``."""
    m = -np.abs(random_sym(rng, n))
    np.fill_diagonal(m, 1.5)
    return m


_ORACLE_KINDS = {
    "random": lambda rng, n: random_sym(rng, n),
    "scale1e+150": lambda rng, n: random_sym(rng, n, 1e150),
    "scale1e-150": lambda rng, n: random_sym(rng, n, 1e-150),
    "cond1e10": lambda rng, n: _nearly_symmetric_with_spectrum(rng, np.logspace(-5.0, 5.0, n)),
    "repeated": lambda rng, n: _nearly_symmetric_with_spectrum(rng, (np.arange(n) // 3).astype(float) - 1.0),
    "zero": lambda rng, n: np.zeros((n, n)),
    "diagonal": lambda rng, n: np.diag(rng.standard_normal(n)),
    "negzero": _signed_zero_diagonal,
    "equal-diag": _equal_diagonal,
}


def _decoupled_pair(coupling):
    """A random 20x20 block beside a pair with diagonal 0 and 5 coupled by
    ``coupling``: by the time late sweeps reach the pair, ``tau`` is
    5 / (2 * coupling)."""
    m = np.zeros((22, 22))
    m[:20, :20] = random_sym(np.random.default_rng(20), 20)
    m[21, 21] = 5.0
    m[20, 21] = m[21, 20] = coupling
    return m


def assert_matches_oracle(m):
    w, q, info = two_sided_jacobi(m)
    e = linalg.sym_eig(m)
    assert e.eigenvalues.tobytes() == w.tobytes()
    assert e.basis.tobytes() == q.tobytes()
    return info


class TestOneSidedMatchesOracle:
    @pytest.mark.parametrize("kind", list(_ORACLE_KINDS))
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 20])
    def test_byte_equal(self, n, kind):
        rng = np.random.default_rng([n, list(_ORACLE_KINDS).index(kind)])
        assert_matches_oracle(_ORACLE_KINDS[kind](rng, n))

    def test_byte_equal_n100(self):
        info = assert_matches_oracle(random_sym(np.random.default_rng(100), 100))
        assert info["sweeps"] > 3

    @pytest.mark.parametrize("kind", ["negzero", "equal-diag"])
    def test_byte_equal_n60(self, kind):
        rng = np.random.default_rng([60, list(_ORACLE_KINDS).index(kind)])
        info = assert_matches_oracle(_ORACLE_KINDS[kind](rng, 60))
        assert info["sweeps"] > 3
        if kind == "equal-diag":
            assert info["negzero_tau"] > 0

    @pytest.mark.parametrize(
        "coupling, branch", [(1e-200, "huge_tau"), (1e-310, "nonfinite_tau")]
    )
    def test_tau_overflow_branches(self, coupling, branch):
        info = assert_matches_oracle(_decoupled_pair(coupling))
        assert info[branch] > 0

    @pytest.mark.parametrize("n", [3, 10, 20])
    def test_signed_zero_diagonal_keeps_its_signs(self, n):
        m = _ORACLE_KINDS["negzero"](np.random.default_rng(n), n)
        zeros = np.diag(m)[np.diag(m) == 0.0]
        assert np.signbit(zeros).any()
        assert assert_matches_oracle(m)["sweeps"] > 0
        w = linalg.sym_eig(m).eigenvalues
        assert np.signbit(w[w == 0.0]).tolist() == np.signbit(zeros).tolist()

    def test_negligible_rotation_keeps_negzero_pivot(self):
        # A rotation with t = 0 writes app - 0.0 * apq back as the new
        # diagonal entry: -0.0 only if app was read as -0.0.
        m = _decoupled_pair(1e-310)
        m[20, 20] = -0.0
        w, _, info = two_sided_jacobi(m)
        assert info["nonfinite_tau"] > 0
        assert np.signbit(w[w == 0.0]).tolist() == [True]
        assert_matches_oracle(m)

    @pytest.mark.parametrize("n", [2, 3, 10, 20])
    def test_equal_diagonal_takes_negzero_tau(self, n):
        info = assert_matches_oracle(_ORACLE_KINDS["equal-diag"](np.random.default_rng(n), n))
        assert info["negzero_tau"] > 0

    @pytest.mark.parametrize("n", [1, 2, 6, 12])
    def test_sweep_cap_boundary(self, monkeypatch, n):
        m = random_sym(np.random.default_rng(n), n)
        w, q, info = two_sided_jacobi(m)
        sweeps = info["sweeps"]
        assert (sweeps == 0) == (n == 1)
        monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", sweeps)
        e = linalg.sym_eig(m)
        assert e.eigenvalues.tobytes() == w.tobytes()
        assert e.basis.tobytes() == q.tobytes()
        if sweeps:
            monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", sweeps - 1)
            with pytest.raises(ConvergenceError, match=f"in {sweeps - 1} sweeps"):
                linalg.sym_eig(m)


def _coupling_at_threshold(x):
    """Blocks {0, 1} (coupling x) and {2, 3} (coupling 1).  At
    x = sqrt(199) the first sweep's threshold 0.2 * off / n is exactly 1."""
    m = np.diag([1.0, 2.0, 3.0, 5.0])
    m[0, 1] = m[1, 0] = x
    m[2, 3] = m[3, 2] = 1.0
    return m


class TestFirstSweepThreshold:
    """A coupling exactly at the first-sweep threshold is skipped (the test
    is |apq| <= thresh), so the blocks need two sweeps; one ulp above it,
    one sweep."""

    @pytest.mark.parametrize("x, sweeps", [
        (math.sqrt(199.0), 2),
        (np.nextafter(np.nextafter(math.sqrt(199.0), 0.0), 0.0), 1),
    ])
    def test_skip_at_threshold(self, monkeypatch, x, sweeps):
        m = _coupling_at_threshold(float(x))
        thresh = 0.2 * float(linalg._off_mass(m[None])[0]) / 4
        assert thresh == 1.0 if sweeps == 2 else thresh < 1.0
        assert two_sided_jacobi(m)[2]["sweeps"] == sweeps
        assert_matches_oracle(m)
        monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", sweeps)
        assert_stack_matches_sym_eig([m, m])
        if sweeps == 2:
            monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 1)
            with pytest.raises(ConvergenceError, match="in 1 sweeps"):
                linalg.sym_eig(m)
            with pytest.raises(ConvergenceError, match="in 1 sweeps"):
                linalg.eigvals(np.array([m]))


def assert_stack_matches_sym_eig(mats):
    w = linalg.eigvals(np.array(mats))
    assert w.shape == np.shape(mats)[:2]
    for row, m in zip(w, mats):
        assert row.tobytes() == linalg.sym_eig(m).eigenvalues.tobytes()


class TestStackedEigvals:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 20])
    def test_oracle_inputs_stacked(self, n):
        mats = [
            _ORACLE_KINDS[kind](np.random.default_rng([n, i]), n)
            for i, kind in enumerate(_ORACLE_KINDS)
        ]
        if n >= 2:  # the matrices retire in different sweeps
            assert len({two_sided_jacobi(m)[2]["sweeps"] for m in mats}) > 1
        assert_stack_matches_sym_eig(mats)

    def test_tau_overflow_branches_in_one_stack(self):
        mats = [_decoupled_pair(1e-155), random_sym(np.random.default_rng(22), 22),
                _decoupled_pair(1e-310)]
        w, _, info = two_sided_jacobi(mats[0])
        # The huge-tau rotation leaves -t * apq = -2e-311 on the diagonal,
        # so that branch shows in the eigenvalues.
        assert info["huge_tau"] > 0 and -2e-311 in w
        assert two_sided_jacobi(mats[2])[2]["nonfinite_tau"] > 0
        assert_stack_matches_sym_eig(mats)

    def test_sweep_cap_one_matrix_fails_the_stack(self, monkeypatch):
        rng = np.random.default_rng(6)
        mats = [np.diag(np.arange(6.0)), random_sym(np.random.default_rng(3), 6),
                np.diag(np.arange(6.0)) + 1e-3 * random_sym(rng, 6),
                random_sym(np.random.default_rng(0), 6)]
        assert [two_sided_jacobi(m)[2]["sweeps"] for m in mats] == [0, 5, 4, 6]
        monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 6)
        assert_stack_matches_sym_eig(mats)
        monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 5)
        with pytest.raises(ConvergenceError, match="in 5 sweeps .* matrix 3 of the stack"):
            linalg.eigvals(np.array(mats))

    @pytest.mark.parametrize("m, n", [(0, 0), (0, 4), (1, 0), (1, 1), (1, 5), (3, 0), (3, 1)])
    def test_small_shapes(self, m, n):
        rng = np.random.default_rng([m, n])
        mats = [random_sym(rng, n) for _ in range(m)]
        if m:
            assert_stack_matches_sym_eig(mats)
        else:
            assert linalg.eigvals(np.zeros((0, n, n))).shape == (0, n)

    @pytest.mark.parametrize(
        "stack", [np.eye(3), np.zeros((2, 3, 4)), np.array([[[1.0, 2.0], [0.5, 1.0]]])],
        ids=["2d", "not-square", "asymmetric"],
    )
    def test_rejects_bad_stacks(self, stack):
        with pytest.raises(ValueError):
            linalg.eigvals(stack)

    @pytest.mark.parametrize("seed", range(4))
    def test_distance_column_stacks(self, monkeypatch, seed):
        # The stacks the Bures-Wasserstein distance column hands the kernel.
        stacks = []
        solve = linalg.eigvals

        def recording(stack):
            stacks.append(np.array(stack))
            return solve(stack)

        monkeypatch.setattr(linalg, "eigvals", recording)
        trace = adgd_run(RunConfig(), BuresWasserstein(), problems.lyapunov_objective(20, seed))
        monkeypatch.undo()
        assert len(stacks) == 1 and len(stacks[0]) == len(trace.rows) > 20
        assert_stack_matches_sym_eig(stacks[0])

    def test_subset_and_skip_paths(self, monkeypatch):
        # Two block-diagonal 4x4 matrices.  In the first sweep the (0, 1)
        # coupling passes its threshold 0.2 * off / n in the first matrix
        # only and (2, 3) in the second only, so both pivots rotate a subset
        # of the stack; (0, 2) stays zero in both and is skipped by all.
        first = np.diag([1.0, 2.0, 3.0, 4.0])
        second = first.copy()
        first[0, 1] = first[1, 0] = second[2, 3] = second[3, 2] = 1.0
        first[2, 3] = first[3, 2] = second[0, 1] = second[1, 0] = 1e-3
        calls = {"subset": 0, "skip": 0}

        class CountingNumpy:
            # Each pivot counts the matrices it rotates in: some of them
            # take the subset path, none the skip path.  (The other count,
            # of |tau| <= 1e150, covers the whole stack here.)
            def __getattr__(self, name):
                return getattr(np, name)

            def count_nonzero(self, mask):
                count = np.count_nonzero(mask)
                calls["subset"] += 0 < count < mask.size
                calls["skip"] += count == 0
                return count

        monkeypatch.setattr(linalg, "np", CountingNumpy())
        w = linalg.eigvals(np.array([first, second]))
        monkeypatch.undo()
        assert calls["subset"] > 0 and calls["skip"] > 0
        for row, m in zip(w, [first, second]):
            assert row.tobytes() == linalg.sym_eig(m).eigenvalues.tobytes()

    def test_subset_pivots_beside_signed_zeros(self, monkeypatch):
        # Subset pivots take each row through np.where and then copy it
        # into its column for every matrix, the skipping ones included:
        # exact only while each live matrix stays bitwise symmetric, -0.0
        # entries included.  Here late-sweep pivots skip on +-0.0 couplings
        # in some matrices and rotate in the others.
        rng = np.random.default_rng(25)
        n = 7
        blocks = np.diag(np.arange(1.0, n + 1.0))
        blocks[0, 1] = blocks[1, 0] = 0.5
        blocks[2, 5] = blocks[5, 2] = 1e-3
        for i, j in ((0, 2), (1, 4), (3, 6)):
            blocks[i, j] = blocks[j, i] = -0.0
        blocks[4, 6] = -0.0  # (-0.0 + 0.0) / 2 is +0.0 in both entries
        negzero = _signed_zero_diagonal(rng, n)
        negzero[0, 1] = negzero[1, 0] = -0.0
        mats = [blocks, random_sym(rng, n), negzero, np.diag([-0.0] * n), random_sym(rng, n)]
        subsets = []
        sweep = linalg._eigvals_sweep

        def checked(b, n, thresh):
            rotating = []
            count = np.count_nonzero

            class CountingNumpy:
                def __getattr__(self, name):
                    return getattr(np, name)

                def count_nonzero(self, mask):
                    k = count(mask)
                    rotating.append(0 < k < mask.size)
                    return k

            monkeypatch.setattr(linalg, "np", CountingNumpy())
            sweep(b, n, thresh)
            monkeypatch.setattr(linalg, "np", np)
            subsets.append(any(rotating))
            assert b.tobytes() == np.ascontiguousarray(b.transpose(1, 0, 2)).tobytes()

        monkeypatch.setattr(linalg, "_eigvals_sweep", checked)
        w = linalg.eigvals(np.array(mats))
        monkeypatch.undo()
        assert sum(subsets) >= 3
        for row, m in zip(w, mats):
            assert row.tobytes() == linalg.sym_eig(m).eigenvalues.tobytes()


class TestJacobiRange:
    # The convergence test squares the entries: at 1e160 ||M||_F^2 overflows
    # and at 1e-200 every square flushes to 0, so target and off-diagonal
    # mass would compare inf <= inf or 0 <= 0 and the diagonal [1, 2] * scale
    # would come back for the eigenvalues (1.5 -+ sqrt(9.25)) * scale.  The
    # kernels solve such a matrix scaled by the power of two 2**-e that
    # brings its largest entry into [0.5, 1) and scale the eigenvalues back
    # by 2**e, so they are the in-range matrix's, bit for bit.  The first
    # and third tests keep the names of the DomainError these inputs raised
    # before the kernels scaled.
    @staticmethod
    def _in_range(m):
        e = math.frexp(float(np.max(np.abs(m))))[1]
        return linalg.sym_eig(np.ldexp(m, -e)), e

    @pytest.mark.parametrize("scale, word", [(1e160, "overflows"), (1e-200, "underflows")])
    @pytest.mark.parametrize(
        "kernel",
        [
            lambda m: linalg.sym_eig(m).eigenvalues,
            lambda m: linalg.eigvals([np.eye(2), m])[1],
            linalg.spd_sqrt,
        ],
        ids=["sym_eig", "eigvals", "spd_sqrt"],
    )
    def test_raises_naming_the_scale(self, kernel, scale, word):
        m = scale * np.array([[1.0, 3.0], [3.0, 2.0]])
        with np.errstate(over="ignore"):
            sq = float(np.sum(m * m))
        assert sq == math.inf if word == "overflows" else sq < np.finfo(float).tiny
        in_range, e = self._in_range(m)
        expected = np.ldexp(in_range.eigenvalues, e)
        assert np.allclose(expected, scale * np.array([1.5 - math.sqrt(9.25), 1.5 + math.sqrt(9.25)]),
                           rtol=1e-14, atol=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning escapes either
            if kernel is linalg.spd_sqrt:
                # M is indefinite: the SPD check now names its true smallest eigenvalue.
                with pytest.raises(DomainError, match=re.escape(f"min eigenvalue {expected[0]:.3e}")):
                    kernel(m)
            else:
                assert kernel(m).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("scale", [1e160, 1e-200])
    def test_scaled_basis_is_the_in_range_one(self, scale):
        m = scale * np.array([[1.0, 3.0], [3.0, 2.0]])
        in_range, _ = self._in_range(m)
        assert linalg.sym_eig(m).basis.tobytes() == in_range.basis.tobytes()

    def test_eigvals_names_the_matrix(self):
        # Each matrix of the stack is scaled alone: the in-range one keeps its bytes.
        tiny = np.full((2, 2), 1e-170)
        in_range, e = self._in_range(tiny)
        got = linalg.eigvals([np.eye(2), tiny])
        assert got[0].tobytes() == linalg.sym_eig(np.eye(2)).eigenvalues.tobytes()
        assert got[1].tobytes() == np.ldexp(in_range.eigenvalues, e).tobytes()
        assert got[1].tobytes() == np.array([0.0, 2e-170]).tobytes()

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160, 1e300, 8e307])
    def test_diagonal_matrix_solves_at_any_scale(self, scale):
        # With no off-diagonal entry the diagonal is the exact answer, so
        # a square that overflows or underflows must not reject it.
        m = scale * np.diag([2.0, 0.0, -1.0])
        m[0, 1] = -0.0  # off-diagonal signed zeros are no asymmetry to mend
        exact = scale * np.array([-1.0, 0.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.sym_eig(m).eigenvalues.tobytes() == exact.tobytes()
            assert linalg.eigvals([np.eye(3), m])[1].tobytes() == exact.tobytes()

    @pytest.mark.parametrize("scale", [1e160, 1e300, 1e308])
    def test_huge_diagonal_spd_matrix_has_a_root(self, scale):
        # (TestSpdSqrt has the tiny ones.)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            root = linalg.spd_sqrt(scale * np.eye(3))
        assert np.array_equal(root, math.sqrt(scale) * np.eye(3))

    @pytest.mark.parametrize(
        "kernel",
        [lambda m: linalg.sym_eig(m).eigenvalues, lambda m: linalg.eigvals([np.eye(2), m])[1]],
        ids=["sym_eig", "eigvals"],
    )
    def test_entry_near_the_float_maximum_solves(self, kernel):
        # M + M^T would overflow at 1e308: the kernels symmetrize the
        # scaled matrix instead.
        m = np.array([[1e308, 1.0], [1.0, 1.0]])
        in_range, e = self._in_range(m)
        expected = np.ldexp(in_range.eigenvalues, e)
        assert np.allclose(expected, [1.0, 1e308], rtol=1e-14, atol=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel(m).tobytes() == expected.tobytes()

    def test_overflowing_asymmetry_is_rejected_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # m - m^T overflows to inf
            with pytest.raises(ValueError, match="not symmetric"):
                linalg.check_symmetric(np.array([[0.0, 1e308], [-1e308, 0.0]]))

    @pytest.mark.parametrize("scale", [1e-154, 1e153])
    def test_edges_of_the_range_still_solve(self, scale):
        m = scale * np.array([[1.0, 3.0], [3.0, 2.0]])
        exact = scale * np.array([1.5 - math.sqrt(9.25), 1.5 + math.sqrt(9.25)])
        assert np.allclose(linalg.sym_eig(m).eigenvalues, exact, rtol=1e-14, atol=0.0)
        assert linalg.eigvals([m]).tobytes() == linalg.sym_eig(m).eigenvalues.tobytes()


class TestSymEigKeepsNoState:
    def test_same_input_after_another_size_gives_the_same_bytes(self):
        rng = np.random.default_rng(19)
        a, b = random_sym(rng, 7), random_sym(rng, 12)
        first = linalg.sym_eig(a)
        linalg.sym_eig(b)
        again = linalg.sym_eig(a)
        assert again.eigenvalues.tobytes() == first.eigenvalues.tobytes()
        assert again.basis.tobytes() == first.basis.tobytes()

    def test_two_calls_share_no_memory(self):
        rng = np.random.default_rng(20)
        first = linalg.sym_eig(random_sym(rng, 7))
        second = linalg.sym_eig(random_sym(rng, 7))
        assert not any(np.shares_memory(x, y) for x in first for y in second)

    def test_eigvals_same_stack_after_another_shape_gives_the_same_bytes(self):
        rng = np.random.default_rng(21)
        a = np.array([random_sym(rng, 7) for _ in range(4)])
        b = np.array([random_sym(rng, 12) for _ in range(9)])
        first = linalg.eigvals(a)
        linalg.eigvals(b)
        assert linalg.eigvals(a).tobytes() == first.tobytes()

    def test_eigvals_calls_share_no_memory(self):
        rng = np.random.default_rng(22)
        stack = np.array([random_sym(rng, 7) for _ in range(4)])
        assert not np.shares_memory(linalg.eigvals(stack), linalg.eigvals(stack))

    def test_module_constants_are_read_only(self):
        constants = [v for v in vars(linalg).values() if isinstance(v, np.ndarray)]
        assert len(constants) >= 4
        for c in constants:
            assert c.shape == ()
            with pytest.raises(ValueError, match="read-only"):
                c[()] = 3.0


def _off_mass_one(a):
    """The per-matrix off-diagonal mass the stacked ``linalg._off_mass``
    replaced, kept as its oracle."""
    sq = a.copy()
    np.fill_diagonal(sq, 0.0)
    sq *= sq
    return math.sqrt(float(np.sum(sq)))


class TestStackedOffMass:
    # n * n = 1 and 4 entries fall below numpy's 8-element unrolled sum, 9
    # inside its 128-element block, 144 and 400 above it, where the
    # pairwise sum recurses.
    @pytest.mark.parametrize("n", [1, 2, 3, 12, 20])
    @pytest.mark.parametrize("m", [1, 5, 33])
    def test_byte_equal_to_the_per_matrix_sum(self, m, n):
        rng = np.random.default_rng([m, n])
        stack = np.array([random_sym(rng, n, scale=10.0 ** rng.integers(-5, 6))
                          for _ in range(m)])
        off = linalg._off_mass(stack)
        assert off.shape == (m,)
        expected = np.array([_off_mass_one(mat) for mat in stack])
        assert off.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [2, 12, 20])
    def test_signed_zeros(self, n):
        rng = np.random.default_rng(n)
        stack = np.array([_ORACLE_KINDS["negzero"](rng, n) for _ in range(5)])
        stack[1] = -0.0
        stack[2] = 0.0
        off = linalg._off_mass(stack)
        assert off.tobytes() == np.array([_off_mass_one(mat) for mat in stack]).tobytes()
        assert not np.signbit(off).any()

    def test_huge_diagonal_does_not_overflow(self):
        stack = np.array([np.diag([1e300, -1e300, 2.0]), np.eye(3)])
        stack[0, 0, 2] = stack[0, 2, 0] = 3.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            off = linalg._off_mass(stack)
        assert off.tolist() == [math.sqrt(18.0), 0.0]
        assert off.tobytes() == np.array([_off_mass_one(mat) for mat in stack]).tobytes()

    def test_input_is_not_mutated(self):
        stack = np.array([np.full((3, 3), 2.0)])
        linalg._off_mass(stack)
        assert (stack == 2.0).all()


_PURE_KERNELS = {
    "sym_eig": (linalg.sym_eig, lambda rng: [random_spd(rng, 6)]),
    "eigvals": (linalg.eigvals, lambda rng: [np.array([random_spd(rng, 6) for _ in range(3)])]),
    "solve_lyapunov": (linalg.solve_lyapunov, lambda rng: [random_spd(rng, 6), random_sym(rng, 6)]),
    "spd_sqrt": (linalg.spd_sqrt, lambda rng: [random_spd(rng, 6)]),
    "cholesky": (linalg.cholesky, lambda rng: [random_spd(rng, 6)]),
    "require_spd": (linalg.require_spd, lambda rng: [random_spd(rng, 6)]),
}


class TestKernelsArePure:
    @pytest.mark.parametrize("name", list(_PURE_KERNELS))
    def test_inputs_untouched_and_outputs_owned(self, name):
        kernel, make_inputs = _PURE_KERNELS[name]
        inputs = make_inputs(np.random.default_rng(9))
        for x in inputs:
            assert x.dtype == np.float64 and x.flags.c_contiguous
            # Validation hands the kernel the caller's own array, not a copy.
            for mat in x if x.ndim == 3 else [x]:
                assert linalg.check_symmetric(mat) is mat
        before = [x.tobytes() for x in inputs]
        result = kernel(*inputs)
        outputs = [] if result is None else list(result) if isinstance(result, tuple) else [result]
        assert [x.tobytes() for x in inputs] == before
        for i, out in enumerate(outputs):
            assert out.flags.writeable
            assert not any(np.shares_memory(out, x) for x in inputs)
            assert not any(np.shares_memory(out, other) for other in outputs[i + 1 :])


class TestNonFiniteInput:
    # Without the check, Jacobi returns wrong eigenvalues for inf entries
    # and spins through every sweep on NaN ones.  Each matrix is checked
    # once, where it is decomposed: a pencil and an spd_sqrt input by
    # sym_eig, which names its own input.
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "kernel, name",
        [
            (linalg.sym_eig, "sym_eig input"),
            (lambda m: linalg.solve_lyapunov(m, np.eye(3)), "sym_eig input"),
            (lambda m: linalg.solve_lyapunov(np.eye(3), m), "solve_lyapunov right-hand side"),
            (linalg.spd_sqrt, "sym_eig input"),
            (lambda m: linalg.eigvals([np.eye(3), m]), "eigvals input"),
        ],
        ids=["sym_eig", "solve_lyapunov-pencil", "solve_lyapunov-rhs", "spd_sqrt", "eigvals"],
    )
    def test_rejected(self, kernel, name, bad):
        m = np.eye(3)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match=f"^{name} has a NaN or infinite entry$"):
            kernel(m)

    @pytest.mark.parametrize(
        "kernel, names",
        [
            (lambda x, u: linalg.spd_sqrt(x), ["sym_eig input"]),
            (linalg.solve_lyapunov, ["solve_lyapunov right-hand side", "sym_eig input"]),
        ],
        ids=["spd_sqrt", "solve_lyapunov"],
    )
    def test_each_input_checked_once(self, kernel, names, monkeypatch):
        seen = []
        check = linalg.check_symmetric

        def spy(m, name="matrix"):
            seen.append(name)
            return check(m, name)

        rng = np.random.default_rng(51)
        x, u = random_spd(rng, 4), random_sym(rng, 4)
        monkeypatch.setattr(linalg, "check_symmetric", spy)
        kernel(x, u)
        assert seen == names


class TestSolveLyapunov:
    def test_identity_pencil_halves(self):
        rng = np.random.default_rng(1)
        u = random_sym(rng, 5)
        assert np.allclose(linalg.solve_lyapunov(np.eye(5), u), 0.5 * u, atol=1e-13)

    def test_diagonal_pencil_closed_form(self):
        a = np.array([1.0, 2.0, 5.0])
        x = np.diag(a)
        rng = np.random.default_rng(2)
        u = random_sym(rng, 3)
        sol = linalg.solve_lyapunov(x, u)
        expected = u / (a[:, None] + a[None, :])
        assert np.allclose(sol, expected, atol=1e-13)
        assert np.linalg.norm(x @ sol + sol @ x - u) <= 1e-12

    def test_gradient_factor_identity(self):
        # The factor of X G + G X is exactly G.
        rng = np.random.default_rng(3)
        x = random_spd(rng, 6)
        g = random_sym(rng, 6)
        u = x @ g + g @ x
        assert np.allclose(linalg.solve_lyapunov(x, u), g, atol=1e-10)

    @pytest.mark.parametrize("seed", range(100))
    def test_residual_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        x = random_spd(rng, n, 0.2, 4.0)
        u = random_sym(rng, n)
        sol = linalg.solve_lyapunov(x, u)
        assert np.allclose(sol, sol.T)
        resid = np.linalg.norm(x @ sol + sol @ x - u)
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(u))

    def test_rejects_indefinite_pencil(self):
        x = np.diag([1.0, -1.0])
        with pytest.raises(DomainError):
            linalg.solve_lyapunov(x, np.eye(2))

    def test_tiny_scaled_identity_pencil_solves(self):
        # The SPD tolerance is relative: scale alone never rejects a pencil.
        rng = np.random.default_rng(12)
        u = random_sym(rng, 3)
        sol = linalg.solve_lyapunov(1e-13 * np.eye(3), u)
        assert np.allclose(sol, u / 2e-13, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("diag", [[1.0, 1e-13], [1e-20, 1e-33]])
    def test_rejects_condition_beyond_the_tolerance(self, diag):
        # Smallest over largest eigenvalue below 1e-12, at any scale.
        with pytest.raises(DomainError, match="requires a positive definite matrix"):
            linalg.solve_lyapunov(np.diag(diag), np.eye(2))

    @pytest.mark.parametrize("scale", [1.0, 3.7, 1e-200, 1e200])
    @pytest.mark.parametrize("n", [2, 5])
    def test_condition_one_ulp_either_side_of_the_tolerance(self, n, scale):
        # Diagonal X, so the spectrum is exact and no sweep runs: the
        # smallest entry one ulp above 1e-12 * max passes, at or one ulp
        # below it fails.
        u = np.ones((n, n))
        below, at, above = _one_ulp_diagonals(n, scale)
        for d in (below, at):
            with pytest.raises(DomainError, match="requires a positive definite matrix"):
                linalg.solve_lyapunov(np.diag(d), u)
        assert np.array_equal(linalg.solve_lyapunov(np.diag(above), u), u / (above[:, None] + above[None, :]))

    @pytest.mark.parametrize("scale", [9e307, 1e308, np.finfo(float).max])
    def test_pencil_near_the_float_maximum_solves(self, scale):
        # w_i + w_j overflows here; the solution I / (2 s) does not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = linalg.solve_lyapunov(scale * np.eye(3), np.eye(3))
        assert np.allclose(2.0 * (scale * sol), np.eye(3), rtol=1e-12, atol=0.0)


class TestSpdSqrt:
    def test_identity(self):
        assert np.allclose(linalg.spd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(linalg.spd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_seeded_10x10_squares_back(self):
        rng = np.random.default_rng(5)
        x = random_spd(rng, 10, 0.1, 10.0)
        s = linalg.spd_sqrt(x)
        assert np.linalg.norm(s @ s - x) <= 1e-10 * (1.0 + np.linalg.norm(x))

    def test_fourth_power_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = random_spd(rng, 5, 0.5, 2.0)
            x2 = x @ x
            x4 = x2 @ x2
            assert np.linalg.norm(linalg.spd_sqrt(x4) - x2) <= 1e-8 * np.linalg.norm(x2)
            twice = linalg.spd_sqrt(linalg.spd_sqrt(x4))
            assert np.linalg.norm(twice - x) <= 1e-8 * np.linalg.norm(x)

    @pytest.mark.parametrize("low", [0.0, -1e-3])
    def test_rejects_non_spd(self, low):
        # require_spd's refusal, naming the smallest computed eigenvalue.
        with pytest.raises(DomainError, match=re.escape(f"(min eigenvalue {low:.3e})")):
            linalg.spd_sqrt(np.diag([1.0, low]))

    @pytest.mark.parametrize("scale", [1e-13, 1e-160])
    def test_tiny_scaled_identity_has_a_root(self, scale):
        # The SPD certificate is relative: scale alone never rejects.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            root = linalg.spd_sqrt(scale * np.eye(3))
        assert np.array_equal(root, math.sqrt(scale) * np.eye(3))

    @pytest.mark.parametrize("diag", [[1.0, 1e-13], [1e-20, 1e-33]])
    def test_root_beyond_the_lyapunov_tolerance(self, diag):
        # Smallest over largest eigenvalue below solve_lyapunov's 1e-12, at
        # any scale: require_spd certifies X, so it has its exact root.
        assert np.array_equal(linalg.spd_sqrt(np.diag(diag)), np.diag(np.sqrt(diag)))

    @pytest.mark.parametrize("scale", [1.0, 3.7, 1e-200, 1e200])
    @pytest.mark.parametrize("n", [2, 5])
    def test_root_one_ulp_either_side_of_the_lyapunov_tolerance(self, n, scale):
        # The diagonal matrices that pin solve_lyapunov's boundary
        # (TestSolveLyapunov) all get their exact root: the square root
        # has no conditioning cutoff.
        for d in _one_ulp_diagonals(n, scale):
            assert np.array_equal(linalg.spd_sqrt(np.diag(d)), np.diag(np.sqrt(d)))


def _one_ulp_diagonals(n, scale):
    """Spectra ``linspace(0.5, 1, n) * scale`` with one entry one ulp
    below, at and one ulp above ``1e-12 * scale``, in that order."""
    level = 1e-12 * scale
    for low in (np.nextafter(level, 0.0), level, np.nextafter(level, np.inf)):
        d = np.linspace(0.5, 1.0, n) * scale
        d[n // 2 - 1] = low
        yield d


class TestPlumbing:
    # linalg._norm is the one norm that only decides (the Bures-Wasserstein
    # step screen, domain and collinearity checks, the sphere's point
    # check): the bits of math.sqrt(np.vdot(a, a)), 0.0 for a zero or empty
    # array, inf on overflow, nan for a NaN entry, and never a RuntimeWarning.
    def test_norm_zero(self):
        assert linalg._norm(np.zeros((4, 4))) == 0.0

    @pytest.mark.parametrize(
        "entries, expected",
        [
            ([[1e200, 1.0], [1.0, 1e200]], math.inf),  # overflows to inf
            ([[1e154, 1e154], [1e154, 1e154]], math.inf),
            ([[np.nan, 1.0], [1.0, 2.0]], pytest.approx(math.nan, nan_ok=True)),
            ([[np.inf, np.nan], [np.nan, 1.0]], pytest.approx(math.nan, nan_ok=True)),
            ([[-0.0, -0.0], [-0.0, -0.0]], 0.0),
            ([[-0.0, 0.0, -0.0]], 0.0),
            ([[5e-324, -5e-324], [2.2e-308, -1e-310]], 0.0),  # subnormal squares flush to 0
            ([[1e-160, 3e-161]], pytest.approx(math.hypot(1e-160, 3e-161), rel=1e-3)),
            ([], 0.0),
        ],
        ids=["overflow", "overflow-in-sum", "nan", "inf-nan", "negzero", "negzero-row",
             "subnormal", "tiny", "empty"],
    )
    def test_norm_matches_its_wrapped_form(self, entries, expected):
        a = np.array(entries, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new = linalg._norm(a)
        assert type(new) is float
        assert bits(new) == bits(math.sqrt(np.vdot(a, a)))
        assert new == expected

    def test_norm_matches_its_wrapped_form_on_random_matrices(self):
        # Within k eps of the norm for k entries: the slack the step
        # screen's soundness proof allows the norm it decides with.
        rng = np.random.default_rng(26)
        eps = np.finfo(float).eps
        for shape in ((1,), (7,), (5, 5), (20, 20), (3, 129)):
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-100, 100)
            new = linalg._norm(a)
            assert bits(new) == bits(math.sqrt(np.vdot(a, a)))
            exact = math.sqrt(math.fsum((a * a).ravel()))
            assert abs(new - exact) <= a.size * eps * exact

    def test_symmetrize(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        out = linalg.symmetrize(m)
        assert np.allclose(out, np.array([[1.0, 1.0], [1.0, 1.0]]))
        # The kernels, the BW exponential and the problem builders all take
        # their (M + M^T) / 2 from here: bitwise symmetric, the inline
        # expression's bytes, and a fixed point on symmetric input.
        rng = np.random.default_rng(26)
        for scale in (1e-150, 1e-50, 1.0, 1e50, 1e150):
            for n in (1, 2, 5, 20):
                m = rng.standard_normal((n, n)) * scale
                out = linalg.symmetrize(m)
                assert out.tobytes() == (0.5 * (m + m.T)).tobytes()
                assert out.tobytes() == out.T.copy().tobytes()
                assert linalg.symmetrize(out).tobytes() == out.tobytes()

    def test_symmetric_outputs_are_exactly_symmetric(self):
        # Every symmetric matrix a kernel returns goes through symmetrize,
        # so it equals its transpose bit for bit.  (A transported tangent,
        # W + (2 / c) L X L, is not symmetrized and is not checked here.)
        bw = BuresWasserstein()
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 13))
            x = random_spd(rng, n, 0.2, 4.0)
            u = random_sym(rng, n)
            grad = bw.egrad_to_rgrad(x, rng.standard_normal((n, n)))
            step = (-0.5 * min(1.0, bw.max_step(x, (-1.0) * grad))) * grad
            for out in (linalg.solve_lyapunov(x, u), linalg.spd_sqrt(x), bw.exp(x, step), grad.mat):
                assert np.array_equal(out, out.T)

    def test_cholesky_agrees_with_numpy(self):
        rng = np.random.default_rng(8)
        x = random_spd(rng, 7)
        assert np.allclose(linalg.cholesky(x), np.linalg.cholesky(x), atol=1e-12)

    def test_cholesky_rejects_indefinite(self):
        with pytest.raises(DomainError):
            linalg.cholesky(np.diag([1.0, -2.0]))


def _with_spectrum(rng, w):
    """Symmetric matrix with eigenvalues w in a random orthonormal basis."""
    q = np.linalg.qr(rng.standard_normal((w.size, w.size)))[0]
    return linalg.symmetrize((q * w) @ q.T)


def _spd_outcome(check, x):
    """None when ``check(x)`` accepts x, else its DomainError message."""
    try:
        check(x)
    except DomainError as exc:
        return str(exc)
    return None


class TestRequireSpd:
    """Differential tests: the LAPACK certificate against the Python oracle."""

    @pytest.mark.parametrize("scale", [2.0**-900, 1e-6, 1e-3, 1.0, 1e3, 1e6, 2.0**900])
    def test_agrees_with_cholesky_near_singular(self, scale, monkeypatch):
        # lambda_min at k eps ||x||_2 straddles the level where the Python
        # factorization starts to fail, for every n from 1 to 30: at fixed
        # k, and at 0.5 to 2 times Higham's failure level n (n + 1) eps / 2
        # and require_spd's shift 4 n^2 eps (relative to ||x||_2).  At those
        # levels a copy symmetric only within 1e-13 decides as well.
        oracle = linalg.cholesky
        fallbacks = []
        monkeypatch.setattr(linalg, "cholesky", lambda a: fallbacks.append(1) or oracle(a))
        rng = np.random.default_rng((int(np.log10(scale)) + 100) % 1000)
        twin = np.random.default_rng(int(np.log10(scale)) + 1000)
        eps = np.finfo(float).eps
        seen = {"accepted": 0, "rejected": 0, "certified": 0, "oracle accepted": 0}
        for n in range(1, 31):
            levels = [f * level for f in (0.5, 1.0, 2.0) for level in (n * (n + 1) / 2, 4 * n * n)]
            for k in [-100, -10, -1, 0, 1, 10, 100, 1e3, 1e4] + levels:
                gen = twin if k in levels else rng
                w = scale * gen.uniform(1.0, 2.0, size=n)
                w[-1] = 2.0 * scale
                w[0] = k * eps * 2.0 * scale
                x = _with_spectrum(gen, w)
                points = [x]
                if gen is twin:
                    points.append(x * (1.0 + 1e-13 * twin.uniform(-1.0, 1.0, x.shape)))
                for x in points:
                    expected = _spd_outcome(oracle, x)
                    before = len(fallbacks)
                    assert _spd_outcome(linalg.require_spd, x) == expected, (n, k)
                    seen["rejected" if expected else "accepted"] += 1
                    if len(fallbacks) == before:
                        seen["certified"] += 1
                    elif expected is None:
                        seen["oracle accepted"] += 1
        # Every branch ran: LAPACK certified, and the oracle both accepted
        # and rejected inside the margin.
        assert all(seen.values()), seen

    @pytest.mark.parametrize(
        "x",
        [
            [[np.nan]],
            [[np.inf]],
            [[-np.inf]],
            [[0.0]],
            [[-1.0]],
            [[2.0, 1.0], [np.nan, 2.0]],
            [[2.0, np.nan], [1.0, 2.0]],  # upper triangle is not read
            [[2.0, 1.0], [np.inf, 2.0]],
            [[np.nan, 0.0], [0.0, 1.0]],
            [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1e-300]],
            [[-1.0, 0.0], [0.0, -1.0]],
            np.zeros((3, 3)),
            1e-300 * np.eye(3),  # shift too small to trust: the oracle decides
            1e300 * np.eye(3),
            [[1.0, 2.0], [2.0, 1.0]],
        ],
    )
    def test_agrees_with_cholesky_on_edge_inputs(self, x):
        x = np.asarray(x, dtype=float)
        assert _spd_outcome(linalg.require_spd, x) == _spd_outcome(linalg.cholesky, x)

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("n", [1, 2, 4, 9])
    def test_agrees_with_cholesky_one_rounding_from_its_decision(self, n, scale):
        # The last diagonal entry at the oracle's last pivot p, where its
        # remainder a_nn - p is exactly 0, and one ulp either side, where it
        # is +-ulp(p): the oracle rejects, rejects, accepts.
        rng = np.random.default_rng(n)
        x = scale * random_spd(rng, n)
        # The factor's last row left of the diagonal does not depend on
        # x[-1, -1], and p is the oracle's own dot product of it.
        row = linalg.cholesky(x)[-1, :-1]
        p = np.dot(row, row)
        for value, accepted in ((np.nextafter(p, -np.inf), False), (p, False),
                                (np.nextafter(p, np.inf), True)):
            x[-1, -1] = value
            expected = _spd_outcome(linalg.cholesky, x)
            assert (expected is None) == accepted, (n, scale, value)
            assert _spd_outcome(linalg.require_spd, x) == expected, (n, scale, value)

    @pytest.mark.parametrize(
        "diagonal",
        [[-0.0, 0.0, 2.0], [0.0, -0.0, 2.0], [2.0, -0.0, 0.0], [-0.0, 0.0], [0.0, -0.0],
         [-0.0, -0.0, -0.0], [1e-300, -0.0, 0.0]],
    )
    def test_shift_matches_its_wrapped_form_on_signed_zeros(self, diagonal, monkeypatch):
        # The shift reduces the diagonal with np.maximum.reduce, the ufunc
        # np.max calls; both give the certificate the same shift, and LAPACK
        # factors only at a shift above the underflow scale.
        x = np.diag(diagonal)
        x[-1, 0] = x[0, -1] = 0.5 * diagonal[-1]
        n = len(diagonal)
        old = 4.0 * n * n * np.finfo(float).eps * float(np.max(np.diagonal(x)))
        shifts, factored = [], []
        certify = linalg._lapack_bound
        monkeypatch.setattr(
            linalg, "_lapack_bound", lambda a, shift, level: shifts.append(shift) or certify(a, shift, level)
        )
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(1) or cholesky(a))
        outcome = _spd_outcome(linalg.require_spd, x)
        assert outcome == _spd_outcome(linalg.cholesky, x)
        assert bits(shifts) == bits([old])
        assert len(factored) == (old >= linalg._MIN_SPD_SHIFT)

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 100])
    def test_lapack_bound_covers_highams_error(self, n):
        # Where LAPACK factors b = a - shift I (as rounded), the bound sits
        # below shift by at least Higham's backward error, gamma_{n+1} / (1 -
        # gamma_{n+1}) Tr b, plus the rounding of b's diagonal, u / (1 - u)
        # Tr b, in exact arithmetic: at require_spd's shift, at half the
        # smallest eigenvalue (a seed's kind of shift), and at a negative
        # shift just below a factor's negative eigenvalue (the screen's).
        rng = np.random.default_rng(n)
        u = fractions.Fraction(1, 2**53)
        gamma = (n + 1) * u / (1 - (n + 1) * u)
        x = _with_spectrum(rng, rng.uniform(0.5, 2.0, size=n))
        fac = random_sym(rng, n) - np.eye(n)
        lam = np.linalg.eigvalsh(fac)[0]
        cases = [(x, 4.0 * n * n * np.finfo(float).eps * float(np.max(np.diagonal(x)))),
                 (x, 0.5 * np.linalg.eigvalsh(x)[0]), (fac, 1.001 * lam)]
        for a, shift in cases:
            bound = linalg._lapack_bound(a, shift, -math.inf)
            assert bound > -math.inf, (n, shift)
            diagonal = np.diagonal(a) - shift
            trace = sum(fractions.Fraction(float(d)) for d in diagonal)
            need = (gamma / (1 - gamma) + u / (1 - u)) * trace
            assert fractions.Fraction(shift) - fractions.Fraction(bound) >= need, (n, shift)

    def test_certifies_well_conditioned_matrices_without_fallback(self, monkeypatch):
        def fail(a):
            raise AssertionError("fell back to the Python Cholesky")

        monkeypatch.setattr(linalg, "cholesky", fail)
        rng = np.random.default_rng(31)
        for n in (1, 2, 5, 20, 100):
            for scale in (1e-6, 1.0, 1e6):
                linalg.require_spd(_with_spectrum(rng, scale * rng.uniform(0.5, 2.0, size=n)))
