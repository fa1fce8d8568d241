import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from dualframes import sparsity
from dualframes.errors import (
    NonConvergence,
    RankDeficient,
    SingularSubset,
    SizeLimit,
    Truncated,
)
from dualframes.frames import DUAL_CHECK_TOL, Frame, is_dual, row_delete
from dualframes.numerics import nullspace_basis, rank_tol
from dualframes.sparsity import (
    DEFAULT_BUDGET,
    _Budget,
    _certify,
    _row_supports,
    biorthogonal_dual,
    enumerate_sparsest_duals,
    generalized_spark,
    in_P,
    is_general_position,
    spark,
    sparsest_dual,
    sparsity_bounds,
)

from conftest import (
    NEAR_DEPENDENT_FRAMES,
    NO_FRAME,
    frac_matrix,
    nnz,
    random_integer_frame,
    random_rational_matrix,
    rows_off_by,
    seeded_frames,
)

# the three sparsest duals of [[1,-1,0],[1,2,-1]], in enumeration order
PSI_1 = [[0, -1, -2], [0, 0, -1]]
PSI_2 = [[Fraction(2, 3), Fraction(-1, 3), 0], [0, 0, -1]]
PSI_3 = [[1, 0, 1], [0, 0, -1]]


class TestSpark:
    def test_worked_example(self, ex_sparse):
        rep = spark(ex_sparse.matrix)
        assert rep.spark == 3
        assert rep.witness == (0, 1, 2)
        assert not rep.tolerance_dependent

    def test_full_spark_square(self):
        assert spark(frac_matrix([[1, 0], [0, 1]])).spark == 3

    def test_zero_column(self):
        rep = spark(frac_matrix([[0, 1, 0], [0, 0, 1]]))
        assert rep.spark == 1
        assert rep.witness == (0,)

    def test_repeated_column(self):
        rep = spark(frac_matrix([[1, 1, 0], [2, 2, 1]]))
        assert rep.spark == 2
        assert rep.witness == (0, 1)

    def test_float_flagged(self):
        assert spark(np.array([[1.0, 2.0, 3.0]])).tolerance_dependent

    def test_budget(self):
        with pytest.raises(SizeLimit):
            spark(frac_matrix([[1, 2, 3, 4, 5, 6, 7, 8]]), budget=3)


class TestGeneralizedSpark:
    def test_worked_example(self, ex_sparse):
        # deleting row 0 leaves [1,2,-1] with no zero entry, so spark_0 = 2;
        # deleting row 1 leaves [1,-1,0] whose last column vanishes, spark_1 = 1
        assert generalized_spark(ex_sparse, 0) == 2
        assert generalized_spark(ex_sparse, 1) == 1

    def test_at_least_plain_spark(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            f = random_integer_frame(rng, 3, 5)
            for j in range(3):
                assert (
                    generalized_spark(f, j)
                    >= spark(row_delete(f, j)).spark
                    or spark(row_delete(f, j)).spark == f.m + 1
                )

    def test_bounded_by_n(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            f = random_integer_frame(rng, 3, 4)
            for j in range(3):
                assert 1 <= generalized_spark(f, j) <= 3


class TestSparsestDual:
    def test_certificate(self, ex_sparse):
        psi, cert = sparsest_dual(ex_sparse)
        assert cert.total_sparsity == 3
        assert not cert.tolerance_dependent
        assert [rc.spark_j for rc in cert.rows] == [2, 1]
        assert is_dual(ex_sparse, psi)[1] == 0
        assert nnz(psi) == 3

    def test_certificate_row_recipe(self, ex_sparse):
        # each certified row, rebuilt from (support, coeffs, scale),
        # matches the returned dual row
        psi, cert = sparsest_dual(ex_sparse)
        for rc in cert.rows:
            row = np.array([Fraction(0)] * ex_sparse.m, dtype=object)
            for k, c in enumerate(rc.support):
                row[c] = rc.coeffs[k] / rc.scale
            assert list(row) == list(psi.matrix[rc.row])

    def test_random_exact_frames(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            f = random_integer_frame(rng, 2, 4)
            psi, cert = sparsest_dual(f)
            assert is_dual(f, psi)[1] == 0
            assert nnz(psi) == cert.total_sparsity
            assert cert.total_sparsity <= f.n ** 2

    def test_never_sparser_than_certificate(self):
        # brute-force oracle on a tiny frame: no dual has fewer nonzeros
        f = Frame.exact([[1, -1, 0], [1, 2, -1]])
        _, cert = sparsest_dual(f)
        best = cert.total_sparsity
        duals = enumerate_sparsest_duals(f)
        assert all(nnz(d) == best for d in duals)


class TestBudget:
    @staticmethod
    def _charge(f, sparks):
        # one unit per (row, subset) pair at every cardinality up to spark_j
        return sum(math.comb(f.m, s) for sj in sparks for s in range(1, sj + 1))

    @pytest.mark.parametrize("seed", [None, 5, 6])
    def test_exact_budget_passes_one_less_raises(self, ex_sparse, seed):
        f = ex_sparse if seed is None else random_integer_frame(
            np.random.default_rng(seed), 3, 5)
        _, cert = sparsest_dual(f)
        sparks = [rc.spark_j for rc in cert.rows]
        total = self._charge(f, sparks)
        sparsest_dual(f, budget=total)
        with pytest.raises(SizeLimit) as exc:
            sparsest_dual(f, budget=total - 1)
        top = max(sparks)
        assert exc.value.cardinality == top
        assert exc.value.rows == [j for j, s in enumerate(sparks) if s == top]
        assert exc.value.budget == total - 1
        assert f"cardinality {top}" in str(exc.value)

    def test_in_P_charges_every_row(self):
        f = Frame.exact([[1, 2, 3, 4], [1, -1, 2, 5], [2, 1, -3, 1]])
        total = 3 * math.comb(4, 2)
        assert in_P(f, budget=total)
        with pytest.raises(SizeLimit) as exc:
            in_P(f, budget=total - 1)
        assert (exc.value.cardinality, exc.value.rows) == (2, [0, 1, 2])


def _reference_row(frame, j):
    """The per-row definition, subset by subset: S is a minimal support of
    row j when Phi^{(j)}_S is dependent and Phi_S independent, both decided
    at the frame's threshold; lambda is the null vector of Phi^{(j)}_S."""
    phi, sub, tol = frame.matrix, row_delete(frame, j), frame.tol
    for s in range(1, frame.n + 1):
        found = []
        for cols in itertools.combinations(range(frame.m), s):
            block = sub[:, cols]
            if rank_tol(block, tol) < s and rank_tol(phi[:, cols], tol) == s:
                lam = nullspace_basis(block, tol)[:, 0]
                a = sum(lam[k] * phi[j, c] for k, c in enumerate(cols))
                found.append((cols, list(lam), a))
        if found:
            return s, found
    raise AssertionError("not a frame")


def _reference_frames(count=240):
    """Seeded small frames: exact integer and p/q, float Gaussian and
    integer-valued float, complex; each with a chance of a zero column and
    of a repeated column.  Half the float repeats are off by 1e-17 to 1e-13,
    far below a frame's threshold, so that the scan meets near-duplicate
    columns."""
    rng = np.random.default_rng(2024)
    made = 0
    while made < count:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n, 7))
        kind = made % 5
        if kind == 0:
            mat = rng.integers(-2, 3, size=(n, m)).astype(object)
        elif kind == 1:
            mat = np.array(
                [[Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5)))
                  for _ in range(m)] for _ in range(n)], dtype=object)
        elif kind == 2:
            mat = rng.standard_normal((n, m))
        elif kind == 3:
            mat = rng.integers(-2, 3, size=(n, m)).astype(float)
        else:
            mat = rng.standard_normal((n, m)) + 1j * rng.integers(-1, 2, (n, m))
        if m > 1 and rng.random() < 0.4:
            mat[:, int(rng.integers(m))] = 0
        if m > 2 and rng.random() < 0.4:
            a, b = rng.choice(m, size=2, replace=False)
            mat[:, b] = mat[:, a]
            if kind >= 2 and rng.random() < 0.5:
                mat[:, b] += 10 ** rng.uniform(-17, -13) * rng.standard_normal(n)
        if kind <= 1:
            mat = np.array([[Fraction(x) for x in row] for row in mat], dtype=object)
        try:
            frame = Frame(mat)
        except RankDeficient:
            continue
        made += 1
        yield frame


def test_scanner_matches_per_row_definition():
    frames = list(_reference_frames())
    assert sum(f.is_exact for f in frames) >= 80
    rows = 0
    for f in frames:
        supports = _row_supports(f, range(f.n), _Budget(DEFAULT_BUDGET))
        _, cert = sparsest_dual(f)
        for j in range(f.n):
            s, ref = _reference_row(f, j)
            rows += 1
            assert supports[j][0] == s == cert.rows[j].spark_j
            assert supports[j][2] == spark(row_delete(f, j)).spark
            assert generalized_spark(f, j) == s
            assert supports[j][1] == [cols for cols, _, _ in ref]
            for cols, lam, a in ref:
                got_lam, got_a = _certify(f, j, cols)
                assert repr(got_lam) == repr(lam)
                assert repr(got_a) == repr(a)
            cols, lam, a = ref[0]
            assert cert.rows[j].support == cols
            assert repr(cert.rows[j].coeffs) == repr(lam)
            assert repr(cert.rows[j].scale) == repr(a)
    assert rows >= 400


@pytest.mark.parametrize("index", sorted(NEAR_DEPENDENT_FRAMES))
def test_near_dependent_columns_give_duals_or_no_frame(index):
    # the sparsest dual and every enumerated one pass at 1e-9, or the
    # matrix is no frame under the frame's threshold
    mat = np.array(NEAR_DEPENDENT_FRAMES[index])
    if index in NO_FRAME:
        with pytest.raises(RankDeficient):
            Frame(mat)
        return
    f = Frame(mat)
    psi, _ = sparsest_dual(f)
    for d in [psi, *enumerate_sparsest_duals(f)]:
        assert is_dual(f, d, 1e-9)[0]


def test_row_without_support_is_rank_deficient():
    # sigma_2 = 1.75e-9 is above tol = 1e-9, yet every column pair is
    # dependent at that threshold, so row 1 has no support
    a = np.vstack([np.ones(100), 3e-10 * np.linspace(-1, 1, 100)])
    f = Frame(a, tol=1e-9)
    with pytest.raises(RankDeficient, match=r"rows \[1\]"):
        sparsest_dual(f)


class TestEnumerate:
    def test_worked_example_all_three(self, ex_sparse):
        duals = enumerate_sparsest_duals(ex_sparse)
        assert len(duals) == 3
        mats = [d.matrix.tolist() for d in duals]
        for expected in (PSI_1, PSI_2, PSI_3):
            target = [[Fraction(x) for x in row] for row in expected]
            assert target in mats
        for d in duals:
            assert is_dual(ex_sparse, d)[1] == 0

    def test_deterministic_order(self, ex_sparse):
        a = enumerate_sparsest_duals(ex_sparse)
        b = enumerate_sparsest_duals(ex_sparse)
        assert [x.matrix.tolist() for x in a] == [x.matrix.tolist() for x in b]

    def test_limit(self, ex_sparse):
        with pytest.raises(Truncated) as exc:
            enumerate_sparsest_duals(ex_sparse, limit=2)
        assert len(exc.value.partial) == 2

    def test_sorted_product_and_prefix_under_limit(self):
        # the full list is strictly increasing in flattened entry order, and
        # a limit of k leaves its first k duals
        rng = np.random.default_rng(41)
        frames = [
            random_integer_frame(rng, 2, 5),
            Frame(np.array(random_rational_matrix(rng, 2, 5), dtype=object)),
            Frame(rng.standard_normal((2, 5))),
            Frame(rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))),
        ]
        for f in frames:
            duals = enumerate_sparsest_duals(f)
            assert len(duals) > 5
            keys = [tuple(d.matrix.flat) for d in duals]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            for k in (0, 1, 2, 5):
                with pytest.raises(Truncated) as exc:
                    enumerate_sparsest_duals(f, limit=k)
                assert exc.value.limit == k
                assert exc.value.partial == duals[:k]
            assert enumerate_sparsest_duals(f, limit=len(duals)) == duals


def _duals(frame, limit=None):
    """enumerate_sparsest_duals, with a truncated result taken from its
    Truncated."""
    try:
        return enumerate_sparsest_duals(frame, limit)
    except Truncated as exc:
        return exc.partial


@pytest.mark.parametrize("kind", ["integer", "rational", "real", "complex"])
class TestSparsestDuals:
    def test_count_is_product_of_row_lists(self, kind):
        f = seeded_frames()[kind]
        duals = enumerate_sparsest_duals(f)
        assert len(duals.rows) == f.n
        assert duals.count == math.prod(len(r) for r in duals.rows) > 5
        assert len(duals) == duals.count == len(list(duals))

    @pytest.mark.parametrize("limit", [None, 0, 1, 5])
    def test_len_under_limit(self, kind, limit):
        f = seeded_frames()[kind]
        count = enumerate_sparsest_duals(f).count
        duals = _duals(f, limit)
        assert duals.count == count
        assert len(duals) == (count if limit is None else min(count, limit))
        assert len(list(duals)) == len(duals)

    def test_indexing_and_slicing_match_iteration(self, kind):
        duals = _duals(seeded_frames()[kind], 5)
        items = list(duals)
        k = len(items)
        assert [duals[i] for i in range(k)] == items
        assert [duals[-i] for i in range(1, k + 1)] == items[::-1]
        for cut in (slice(1, 4), slice(None, None, -2), slice(-2, None),
                    slice(k, None), slice(None)):
            assert duals[cut] == items[cut]
        for bad in (k, -k - 1):
            with pytest.raises(IndexError):
                duals[bad]

    def test_sequence_is_product_of_rows(self, kind):
        f = seeded_frames()[kind]
        duals = enumerate_sparsest_duals(f)
        expected = [Frame(np.vstack(r)) for r in itertools.product(*duals.rows)]
        assert list(duals) == expected
        assert duals == expected and expected == duals
        assert duals == enumerate_sparsest_duals(f)
        assert duals != expected[:-1]

    def test_every_dual_passes(self, kind):
        f = seeded_frames()[kind]
        for d in enumerate_sparsest_duals(f):
            ok, resid = is_dual(f, d, DUAL_CHECK_TOL)
            assert ok and (resid == 0 or not f.is_exact)


@pytest.mark.parametrize("kind", ["integer", "real"])
def test_failing_candidate_row_raises(monkeypatch, kind):
    f = seeded_frames()[kind]
    delta = Fraction(1, 10**6) if f.is_exact else 1e-6
    monkeypatch.setattr(sparsity, "_row_vector", rows_off_by(delta))
    with pytest.raises(NonConvergence, match="row 0 on support"):
        enumerate_sparsest_duals(f)


@pytest.mark.parametrize("kind", ["integer", "real", "complex"])
@pytest.mark.parametrize("build", [sparsest_dual, biorthogonal_dual],
                         ids=["sparsest", "biorthogonal"])
def test_failing_built_row_raises(monkeypatch, build, kind):
    # every row of the sparsest and the biorthogonal dual is checked where
    # it is built
    f = seeded_frames()[kind]
    delta = Fraction(1, 10**6) if f.is_exact else 1e-6
    monkeypatch.setattr(sparsity, "_row_vector", rows_off_by(delta))
    with pytest.raises(NonConvergence, match="row 0 on support"):
        build(f)


def test_sparsity_bounds(ex_sparse):
    assert sparsity_bounds(ex_sparse) == (3, 3, 4)


def test_spark_sum_matches_per_row_sums():
    # one shared scan per threshold gives the sum of the per-row searches
    frames = list(_reference_frames(60))
    assert sum(f.is_exact for f in frames) >= 20
    for f in frames:
        at_tols = [f]
        if not f.is_exact:
            for factor in (0.1, 10.0):
                # a threshold at which the matrix is no frame has no sum
                try:
                    at_tols.append(Frame(f.matrix, tol=factor * f.tol))
                except RankDeficient:
                    pass
        for g in at_tols:
            per_row = sum(generalized_spark(g, j) for j in range(g.n))
            assert sparsity_bounds(g)[1] == per_row
        assert sparsity_bounds(f)[:2] == (
            sum(spark(row_delete(f, j)).spark for j in range(f.n)),
            sum(generalized_spark(f, j) for j in range(f.n)),
        )


def test_sparsity_bounds_sandwich_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        f = random_integer_frame(rng, 3, 5)
        lower, exact, upper = sparsity_bounds(f)
        assert lower <= exact <= upper == 9


def test_in_P_is_the_full_lower_sum():
    # spark(Phi^{(j)}) <= n, so the lower sum reaches n^2 exactly in P
    frames = list(_reference_frames())
    verdicts = [in_P(f) for f in frames]
    assert verdicts == [sparsity_bounds(f)[0] == f.n ** 2 for f in frames]
    assert any(verdicts) and not all(verdicts)


class TestBiorthogonal:
    def test_auto_columns(self, ex_sparse):
        psi = biorthogonal_dual(ex_sparse)
        expected = [
            [Fraction(2, 3), Fraction(-1, 3), 0],
            [Fraction(1, 3), Fraction(1, 3), 0],
        ]
        assert psi.matrix.tolist() == [
            [Fraction(x) for x in row] for row in expected
        ]
        assert is_dual(ex_sparse, psi)[1] == 0

    def test_explicit_columns(self, ex_sparse):
        psi = biorthogonal_dual(ex_sparse, cols=[1, 2])
        assert is_dual(ex_sparse, psi)[1] == 0
        assert not np.any(psi.matrix[:, 0] != 0)

    def test_singular_subset(self):
        f = Frame.exact([[1, 2, 0], [2, 4, 1]])
        with pytest.raises(SingularSubset):
            biorthogonal_dual(f, cols=[0, 1])

    def test_nnz_at_most_n_squared(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            f = random_integer_frame(rng, 3, 6)
            psi = biorthogonal_dual(f)
            assert nnz(psi) <= 9
            assert is_dual(f, psi)[1] == 0

    def test_rational_frames_every_subset(self):
        # Psi Phi* = I exactly on p/q frames for every independent n-subset,
        # and SingularSubset exactly for the dependent ones
        rng = np.random.default_rng(14)
        singular = 0
        for _ in range(6):
            a = random_rational_matrix(rng, 3, 6)
            if rank_tol(a) < 3:
                continue
            f = Frame(a)
            for cols in itertools.combinations(range(6), 3):
                if rank_tol(f.matrix[:, cols]) < 3:
                    with pytest.raises(SingularSubset):
                        biorthogonal_dual(f, cols=cols)
                    singular += 1
                    continue
                psi = biorthogonal_dual(f, cols=cols).matrix
                assert np.all(psi @ f.matrix.T == np.eye(3, dtype=int))
                off = [c for c in range(6) if c not in cols]
                assert not np.any(psi[:, off] != 0)
        assert singular > 0

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_float_frames_every_subset(self, kind, n):
        # a dual on J for every n-subset J independent at the frame's
        # threshold, SingularSubset exactly on the others
        rng = np.random.default_rng(15 + n)
        for _ in range(4):
            a = rng.standard_normal((n, 5))
            if kind == "complex":
                a = a + 1j * rng.standard_normal((n, 5))
            a[:, 4] = a[:, 0] * 3  # a dependent pair for n >= 2
            a[:, 3] = 0.0  # a zero column: dependent for n = 1
            f = Frame(a)
            for cols in itertools.combinations(range(5), n):
                if rank_tol(f.matrix[:, cols], f.tol) < n:
                    with pytest.raises(SingularSubset):
                        biorthogonal_dual(f, cols=cols)
                    continue
                psi = biorthogonal_dual(f, cols=cols)
                assert psi.matrix.dtype == f.matrix.dtype
                assert is_dual(f, psi, DUAL_CHECK_TOL)[0]
                off = [c for c in range(5) if c not in cols]
                assert not np.any(psi.matrix[:, off] != 0)
            assert biorthogonal_dual(f) == biorthogonal_dual(
                f, cols=range(n))


class TestGeneralPosition:
    def test_examples(self):
        assert is_general_position(frac_matrix([[1, 2, 3]]))
        assert not is_general_position(frac_matrix([[1, 0, 3]]))
        assert is_general_position(frac_matrix([[1, 1, 0], [0, 1, 1]]))
        assert not is_general_position(frac_matrix([[1, 2, 0], [2, 4, 1]]))

    def test_in_P_implies_n_squared(self):
        rng = np.random.default_rng(17)
        hits = 0
        for _ in range(15):
            f = random_integer_frame(rng, 2, 4)
            if in_P(f):
                hits += 1
                assert sparsity_bounds(f)[1] == 4
        assert hits > 0  # the sample should contain generic frames


def test_nnz():
    assert nnz(frac_matrix([[0, 1], [2, 0]])) == 2
    assert nnz(np.array([[1e-14, 1.0]]), tol=1e-12) == 1
    assert nnz(np.array([[1e-14, 1.0]])) == 2
