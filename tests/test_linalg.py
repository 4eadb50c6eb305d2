"""Exact linear algebra: echelon forms on ``Dense`` rows against the numpy
reference, the column-list product and submatrices, persistence pairs, the
sparse echelon subspaces of the package against the dense reference, and the
dense reference's kernels, solving and subspace calculus."""

import copy
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechmv import (
    CochainComplex,
    ContractError,
    Dense,
    InputError,
    PrimeField,
    RationalField,
    is_prime,
    mul,
    rank,
    rref,
)
from cechmv import linalg
from cechmv.linalg import pivot_pairs, submatrix
from conftest import FieldMismatchError, as_dense, columns, dense, describe, rand_complex
from reference_cohomology import cohomology_map, cohomology_reps, coordinates, quotient_reps
# the dense reference: numpy arrays and their rref, and its own product,
# kernels, solutions and subspaces from that rref
from reference_dense import dtype, zeros
from reference_dense import rank as dense_rank
from reference_dense import rref as dense_rref
from reference_spectral import Subspace, eye, image, kernel, kernel_space, matrix, solve
from reference_spectral import mul as dense_mul

F = PrimeField(65537)
Q = RationalField()
# small and large primes, a prime past the reference's int64 bound and Q
FIELDS = (PrimeField(2), PrimeField(3), F, PrimeField(2**31 - 1), Q)


def _field_matrix(f, data, den=1, cols=None):
    """``data``, integer rows, over ``f``; each entry divided by ``den`` over Q.
    ``cols`` gives the width when ``data`` has no rows."""
    rows, cols = len(data), (len(data[0]) if data else 0) if cols is None else cols
    a = zeros(f, rows, cols)
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            a[i, j] = Fraction(x, den) if f is Q else x
    return f.normalize(a)

# minors of a 6x6 integer matrix with entries in [-2,2] are bounded by
# 6! * 2^6 = 46080 < 65537, so ranks over Q and over F_65537 must agree
small_matrix = st.integers(min_value=1, max_value=6).flatmap(
    lambda r: st.integers(min_value=1, max_value=6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-2, max_value=2), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert is_prime(65537) and is_prime(1000003) and is_prime(2**31 - 1)
    assert not is_prime(65537 * 1000003)


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(InputError, match="modulus not prime"):
        PrimeField(91)


def test_prime_field_refuses_moduli_past_the_exact_primality_test():
    psi12 = 3317044064679887385961981  # the least strong pseudoprime to the 12 bases
    assert psi12 == 1287836182261 * 2575672364521 and is_prime(psi12)
    with pytest.raises(InputError, match="too large"):
        PrimeField(psi12)
    assert PrimeField(2**61 - 1).p == 2**61 - 1


def test_rref_hand_example():
    a = as_dense(_field_matrix(F, [[2, 4], [1, 2]]))
    R, piv = rref(F, a)
    assert piv == [0]
    assert R[0] == [1, 2]
    assert not any(R[1])


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_rref_is_projection_and_rank_counts_pivots(data):
    a = _field_matrix(F, data)
    R, piv = rref(F, as_dense(a))
    R2, piv2 = rref(F, R)
    assert R == R2 and R.shape == R2.shape and piv == piv2
    assert rank(F, as_dense(a)) == len(piv)
    assert rank(F, as_dense(a)) == rank(F, as_dense(a.T))


@st.composite
def low_rank_matrix(draw):
    """A rows x cols integer matrix of rank at most k (a product through k
    dimensions), with some rows and columns zeroed; any size may be 0."""
    rows, cols, k = draw(st.integers(0, 7)), draw(st.integers(0, 7)), draw(st.integers(0, 4))
    ints = st.integers(-3, 3)
    left = draw(st.lists(st.lists(ints, min_size=k, max_size=k), min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(ints, min_size=cols, max_size=cols), min_size=k, max_size=k))
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0))))
    return [[0 if i in zero_rows or j in zero_cols
             else sum(left[i][t] * right[t][j] for t in range(k))
             for j in range(cols)] for i in range(rows)], k


@st.composite
def sparse_matrix(draw):
    """A rows x cols 0/±1 matrix, up to 24 x 24 and at most 15% nonzero, whose
    entries sit in at most half of its rows and half of its columns: the
    shape of a Čech differential, with many all-zero columns and many
    columns sharing low rows, so the column reduction runs long chains."""
    rows, cols = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    live = [draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=max(n // 2, 1), unique=True))
            for n in (rows, cols)]
    n = draw(st.integers(0, min(rows * cols * 15 // 100, len(live[0]) * len(live[1]))))
    cells = draw(st.lists(st.tuples(*map(st.sampled_from, live)), min_size=n, max_size=n,
                          unique=True))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    data = [[0] * cols for _ in range(rows)]
    for (i, j), s in zip(cells, signs):
        data[i][j] = s
    return data, min(rows, cols)


@settings(max_examples=100, deadline=None)
@given(st.one_of(low_rank_matrix(), sparse_matrix()), st.integers(1, 3))
def test_pivot_pairs_follow_the_pairing_lemma(drawn, den):
    """The persistence pairs hold each row and each column at most once,
    their columns are the pivots of ``rref``, and for every r and c the pairs
    inside the bottom r rows and the left c columns count that block's rank,
    over small and large primes, a prime past the int64 bound and Q, on empty,
    zero-padded and rank-deficient matrices and on sparse 0/±1 ones."""
    data, k = drawn
    rows, cols = len(data), len(data[0]) if data else 0
    for f in FIELDS:
        a = _field_matrix(f, data, den)
        cols_a = columns(f, a)
        before = copy.deepcopy(cols_a)
        pairs = pivot_pairs(f, cols_a)
        assert sorted(j for _, j in pairs) == rref(f, as_dense(a))[1], (describe(f), data)
        assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs) <= k
        for r in range(rows + 1):
            # the rank of the bottom r rows' left c columns is the number of
            # their pivots left of c, so one rref gives every c
            pivots = rref(f, as_dense(a[rows - r:]))[1]
            for c in range(cols + 1):
                inside = sum(1 for i, j in pairs if i >= rows - r and j < c)
                assert inside == sum(1 for j in pivots if j < c), (describe(f), data, r, c)
        assert cols_a == before


@settings(max_examples=100, deadline=None)
@given(st.one_of(low_rank_matrix(), sparse_matrix()), st.integers(1, 3))
def test_rref_on_dense_rows_matches_the_numpy_reference(drawn, den):
    """Over F_2, F_3, F_65537, F_{2^31-1} (past the reference's int64 bound)
    and Q, ``rref`` on ``Dense`` rows gives the numpy reference's R, pivots
    and shape, with normalized Python entries, and ``rank`` its pivot count,
    on low-rank and sparse 0/±1 matrices and on their 0 x k and k x 0
    slices; the argument is not modified."""
    data, _ = drawn
    for f in FIELDS:
        a = _field_matrix(f, data, den)
        for part in (a, a[:0], a[:, :0]):
            d = as_dense(part)
            before = copy.deepcopy(d)
            R, piv = rref(f, d)
            want, want_piv = dense_rref(f, part)
            assert isinstance(R, Dense) and R.shape == want.shape == part.shape
            assert R == want.tolist() and piv == want_piv, (describe(f), data)
            if f is not Q:
                assert all(type(x) is int and 0 <= x < f.p for row in R for x in row)
            assert rank(f, d) == len(piv) == dense_rank(f, part)
            assert d == before and d.shape == before.shape


@st.composite
def product_pair(draw):
    """Integer matrices a (r x k) and b (k x c) with entries in -3..3 and
    some columns of b zeroed; any of r, k and c may be 0, so zero-row
    targets and empty inner dimensions occur."""
    r, k, c = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    ints = st.integers(-3, 3)
    a = draw(st.lists(st.lists(ints, min_size=k, max_size=k), min_size=r, max_size=r))
    b = draw(st.lists(st.lists(ints, min_size=c, max_size=c), min_size=k, max_size=k))
    zero = draw(st.sets(st.integers(0, max(c - 1, 0))))
    return (k, c), a, [[0 if j in zero else x for j, x in enumerate(row)] for row in b]


@settings(max_examples=100, deadline=None)
@given(product_pair(), st.integers(1, 3))
def test_mul_equals_the_dense_product(drawn, den):
    """Over F_2, F_3, F_65537, F_{2^31-1} and Q, the product of two column
    lists is the column list of the dense product, with one column per
    column of the right factor, zero columns and zero-row targets
    included."""
    (k, c), a, b = drawn
    for f in FIELDS:
        da, db = _field_matrix(f, a, den, cols=k), _field_matrix(f, b, den, cols=c)
        got = mul(f, columns(f, da), columns(f, db))
        assert len(got) == c
        assert got == columns(f, dense_mul(f, da, db)), (describe(f), a, b)


@settings(max_examples=60, deadline=None)
@given(st.one_of(low_rank_matrix(), sparse_matrix()), st.data())
def test_submatrix_equals_numpy_fancy_indexing(drawn, data):
    """``submatrix`` selects and relabels as numpy fancy indexing does, for
    permutations of the rows and columns and for boolean masks of them."""
    a = _field_matrix(F, drawn[0])
    rows, cols = a.shape
    ri, ci = (data.draw(st.permutations(range(n))) for n in (rows, cols))
    assert submatrix(columns(F, a), ri, ci) == columns(F, a[ri][:, ci])
    rmask, cmask = (np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                             dtype=bool) for n in (rows, cols))
    got = submatrix(columns(F, a), np.flatnonzero(rmask).tolist(), np.flatnonzero(cmask).tolist())
    assert got == columns(F, a[rmask][:, cmask])
    # a column with no entry at or below the first dropped row is shared, the others are copies
    cols_a = columns(F, a)
    got = submatrix(cols_a, np.flatnonzero(rmask).tolist(), range(cols))
    fixed = int(np.argmin(rmask)) if not rmask.all() else rows
    assert [g is c for g, c in zip(got, cols_a)] == [max(c, default=-1) < fixed for c in cols_a]
    assert cols_a == columns(F, a)


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_rank_agrees_between_prime_field_and_rationals(data):
    qa = as_dense(_field_matrix(Q, data))
    fa = as_dense(_field_matrix(F, data))
    assert rank(Q, qa) == rank(F, fa)


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_kernel_annihilates_and_has_full_nullity(data):
    for f in (F, Q):
        a = _field_matrix(f, data)
        k = kernel(f, a)
        assert k.shape[0] == a.shape[1] - dense_rank(f, a)
        if k.shape[0]:
            assert not np.any(dense_mul(f, a, k.T))
        assert dense_rank(f, k) == k.shape[0]


def test_kernel_of_empty_map_is_identity():
    a = zeros(F, 0, 4)
    assert np.array_equal(kernel(F, a), eye(F, 4))


@settings(max_examples=40, deadline=None)
@given(small_matrix)
def test_solve_recovers_images(data):
    a = _field_matrix(F, data)
    x0 = _field_matrix(F, np.arange(a.shape[1]).reshape(-1, 1).tolist())
    b = dense_mul(F, a, x0)
    x = solve(F, a, b)
    assert np.array_equal(dense_mul(F, a, x), b)


def test_solve_detects_inconsistency():
    a = _field_matrix(F, [[1, 0], [1, 0]])
    b = _field_matrix(F, [[1], [2]])
    with pytest.raises(ContractError, match="inconsistent"):
        solve(F, a, b)


def test_large_prime_object_dtype_matches_int64_path():
    # entries in {0,1}, sizes <= 5: minors bounded by 5! = 120, below any modulus
    rng = np.random.default_rng(5)
    big = PrimeField(2**31 - 1)
    mid = PrimeField(1000003)
    assert dtype(big) is object
    for _ in range(20):
        data = rng.integers(0, 2, size=(5, 5)).tolist()
        r = rank(F, as_dense(_field_matrix(F, data)))
        assert rank(big, as_dense(_field_matrix(big, data))) == r
        assert rank(mid, as_dense(_field_matrix(mid, data))) == r
        assert rank(Q, as_dense(_field_matrix(Q, data))) == r


def test_rational_fractions_supported():
    a = _field_matrix(Q, [[Fraction(1, 2), 1], [1, 2]])
    assert rank(Q, as_dense(a)) == 1
    k = kernel(Q, a)
    assert k.shape[0] == 1
    assert not np.any(dense_mul(Q, a, k.T))


def test_subspace_canonical_basis_and_equality():
    rows1 = _field_matrix(F, [[1, 1, 0], [0, 1, 1]])
    rows2 = _field_matrix(F, [[1, 0, -1], [1, 2, 1]])
    s1 = Subspace.from_rows(F, 3, rows1)
    s2 = Subspace.from_rows(F, 3, rows2)
    assert s1 == s2
    assert s1.dim == 2
    assert s1.pivots() == [0, 1]


def test_quotient_reps_complete_a_subspace():
    whole = Subspace.from_rows(F, 3, eye(F, 3))
    sub = Subspace.from_rows(F, 3, _field_matrix(F, [[1, 0, 0]]))
    reps = whole.quotient_reps(sub)
    assert reps.shape == (2, 3)
    rejoined = Subspace.from_rows(F, 3, np.concatenate([sub.basis, reps], axis=0))
    assert rejoined == whole
    with pytest.raises(ContractError):
        sub.quotient_reps(whole)


def test_image_preimage_kernel_space():
    a = _field_matrix(F, [[1, 0, 1], [0, 0, 0]])
    im = image(F, a)
    assert im.dim == 1 and im.contains_vector(_field_matrix(F, [[1, 0]])[0])
    ker = kernel_space(F, a)
    assert ker.dim == 2


def test_field_mismatch_is_reported():
    s = Subspace.from_rows(F, 2, eye(F, 2))
    t = Subspace.from_rows(Q, 2, eye(Q, 2))
    with pytest.raises(FieldMismatchError):
        s.contains(t)


def test_determinism_identical_bytes():
    rng = np.random.default_rng(11)
    data = rng.integers(0, 7, size=(6, 8)).tolist()
    r1, p1 = rref(F, as_dense(_field_matrix(F, data)))
    r2, p2 = rref(F, as_dense(_field_matrix(F, data)))
    assert r1 == r2 and p1 == p2
    s1 = Subspace.from_rows(F, 8, _field_matrix(F, data))
    s2 = Subspace.from_rows(F, 8, _field_matrix(F, data))
    assert np.array_equal(s1.basis, s2.basis)


def _assert_same_space(f, sparse, ref):
    """Equal dimensions, and each side holds the other's basis."""
    assert sparse.ambient == ref.ambient and sparse.dim == ref.dim
    assert all(ref.contains_vector(v) for v in dense(f, sparse.columns, sparse.ambient).T)
    assert all(coordinates(sparse, v) is not None for v in columns(f, ref.basis.T))


@settings(max_examples=60, deadline=None)
@given(st.one_of(low_rank_matrix(), sparse_matrix()), st.integers(1, 3), st.data())
def test_sparse_subspace_matches_the_dense_reference(drawn, den, data):
    """Over F_2, F_3, F_65537, F_{2^31-1} and Q, the sparse echelon kernel,
    image and span have the dense reference's dimensions and each contains
    the other; ``coordinates`` rebuilds a vector inside and returns None for
    one outside; ``quotient_reps`` completes a subspace."""
    picks = data.draw(st.lists(st.integers(0, 1 << 30), min_size=2, max_size=2))
    for f in FIELDS:
        a = _field_matrix(f, drawn[0], den)
        ker = linalg.Subspace.kernel(f, columns(f, a))
        _assert_same_space(f, ker, kernel_space(f, a))
        _assert_same_space(f, linalg.Subspace.span(f, a.shape[0], columns(f, a)), image(f, a))
        _assert_same_space(f, linalg.Subspace.span(f, a.shape[1], columns(f, a.T)),
                           Subspace.from_rows(f, a.shape[1], a))
        assert len(ker.pivots) == ker.dim  # one column per lowest row
        n = ker.ambient
        # inside: a combination of the basis gives back its coefficients
        coeffs = [f.normalize((picks[k % 2] >> k) % 5) for k in range(ker.dim)]
        basis = dense(f, ker.columns, n)
        v = f.normalize(basis @ _field_matrix(f, [coeffs]).T) if ker.dim else zeros(f, n, 1)
        assert coordinates(ker, columns(f, v)[0]) == coeffs
        # outside: a unit vector at a row that is not a lowest row
        free = [i for i in range(n) if i not in ker.pivots]
        if free:
            assert coordinates(ker, {free[picks[0] % len(free)]: 1}) is None
        # a subspace from sums of consecutive basis columns, completed by
        # the quotient representatives to the whole kernel
        sums = [columns(f, f.normalize(basis[:, k:k + 1] + basis[:, k + 1:k + 2]))[0]
                for k in range(ker.dim - 1)][: picks[1] % (ker.dim + 1)]
        sub = linalg.Subspace.span(f, n, sums)
        reps = quotient_reps(ker, sub)
        assert len(reps) == ker.dim - sub.dim
        whole = linalg.Subspace.span(f, n, sub.columns + reps)
        assert whole.dim == ker.dim
        _assert_same_space(f, whole, kernel_space(f, a))


def _direct_sum(f, x, y):
    dims = {m: x.dim(m) + y.dim(m) for m in set(x.dims) | set(y.dims)}
    d = {}
    for m in dims:
        if m + 1 in dims:
            blk = zeros(f, dims[m + 1], dims[m])
            blk[: x.dim(m + 1), : x.dim(m)] = matrix(x, m)
            blk[x.dim(m + 1):, x.dim(m):] = matrix(y, m)
            d[m] = columns(f, blk)
    return CochainComplex(f, dims, d)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cohomology_reps_and_maps_match_the_dense_reference(seed):
    """Over the five fields: ``cohomology_reps`` has ``cohomology_dims()``
    representatives, and ``cohomology_map`` of a random chain map has the
    rank the dense reference gives.  The chain map projects C + D onto the
    summand C of C + E and adds a random null-homotopic term d h + h d, so
    its rank in degree m is also dim H^m(C)."""
    rng = np.random.default_rng(seed)
    for f in FIELDS:
        c, d, e = (rand_complex(f, rng) for _ in range(3))
        src, tgt = _direct_sum(f, c, d), _direct_sum(f, c, e)
        degrees = sorted(set(src.dims) | set(tgt.dims))
        for cx in (src, tgt):
            h = cx.cohomology_dims()
            assert {m: len(cohomology_reps(cx, m)[0]) for m in cx.dims} == \
                {m: h.get(m, 0) for m in cx.dims}
        homotopy = {m: zeros(f, tgt.dim(m - 1), src.dim(m)) for m in degrees}
        for h in homotopy.values():
            for (i, j), x in np.ndenumerate(rng.integers(0, 5, size=h.shape)):
                h[i, j] = int(x)
        chain = {}
        for m in degrees:
            proj = zeros(f, tgt.dim(m), src.dim(m))
            proj[: c.dim(m), : c.dim(m)] = eye(f, c.dim(m))
            dh = dense_mul(f, matrix(tgt, m - 1), homotopy[m])
            hd = dense_mul(f, homotopy.get(m + 1, zeros(f, tgt.dim(m), src.dim(m + 1))),
                           matrix(src, m))
            chain[m] = f.normalize(proj + dh + hd)
        out = cohomology_map(src, tgt, {m: columns(f, a) for m, a in chain.items()})
        h_c, h_tgt = c.cohomology_dims(), tgt.cohomology_dims()
        for m in degrees:
            got = dense_rank(f, dense(f, out[m], h_tgt.get(m, 0))) if m in out else 0
            cycles = kernel(f, matrix(src, m))
            bounds = image(f, matrix(tgt, m - 1))
            imgs = dense_mul(f, chain[m], cycles.T).T
            want = Subspace.from_rows(f, tgt.dim(m), np.concatenate([imgs, bounds.basis])).dim \
                - bounds.dim
            assert got == want == h_c.get(m, 0), (describe(f), m, got, want)
