"""Exact linear algebra: echelon forms, kernels, solving, subspace calculus."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechmv import (
    ContractError,
    FieldMismatchError,
    InputError,
    PrimeField,
    RationalField,
    Subspace,
    image,
    is_prime,
    kernel,
    kernel_space,
    mul,
    nullity,
    rank,
    rref,
    solve,
)

F = PrimeField(65537)
Q = RationalField()

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


def test_field_array_validation():
    with pytest.raises(ContractError):
        F.array([1, 2, 3])
    with pytest.raises(FieldMismatchError):
        Q.array([[0.5]])
    big = PrimeField(2**31 - 1)
    assert big.dtype is object
    with pytest.raises(FieldMismatchError):
        big.array([[1.5]])


def test_rref_hand_example():
    a = F.array([[2, 4], [1, 2]])
    R, piv = rref(F, a)
    assert piv == [0]
    assert R[0].tolist() == [1, 2]
    assert not np.any(R[1])


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_rref_is_projection_and_rank_counts_pivots(data):
    a = F.array(data)
    R, piv = rref(F, a)
    R2, piv2 = rref(F, R)
    assert np.array_equal(R, R2) and piv == piv2
    assert rank(F, a) == len(piv)
    assert rank(F, a) == rank(F, a.T)


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_rank_agrees_between_prime_field_and_rationals(data):
    qa = Q.array(data)
    fa = F.array(data)
    assert rank(Q, qa) == rank(F, fa)


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_kernel_annihilates_and_has_full_nullity(data):
    for f in (F, Q):
        a = f.array(data)
        k = kernel(f, a)
        assert k.shape[0] == nullity(f, a)
        if k.shape[0]:
            assert not np.any(mul(f, a, k.T))
        assert rank(f, k) == k.shape[0]


def test_kernel_of_empty_map_is_identity():
    a = F.zeros(0, 4)
    assert np.array_equal(kernel(F, a), F.eye(4))


@settings(max_examples=40, deadline=None)
@given(small_matrix)
def test_solve_recovers_images(data):
    a = F.array(data)
    x0 = F.array(np.arange(a.shape[1]).reshape(-1, 1).tolist())
    b = mul(F, a, x0)
    x = solve(F, a, b)
    assert np.array_equal(mul(F, a, x), b)


def test_solve_detects_inconsistency():
    a = F.array([[1, 0], [1, 0]])
    b = F.array([[1], [2]])
    with pytest.raises(ContractError, match="inconsistent"):
        solve(F, a, b)


def test_large_prime_object_dtype_matches_int64_path():
    # entries in {0,1}, sizes <= 5: minors bounded by 5! = 120, below any modulus
    rng = np.random.default_rng(5)
    big = PrimeField(2**31 - 1)
    mid = PrimeField(1000003)
    for _ in range(20):
        data = rng.integers(0, 2, size=(5, 5)).tolist()
        r = rank(F, F.array(data))
        assert rank(big, big.array(data)) == r
        assert rank(mid, mid.array(data)) == r
        assert rank(Q, Q.array(data)) == r


def test_rational_fractions_supported():
    a = Q.array([[Fraction(1, 2), 1], [1, 2]])
    assert rank(Q, a) == 1
    k = kernel(Q, a)
    assert k.shape[0] == 1
    assert not np.any(mul(Q, a, k.T))


def test_subspace_canonical_basis_and_equality():
    rows1 = F.array([[1, 1, 0], [0, 1, 1]])
    rows2 = F.array([[1, 0, -1], [1, 2, 1]])
    s1 = Subspace.from_rows(F, 3, rows1)
    s2 = Subspace.from_rows(F, 3, rows2)
    assert s1 == s2
    assert s1.dim == 2
    assert s1.pivots() == [0, 1]


def test_quotient_reps_complete_a_subspace():
    whole = Subspace.from_rows(F, 3, F.eye(3))
    sub = Subspace.from_rows(F, 3, F.array([[1, 0, 0]]))
    reps = whole.quotient_reps(sub)
    assert reps.shape == (2, 3)
    rejoined = Subspace.from_rows(F, 3, np.concatenate([sub.basis, reps], axis=0))
    assert rejoined == whole
    with pytest.raises(ContractError):
        sub.quotient_reps(whole)


def test_image_preimage_kernel_space():
    a = F.array([[1, 0, 1], [0, 0, 0]])
    im = image(F, a)
    assert im.dim == 1 and im.contains_vector(F.array([[1, 0]])[0])
    ker = kernel_space(F, a)
    assert ker.dim == 2


def test_field_mismatch_is_reported():
    s = Subspace.from_rows(F, 2, F.eye(2))
    t = Subspace.from_rows(Q, 2, Q.eye(2))
    with pytest.raises(FieldMismatchError):
        s.contains(t)


def test_determinism_identical_bytes():
    rng = np.random.default_rng(11)
    data = rng.integers(0, 7, size=(6, 8)).tolist()
    r1, p1 = rref(F, F.array(data))
    r2, p2 = rref(F, F.array(data))
    assert np.array_equal(r1, r2) and p1 == p2
    s1 = Subspace.from_rows(F, 8, F.array(data))
    s2 = Subspace.from_rows(F, 8, F.array(data))
    assert np.array_equal(s1.basis, s2.basis)
