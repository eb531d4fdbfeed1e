import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickelat.basis import BasisSpec, basis_size, enumerate_basis, sector_twist
from oracles import enumerate_labels, index_of, label_of

half_js = st.integers(1, 8).map(lambda t: t / 2.0)


def sector_sizes(j, n_max):
    return [enumerate_basis(BasisSpec(j, n_max, s)).size for s in (1, -1)]


def test_fock_size():
    # the two sectors together hold as many states as the Fock product basis
    assert sum(sector_sizes(0.5, 1)) == 4


def test_parity_sector_labels_j1():
    plus = enumerate_basis(BasisSpec(1.0, 1, +1))
    minus = enumerate_basis(BasisSpec(1.0, 1, -1))
    assert [label_of(plus, i) for i in range(plus.size)] == [(0, 0.0), (0, 1.0), (1, 1.0)]
    assert [label_of(minus, i) for i in range(minus.size)] == [(1, 0.0), (0, 1.0), (1, 1.0)]
    assert plus.size + minus.size == 6


def test_large_coherent_size():
    assert sum(sector_sizes(20.0, 250)) == 41 * 251 == 10291


def test_parity_sector_dim_at_scale():
    plus = enumerate_basis(BasisSpec(20.0, 250, +1))
    assert plus.size == 20 * 251 + 126 == 5146
    assert basis_size(plus.spec) == 5146


def test_ordering_m_major_then_excitation():
    for sector in (1, -1):
        idx = enumerate_basis(BasisSpec(1.0, 2, sector))
        labels = [label_of(idx, i) for i in range(idx.size)]
        assert labels == sorted(labels, key=lambda t: (t[1], t[0]))


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        BasisSpec(0.7, 3, 1)
    with pytest.raises(ValueError):
        BasisSpec(1.0, -1, 1)
    with pytest.raises(ValueError):
        BasisSpec(1.0, 3, 0)
    with pytest.raises(ValueError):
        BasisSpec(1.0, 3, None)
    with pytest.raises(TypeError):
        BasisSpec(1.0, 3)


@settings(max_examples=80, deadline=None)
@given(twoj=st.integers(0, 21), n_max=st.integers(0, 60), sector=st.sampled_from((1, -1)))
def test_labels_match_the_label_loop(twoj, n_max, sector):
    # the block rule lists, label by label and with the same dtypes, what a
    # loop over every (m, N) with the m = 0 parity test keeps, and counts it
    spec = BasisSpec(twoj / 2.0, n_max, sector)
    idx = enumerate_basis(spec)
    n_exc, m_vals = enumerate_labels(spec)
    assert idx.n_exc.dtype == n_exc.dtype and idx.m_vals.dtype == m_vals.dtype
    assert np.array_equal(idx.n_exc, n_exc) and np.array_equal(idx.m_vals, m_vals)
    assert basis_size(spec) == idx.size == n_exc.size


@settings(max_examples=60, deadline=None)
@given(j=half_js, n_max=st.integers(0, 12))
def test_round_trip(j, n_max):
    for sector in (1, -1):
        spec = BasisSpec(j, n_max, sector)
        idx = enumerate_basis(spec)
        assert basis_size(spec) == idx.size
        for i in range(idx.size):
            n, m = label_of(idx, i)
            assert index_of(idx, n, m) == i


@settings(max_examples=60, deadline=None)
@given(j=half_js, n_max=st.integers(0, 12))
def test_sector_completeness(j, n_max):
    plus = enumerate_basis(BasisSpec(j, n_max, +1))
    minus = enumerate_basis(BasisSpec(j, n_max, -1))
    assert plus.size + minus.size == (n_max + 1) * round(2 * j + 1)
    if round(2 * j) % 2 == 1:
        # half-integer j: no m=0 label, sectors have equal size
        assert plus.size == minus.size
        assert 0.0 not in plus.m_vals


def test_sector_twist_sign():
    assert sector_twist(2.0) == 1
    assert sector_twist(2.5) == -1


def test_rows_with_excitation():
    # shell 3 holds 2j + 1 = 3 labels over both sectors: m = 1 in each, and
    # m = 0 in the sector whose sign is (-1)^3
    sizes = {}
    for sector in (1, -1):
        idx = enumerate_basis(BasisSpec(1.0, 3, sector))
        rows = np.nonzero(idx.n_exc == 3)[0]
        assert all(label_of(idx, r)[0] == 3 for r in rows)
        sizes[sector] = rows.size
    assert sizes == {1: 1, -1: 2}
