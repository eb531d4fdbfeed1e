import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickelat.basis import BasisSpec, basis_size, enumerate_basis, sector_twist

half_js = st.integers(1, 8).map(lambda t: t / 2.0)


def test_fock_size():
    idx = enumerate_basis(BasisSpec("fock", 0.5, 1))
    assert idx.size == 4


def test_parity_sector_labels_j1():
    plus = enumerate_basis(BasisSpec("coherent-parity", 1.0, 1, parity_sector=+1))
    minus = enumerate_basis(BasisSpec("coherent-parity", 1.0, 1, parity_sector=-1))
    assert [plus.label_of(i) for i in range(plus.size)] == [(0, 0.0), (0, 1.0), (1, 1.0)]
    assert [minus.label_of(i) for i in range(minus.size)] == [(1, 0.0), (0, 1.0), (1, 1.0)]
    assert plus.size + minus.size == 6


def test_large_coherent_size():
    idx = enumerate_basis(BasisSpec("coherent", 20.0, 250))
    assert idx.size == 41 * 251 == 10291


def test_parity_sector_dim_at_scale():
    plus = enumerate_basis(BasisSpec("coherent-parity", 20.0, 250, parity_sector=+1))
    assert plus.size == 20 * 251 + 126 == 5146
    assert basis_size(plus.spec) == 5146


def test_ordering_m_major_then_excitation():
    idx = enumerate_basis(BasisSpec("fock", 1.0, 2))
    labels = [idx.label_of(i) for i in range(idx.size)]
    assert labels == sorted(labels, key=lambda t: (t[1], t[0]))


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        BasisSpec("fock", 0.7, 3)
    with pytest.raises(ValueError):
        BasisSpec("fock", 1.0, -1)
    with pytest.raises(ValueError):
        BasisSpec("coherent-parity", 1.0, 3)
    with pytest.raises(ValueError):
        BasisSpec("coherent", 1.0, 3, parity_sector=1)
    with pytest.raises(ValueError):
        BasisSpec("bogus", 1.0, 3)


@settings(max_examples=60, deadline=None)
@given(j=half_js, n_max=st.integers(0, 12))
def test_round_trip(j, n_max):
    for spec in (
        BasisSpec("fock", j, n_max),
        BasisSpec("coherent", j, n_max),
        BasisSpec("coherent-parity", j, n_max, parity_sector=+1),
        BasisSpec("coherent-parity", j, n_max, parity_sector=-1),
    ):
        idx = enumerate_basis(spec)
        assert basis_size(spec) == idx.size
        for i in range(idx.size):
            n, m = idx.label_of(i)
            assert idx.index_of(n, m) == i


@settings(max_examples=60, deadline=None)
@given(j=half_js, n_max=st.integers(0, 12))
def test_sector_completeness(j, n_max):
    plus = enumerate_basis(BasisSpec("coherent-parity", j, n_max, parity_sector=+1))
    minus = enumerate_basis(BasisSpec("coherent-parity", j, n_max, parity_sector=-1))
    assert plus.size + minus.size == (n_max + 1) * round(2 * j + 1)
    if round(2 * j) % 2 == 1:
        # half-integer j: no m=0 label, sectors have equal size
        assert plus.size == minus.size
        assert 0.0 not in plus.m_vals


def test_sector_twist_sign():
    assert sector_twist(2.0) == 1
    assert sector_twist(2.5) == -1


def test_rows_with_excitation():
    idx = enumerate_basis(BasisSpec("coherent", 1.0, 3))
    rows = idx.rows_with_excitation(3)
    assert all(idx.label_of(r)[0] == 3 for r in rows)
    assert rows.size == 3
