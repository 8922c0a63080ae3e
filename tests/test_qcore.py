import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tlrsim.qcore import (
    DensityMatrix,
    HilbertSpace,
    annihilation,
    density_defect,
    embed,
    is_hermitian,
    number,
    projector,
)


def two_by_three():
    return HilbertSpace([("A", 2), ("B", 3)])


class TestHilbertSpace:
    def test_dims_and_labels(self):
        space = two_by_three()
        assert space.dim == 6
        assert space.labels == ("A", "B")
        assert space.dims == (2, 3)
        assert space.index("B") == 1

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            HilbertSpace([("A", 2), ("A", 3)])

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            HilbertSpace([("A", 0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            HilbertSpace([])

    def test_basis_state_flat_index(self):
        # First subsystem is the slow Kronecker index: |1, 2> sits at 1*3 + 2.
        rho = two_by_three().basis_state([1, 2])
        expected = np.zeros((6, 6))
        expected[5, 5] = 1.0
        assert np.array_equal(rho.matrix, expected)


class TestKroneckerConvention:
    def test_embed_first_factor_is_kron_left(self):
        space = two_by_three()
        x = np.array([[0, 1], [1, 0]])
        embedded = embed(x, space, "A")
        assert embedded.dtype == complex
        assert np.array_equal(embedded, np.kron(x, np.eye(3)))

    def test_embed_second_factor_is_kron_right(self):
        space = two_by_three()
        n = number(3)
        embedded = embed(n, space, "B")
        assert np.array_equal(embedded, np.kron(np.eye(2), n))

    def test_mismatched_dimension_rejected(self):
        space = two_by_three()
        message = r"shape \(2, 2\) does not match subsystem 'B' of dimension 3"
        with pytest.raises(ValueError, match=message):
            embed(number(2), space, "B")

    @pytest.mark.parametrize("shape", [(3,), (3, 2), (1, 3, 3), (6, 6)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="does not match subsystem"):
            embed(np.zeros(shape), two_by_three(), "B")


class TestAnnihilation:
    def test_matrix_elements(self):
        a = annihilation(3)
        expected = np.array([[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]], dtype=complex)
        assert a.dtype == complex
        assert np.array_equal(a, expected)

    def test_number_from_ladder(self):
        a = annihilation(4)
        n = number(4)
        assert n.dtype == complex
        assert np.array_equal(n, np.diag([0, 1, 2, 3]).astype(complex))
        assert np.allclose(a.conj().T @ a, n)

    def test_dimension_below_two_rejected(self):
        with pytest.raises(ValueError):
            annihilation(1)

    def test_truncated_commutator(self):
        # [a, a+] = 1 except in the top truncated level.
        d = 5
        a = annihilation(d)
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(d)
        expected[d - 1, d - 1] = -(d - 1)
        assert np.allclose(comm, expected)


class TestProjector:
    def test_matrix_unit(self):
        p = projector(0, 1, 2)
        assert p.dtype == complex
        assert np.array_equal(p, [[0, 1], [0, 0]])

    def test_pauli_z_assembly(self):
        z = projector(0, 0, 2) - projector(1, 1, 2)
        assert np.allclose(z, np.diag([1, -1]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            projector(2, 0, 2)


class TestEmbedAlgebra:
    def test_identity_embeds_to_identity(self):
        space = two_by_three()
        assert np.array_equal(embed(np.eye(3), space, "B"), np.eye(6))

    def test_disjoint_embeddings_commute(self):
        space = two_by_three()
        oa = embed(annihilation(2), space, "A")
        ob = embed(number(3), space, "B")
        comm = oa @ ob - ob @ oa
        assert np.abs(comm).max() < 1e-14

    def test_ladder_product_trace(self):
        # Direct 4x4 product oracle: tr(a a+ (x) I_2) = 2 on a 2 (x) 2 space.
        space = HilbertSpace([("A", 2), ("B", 2)])
        a = embed(annihilation(2), space, "A")
        prod = a @ a.conj().T
        oracle = np.kron(np.array([[0, 1], [0, 0]]) @ np.array([[0, 0], [1, 0]]), np.eye(2))
        assert np.allclose(prod, oracle)
        assert np.trace(prod) == pytest.approx(2.0)


class TestIsHermitian:
    def test_hermitian_and_not(self):
        assert is_hermitian(number(3))
        assert is_hermitian(annihilation(3) + annihilation(3).conj().T)
        assert not is_hermitian(annihilation(3))

    def test_tolerance_is_relative_to_the_largest_element(self):
        # the tolerance is HERMITICITY_TOL (1e-10) times the largest element, or times 1
        assert not is_hermitian(np.array([[0.0, 1.0], [1.0 + 2e-10, 0.0]]))
        assert is_hermitian(np.array([[1e3, 1.0], [1.0 + 2e-8, 0.0]]))
        assert not is_hermitian(np.array([[0.0, 1e-3], [1e-3 + 2e-10, 0.0]]))


class TestStates:
    def test_density_matrix_checks(self):
        space = HilbertSpace([("A", 2)])
        with pytest.raises(ValueError):
            DensityMatrix(space, np.diag([0.7, 0.7]))
        with pytest.raises(ValueError):
            DensityMatrix(space, np.array([[0.5, 0.5], [0.1, 0.5]]))
        with pytest.raises(ValueError):
            DensityMatrix(space, np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_stacked_checks_name_the_first_bad_state(self):
        space = HilbertSpace([("A", 2)])
        good = np.diag([0.5, 0.5])
        bad = [
            np.diag([0.7, 0.7]),
            np.array([[0.5, 0.5], [0.1, 0.5]]),
            np.array([[1.5, 0.0], [0.0, -0.5]]),
            np.array([[np.nan, 0.0], [0.0, 0.5]]),
        ]
        assert density_defect(np.array([good, good])) is None
        for matrix in bad:
            index, reason = density_defect(np.array([good, matrix, matrix]).astype(complex))
            assert index == 1
            with pytest.raises(ValueError) as err:
                DensityMatrix(space, matrix)
            assert str(err.value) == reason

    def test_maximally_mixed(self):
        rho = DensityMatrix(two_by_three(), np.eye(6) / 6)
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0 / 6.0)


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=4))
def test_embed_preserves_spectrum(seed, d):
    rng = np.random.default_rng(seed)
    space = HilbertSpace([("left", d), ("right", 3)])
    op = random_hermitian(rng, d)
    big = embed(op, space, "left")
    small_eigs = np.sort(np.linalg.eigvalsh(op))
    big_eigs = np.sort(np.linalg.eigvalsh(big))
    # Each eigenvalue appears with multiplicity dim/d = 3.
    expected = np.sort(np.repeat(small_eigs, 3))
    assert np.allclose(big_eigs, expected, atol=1e-9)


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_hermitian_self_commutator_vanishes(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 4)
    comm = h @ h - h @ h
    assert np.abs(comm).max() == 0.0
