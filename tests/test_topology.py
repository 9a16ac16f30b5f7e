import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from coopnet.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    IndexOutOfRange,
    SelfLoop,
    ValidationError,
)
from coopnet.topology import (
    Topology,
    assemble_weighted_blocks,
    block_diag,
    check_connected,
    complement_basis,
    incidence_from_edge_list,
    matrix_rank,
    null_space,
    reduced_incidence,
    validate_incidence,
)

TRIANGLE = [(1, 2), (1, 3), (2, 3)]


def test_matrix_rank_of_a_complex_matrix():
    """The second row is 1j times the first; the real parts alone have
    rank 2."""
    assert matrix_rank([[1.0, 1j], [1j, -1.0]]) == 1
    assert matrix_rank([[1.0, 0.0], [0.0, -1.0]]) == 2


def test_incidence_triangle_matches_reference():
    h = incidence_from_edge_list(TRIANGLE, 3)
    assert np.array_equal(
        h, [[1, 1, 0], [-1, 0, 1], [0, -1, -1]])


def test_incidence_no_edges():
    h = incidence_from_edge_list([], 2)
    assert h.shape == (2, 0)


def test_incidence_orientation_flip():
    h = incidence_from_edge_list([(2, 1)], 2)
    assert np.array_equal(h, [[-1], [1]])


def test_incidence_rejects_self_loop():
    with pytest.raises(SelfLoop):
        incidence_from_edge_list([(1, 1)], 2)


def test_incidence_rejects_bad_index():
    with pytest.raises(IndexOutOfRange):
        incidence_from_edge_list([(1, 4)], 3)


def test_connected_triangle():
    assert check_connected(incidence_from_edge_list(TRIANGLE, 3))


def test_disconnected_single_edge_three_nodes():
    assert not check_connected(incidence_from_edge_list([(1, 2)], 3))


def test_connected_two_node_chain():
    assert check_connected(incidence_from_edge_list([(1, 2)], 2))


def test_complement_basis_two_nodes():
    t = complement_basis(2)
    assert np.allclose(t, [[1 / np.sqrt(2), -1 / np.sqrt(2)]], atol=1e-15)


def test_complement_basis_three_nodes():
    t = complement_basis(3)
    expect = np.array([
        [1 / np.sqrt(2), -1 / np.sqrt(2), 0.0],
        [1 / np.sqrt(6), 1 / np.sqrt(6), -2 / np.sqrt(6)]])
    assert np.allclose(t, expect, atol=1e-15)


def test_complement_basis_too_small():
    with pytest.raises(DimensionTooSmall):
        complement_basis(1)


@pytest.mark.parametrize("n", range(2, 12))
def test_complement_basis_identities(n):
    t = complement_basis(n)
    assert np.abs(t @ np.ones(n)).max() <= 1e-14
    assert np.abs(t @ t.T - np.eye(n - 1)).max() <= 1e-12


def _edge_list(draw_pairs, n):
    # spanning chain keeps every drawn graph connected
    chain = [(k, k + 1) for k in range(1, n)]
    return chain + draw_pairs


@st.composite
def connected_edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    extra = draw(st.lists(
        st.tuples(st.integers(1, n), st.integers(1, n)).filter(
            lambda ab: ab[0] != ab[1]),
        max_size=5))
    return n, _edge_list(extra, n)


@given(connected_edge_lists())
@settings(max_examples=60, deadline=None)
def test_incidence_columns_sum_to_zero_and_reduced_rank(case):
    n, edges = case
    h = incidence_from_edge_list(edges, n)
    # H^T 1 = 0 exactly in integer arithmetic
    assert np.array_equal(h.T @ np.ones(n), np.zeros(len(edges)))
    validate_incidence(h)
    assert check_connected(h)
    t = complement_basis(n)
    assert matrix_rank(reduced_incidence(t, h)) == n - 1


def test_validate_incidence_rejects_double_positive():
    with pytest.raises(ValidationError):
        validate_incidence([[1, 0], [1, -1], [-1, 0]])


def test_topology_record_and_validate():
    topo = Topology.from_edge_list(TRIANGLE, 3)
    assert topo.N == 3 and topo.M == 3
    assert topo.connected
    topo.validate()
    assert np.allclose(topo.Hbar, topo.T @ topo.H)


def test_assemble_scalar_blocks():
    h = np.array([[1.0], [-1.0]])
    out = assemble_weighted_blocks(h, [np.array([[2.0]]), np.array([[3.0]])],
                                   [np.array([[5.0]])])
    assert np.array_equal(out, [[10.0], [-15.0]])


def test_assemble_diagonal_edge_matrices():
    # block-diagonal special case with the demo network's edge poles
    e_blocks = [np.array([[-5000.0]]), np.array([[-9000.0]]),
                np.array([[-1600.0]])]
    out = assemble_weighted_blocks(np.eye(3), e_blocks, [np.eye(1)] * 3)
    assert np.array_equal(out, np.diag([-5000.0, -9000.0, -1600.0]))


def test_assemble_identity_factors_returns_h():
    h = incidence_from_edge_list(TRIANGLE, 3)
    ones = [np.eye(1)] * 3
    assert np.array_equal(assemble_weighted_blocks(h, ones, ones),
                          h.astype(float))


def _bruteforce_blocks(w, left, right):
    """Block (i, j) = w[i, j] * left[i] @ right[j], one block at a time."""
    out = np.zeros((sum(m.shape[0] for m in left),
                    sum(m.shape[1] for m in right)))
    r = 0
    for i, li in enumerate(left):
        c = 0
        for j, rj in enumerate(right):
            out[r:r + li.shape[0], c:c + rj.shape[1]] = w[i, j] * (li @ rj)
            c += rj.shape[1]
        r += li.shape[0]
    return out


def test_assemble_matches_bruteforce_on_random_blocks():
    rng = np.random.default_rng(42)

    def factors(n, k, outer_first):
        return [rng.standard_normal((rng.integers(1, 3), k) if outer_first
                                    else (k, rng.integers(1, 3)))
                for _ in range(n)]

    h_tri = incidence_from_edge_list(TRIANGLE, 3)
    cases = []
    for k in (1, 2, 3) * 7:
        h = rng.integers(-1, 2, size=(3, 3)).astype(float)
        cases.append((h, factors(3, k, True), factors(3, k, False)))
    # non-integer weights: a reduced incidence Hbar = T H, inner dimension 2
    hbar = complement_basis(4) @ incidence_from_edge_list(
        [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)], 4)
    cases.append((hbar, factors(3, 2, True), factors(5, 2, False)))
    # empty weights: no block rows (tracking's H[:0]) or no block columns
    cases.append((h_tri[:0], [], factors(3, 2, False)))
    cases.append((h_tri[:, :0], factors(3, 2, True), []))
    for w, left, right in cases:
        out = assemble_weighted_blocks(w, left, right)
        want = _bruteforce_blocks(w, left, right)
        assert out.shape == want.shape
        assert np.abs(out - want).max(initial=0.0) <= \
            1e-14 * max(1.0, np.abs(want).max(initial=0.0))


def test_assemble_dimension_mismatch():
    h = np.array([[1.0]])
    with pytest.raises(DimensionMismatch):
        assemble_weighted_blocks(h, [np.ones((2, 2))], [np.ones((3, 1))])
    # the inner sizes total 4 on both sides, but the left factors disagree
    h = np.ones((2, 2))
    with pytest.raises(DimensionMismatch):
        assemble_weighted_blocks(h, [np.ones((1, 1)), np.ones((1, 3))],
                                 [np.ones((2, 1)), np.ones((2, 1))])


def _low_rank(rng, m, n, r, scale=1.0):
    return scale * rng.standard_normal((m, r)) @ rng.standard_normal((r, n))


@pytest.mark.parametrize("m,n,r,scale", [
    (1, 3, 1, 1.0), (3, 1, 1, 1.0), (2, 5, 2, 1.0), (5, 2, 2, 1.0),
    (4, 4, 4, 1.0), (6, 6, 3, 1.0), (3, 7, 1, 1e7), (7, 3, 0, 1.0),
    (4, 6, 2, 1e-6), (0, 3, 0, 1.0)])
def test_null_space_matches_scipy(m, n, r, scale):
    """Same dimension as scipy's, orthonormal, and annihilated by A."""
    rng = np.random.default_rng(11 * m + n)
    a = _low_rank(rng, m, n, r, scale)
    basis = null_space(a)
    assert basis.shape == scipy.linalg.null_space(a).shape == (n, n - r)
    assert np.abs(basis.T @ basis - np.eye(n - r)).max(initial=0.0) <= 1e-12
    if a.size and basis.size:
        assert np.linalg.norm(a @ basis, 2) <= 1e-12 * np.linalg.norm(a, 2)


def test_block_diag_matches_scipy():
    rng = np.random.default_rng(5)
    mats = [rng.standard_normal((2, 3)), [[1.0]], np.zeros((1, 0)),
            rng.standard_normal(4), np.zeros((0, 2)),
            rng.standard_normal((3, 3))]
    assert np.array_equal(block_diag(mats), scipy.linalg.block_diag(*mats))
    assert block_diag([]).shape == (0, 0)
