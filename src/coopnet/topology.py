"""Graph structure of the network: incidence matrix, connectivity and the
block-matrix assemblers used by the closed-loop constructions, plus the
rank, null-space and block-diagonal helpers the whole toolkit shares.

The network is an undirected graph of N nodes and M oriented edges.  Edge
orientation is encoded in the N x M incidence matrix H: column j carries a
single +1 (positive end) and a single -1 (negative end).  ``complement_basis``
returns the (N-1) x N matrix T with orthonormal rows orthogonal to the
all-ones vector, and ``Hbar = T @ H`` is the reduced incidence used whenever
the network-average mode is split off.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    IndexOutOfRange,
    SelfLoop,
    ValidationError,
)

#: relative singular-value threshold for every rank decision in the toolkit
RANK_RTOL = 1e-10


def matrix_rank(a):
    """Rank of ``a``, real or complex, at the relative singular-value
    threshold RANK_RTOL."""
    a = np.atleast_2d(np.asarray(a))
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


def full_column_rank(a):
    return matrix_rank(a) == np.atleast_2d(a).shape[1]


def full_row_rank(a):
    return matrix_rank(a) == np.atleast_2d(a).shape[0]


def null_space(a):
    """Orthonormal basis (as columns) of the null space of ``a``.

    Singular values at most ``eps * max(m, n)`` times the largest count as
    zero, the rank rule of ``scipy.linalg.null_space``.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    _, s, vh = np.linalg.svd(a)
    tol = np.finfo(float).eps * max(a.shape) * s.max(initial=0.0)
    return vh[np.count_nonzero(s > tol):].T


def block_diag(mats):
    """Block-diagonal matrix of ``mats``, each taken as at least 2-D.

    An empty sequence gives a 0 x 0 matrix.
    """
    mats = [np.atleast_2d(np.asarray(m, dtype=float)) for m in mats]
    out = np.zeros((sum(m.shape[0] for m in mats),
                    sum(m.shape[1] for m in mats)))
    r = c = 0
    for m in mats:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


def incidence_from_edge_list(edges, n_nodes):
    """Build the N x M incidence matrix from 1-based edge endpoint pairs.

    Parameters
    ----------
    edges : sequence of (int, int)
        ``(positive_node, negative_node)`` pairs, indices in ``[1, n_nodes]``.
    n_nodes : int
        Number of nodes N.

    Returns
    -------
    ndarray
        N x M matrix with ``H[i, j] = +1`` iff node ``i+1`` is the positive
        end of edge ``j+1``, ``-1`` iff the negative end, else 0.

    Raises
    ------
    SelfLoop
        If an edge connects a node to itself.
    IndexOutOfRange
        If an endpoint lies outside ``[1, n_nodes]``.
    """
    n_nodes = int(n_nodes)
    if n_nodes < 1:
        raise DimensionTooSmall(f"need at least one node, got N={n_nodes}")
    h = np.zeros((n_nodes, len(edges)))
    for j, (pos, neg) in enumerate(edges):
        pos, neg = int(pos), int(neg)
        for end in (pos, neg):
            if not 1 <= end <= n_nodes:
                raise IndexOutOfRange(
                    f"edge {j + 1} endpoint {end} outside [1, {n_nodes}]")
        if pos == neg:
            raise SelfLoop(f"edge {j + 1} connects node {pos} to itself")
        h[pos - 1, j] = 1.0
        h[neg - 1, j] = -1.0
    return h


def validate_incidence(h):
    """Check the one +1 / one -1 column structure of an incidence matrix."""
    h = np.atleast_2d(np.asarray(h, dtype=float))
    for j in range(h.shape[1]):
        col = h[:, j]
        plus = np.count_nonzero(col == 1.0)
        minus = np.count_nonzero(col == -1.0)
        others = np.count_nonzero(col) - plus - minus
        if plus != 1 or minus != 1 or others != 0:
            raise ValidationError(
                f"H[:, {j}]",
                f"incidence column needs exactly one +1 and one -1, got {col}")
    return h


def check_connected(h):
    """True iff the graph described by incidence matrix ``h`` is connected.

    Connectivity is equivalent to ``rank(H) == N - 1`` (the all-ones vector
    always spans part of the left null space; connectivity makes it all of
    it).
    """
    h = np.atleast_2d(np.asarray(h, dtype=float))
    return matrix_rank(h) == h.shape[0] - 1


def complement_basis(n_nodes):
    """Orthonormal basis of the complement of the all-ones vector.

    Returns the (N-1) x N matrix T with ``T @ 1 = 0`` and ``T @ T.T = I``,
    built deterministically from the Helmert vectors
    ``e_1 + ... + e_k - k e_{k+1}``.

    Raises
    ------
    DimensionTooSmall
        If ``n_nodes < 2``.
    """
    n = int(n_nodes)
    if n < 2:
        raise DimensionTooSmall(f"complement basis needs N >= 2, got {n}")
    t = np.zeros((n - 1, n))
    for k in range(1, n):
        t[k - 1, :k] = 1.0
        t[k - 1, k] = -float(k)
        t[k - 1] /= np.sqrt(k * (k + 1.0))
    return t


def reduced_incidence(t, h):
    """Reduced incidence ``Hbar = T @ H`` (full row rank when connected)."""
    return np.asarray(t, dtype=float) @ np.asarray(h, dtype=float)


@dataclass(frozen=True)
class Topology:
    """Incidence structure of the network.

    Attributes
    ----------
    N, M : int
        Node and edge counts.
    H : ndarray
        N x M incidence matrix with entries in {-1, 0, +1}.
    T : ndarray
        (N-1) x N complement basis (``T @ 1 = 0``, ``T @ T.T = I``).
    Hbar : ndarray
        Reduced incidence ``T @ H``.
    """

    N: int
    M: int
    H: np.ndarray
    T: np.ndarray
    Hbar: np.ndarray

    @classmethod
    def from_edge_list(cls, edges, n_nodes):
        """Build the full topology record from 1-based endpoint pairs."""
        h = incidence_from_edge_list(edges, n_nodes)
        if n_nodes >= 2:
            t = complement_basis(n_nodes)
            hbar = reduced_incidence(t, h)
        else:
            t = np.zeros((0, 1))
            hbar = np.zeros((0, len(edges)))
        return cls(N=int(n_nodes), M=len(edges), H=h, T=t, Hbar=hbar)

    @property
    def connected(self):
        return check_connected(self.H)

    def validate(self):
        """Re-check every structural invariant; raises ValidationError."""
        validate_incidence(self.H)
        if self.H.shape != (self.N, self.M):
            raise ValidationError("H", "shape does not match (N, M)")
        if self.N >= 2:
            if np.abs(self.T @ np.ones(self.N)).max() > 1e-12:
                raise ValidationError("T", "rows not orthogonal to ones")
            if np.abs(self.T @ self.T.T - np.eye(self.N - 1)).max() > 1e-12:
                raise ValidationError("T", "rows not orthonormal")
            if np.abs(self.Hbar - self.T @ self.H).max() > 1e-12:
                raise ValidationError("Hbar", "not equal to T @ H")
        return self


def assemble_weighted_blocks(w, left, right):
    """Block matrix with block (i, j) = ``w[i, j] * left[i] @ right[j]``.

    This is the single constructor behind every weighted interconnection:
    the node/edge coupling blocks (weights H, H.T or H[rows]), their
    T-projected variants (weights Hbar) and the stacked edge outputs.  It is
    formed as ``blkdiag(left) @ (w kron I_k) @ blkdiag(right)``, k being the
    factors' shared inner dimension; empty weights give an empty matrix.

    Parameters
    ----------
    w : array_like
        Scalar weight per block, shape (rows, cols).
    left, right : list of matrices
        One factor per block row and one per block column; every ``left``
        factor has k columns and every ``right`` factor k rows.

    Raises
    ------
    DimensionMismatch
        If the factor counts do not match the weights, or a factor's inner
        dimension differs from the others'.
    """
    w = np.atleast_2d(np.asarray(w, dtype=float))
    left = [np.atleast_2d(np.asarray(m, dtype=float)) for m in left]
    right = [np.atleast_2d(np.asarray(m, dtype=float)) for m in right]
    if (len(left), len(right)) != w.shape:
        raise DimensionMismatch(
            f"{len(left)} x {len(right)} factors for weights of shape "
            f"{w.shape}")
    inner = [m.shape[1] for m in left] + [m.shape[0] for m in right]
    k = inner[0] if inner else 0
    if any(d != k for d in inner):
        raise DimensionMismatch(f"factor inner dimensions {inner} differ")
    return block_diag(left) @ np.kron(w, np.eye(k)) @ block_diag(right)
