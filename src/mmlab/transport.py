"""Transportation (earth mover's) distance between probability measures on a
shared finite metric space: an exact linear-programming solver with a witness
coupling, and the translate distance of a measure under a point
permutation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MARGINAL_TOL = 1e-9


@dataclass
class MeasurePair:
    """Two probability vectors over the same space's points."""
    mu1: np.ndarray
    mu2: np.ndarray

    def __post_init__(self):
        self.mu1 = np.asarray(self.mu1, dtype=float).reshape(-1)
        self.mu2 = np.asarray(self.mu2, dtype=float).reshape(-1)
        if self.mu1.shape != self.mu2.shape:
            raise ValueError("measures have different lengths")
        for name, mu in (("mu1", self.mu1), ("mu2", self.mu2)):
            if (mu < -_MARGINAL_TOL).any():
                raise ValueError(f"{name} has negative mass")
            if abs(mu.sum() - 1.0) > _MARGINAL_TOL:
                raise ValueError(f"{name} sums to {mu.sum()!r}, expected 1")


@dataclass
class Coupling:
    """Joint probability matrix whose marginals are the transported measures."""
    joint: np.ndarray

    def __post_init__(self):
        self.joint = np.asarray(self.joint, dtype=float)
        if self.joint.ndim != 2:
            raise ValueError("coupling must be a matrix")
        if (self.joint < -_MARGINAL_TOL).any():
            raise ValueError("coupling has negative entries")

    @property
    def row_marginal(self):
        return self.joint.sum(axis=1)

    @property
    def col_marginal(self):
        return self.joint.sum(axis=0)

    def check(self, pair, atol=_MARGINAL_TOL):
        """Raise unless the marginals match the pair within atol."""
        if not np.allclose(self.row_marginal, pair.mu1, atol=atol):
            raise ValueError("row marginal does not match mu1")
        if not np.allclose(self.col_marginal, pair.mu2, atol=atol):
            raise ValueError("column marginal does not match mu2")


@dataclass(frozen=True)
class EmdResult:
    distance: float
    witness: Coupling


def emd(space, pair):
    """Exact transportation distance min over couplings of sum nu * d.

    Solved as the transportation linear program with a simplex method, so the
    witness is a basic solution whose marginals hold to float residual.
    Zero-mass points are dropped before the solve and reinstated as zero
    rows/columns of the witness.
    """
    import scipy.sparse as sp
    from scipy.optimize import linprog

    if pair.mu1.shape[0] != space.n:
        raise ValueError("measure length does not match the space")
    rows = np.flatnonzero(pair.mu1 > 0)
    cols = np.flatnonzero(pair.mu2 > 0)
    m, k = rows.shape[0], cols.shape[0]
    cost = space.dist[np.ix_(rows, cols)]

    a_rows = sp.kron(sp.eye(m), np.ones((1, k)), format="csr")
    a_cols = sp.kron(np.ones((1, m)), sp.eye(k), format="csr")
    a_eq = sp.vstack([a_rows, a_cols], format="csr")
    b_eq = np.concatenate([pair.mu1[rows], pair.mu2[cols]])

    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs-ds")
    if not res.success:
        raise RuntimeError(f"transportation solve failed: {res.message}")

    joint = np.zeros((space.n, space.n))
    joint[np.ix_(rows, cols)] = np.clip(res.x.reshape(m, k), 0.0, None)
    witness = Coupling(joint)
    witness.check(pair)
    return EmdResult(distance=float(res.fun), witness=witness)


def translate_distance(space, mu, perm):
    """Transportation distance between a measure and its pushforward under a
    point permutation (point i moves to perm[i])."""
    perm = np.asarray(perm, dtype=np.intp)
    if perm.shape != (space.n,) or not np.array_equal(np.sort(perm), np.arange(space.n)):
        raise ValueError("action must be a bijection on points")
    mu = np.asarray(mu, dtype=float)
    push = np.zeros_like(mu)
    push[perm] = mu
    return emd(space, MeasurePair(mu, push)).distance
