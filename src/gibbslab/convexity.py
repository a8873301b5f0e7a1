"""Convexity certification for shifted edge kernels.

The paper's interpolation argument needs one hypothesis: E tensor_{l<=r}
(alpha - J) convex, the expectation over one shared draw of J.
``certify_model`` decides it by one exact check of the power-sum witness the
model supplies (``models.PowerSumWitness``), which writes that expectation
as a non-negative sum of K-th tensor powers.  For K = 2 deterministic
kernels the paper's lemmas are available directly: the smallest shift
alpha >= J_max making alpha - J positive semi-definite is a closed-form
Schur complement of -J split along the zero-sum subspace R0 and the ones
vector, computed with ``numpy.linalg`` alone (one SVD for the R0 basis, one
symmetric eigensolve of a block of order at most q - 1), and zero-one
kernels are classified by partition form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Literal, Optional

import numpy as np

from .models import ModelSpec

__all__ = [
    "PsdCertificate",
    "PartitionClassification",
    "ModelCertificate",
    "min_alpha_psd",
    "partition_kernel_classify",
    "certify_model",
]


# ---------------------------------------------------------------------------
# PSD certification for K = 2 deterministic kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsdCertificate:
    """Outcome of the minimal-shift computation for alpha - J.

    verdict is "psd_for_alpha" (with the smallest alpha >= J_max) or
    "no_alpha" (with a zero-sum witness y whose limiting form y'(-J)y <= 0);
    ``reason`` says which of the two no_alpha witnesses was found.  ``cond``
    is the largest over the smallest non-flat eigenvalue of the R0 block B
    (1.0 when none is inverted, None for no_alpha): alpha carries a relative
    error of about eps * cond.
    """

    verdict: Literal["psd_for_alpha", "no_alpha"]
    alpha: Optional[float]
    witness: Optional[np.ndarray]
    tol: float
    reason: str = ""
    cond: Optional[float] = None


def _check_symmetric(j: np.ndarray) -> np.ndarray:
    j = np.asarray(j, dtype=float)
    if j.ndim != 2 or j.shape[0] != j.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {j.shape}")
    if not np.all(np.isfinite(j)):
        raise ValueError("matrix entries must be finite")
    scale = 1.0 + float(np.abs(j).max(initial=0.0))
    if float(np.abs(j - j.T).max(initial=0.0)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within 1e-12")
    return 0.5 * j + 0.5 * j.T


def _r0_split(j: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float, int]:
    """-J / 2^e in the orthonormal basis (u = ones/sqrt(n), R0), where 2^e
    brings max |J| into [0.5, 1): eigenvectors (as columns in the original
    coordinates) and ascending eigenvalues of the R0 block B, the R0 part b
    of the u column in that eigenbasis, the u-u entry c, the tolerance
    1e-9 * (1 + max |J|) / 2^e, and e.  A power of two scales exactly, so
    nothing overflows and J and 2^k J give the same split up to the
    tolerance."""
    j = _check_symmetric(j)
    n = j.shape[0]
    top = float(np.abs(j).max(initial=0.0))
    e = math.frexp(top)[1]
    j = np.ldexp(j, -e)
    u = np.full(n, 1.0 / math.sqrt(n))
    # The last n - 1 right singular vectors of the ones row span R0.
    basis = np.linalg.svd(np.ones((1, n)))[2][1:].T
    eigs, vecs = np.linalg.eigh(basis.T @ (-j) @ basis)
    b = vecs.T @ (basis.T @ (-j @ u))
    c = -float(u @ j @ u)
    return basis @ vecs, eigs, b, c, math.ldexp(1e-9 * (1.0 + top), -e), e


def min_alpha_psd(j: np.ndarray, j_max: float) -> PsdCertificate:
    """Smallest alpha >= j_max with the entrywise shift alpha - J PSD.

    In the basis (u, R0) the shifted matrix is [[alpha*n + c, b'], [b, B]],
    which is PSD exactly when B is PSD, b lies in the range of B and
    alpha*n + c >= b' B^+ b.  A negative eigenvalue of B is a zero-sum
    witness that no shift exists; so is a flat direction of B (eigenvalue
    within tolerance of 0) that b touches, since perturbing it along the
    ones vector makes the form negative for every alpha (this is what rules
    out e.g. diag(-1, 1)).  Otherwise the smallest shift is
    (b' B^+ b - c) / n in closed form, and j_max itself is returned when
    that is at most j_max + tolerance.  All of it is computed on J / 2^e
    (see ``_r0_split``), so no intermediate overflows and 2^k J gets
    exactly 2^k times the shift of J away from the tolerance; only a shift
    beyond the float range raises OverflowError.  A non-finite j_max is
    rejected.
    """
    vecs, eigs, b, c, tol, e = _r0_split(j)
    if not math.isfinite(j_max):
        raise ValueError(f"j_max must be finite, got {j_max}")
    n, j_tol = b.size + 1, math.ldexp(tol, e)
    if eigs.size and eigs[0] < -tol:
        return PsdCertificate("no_alpha", None, vecs[:, 0], j_tol,
                              reason="-J strictly indefinite on R0")
    flat = eigs <= tol
    coupled = np.nonzero(flat & (np.abs(b) > tol * math.sqrt(n)))[0]
    if coupled.size:
        return PsdCertificate(
            "no_alpha", None, vecs[:, coupled[0]], j_tol,
            reason="boundary kernel direction couples to the ones vector")
    inverted = eigs[~flat]
    alpha = math.ldexp((float(np.sum(b[~flat] ** 2 / inverted)) - c) / n, e)
    cond = float(inverted.max() / inverted.min()) if inverted.size else 1.0
    return PsdCertificate("psd_for_alpha", j_max if alpha <= j_max + j_tol else alpha,
                          None, j_tol, cond=cond)


# ---------------------------------------------------------------------------
# Zero-one kernels of partition form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionClassification:
    """Does J(x,y) = 0 define an equivalence relation on the sampled points?

    ``classes`` lists the equivalence classes when it does.  Otherwise
    ``witness`` pins the violation: a (x, x') pair for reflexivity
    (J(x,x) = 1 despite J(x,x') = 0) or a (x1, x2, x3) triple for
    transitivity (x1 ~ x2 ~ x3 but J(x1,x3) = 1), either of which certifies
    that no shift makes alpha - J positive semi-definite.
    """

    is_partition_form: bool
    classes: Optional[list[list[int]]] = None
    witness: Optional[tuple[int, ...]] = None
    witness_kind: Optional[Literal["reflexivity", "transitivity"]] = None


def partition_kernel_classify(j01: np.ndarray) -> PartitionClassification:
    """Classify a sampled zero-one symmetric kernel."""
    j = _check_symmetric(j01)
    if not np.isin(j, (0, 1)).all():
        raise ValueError("kernel entries must be 0 or 1")
    j = j.astype(np.int64)
    n = j.shape[0]
    a0 = [i for i in range(n) if j[i].min() == 0]
    for i in a0:
        if j[i, i] == 1:
            partner = int(np.nonzero(j[i] == 0)[0][0])
            return PartitionClassification(False, witness=(i, partner),
                                           witness_kind="reflexivity")
    for i in a0:
        for jj in a0:
            if j[i, jj] != 0:
                continue
            for kk in a0:
                if j[jj, kk] == 0 and j[i, kk] == 1:
                    return PartitionClassification(False, witness=(i, jj, kk),
                                                   witness_kind="transitivity")
    classes = []
    unseen = set(a0)
    while unseen:
        start = min(unseen)
        cls = sorted(i for i in a0 if j[start, i] == 0)
        classes.append(cls)
        unseen -= set(cls)
    return PartitionClassification(True, classes=classes)


# ---------------------------------------------------------------------------
# Whole-model certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelCertificate:
    """Certification status of a zoo model for the interpolation experiments."""

    model: str
    certified: bool
    method: Literal["power_sum", "none"]
    detail: dict = field(default_factory=dict)


def _check_power_sum(model: ModelSpec) -> dict:
    """Detail of the exact witness check: the residual and, if it fails, why.

    The law is rebuilt one atom xi = (a, b_1..b_K) at a time, in its
    row-major order, and each table is compared in blocks of about 2^20
    entries, so memory stays near one table of the law."""
    w, k, law = model.witness, model.arity, model.edge_pot
    n_b, n_s, q = w.phi.shape
    if q != model.n_states or len(law.probs) != w.coef.shape[0] * n_b ** k:
        return {"reason": "witness does not match the edge law's size"}
    atom_probs = reduce(np.multiply.outer, [w.coef_probs] + [w.phi_probs] * k)
    probs_match = np.abs(atom_probs.ravel() - law.probs).max() <= 1e-12
    alpha, residual, step = model.soft.alpha, 0.0, max(1, 2 ** 20 // q)
    atoms = np.ndindex(w.coef.shape[0], *[n_b] * k)
    for (a, *b), rows in zip(atoms, law.tables.reshape(len(law.probs), -1, q)):
        # (coef[a] x phi[b_1] x ... x phi[b_{K-1}]).T @ phi[b_K] sums over s.
        left = w.coef[a][:, None]
        for b_k in b[:-1]:
            left = (left[:, :, None] * w.phi[b_k][:, None, :]).reshape(n_s, -1)
        for lo in range(0, len(rows), step):
            diff = alpha - rows[lo:lo + step]
            diff -= left[:, lo:lo + step].T @ w.phi[b[-1]]
            residual = np.maximum(residual, np.abs(diff, out=diff).max())
    tol = 1e-12 * (1.0 + model.soft.j_max)
    detail = {"residual": float(residual)}
    if not residual <= tol or not probs_match:
        return {**detail, "reason": "witness does not reconstruct alpha - J"}
    signed = np.nonzero((w.coef < 0).any(axis=0))[0]
    if signed.size > 1:
        return {**detail, "reason": "more than one coef column changes sign"}
    if signed.size:
        mirror = w.coef.copy()
        mirror[:, signed[0]] *= -1.0
        # Mass of the coef law at each row's value and at its mirror image.
        mass = [(np.abs(w.coef[None] - rows[:, None]) <= tol).all(axis=2) @ w.coef_probs
                for rows in (w.coef, mirror)]
        if np.abs(mass[0] - mass[1]).max() > 1e-12:
            return {**detail, "reason": "coef law is not symmetric in its "
                                        "sign-changing column"}
    if k % 2 and (w.phi < 0).any():
        return {**detail, "reason": "odd arity with a sign-changing phi"}
    return detail


def certify_model(model: ModelSpec) -> ModelCertificate:
    """Certify the convexity hypothesis E tensor_{l<=r} (alpha - J) convex.

    A model with a power-sum witness gets an exact check of it
    (``power_sum``): the witness must rebuild every (table, probability) of
    the edge law, in order, within 1e-12 * (1 + J_max) and 1e-12; every coef
    column must be >= 0 except at most one column o, and the coef law must be
    invariant under negating o, so for every r the mixed moment
    E prod_l coef[a, s_l] vanishes when o occurs an odd number of times and
    is >= 0 otherwise; and K must be even or phi >= 0.  Then
    E tensor (alpha - J) = sum a_s w_s^{tensor K} with every a_s >= 0, which
    is convex on R^n (K even) or on the orthant (w_s >= 0).  ``detail``
    holds the reconstruction residual and, when a step fails, its reason.
    A model without a witness gets ``none``, a hand-built K = 2 kernel
    included: ``min_alpha_psd`` decides such a kernel on its own.
    """
    if model.witness is None:
        return ModelCertificate(model.name, False, "none",
                                detail={"reason": "no certification route"})
    detail = _check_power_sum(model)
    return ModelCertificate(model.name, "reason" not in detail, "power_sum",
                            detail=detail)
