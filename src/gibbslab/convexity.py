"""Convexity certification for shifted edge kernels and their tensor products.

The main objects are order-K arrays with entries alpha - J evaluated on rows
of spin values, their expected tensor products over a shared draw of J, and
the multilinear forms they induce.  ``certify_model`` has one route: an
exact check of the power-sum witness the model supplies
(``models.PowerSumWitness``), which writes E tensor_{l<=r} (alpha - J) as a
non-negative sum of K-th tensor powers.  For K = 2 deterministic kernels the
paper's lemmas are available directly: the smallest shift alpha >= J_max
making alpha - J positive semi-definite is a closed-form Schur complement of
-J split along the zero-sum subspace R0 and the ones vector, computed with
``numpy.linalg`` alone (one SVD for the R0 basis, one symmetric eigensolve
of a block of order at most q - 1), and zero-one kernels are classified by
partition form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Literal, Optional, Sequence

import numpy as np

from .models import ModelSpec

__all__ = [
    "KArray",
    "PsdCertificate",
    "PartitionClassification",
    "ModelCertificate",
    "tensor_product",
    "multilinear_form",
    "restricted_definite_on_r0",
    "min_alpha_psd",
    "expected_alpha_minus_j_tensor",
    "partition_kernel_classify",
    "certify_model",
]

KARRAY_CAP = 2 ** 20


# ---------------------------------------------------------------------------
# Order-K arrays and multilinear forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KArray:
    """Dense n-dimensional array of order k (shape (n,)*k, finite entries)."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float)
        if d.ndim < 1 or d.shape != (d.shape[0],) * d.ndim:
            raise ValueError(f"array must be cubic, got shape {d.shape}")
        if d.size > KARRAY_CAP:
            raise ValueError(f"array with {d.size} entries exceeds cap {KARRAY_CAP}")
        if not np.all(np.isfinite(d)):
            raise ValueError("array entries must be finite")
        object.__setattr__(self, "data", d)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def order(self) -> int:
        return self.data.ndim


def _pair_tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Composite index (i, j) -> i * dim(b) + j on every axis.
    k = a.ndim
    out = np.multiply.outer(a, b)
    perm = [axis for d in range(k) for axis in (d, k + d)]
    return out.transpose(perm).reshape((a.shape[0] * b.shape[0],) * k)


def tensor_product(arrays: Sequence[KArray]) -> KArray:
    """Tensor product over replicas: entry = prod_l A_l[i^l_1, ..., i^l_K].

    The result is an n^r-dimensional array of the same order; the composite
    index packs per-replica indices row-major (replica 1 most significant).
    """
    if not arrays:
        raise ValueError("need at least one array")
    n, k = arrays[0].n, arrays[0].order
    for arr in arrays:
        if arr.n != n or arr.order != k:
            raise ValueError("all arrays must share dimension and order")
    if (n ** len(arrays)) ** k > KARRAY_CAP:
        raise ValueError("tensor product would exceed the dense storage cap")
    return KArray(reduce(_pair_tensor, [arr.data for arr in arrays]))


def multilinear_form(array: KArray, y: Sequence[float]) -> float:
    """sum over index tuples of y_{i_1} ... y_{i_K} a_{i_1...i_K}."""
    vec = np.asarray(y, dtype=float)
    if vec.shape != (array.n,):
        raise ValueError(f"vector length {vec.shape} != array dimension {array.n}")
    t = array.data
    for _ in range(array.order):
        t = np.tensordot(t, vec, axes=([0], [0]))
    return float(t)


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

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "tol": self.tol}
        out["alpha"] = self.alpha
        out["cond"] = self.cond
        out["witness"] = None if self.witness is None else list(map(float, self.witness))
        return out


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


def restricted_definite_on_r0(j: np.ndarray) -> Literal["yes", "no", "boundary"]:
    """Is -J positive definite on R0 = {y : sum y_i = 0}?

    "yes" when the smallest eigenvalue of -J restricted to R0 exceeds the
    tolerance, "no" when it is below -tolerance, "boundary" otherwise.  By
    the restricted-convexity lemma, "yes" is equivalent to alpha - J being
    positive definite for all large alpha.
    """
    _, eigs, _, _, tol, _ = _r0_split(j)
    low = float(eigs.min(initial=math.inf))
    if low > tol:
        return "yes"
    if low < -tol:
        return "no"
    return "boundary"


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
# Expected tensor products over a shared draw of J
# ---------------------------------------------------------------------------

def expected_alpha_minus_j_tensor(model: ModelSpec, alpha: float,
                                  x_rows: Sequence[Sequence[int]]) -> KArray:
    """E tensor_{l<=r} (alpha - J(x^l_{i_1}, ..., x^l_{i_K})), shared J draw.

    The same copy of J enters every replica factor; the expectation is the
    exact probability-weighted sum over the finite support of the edge law.
    """
    x = np.asarray(x_rows, dtype=np.int64)
    if x.ndim != 2:
        raise ValueError("x_rows must be an (r, n) array of spin states")
    r, n = x.shape
    if x.size and (x.min() < 0 or x.max() >= model.n_states):
        raise ValueError("x_rows entries outside the spin domain")
    k = model.arity
    acc = np.zeros((n ** r,) * k)
    for table, prob in model.edge_pot.support:
        factors = [KArray(alpha - table[np.ix_(*([x[l]] * k))]) for l in range(r)]
        acc += prob * tensor_product(factors).data
    return KArray(acc)


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
    """Detail of the exact witness check: the residual and, if it fails, why."""
    w, k, support = model.witness, model.arity, model.edge_pot.support
    n_b, n_s, q = w.phi.shape
    if q != model.n_states or len(support) != w.coef.shape[0] * n_b ** k:
        return {"reason": "witness does not match the edge law's size"}
    # prod[(b_1..b_K), s, (x_1..x_K)] = prod_k phi[b_k, s, x_k], row-major.
    prod = np.ones((1, n_s, 1))
    for _ in range(k):
        prod = (prod[:, None, :, :, None] * w.phi[None, :, :, None, :]).reshape(
            prod.shape[0] * n_b, n_s, -1)
    power_sum = np.einsum("as,bsx->abx", w.coef, prod).reshape(len(support), -1)
    probs = reduce(np.multiply.outer, [w.coef_probs] + [w.phi_probs] * k).ravel()
    tables = np.stack([table.ravel() for table, _ in support])
    tol = 1e-12 * (1.0 + model.soft.j_max)
    detail = {"residual": float(np.abs(model.soft.alpha - tables - power_sum).max())}
    if (detail["residual"] > tol
            or np.abs(probs - [p for _, p in support]).max() > 1e-12):
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
