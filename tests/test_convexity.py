"""PSD certification, partition kernels and power-sum witnesses; the
expected replica tensor of each witnessed law against the witness's power
sum and the closed forms, loop against loop."""

import functools
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gibbslab import (
    EdgePotentialSpec,
    ModelConfigError,
    PowerSumWitness,
    build_model,
    certify_model,
    min_alpha_psd,
    partition_kernel_classify,
)

from naive import (
    naive_agreement_indicator,
    naive_expected_tensor,
    naive_mean_shifted_product,
    naive_multilinear,
    naive_power_sum_tensor,
    naive_witness_entry,
)

IS_KERNEL = np.array([[1.0, 1.0], [1.0, 0.0]])


class TestRestrictedDefiniteness:
    """-J definite on R0 is decided by min_alpha_psd; its input checks."""

    def test_asymmetric_rejected(self):
        for entry in (lambda j: min_alpha_psd(j, 1.0), partition_kernel_classify):
            with pytest.raises(ValueError, match="symmetric"):
                entry(np.array([[0.0, 1.0], [0.0, 0.0]]))
            for bad in (math.inf, math.nan):
                with pytest.raises(ValueError, match="finite"):
                    entry(np.array([[bad, 0.0], [0.0, 1.0]]))
            with pytest.raises(ValueError, match="expected a square matrix"):
                entry(np.ones((2, 3)))


class TestMinAlphaPsd:
    def test_is_kernel_alpha_one(self):
        """alpha = 1 gives [[0,0],[0,1]], PSD; any alpha < 1 has det < 0."""
        cert = min_alpha_psd(IS_KERNEL, 1.0)
        assert cert.verdict == "psd_for_alpha" and cert.alpha == 1.0
        alpha = 0.99
        shifted = alpha - IS_KERNEL
        assert np.linalg.det(shifted) < 0

    def test_potts_q2(self):
        m = build_model("potts", q=2, beta=1.0)
        cert = min_alpha_psd(m.edge_pot.tables[0], m.soft.j_max)
        assert cert.verdict == "psd_for_alpha" and cert.alpha == 1.0
        shifted = 1.0 - m.edge_pot.tables[0]
        eigs = np.linalg.eigvalsh(shifted)
        np.testing.assert_allclose(eigs, 1.0 - math.exp(-1.0), rtol=1e-12)

    def test_diag_counterexample_no_alpha(self):
        cert = min_alpha_psd(np.diag([-1.0, 1.0]), 1.0)
        assert cert.verdict == "no_alpha"
        y = cert.witness
        assert abs(sum(y)) < 1e-9
        assert y @ (-np.diag([-1.0, 1.0])) @ y <= 1e-9

    def test_ferromagnetic_kernel_no_alpha(self):
        """J = exp(beta x1 x2) with agreement favored is never shiftable."""
        eb = math.exp(0.5)
        j = np.array([[eb, 1 / eb], [1 / eb, eb]])
        assert min_alpha_psd(j, eb).verdict == "no_alpha"

    def test_boundary_with_psd_resolution(self):
        cert = min_alpha_psd(np.zeros((2, 2)), 0.5)
        assert cert.verdict == "psd_for_alpha"
        assert cert.alpha == pytest.approx(0.5)

    def test_boundary_family_with_controlled_coupling(self):
        """Constructed boundary kernels: a kernel direction of -J on R0 with
        ones-coupling s*n kills every shift (witnessed by explicit vectors
        y* + delta*ones, where the form dips to about -s^2/alpha); zero
        coupling leaves the shift search intact."""
        rng = np.random.default_rng(77)
        for n in (3, 4, 5):
            for mu in (0.5, 2.0):
                for s in (0.0, 0.3, -2.0):
                    y = rng.normal(size=n)
                    y -= y.mean()
                    y /= np.linalg.norm(y)
                    e = np.ones(n)
                    q = np.eye(n) - np.outer(e, e) / n - np.outer(y, y)
                    j = -mu * q + s * (np.outer(e, y) + np.outer(y, e))
                    cert = min_alpha_psd(j, float(np.abs(j).max()))
                    if s == 0.0:
                        assert cert.verdict == "psd_for_alpha"
                        shifted = cert.alpha - j
                        assert np.linalg.eigvalsh(shifted).min() >= -1e-8
                    else:
                        assert cert.verdict == "no_alpha"
                        w = cert.witness
                        # confirm the claim: for every alpha the quadratic
                        # f(delta) = y'(alpha*ones - J)y at y = w + delta*e
                        # goes negative
                        a_coef = lambda alpha: alpha * n ** 2 - e @ j @ e  # noqa: E731
                        b_coef = -2.0 * float(e @ j @ w)
                        c_coef = -float(w @ j @ w)
                        for alpha in (1.0, 10.0, 1e3, 1e6, 1e12):
                            aa = a_coef(alpha)
                            assert aa > 0
                            f_min = c_coef - b_coef ** 2 / (4 * aa)
                            assert f_min < 0, (n, mu, s, alpha)

    def test_agrees_with_direct_search(self):
        """Verdict matches a grid-plus-doubling scan on random 4x4 matrices."""
        rng = np.random.default_rng(3)
        disagreements = 0
        for _ in range(30):
            j = rng.normal(size=(4, 4))
            j = 0.5 * (j + j.T)
            j_max = float(np.abs(j).max())
            cert = min_alpha_psd(j, j_max)
            scan = False
            alpha = j_max
            while alpha <= 1e6 * max(1.0, np.abs(j).max()):
                if np.linalg.eigvalsh(alpha - j).min() >= -1e-9 * (1 + j_max):
                    scan = True
                    break
                alpha = alpha * 2 if alpha > 0 else 1.0
            if cert.verdict == "psd_for_alpha":
                assert np.linalg.eigvalsh(cert.alpha - j).min() >= -1e-8
                if not scan:
                    disagreements += 1
            elif cert.verdict == "no_alpha":
                if scan:
                    disagreements += 1
        assert disagreements == 0

    @pytest.mark.parametrize("j_max", [math.nan, math.inf, -math.inf])
    def test_non_finite_j_max_rejected(self, j_max):
        """A nan floor used to be dropped silently and inf returned alpha inf."""
        with pytest.raises(ValueError, match="j_max must be finite"):
            min_alpha_psd(IS_KERNEL, j_max)

    def test_zoo_kernels_well_conditioned(self):
        for m in (build_model("independent_set", **{"lambda": 1.0}),
                  build_model("potts", q=3, beta=0.5),
                  build_model("potts", q=5, beta=1.5),
                  build_model("ising", beta=0.5, h=2.0)):
            cert = min_alpha_psd(m.edge_pot.tables[0], m.soft.j_max)
            assert 1.0 <= cert.cond <= 1.0 + 1e-12, m.name
        assert min_alpha_psd(np.diag([-1.0, 1.0]), 1.0).cond is None

    @pytest.mark.parametrize("beta", [400.0, 700.0, 709.7])
    def test_extreme_ising_alpha_is_finite(self, beta):
        """b'B^+b squared entries of about 1e157 into inf at beta = 400; at
        709.7 the symmetrisation J + J' itself overflowed."""
        m = build_model("ising", beta=beta)
        cert = min_alpha_psd(m.edge_pot.tables[0], m.soft.j_max)
        assert cert.verdict == "psd_for_alpha" and cert.alpha == m.soft.j_max
        assert math.isfinite(cert.alpha) and math.isfinite(cert.tol)

    def test_power_of_two_scaling(self):
        """2^k J with floor 2^k j_max gets 2^k times the shift of J, to 1e-12
        relative, on random kernels -AA' + (w 1' + 1 w'), up to 2^1000."""
        rng = np.random.default_rng(18)
        above = 0
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a, w, e = rng.normal(size=(n, n)), rng.normal(size=n), np.ones(n)
            j = -a @ a.T + np.outer(e, w) + np.outer(w, e)
            cert = min_alpha_psd(j, float(j.max()))
            assert cert.verdict == "psd_for_alpha"
            above += cert.alpha > j.max()
            for k in (1, 64, 300, 600, 1000):
                scaled = min_alpha_psd(2.0 ** k * j, 2.0 ** k * float(j.max()))
                assert scaled.alpha == pytest.approx(2.0 ** k * cert.alpha, rel=1e-12, abs=0)
        assert above >= 10

    def test_near_flat_kernel_ill_conditioned(self):
        """-J on R0 with eigenvalues 1 and 1e-8, just above the 1e-9 * (1 +
        max |J|) flat tolerance: the shift inverts a block of cond 1e8."""
        rng = np.random.default_rng(16)
        n = 3
        basis = np.linalg.svd(np.ones((1, n)))[2][1:].T
        e, w = np.ones(n), rng.normal(size=n)
        j = -basis @ np.diag([1.0, 1e-8]) @ basis.T + 0.3 * (np.outer(e, w) + np.outer(w, e))
        cert = min_alpha_psd(j, float(np.abs(j).max()))
        assert cert.verdict == "psd_for_alpha"
        assert cert.cond >= 1e5


def _expected(model, alpha, x_rows):
    """E tensor_{l<=r} (alpha - J) over the model's edge law, by loops."""
    return naive_expected_tensor(model.edge_pot, alpha, x_rows, model.arity)


class TestExpectedTensor:
    def test_deterministic_single_replica(self):
        m = build_model("independent_set", **{"lambda": 1.0})
        np.testing.assert_allclose(_expected(m, 1.0, [[0, 1]]), 1.0 - IS_KERNEL)

    def test_vb_odd_moments_vanish_exactly(self):
        """The witness's sign-changing column -sinh(beta I) has exactly zero
        odd moments under the two-point law."""
        w = build_model("viana_bray", k=2, beta=0.8).witness
        moment = lambda r: sum(float(p) * float(c) ** r  # noqa: E731
                               for p, c in zip(w.coef_probs, w.coef[:, 1]))
        for r in (1, 3, 5):
            assert moment(r) == 0.0
        assert moment(2) > 0.0

    def test_vb_moment_law_lengths_must_match(self):
        with pytest.raises(ModelConfigError, match="equal length"):
            build_model("viana_bray", k=2, beta=0.8, i_values=[1.0, -1.0], i_probs=[0.5])


def _ksat_closed_form(beta, k, x_rows):
    """2^-K (1 - e^-beta)^r u^{tensor K}, u the agreement indicator."""
    u = naive_agreement_indicator(x_rows)
    coef = 0.5 ** k * (1.0 - math.exp(-beta)) ** len(x_rows)
    return coef, u, coef * functools.reduce(np.multiply.outer, [u] * k)


class TestKsatRank1:
    """The K-SAT witness is one term: E tensor (1 - J) = 2^-K (1 - e^-beta)^r
    u^{tensor K} over the agreement indicator u."""

    def test_single_entry_case(self):
        """n=1, r=1: the lone entry is 2^-K (1 - e^-beta)."""
        for k in (2, 3):
            beta = 0.5
            m = build_model("ksat", k=k, beta=beta)
            expect = 0.5 ** k * (1 - math.exp(-beta))
            np.testing.assert_allclose(_expected(m, 1.0, [[0]]), expect)
            np.testing.assert_allclose(naive_power_sum_tensor(m.witness, [[0]], k),
                                       expect, rtol=1e-15)
            cert = certify_model(m)
            assert cert.certified and cert.detail["residual"] <= 1e-12

    def test_beta_zero_all_zeros(self):
        m = build_model("ksat", k=3, beta=0.0)
        assert certify_model(m).certified
        np.testing.assert_array_equal(m.witness.coef, 0.0)
        np.testing.assert_array_equal(_expected(m, 1.0, [[0, 1], [1, 1]]), 0.0)

    def test_against_brute_force_clause_expectation(self):
        """n=2, r=2, K=2 checked against an explicit sum over 4 sign tuples."""
        beta, k = 0.8, 2
        x = np.array([[0, 1], [1, 0]])
        m = build_model("ksat", k=k, beta=beta)
        arr = _expected(m, 1.0, x)
        n, r = 2, 2
        for flat_idx in itertools.product(range(n ** r), repeat=k):
            composite = [(idx // n, idx % n) for idx in flat_idx]
            total = 0.0
            for z in itertools.product(range(2), repeat=k):
                term = 0.25
                for l in range(r):
                    spins = tuple(x[l][composite[pos][l]] for pos in range(k))
                    j_val = math.exp(-beta) if spins == z else 1.0
                    term *= 1.0 - j_val
                total += term
            assert arr[flat_idx] == pytest.approx(total, abs=1e-15)
        np.testing.assert_allclose(naive_power_sum_tensor(m.witness, x, k), arr,
                                   rtol=0, atol=1e-15)

    def test_exact_identity_sweep(self):
        """Entries within 1e-12 of the witness's power sum and of the closed
        form; forms within 1e-10 relative on 16 random vectors."""
        rng = np.random.default_rng(9)
        for k in (2, 3):
            m = build_model("ksat", k=k, beta=0.6)
            for r in (1, 2):
                for n in (1, 2, 3):
                    x = rng.integers(0, 2, size=(r, n))
                    exact = _expected(m, 1.0, x)
                    coef, u, closed = _ksat_closed_form(0.6, k, x)
                    power_sum = naive_power_sum_tensor(m.witness, x, k)
                    assert np.abs(exact - power_sum).max() <= 1e-12, (k, r, n)
                    assert np.abs(exact - closed).max() <= 1e-12, (k, r, n)
                    for _ in range(16):
                        y = rng.uniform(0.0, 2.0, size=u.size)
                        rhs = coef * float(u @ y) ** k
                        assert abs(naive_multilinear(exact, y) - rhs) <= 1e-10 * (1 + abs(rhs))


class TestPartitionKernels:
    def test_block_diagonal_classes(self):
        j = np.ones((4, 4))
        j[:2, :2] = 0.0
        j[2:, 2:] = 0.0
        result = partition_kernel_classify(j)
        assert result.is_partition_form
        assert result.classes == [[0, 1], [2, 3]]

    def test_transitivity_witness(self):
        """J(1,2) = J(2,3) = 0 but J(1,3) = 1 breaks partition form."""
        j = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=float)
        result = partition_kernel_classify(j)
        assert not result.is_partition_form
        assert result.witness_kind == "transitivity"
        assert result.witness == (0, 1, 2)
        # and indeed no alpha works for the sampled matrix
        assert min_alpha_psd(j, 1.0).verdict == "no_alpha"

    def test_all_ones_empty_a0(self):
        result = partition_kernel_classify(np.ones((3, 3)))
        assert result.is_partition_form and result.classes == []

    def test_reflexivity_witness(self):
        j = np.array([[1, 0], [0, 0]], dtype=float)
        result = partition_kernel_classify(j)
        assert not result.is_partition_form
        assert result.witness_kind == "reflexivity"

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            partition_kernel_classify(np.full((2, 2), 0.5))

    def test_sampled_partition_kernel_is_certifiable(self):
        """Partition form implies alpha = 1 certifies the sampled matrix."""
        rng = np.random.default_rng(15)
        points = rng.uniform(-1.0, 4.5, size=40)
        # zero classes [0, 1) and [2, 3.5); -1 marks a point outside both
        cls = np.select([(points >= 0.0) & (points < 1.0),
                         (points >= 2.0) & (points < 3.5)], [0, 1], -1)
        j01 = ((cls[:, None] != cls[None, :]) | (cls[:, None] < 0)).astype(float)
        result = partition_kernel_classify(j01)
        assert result.is_partition_form
        cert = min_alpha_psd(j01, 1.0)
        assert cert.verdict == "psd_for_alpha"
        assert cert.alpha <= 1.0 + 1e-9


def _diagonal(n, r, lo=0, hi=None):
    """Mass 1/(hi - lo) on each composite index (i, ..., i) with lo <= i < hi."""
    hi = n if hi is None else hi
    vec = np.zeros(n ** r)
    vec[[sum(i * n ** p for p in range(r)) for i in range(lo, hi)]] = 1.0 / (hi - lo)
    return vec


class TestInterpolationVectors:
    def test_diagonal_form_equals_mean_shifted_product(self):
        """<e^{N,r}, E tensor A> equals the normalized placement sum."""
        rng = np.random.default_rng(31)
        m = build_model("ksat", k=2, beta=0.9)
        alpha = 1.0
        x = rng.integers(0, 2, size=(2, 3))
        lhs = naive_multilinear(_expected(m, alpha, x), _diagonal(3, 2))
        rhs = naive_mean_shifted_product(x, alpha, m.edge_pot, 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_block_inequality_certified_models(self):
        """<e, E tensor A> <= sum_j (N_j/N) <e_j, E tensor A> when certified."""
        rng = np.random.default_rng(33)
        models = [build_model("independent_set", **{"lambda": 1.3}),
                  build_model("potts", q=3, beta=0.8),
                  build_model("ising", beta=0.6, h=1.2),
                  build_model("ksat", k=3, beta=0.7),
                  build_model("viana_bray", k=2, beta=0.5, h=1.0)]
        for m in models:
            for r in (1, 2):
                n = 3
                x = rng.integers(0, 2, size=(r, n))
                arr = _expected(m, m.soft.alpha, x)
                n1 = 2
                lhs = naive_multilinear(arr, _diagonal(n, r))
                rhs = (n1 / n) * naive_multilinear(arr, _diagonal(n, r, 0, n1)) \
                    + ((n - n1) / n) * naive_multilinear(arr, _diagonal(n, r, n1, n))
                assert lhs <= rhs + 1e-12, m.name


class TestModelCertification:
    def test_zoo_verdicts(self):
        """One route: every zoo model is certified by its power-sum witness,
        and XOR K=3 is refused by the same check."""
        for m in (build_model("independent_set", **{"lambda": 1.0}),
                  build_model("potts", q=3, beta=0.5),
                  build_model("ising", beta=0.5, h=2.0),
                  build_model("ksat", k=3, beta=0.5),
                  build_model("viana_bray", k=2, beta=0.5),
                  build_model("viana_bray", k=4, beta=0.5),
                  build_model("xor", k=2, beta=0.5)):
            cert = certify_model(m)
            assert cert.certified and cert.method == "power_sum", m.name
        cert = certify_model(build_model("xor", k=3, beta=0.5))
        assert not cert.certified and cert.method == "power_sum"

    def test_psd_alpha_equals_jmax(self):
        """The closed-form minimal shift of the K = 2 zoo kernels is J_max,
        the alpha their witnesses are stated at."""
        for m in (build_model("potts", q=2, beta=1.0),
                  build_model("ising", beta=0.8, h=1.0),
                  build_model("ising", beta=400.0, h=1.0)):
            assert min_alpha_psd(m.edge_pot.tables[0], m.soft.j_max).alpha \
                == m.soft.j_max == m.soft.alpha
            assert certify_model(m).detail["residual"] <= 1e-12 * (1.0 + m.soft.j_max)

    def test_k2_kernel_without_witness_gets_none(self):
        """A hand-built K = 2 model with no witness is not certified, though
        min_alpha_psd accepts its kernel."""
        m = build_model("ising", beta=0.5)
        bare = replace(m, name="bare", witness=None)
        cert = certify_model(bare)
        assert (cert.certified, cert.method) == (False, "none")
        assert min_alpha_psd(m.edge_pot.tables[0], m.soft.j_max).verdict == "psd_for_alpha"

    def test_memory_near_law_size(self):
        """Potts q=256: the check peaks within 8x the law's bytes, for it
        rebuilds one table of the law at a time (tracemalloc)."""
        model = build_model("potts", q=256, beta=1.0)
        tracemalloc.start()
        try:
            assert certify_model(model).certified
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * model.edge_pot.tables.nbytes

    def test_memory_blocked_above_2_20(self):
        """Potts q=2048, a table of 2^22 entries, is compared in row blocks
        of 2^20 entries: the check peaks within 2x the law's bytes, the
        rebuilt factor ``left`` included (tracemalloc)."""
        model = build_model("potts", q=2048, beta=1.0)
        tracemalloc.start()
        try:
            assert certify_model(model).certified
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * model.edge_pot.tables.nbytes

    def test_vb_decomposition_tolerance(self):
        m = build_model("viana_bray", k=4, beta=0.8, h=1.5)
        assert certify_model(m).detail["residual"] <= 1e-12 * m.soft.j_max
        _assert_witness_rebuilds(m, 1e-12 * m.soft.j_max)


def _assert_witness_rebuilds(model, tol):
    """alpha - J = sum_s coef[a, s] prod_k phi[b_k, s, x_k] on every atom of
    the law, listed in row-major order, by loops."""
    w = model.witness
    atoms = itertools.product(range(len(w.coef_probs)),
                              *[range(len(w.phi_probs))] * model.arity)
    law = model.edge_pot
    for atom, table, prob in zip(atoms, law.tables, law.probs, strict=True):
        assert prob == pytest.approx(
            w.coef_probs[atom[0]] * math.prod(w.phi_probs[b] for b in atom[1:]), abs=1e-12)
        for spins in itertools.product(range(model.n_states), repeat=model.arity):
            err = model.soft.alpha - table[spins] - naive_witness_entry(w, atom, spins)
            assert abs(err) <= tol, (atom, spins)


def _vb_two_point(coef_rows, i_values, beta=0.5):
    """Viana-Bray K=2 at beta with the given I law (uniform) and witness rows."""
    m = build_model("viana_bray", k=2, beta=beta)
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])
    law = EdgePotentialSpec(2, [np.exp(beta * v * signs) for v in i_values],
                            [1.0 / len(i_values)] * len(i_values))
    n_s = len(coef_rows[0])
    phi = [[[1.0, 1.0]] + [[-1.0, 1.0]] * (n_s - 1)]
    witness = PowerSumWitness(coef_rows, [1.0 / len(i_values)] * len(i_values), phi, [1.0])
    return replace(m, edge_pot=law, witness=witness)


class TestPowerSumWitness:
    def test_bad_shapes_rejected(self):
        with pytest.raises(ModelConfigError, match="shapes"):
            PowerSumWitness([[1.0]], [1.0], [[[1.0, 0.0]], [[0.0, 1.0]]], [1.0])
        with pytest.raises(ModelConfigError, match="finite"):
            PowerSumWitness([[math.nan]], [1.0], [[[1.0, 0.0]]], [1.0])

    def _refused(self, model, why):
        cert = certify_model(model)
        assert not cert.certified and cert.method == "power_sum"
        assert why in cert.detail["reason"]

    def test_coef_off_by_1e6_refused(self):
        m = build_model("ksat", k=3, beta=0.5)
        self._refused(replace(m, witness=replace(m.witness, coef=m.witness.coef + 1e-6)),
                      "reconstruct")

    def test_asymmetric_odd_column_refused(self):
        """I uniform on {1, -0.5}: the witness rebuilds J exactly, but the
        law of -sinh(beta I) is not symmetric, so odd moments do not vanish."""
        beta, alpha = 0.5, math.exp(0.5)
        rows = [[alpha - math.cosh(beta * v), -math.sinh(beta * v)] for v in (1.0, -0.5)]
        model = _vb_two_point(rows, (1.0, -0.5), beta)
        assert certify_model(model).detail["residual"] <= 1e-12 * (1 + alpha)
        self._refused(model, "not symmetric")

    def test_two_sign_changing_columns_refused(self):
        """-sinh(beta I) split into two equal columns: exact, but two columns
        change sign."""
        beta, alpha = 0.5, math.exp(0.5)
        rows = [[alpha - math.cosh(beta * v), -0.5 * math.sinh(beta * v),
                 -0.5 * math.sinh(beta * v)] for v in (1.0, -1.0)]
        self._refused(_vb_two_point(rows, (1.0, -1.0), beta), "more than one")

    def test_overflowing_witness_refused(self):
        """Products past the float range rebuild inf - inf = NaN entries, and
        a NaN residual is a failed reconstruction."""
        model = build_model("ising", beta=0.5)
        witness = PowerSumWitness([[1e308, 1e308]], [1.0],
                                  [[[10.0, 10.0], [-10.0, 10.0]]], [1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            self._refused(replace(model, witness=witness), "reconstruct")
            assert math.isnan(certify_model(replace(model, witness=witness))
                              .detail["residual"])

    def test_witness_of_another_size_refused(self):
        """The Ising witness (q = 2) on the Potts q = 3 law."""
        witness = build_model("ising", beta=0.5).witness
        self._refused(replace(build_model("potts", q=3, beta=0.5), witness=witness),
                      "does not match the edge law's size")

    def test_odd_arity_with_signed_phi_refused(self):
        self._refused(build_model("xor", k=3, beta=0.5), "odd arity")
