"""Acceptance criteria.

One test per criterion, each printing a [criterion NN] PASS/FAIL line (run
with ``pytest tests/test_acceptance.py -v -s``).  Tolerances and sample sizes
are pinned here; statistical criteria are seeded and therefore reproducible.
"""

import math
import time
from functools import reduce

import numpy as np
from scipy import stats

from gibbslab import (
    Hypergraph,
    InterpolationPoint,
    add_edge,
    build_model,
    certify_model,
    concentration_experiment,
    degree_stats,
    degree_tail_probability,
    edge_count,
    estimate_mean_logz,
    interpolation_monotonicity,
    log_z_exact,
    logz_bounds,
    make_instance,
    min_alpha_psd,
    moment_inequality_check,
    node_change_bound,
    edge_change_bound,
    partition_kernel_classify,
    random_base_instance,
    replace_node_table,
    replay_record,
    sample_er,
    sample_interpolated,
    verify_replay,
)
from gibbslab.harness import convergence_experiment
from gibbslab.seeds import substream

from conftest import merge_low_bins, random_instance, workers
from naive import naive_agreement_indicator, naive_expected_tensor, naive_power_sum_tensor

IS1 = build_model("independent_set", **{"lambda": 1.0})
ZOO = ("independent_set", "potts", "ising", "viana_bray", "xor", "ksat")


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_oracle_equivalence():
    """log_z_exact matches the rational enumerator on 200 random instances."""
    from naive import naive_log_z
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    worst = 0.0
    for i in range(200):
        inst = random_instance(rng, n_max=4, names=(ZOO[i % len(ZOO)],))
        got = log_z_exact(inst).value
        want = naive_log_z(inst)
        if want == -math.inf:
            assert got == -math.inf
        else:
            worst = max(worst, abs(got - want) / max(1e-30, abs(want)))
    elapsed = time.monotonic() - start
    _report(1, worst <= 1e-10 and elapsed < 10.0,
            f"max relative error {worst:.2e} over 200 instances in {elapsed:.1f}s")


def test_criterion_02_log_partition_sandwich():
    """(M+N) log rho_min <= log Z <= (M+N) log rho_max on 1000 instances."""
    rng = np.random.default_rng(1002)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        inst = random_instance(rng, n_max=6)
        lo, hi = logz_bounds(inst)
        value = log_z_exact(inst).value
        worst = max(worst, lo - value, value - hi)
    elapsed = time.monotonic() - start
    _report(2, worst <= 1e-9 and elapsed < 30.0,
            f"max bound violation {worst:.2e} over 1000 instances in {elapsed:.1f}s")


def _admissible_node_table(model, rng) -> np.ndarray:
    """A fresh node table satisfying the soft-state part 1 with the same
    constants: soft mass in [rho_min, rho_max/2], total mass <= rho_max."""
    soft = model.soft
    lengths = model.domain.lengths
    soft_idx = set(int(i) for i in model.soft_states())
    table = rng.uniform(0.1, 1.0, size=model.n_states)
    soft_mask = np.array([i in soft_idx for i in range(model.n_states)])
    m_soft = rng.uniform(soft.rho_min, soft.rho_max / 2.0)
    cur_soft = float((table * lengths)[soft_mask].sum())
    table[soft_mask] *= m_soft / cur_soft
    if (~soft_mask).any():
        m_rest = rng.uniform(0.0, soft.rho_max / 2.0)
        cur_rest = float((table * lengths)[~soft_mask].sum())
        table[~soft_mask] *= m_rest / cur_rest
    return table


def test_criterion_03_perturbation_bounds():
    """Node and edge perturbation lemmas hold on 500 random pairs each."""
    rng = np.random.default_rng(1003)
    start = time.monotonic()
    worst_node = worst_edge = -math.inf
    for _ in range(500):
        inst = random_instance(rng, n_max=4)
        node = int(rng.integers(inst.graph.n_nodes))
        swapped = replace_node_table(inst, node,
                                     _admissible_node_table(inst.model, rng))
        delta = abs(log_z_exact(swapped).value - log_z_exact(inst).value)
        worst_node = max(worst_node, delta - node_change_bound(inst, node))
    for _ in range(500):
        inst = random_instance(rng, n_max=4)
        edge = tuple(int(x) for x in rng.integers(0, inst.graph.n_nodes,
                                                  size=inst.model.arity))
        law = inst.model.edge_pot
        table = law.tables[law.draw_indices(rng, 1)[0]]
        delta = abs(log_z_exact(add_edge(inst, edge, table)).value
                    - log_z_exact(inst).value)
        worst_edge = max(worst_edge, delta - edge_change_bound(inst, edge))
    elapsed = time.monotonic() - start
    _report(3, worst_node <= 1e-9 and worst_edge <= 1e-9 and elapsed < 60.0,
            f"max node excess {worst_node:.2e}, max edge excess {worst_edge:.2e} "
            f"in {elapsed:.1f}s")


def test_criterion_04_certifier_reference_verdicts():
    """IS alpha=1; Potts/Ising beta>0 at alpha=J_max; diag(-1,1) refused;
    the transitivity triple flagged."""
    ok = True
    details = []

    cert_is = min_alpha_psd(np.array([[1.0, 1.0], [1.0, 0.0]]), 1.0)
    ok &= cert_is.verdict == "psd_for_alpha" and cert_is.alpha == 1.0
    details.append(f"IS alpha={cert_is.alpha}")

    for model in (build_model("potts", q=3, beta=0.8),
                  build_model("ising", beta=0.8, h=1.3)):
        kernel = model.edge_pot.tables[0]
        cert = min_alpha_psd(kernel, model.soft.j_max)
        ok &= cert.verdict == "psd_for_alpha" and cert.alpha == model.soft.j_max
        details.append(f"{model.name} alpha={cert.alpha:.4f}=J_max")

    cert_diag = min_alpha_psd(np.diag([-1.0, 1.0]), 1.0)
    ok &= cert_diag.verdict == "no_alpha"
    details.append(f"diag(-1,1) {cert_diag.verdict}")

    triple = partition_kernel_classify(
        np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=float))
    ok &= (not triple.is_partition_form
           and triple.witness_kind == "transitivity"
           and triple.witness == (0, 1, 2))
    details.append("transitivity triple flagged")

    _report(4, ok, "; ".join(details))


def test_criterion_05_restricted_convexity_cross_validation():
    """Restricted-definiteness verdict agrees with a direct alpha scan on
    100 random symmetric 4x4 matrices."""
    rng = np.random.default_rng(1005)
    disagreements = 0
    for _ in range(100):
        j = rng.normal(size=(4, 4)) * rng.uniform(0.5, 3.0)
        j = 0.5 * (j + j.T)
        j_max = float(j.max())
        cert = min_alpha_psd(j, j_max)
        tol = 1e-9 * (1.0 + float(np.abs(j).max()))
        scan_found = False
        alpha = j_max
        cap = 1e6 * max(1.0, float(np.abs(j).max()))
        while alpha <= cap:
            if np.linalg.eigvalsh(alpha - j).min() >= -tol:
                scan_found = True
                break
            alpha = alpha * 2.0 if alpha > 0 else 1.0
        if cert.verdict == "psd_for_alpha":
            if not scan_found:
                disagreements += 1
            if np.linalg.eigvalsh(cert.alpha - j).min() < -1e-9 * (1 + abs(cert.alpha)):
                disagreements += 1
        elif cert.verdict == "no_alpha":
            if scan_found:
                disagreements += 1
        else:
            disagreements += 1  # random Gaussians should never sit on the boundary
    _report(5, disagreements == 0, f"{disagreements} disagreements over 100 matrices")


def test_criterion_06_ksat_identity_and_vb_moments():
    """K-SAT rank-1 identity exact at 1e-12; Viana-Bray odd moments vanish.

    The expected K-SAT tensor matches the power sum of the model's witness
    and the closed form 2^-K (1-e^-beta)^r u^{tensor K} over the agreement
    indicator u, and the certificate's residual is within 1e-12; the
    two-point odd moments are those of the Viana-Bray witness's
    sign-changing column."""
    rng = np.random.default_rng(1006)
    worst = 0.0
    for k in (2, 3):
        model = build_model("ksat", k=k, beta=0.7)
        cert = certify_model(model)
        assert cert.certified and cert.detail["residual"] <= 1e-12
        for r in (1, 2):
            for n in (1, 2, 3):
                x = rng.integers(0, 2, size=(r, n))
                exact = naive_expected_tensor(model.edge_pot, 1.0, x, k)
                u = naive_agreement_indicator(x)
                closed = 0.5 ** k * (1.0 - math.exp(-0.7)) ** r * reduce(
                    np.multiply.outer, [u] * k)
                worst = max(worst, float(np.abs(exact - closed).max()),
                            float(np.abs(exact - naive_power_sum_tensor(
                                model.witness, x, k)).max()))
    w = build_model("viana_bray", k=2, beta=0.9).witness
    moments = [sum(float(p) * float(c) ** r for p, c in zip(w.coef_probs, w.coef[:, 1]))
               for r in (1, 3, 5)]
    exact_zero = moments == [0.0, 0.0, 0.0]
    # three-point law: Monte Carlo mean of f2^r within 3 SE of zero
    beta, values, probs = 0.8, np.array([1.2, 0.0, -1.2]), np.array([0.25, 0.5, 0.25])
    draws = substream(1006, 0).choice(values, size=200_000, p=probs)
    mc_ok = True
    for r in (1, 3):
        samples = np.sinh(beta * draws) ** r
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        mc_ok &= abs(samples.mean()) <= 3 * se
    _report(6, worst <= 1e-12 and exact_zero and mc_ok,
            f"max K-SAT entry error {worst:.2e}; two-point odd moments exactly 0; "
            f"three-point MC within 3 SE")


def test_criterion_07_moment_inequality_sweep():
    """Exact left <= right on the exhaustive small sweep for certified models."""
    start = time.monotonic()
    models = [build_model("independent_set", **{"lambda": 1.0}),
              build_model("potts", q=3, beta=0.7),
              build_model("ising", beta=0.5, h=1.2),
              build_model("viana_bray", k=2, beta=0.6, h=1.0),
              build_model("xor", k=2, beta=0.8),
              build_model("ksat", k=3, beta=0.9)]
    checks = failures = 0
    for model in models:
        for n in (2, 3):
            for n1 in range(1, n):
                for r in (1, 2):
                    for g0_seed in range(20):
                        m_edges = g0_seed % 4
                        g0 = random_base_instance(model, n, m_edges,
                                                  seed=7000 + g0_seed)
                        rec = moment_inequality_check(g0, n1, r)
                        checks += 1
                        if rec.verdict != "pass":
                            failures += 1
    elapsed = time.monotonic() - start
    _report(7, failures == 0 and elapsed < 300.0,
            f"{checks} exact checks, {failures} failures, in {elapsed:.1f}s")


def test_criterion_08_interpolation_monotonicity():
    """IS lambda=1, N=10, N1=5, c=1, 2e4 coupled samples per step."""
    start = time.monotonic()
    rec = interpolation_monotonicity(IS1, 10, 5, 1, samples_per_t=20_000, seed=88)
    elapsed = time.monotonic() - start
    m = edge_count(10, 1)
    margins = [rec.results[f"diff_{t}"] + 3 * rec.results[f"diff_se_{t}"]
               for t in range(m)]
    endpoint_ok = rec.results["endpoint_diff"] >= -3 * rec.results["endpoint_se"]
    ok = rec.verdict == "pass" and min(margins) >= 0 and endpoint_ok \
        and elapsed < 900.0
    _report(8, ok,
            f"min diff margin {min(margins):.4f}, endpoint diff "
            f"{rec.results['endpoint_diff']:.4f} (se {rec.results['endpoint_se']:.4f}), "
            f"in {elapsed:.0f}s")


def test_criterion_09_concentration_slope():
    """Fitted log-log slope of std(log Z / N) is <= -0.3 for IS, c=1."""
    start = time.monotonic()
    rec = concentration_experiment(IS1, [6, 8, 10, 12, 14], 1, samples=4000,
                                   seed=99)
    elapsed = time.monotonic() - start
    ok = rec.verdict == "pass" and rec.results["slope"] <= -0.3 and elapsed < 900.0
    _report(9, ok, f"slope {rec.results['slope']:.3f} in {elapsed:.0f}s")


def test_criterion_10_disjoint_union_endpoint():
    """Block edge counts are Binomial(m, N_j/N); end-of-chain E log Z equals
    the sum of independent block estimates within 3 SE."""
    n, n1, c = 10, 5, 1
    m = edge_count(n, c)
    point = InterpolationPoint(m, n1, n - n1)

    counts = np.zeros(m + 1, dtype=int)
    n_draws = 20_000
    for seed in range(n_draws):
        g = sample_interpolated(n, c, 2, point, seed=seed)
        counts[int(np.all(g.edges < n1, axis=1).sum())] += 1
    p = n1 / n
    expected = np.array([math.comb(m, k) * p ** k * (1 - p) ** (m - k)
                         for k in range(m + 1)]) * n_draws
    obs, exp = merge_low_bins(counts, expected)
    chi = stats.chisquare(obs, exp)

    samples = 4000
    end = estimate_mean_logz(IS1, n, c, samples, seed=555, point=point)
    rng = substream(555, 1)
    block_sums = np.empty(samples)
    for i in range(samples):
        r1 = int(rng.binomial(m, p))
        g1 = Hypergraph(n1, 2, rng.integers(0, n1, size=(r1, 2)))
        g2 = Hypergraph(n - n1, 2, rng.integers(0, n - n1, size=(m - r1, 2)))
        z1 = log_z_exact(make_instance(IS1, g1, int(rng.integers(2 ** 31)))).value
        z2 = log_z_exact(make_instance(IS1, g2, int(rng.integers(2 ** 31)))).value
        block_sums[i] = z1 + z2
    pooled = math.hypot(end.std_error,
                        float(block_sums.std(ddof=1)) / math.sqrt(samples))
    gap = abs(end.mean - float(block_sums.mean()))
    ok = chi.pvalue > 0.001 and gap <= 3 * pooled
    _report(10, ok, f"chi-square p={chi.pvalue:.3f}; endpoint gap {gap:.4f} "
                    f"vs 3*SE={3 * pooled:.4f}")


def test_criterion_11_degree_distribution():
    """Node-incidence histogram matches the exact binomial for
    N in {10, 50}, c = 1, K in {2, 3} (4 SE per degree)."""
    ok = True
    for n in (10, 50):
        for k in (2, 3):
            n_draws = 2000
            m = edge_count(n, 1)
            counts = np.zeros(m + 1, dtype=np.int64)
            for seed in range(n_draws):
                d = degree_stats(sample_er(n, 1, k, seed=10_000 + seed))
                counts += np.bincount(d.node_incidences, minlength=m + 1)
            total = counts.sum()
            for deg in range(m + 1):
                p = degree_tail_probability(n, 1, k, deg)
                se = math.sqrt(total * p * (1 - p)) if 0 < p < 1 else 0.0
                if abs(counts[deg] - total * p) > 4 * se + 1e-9:
                    ok = False
    _report(11, ok, "incidence histograms within 4 SE of Binomial(m, 1-(1-1/N)^K)")


def test_criterion_12_replay_determinism():
    """Records replay bit-identically with 1 and 2 workers."""
    records = []
    records.append(interpolation_monotonicity(IS1, 6, 3, 1, samples_per_t=50,
                                              seed=13))
    records.append(concentration_experiment(IS1, [4, 6, 8], 1, samples=40,
                                            seed=14))
    records.append(convergence_experiment(IS1, [4, 8], 1, samples=40, seed=15))
    m = build_model("ksat", k=2, beta=0.5)
    records.append(moment_inequality_check(random_base_instance(m, 3, 2, seed=4), 1, 2))
    ok = True
    for rec in records:
        ok &= verify_replay(rec)
        with workers(2):
            again = replay_record(rec)
        ok &= again.results == rec.results
    _report(12, ok, f"{len(records)} experiments replayed bit-identically "
                    f"with 1 and 2 workers")
