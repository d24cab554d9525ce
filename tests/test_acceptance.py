"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria complete.  Every tolerance is pinned here, not configurable.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from mlmod import (
    Aspect,
    BaselineConfig,
    CouplingSpec,
    ModularityParams,
    MultilayerNetwork,
    Partition,
    build_karate_replica,
    build_modularity_matrix,
    generate_couplings,
    load_karate,
    mlouv,
    modularity,
    mspec_detect,
    quality_matrix,
    sfull_spec,
    smean_spec,
)
from mlmod.eigen import leading_eigenpair
from mlmod.mspec import subdivision_matrix

from conftest import make_single_layer
from oracles import (
    dense_adjacency,
    max_partition_q,
    oracle_hamiltonian,
    oracle_matrix,
    q_pairwise,
    random_instance,
    random_partition,
)


def report(criterion: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def canonical(labels):
    seen = {}
    out = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen)
        out.append(seen[lab])
    return tuple(out)


def test_criterion_1_parameter_study_endpoints():
    t0 = time.perf_counter()
    net, params = build_karate_replica(10, [0.1 * (s + 1) for s in range(10)])
    _, truth = load_karate()
    checks = []

    res1 = mspec_detect(net, CouplingSpec(omega=1.0), params)
    grid1 = res1.partition.labels.reshape(10, 34)
    unanimous1 = bool((grid1 == grid1[0]).all())
    checks.append(("omega=1 all copies share labels", unanimous1))
    two = res1.n_communities == 2
    checks.append(("omega=1 exactly two communities", two))
    if two:
        found = np.where(grid1[0] == grid1[0][0], 1, 2)
        match = bool((found == truth).all() or (found == 3 - truth).all())
        checks.append(("omega=1 split equals bundled ground truth", match))

    res10 = mspec_detect(net, CouplingSpec(omega=10.0), params)
    grid10 = res10.partition.labels.reshape(10, 34)
    checks.append(("omega=10 all copies share labels",
                   bool((grid10 == grid10[0]).all())))

    res0 = mspec_detect(net, CouplingSpec(omega=0.0), params)
    grid0 = res0.partition.labels.reshape(10, 34)
    distinct = {canonical(grid0[s].tolist()) for s in range(10)}
    checks.append(("omega=0 layers diverge", len(distinct) >= 2))

    elapsed = time.perf_counter() - t0
    checks.append((f"runtime {elapsed:.2f}s < 10s", elapsed < 10.0))
    failed = [name for name, ok in checks if not ok]
    report("criterion 1 (parameter study endpoints)", not failed,
           f"{len(checks)} checks, failed: {failed or 'none'}")


def test_criterion_2_single_layer_reduction():
    t0 = time.perf_counter()
    net, _ = load_karate()
    params = ModularityParams.for_network(net, gamma=1.0, lam=1.0)
    dm = build_modularity_matrix(net, CouplingSpec(), params)
    a = dense_adjacency(net, 0)
    k = a.sum(axis=1)
    newman = a - np.outer(k, k) / k.sum()
    max_dev = float(np.abs(dm.matrix - newman).max())
    res = mspec_detect(net, CouplingSpec(), params)
    first_dq = res.divisions[0].delta_q
    elapsed = time.perf_counter() - t0
    ok = max_dev <= 1e-12 and first_dq > 0 and elapsed < 1.0
    report("criterion 2 (single-layer reduction)", ok,
           f"max |D - Newman| = {max_dev:.2e} <= 1e-12, first bisection "
           f"dQ = {first_dq:.3f} > 0, runtime {elapsed:.2f}s < 1s")


def test_criterion_3_oracle_equivalence_desk_scale():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260808)
    worst_a = 0.0
    worst_c = 0.0
    bound_violations = 0
    for trial in range(50):
        net, spec, params = random_instance(5000 + trial, max_supra=12)
        d = oracle_matrix(net, spec, params)
        n = net.supra_size

        labels = random_partition(rng, n)
        q_scorer = modularity(net, spec, params, Partition(labels))
        q_oracle = q_pairwise(d, labels)
        worst_a = max(worst_a, abs(q_scorer - q_oracle))

        res = mspec_detect(net, spec, params)
        opt = max_partition_q(d)
        if res.q_total > opt + 1e-9 * max(1.0, abs(opt)):
            bound_violations += 1

        size = int(rng.integers(2, n + 1))
        members = np.sort(rng.choice(n, size=size, replace=False))
        sub = subdivision_matrix(quality_matrix(net, spec, params)[0], members)
        z = rng.choice([-1.0, 1.0], size=size)
        dq_matrix = 0.5 * float(z @ sub @ z)
        before = np.zeros(n, dtype=int)
        before[members] = 1
        rest = np.flatnonzero(before == 0)
        before[rest] = 2 + np.arange(len(rest))
        after = before.copy()
        after[members[z < 0]] = 0
        dq_direct = (modularity(net, spec, params, Partition(after))
                     - modularity(net, spec, params, Partition(before)))
        worst_c = max(worst_c, abs(dq_matrix - dq_direct))
    elapsed = time.perf_counter() - t0
    ok = worst_a <= 1e-9 and bound_violations == 0 and worst_c <= 1e-9 and elapsed < 60.0
    report("criterion 3 (oracle equivalence, 50 instances <= 12 cells)", ok,
           f"(a) max |Q - oracle| = {worst_a:.2e} <= 1e-9, "
           f"(b) exhaustive-max violations = {bound_violations}, "
           f"(c) max |dQ - direct| = {worst_c:.2e} <= 1e-9, "
           f"runtime {elapsed:.1f}s < 60s")


def test_criterion_4_hamiltonian_consistency():
    rng = np.random.default_rng(11)
    net, spec, params = random_instance(424242)
    d = oracle_matrix(net, spec, params)
    biases = []
    for _ in range(20):
        labels = random_partition(rng, net.supra_size)
        part = Partition(labels)
        h = oracle_hamiltonian(d, labels)
        q = modularity(net, spec, params, part)
        biases.append(-h / 2.0 - q)
    scale = max(1.0, max(abs(b) for b in biases))
    spread = (max(biases) - min(biases)) / scale
    chi = quality_matrix(net, spec, params)[1]
    chi_dev = abs(d.sum() - chi) / max(1.0, abs(chi))
    ok = spread <= 1e-9 and chi_dev <= 1e-9
    report("criterion 4 (Hamiltonian consistency)", ok,
           f"bias spread {spread:.2e} <= 1e-9 relative over 20 partitions, "
           f"|sum(D) - chi| = {chi_dev:.2e} <= 1e-9 relative")


def test_criterion_5_comparative_ordering():
    t0 = time.perf_counter()
    net0, params = build_karate_replica(10, [0.1 * (s + 1) for s in range(10)])
    spec = CouplingSpec(omega=1.0)
    rhos = [round(0.1 * i, 1) for i in range(11)]
    seeds = list(range(20))
    per_rho = {alg: [] for alg in ("mspec", "mlouv", "smean", "sfull")}
    for ri, rho in enumerate(rhos):
        qs = {alg: [] for alg in per_rho}
        for seed in seeds:
            coupled = net0.with_couplings(
                generate_couplings(net0, rho, 1_000_000 + 97 * ri + seed)
            )
            qs["mspec"].append(mspec_detect(coupled, spec, params).q_total)
            qs["mlouv"].append(
                mlouv(coupled, spec, params, BaselineConfig(seed=31 * seed + ri)).q_total
            )
            qs["smean"].append(smean_spec(coupled, spec, params).q_total)
            qs["sfull"].append(sfull_spec(coupled, spec, params).q_total)
        for alg in per_rho:
            per_rho[alg].append(float(np.mean(qs[alg])))
    means = {alg: float(np.mean(row)) for alg, row in per_rho.items()}
    variances = {alg: float(np.var(row)) for alg, row in per_rho.items()}
    elapsed = time.perf_counter() - t0
    ordering = all(means["mspec"] >= means[alg] for alg in ("mlouv", "smean", "sfull"))
    stability = variances["mspec"] <= variances["smean"]
    ok = ordering and stability and elapsed < 300.0
    report("criterion 5 (comparative ordering, 20 seeds)", ok,
           "mean Q: " + ", ".join(f"{a}={means[a]:.1f}" for a in per_rho)
           + f"; var mspec={variances['mspec']:.3g} <= var smean={variances['smean']:.3g}"
           + f"; runtime {elapsed:.0f}s < 300s")


def test_criterion_6_eigensolver_correctness():
    rng = np.random.default_rng(77)
    worst_val = 0.0
    worst_resid = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 65))
        a = rng.standard_normal((n, n))
        d = (a + a.T) / 2.0
        scale = float(np.abs(d).sum(axis=1).max())
        beta, u = leading_eigenpair(d)
        beta_oracle = float(np.linalg.eigvalsh(d)[-1])
        worst_val = max(worst_val, abs(beta - beta_oracle) / scale)
        worst_resid = max(worst_resid,
                          float(np.linalg.norm(d @ u - beta * u)) / scale)
    ok = worst_val <= 1e-8 and worst_resid <= 1e-8
    report("criterion 6 (eigensolver vs dense oracle, 100 matrices)", ok,
           f"max |beta - oracle|/norm = {worst_val:.2e} <= 1e-8, "
           f"max residual/norm = {worst_resid:.2e} <= 1e-8")


def test_criterion_7_signed_behavior():
    net = make_single_layer([(0, 1, 1.0), (0, 2, 1.0), (1, 2, -1.0)], 3)
    params = ModularityParams.for_network(net, signed=True)
    spec = CouplingSpec()
    res = mspec_detect(net, spec, params)
    labels = res.partition.labels
    separated = labels[1] != labels[2]
    best = -np.inf
    for assignment in ([0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [0, 1, 2]):
        q = modularity(net, spec, params, Partition(np.array(assignment)))
        best = max(best, q)
    matches_oracle = abs(res.q_total - best) <= 1e-12

    karate, _ = load_karate()
    unsigned = ModularityParams.for_network(karate)
    signed = ModularityParams.for_network(karate, signed=True)
    rng = np.random.default_rng(3)
    reduction_exact = True
    for _ in range(5):
        labels = random_partition(rng, 34, 4)
        q_u = modularity(karate, CouplingSpec(), unsigned, Partition(labels))
        with pytest.warns(RuntimeWarning):
            q_s = modularity(karate, CouplingSpec(), signed, Partition(labels))
        reduction_exact = reduction_exact and (q_s == q_u)
    ok = separated and matches_oracle and reduction_exact
    report("criterion 7 (signed behavior)", ok,
           f"negative edge endpoints separated: {separated}, "
           f"Q equals exhaustive oracle: {matches_oracle}, "
           f"unsigned reduction exact: {reduction_exact}")


def _timed_instance(n_nodes: int, seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    cells = []
    for _ in range(2):
        edges = []
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                if rng.random() < min(0.9, 8.0 / n_nodes):
                    edges.append((i, j, 1.0))
        if not edges:
            edges.append((0, 1, 1.0))
        cells.append(tuple(edges))
    net = MultilayerNetwork(
        n_nodes=n_nodes,
        aspects=(Aspect("a", ("x", "y")),),
        within_edges=tuple(cells),
    )
    net = net.with_couplings(generate_couplings(net, 0.5, seed + 1))
    params = ModularityParams.for_network(net, gamma=1.0)
    return net, CouplingSpec(omega=0.5), params


def test_criterion_8_complexity_sanity():
    times = {}
    for supra in (128, 256, 512):
        n_nodes = supra // 2
        best = np.inf
        for rep in range(3):
            net, spec, params = _timed_instance(n_nodes, 9000 + supra + rep)
            t0 = time.perf_counter()
            mspec_detect(net, spec, params)
            best = min(best, time.perf_counter() - t0)
        times[supra] = best
    r1 = times[256] / times[128]
    r2 = times[512] / times[256]
    ok = r1 <= 6.0 and r2 <= 6.0
    report("criterion 8 (complexity sanity)", ok,
           f"t(128)={times[128]:.3f}s t(256)={times[256]:.3f}s "
           f"t(512)={times[512]:.3f}s; ratios {r1:.2f}, {r2:.2f} <= 6")
