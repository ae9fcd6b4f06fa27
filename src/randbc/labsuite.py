"""Invariant batteries for the extension laboratory (the `lab` subcommand)."""
import numpy as np

from randbc import extension_lab as lab
from randbc import impedance

GREEN_TOL = 1e-12
EIG_IM_TOL = 1e-10
RESOLVENT_SLACK = 1e-8
SELFADJOINT_TOL = 1e-10
KREIN_TOL = 1e-9
GAP_TOL = 1e-6
CONVERSE_UNITARY_TOL = 1e-6
# samples per model in one window of a stacked battery
_LAB_BLOCK = 16
# the resolvent bound's points z, on a line across the upper half-plane
Z_GRID = [complex(re, im) for re, im in
          zip(np.linspace(-2.0, 2.0, 10), np.linspace(0.4, 3.0, 10))]


def _models(n_values, rng):
    models = []
    for i, n in enumerate(n_values):
        pot = None if i % 2 == 0 else rng.standard_normal(int(n))
        models.append(lab.build_discrete_triple(int(n), h=0.2, potential=pot))
    return models


def _sample_contraction(rng, m=2, idx=0):
    """One contraction matrix; idx cycles strict, boundary-norm and unitary
    cases.  Its norm is checked once, by _stack."""
    if idx % 5 == 4:
        return impedance.haar_unitary(m, rng)
    return impedance.random_contraction(m, rng, boundary=(idx % 5 == 3))


def _stack(ks):
    """One ContractionOp holding the stack of the given matrices; its
    stacked SVD checks every norm."""
    return lab.ContractionOp(np.array(ks))


def _windowed(models, count, draw, check):
    """Yield (i, draw(i), result) for i in range(count), in index order.

    Sample i belongs to models[i % len(models)].  The samples are drawn in
    index order, one window of _LAB_BLOCK consecutive indices per model at a
    time; check(model, samples) evaluates one model's samples of a window
    with stacked calls and returns their results as a list.
    """
    nm = len(models)
    for lo in range(0, count, _LAB_BLOCK * nm):
        window = range(lo, min(lo + _LAB_BLOCK * nm, count))
        samples = [draw(i) for i in window]
        results = [None] * len(samples)
        for mi, model in enumerate(models):
            if samples[mi::nm]:
                results[mi::nm] = check(model, samples[mi::nm])
        yield from zip(window, samples, results)


def run_invariant_suite(seed=20240, n_values=(8, 12, 16), green_pairs=1000,
                        contractions=500, weyl_points=20, krein_triples=200,
                        rank_pairs=100, injectivity_pairs=100) -> dict:
    """Run every extension_lab invariant battery; returns a report dict.

    report["violations"] collects failing cases with enough data to reproduce
    them; an empty list means the suite passed.

    One generator seeded with `seed` draws everything: the models'
    potentials, then each battery's samples in index order, battery after
    battery.  No draw depends on a computed result.  Every battery but the
    Weyl one draws one window at a time, _LAB_BLOCK samples per model, and
    evaluates each model's part of the window with one stacked call per
    linear-algebra step.  The resolvent bound is 1 / sigma_min(T - z), one
    SVD per z over the stack, and the Krein battery evaluates the Weyl
    function at all of a stack's z at once.  So memory is bounded by a
    window whatever the counts: only the running worst values and the
    violations outlive it.  Worst values and violations are taken in index
    order, so the report does not depend on the window size.
    """
    rng = np.random.default_rng(seed)
    models = _models(n_values, rng)
    report = {"seed": seed, "invariants": {}, "violations": []}

    def record(name, worst, tol, extra=None):
        entry = {"max_residual": float(worst), "tolerance": tol}
        if extra:
            entry.update(extra)
        report["invariants"][name] = entry
        return worst <= tol

    # Green identity over random pairs
    def green_draw(i):
        big_n = models[i % len(models)].total_dim
        f = rng.standard_normal(big_n) + 1j * rng.standard_normal(big_n)
        g = rng.standard_normal(big_n) + 1j * rng.standard_normal(big_n)
        return f, g

    def green_checks(model, pairs):
        f, g = (np.array(v) for v in zip(*pairs))
        return lab.green_residual(model, f, g).tolist()

    worst = 0.0
    for _, _, res in _windowed(models, green_pairs, green_draw, green_checks):
        worst = max(worst, res)
    if not record("green_identity", worst, GREEN_TOL,
                  {"pairs": green_pairs}):
        report["violations"].append({"invariant": "green_identity",
                                     "residual": worst})

    # boundary map rank and symmetric core
    for model in models:
        rank = lab.boundary_map_rank(model)
        if rank != 2 * model.boundary_dim:
            report["violations"].append({"invariant": "gamma_rank",
                                         "n": model.n, "rank": rank})
    core_worst = max(lab.symmetric_core_residual(m) for m in models)
    if not record("symmetric_core", core_worst, GREEN_TOL):
        report["violations"].append({"invariant": "symmetric_core",
                                     "residual": core_worst})

    # dissipativity, resolvent bound, unitary <-> selfadjoint
    def contraction_checks(model, cons):
        ext = lab.extension_from_contraction(model, _stack(cons))
        eig_im = ext.eigenvalues().imag.max(axis=-1)
        norms = np.array([ext.resolvent_norm(z) for z in Z_GRID]).T
        sym = np.linalg.norm(ext.t - np.swapaxes(ext.t.conj(), -1, -2), 2,
                             axis=(-2, -1))
        return list(zip(eig_im.tolist(), norms.tolist(), sym.tolist(),
                        ext.contraction.is_unitary.tolist(),
                        ext.contraction.unitary_defect.tolist()))

    worst_im, worst_res, worst_sym, worst_conv = 0.0, 0.0, 0.0, 0.0
    for i, con, (eig_im, norms, sym, unitary, defect) in _windowed(
            models, contractions,
            lambda i: _sample_contraction(rng, 2, i), contraction_checks):
        model = models[i % len(models)]
        worst_im = max(worst_im, eig_im)
        if eig_im > EIG_IM_TOL:
            report["violations"].append(
                {"invariant": "eig_lower_halfplane", "k": con.tolist(),
                 "n": model.n, "max_imag": eig_im})
        for z, nrm in zip(Z_GRID, norms):
            bound = (1.0 + RESOLVENT_SLACK) / z.imag
            worst_res = max(worst_res, nrm * z.imag)
            if nrm > bound:
                report["violations"].append(
                    {"invariant": "resolvent_bound", "k": con.tolist(),
                     "z": [z.real, z.imag], "norm": nrm})
        if unitary:
            worst_sym = max(worst_sym, sym)
            if sym > SELFADJOINT_TOL:
                report["violations"].append(
                    {"invariant": "unitary_selfadjoint", "k": con.tolist(),
                     "residual": sym})
        elif sym <= SELFADJOINT_TOL:
            worst_conv = max(worst_conv, defect)
            if defect > CONVERSE_UNITARY_TOL:
                report["violations"].append(
                    {"invariant": "selfadjoint_implies_unitary",
                     "k": con.tolist(), "defect": defect})
    record("eig_lower_halfplane", worst_im, EIG_IM_TOL,
           {"samples": contractions})
    record("resolvent_bound_scaled", worst_res, 1.0 + RESOLVENT_SLACK)
    record("unitary_selfadjoint", worst_sym, SELFADJOINT_TOL)
    record("selfadjoint_implies_unitary", worst_conv, CONVERSE_UNITARY_TOL)

    # Weyl function Nevanlinna properties
    worst_herg, worst_conj = 0.0, 0.0
    for i in range(weyl_points):
        model = models[i % len(models)]
        z = complex(rng.uniform(-3, 3), rng.uniform(0.2, 3.0))
        if i % 2 == 1:
            z = z.conjugate()
        sample = lab.weyl_function(model, z)
        worst_herg = max(worst_herg, -sample.herglotz_defect())
        conj_m = lab.weyl_function(model, np.conj(z)).m
        worst_conj = max(worst_conj,
                         float(np.linalg.norm(conj_m - sample.m.conj().T, 2)))
    ok_h = record("weyl_herglotz", worst_herg, 1e-12, {"points": weyl_points})
    ok_c = record("weyl_conjugate_symmetry", worst_conj, 1e-10)
    if not ok_h:
        report["violations"].append({"invariant": "weyl_herglotz",
                                     "defect": worst_herg})
    if not ok_c:
        report["violations"].append({"invariant": "weyl_conjugate_symmetry",
                                     "residual": worst_conj})

    # Krein formula
    def krein_draw(i):
        con = _sample_contraction(rng, 2, i)
        return con, complex(rng.uniform(-2, 2), rng.uniform(0.5, 3.0))

    def krein_checks(model, triples):
        cons, zs = zip(*triples)
        return lab.krein_residual(model, _stack(cons), np.array(zs)).tolist()

    worst_krein = 0.0
    for _, (con, z), res in _windowed(models, krein_triples, krein_draw,
                                      krein_checks):
        worst_krein = max(worst_krein, res)
        if res > KREIN_TOL:
            report["violations"].append(
                {"invariant": "krein_formula", "k": con.tolist(),
                 "z": [z.real, z.imag], "residual": res})
    record("krein_formula", worst_krein, KREIN_TOL,
           {"triples": krein_triples})

    # resolvent-difference rank law
    def rank_draw(i):
        k1 = _sample_contraction(rng, 2, i)
        if i % 3 == 0:
            # rank-one perturbation staying contractive; shrink the base
            # first so the perturbation has a healthy scale
            k1 = 0.7 * k1
            u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            pert = np.outer(u, v.conj())
            pert *= 0.1 / np.linalg.norm(pert, 2)
            k2 = k1 + pert
        else:
            k2 = _sample_contraction(rng, 2, i + 1)
        return k1, k2, complex(rng.uniform(-1, 1), rng.uniform(0.7, 2.5))

    def rank_checks(model, pairs):
        k1s, k2s, zs = zip(*pairs)
        k1, k2 = _stack(k1s), _stack(k2s)
        got = lab.resolvent_difference_rank(model, k1, k2, np.array(zs))
        return list(zip(got.tolist(), lab.matrix_rank(k2.k - k1.k).tolist()))

    failures = 0
    for _, (k1, k2, _), (got, want) in _windowed(models, rank_pairs,
                                                 rank_draw, rank_checks):
        if got != want:
            failures += 1
            report["violations"].append(
                {"invariant": "rank_law", "k1": k1.tolist(),
                 "k2": k2.tolist(), "got": got, "want": want})
    report["invariants"]["rank_law"] = {"pairs": rank_pairs,
                                        "failures": failures, "tolerance": 0}

    # injectivity spot check of K -> domain
    def injectivity_draw(i):
        return _sample_contraction(rng, 2, i), _sample_contraction(rng, 2, i + 2)

    def injectivity_checks(model, pairs):
        k1, k2 = (_stack(ks) for ks in zip(*pairs))
        near = np.linalg.norm(k1.k - k2.k, 2, axis=(-2, -1)) < 1e-3
        gaps = lab.domain_gap(model, k1, k2).tolist()
        return [None if skip else gap for skip, gap in zip(near, gaps)]

    worst_gap_violation = 0.0
    for _, (k1, k2), gap in _windowed(models, injectivity_pairs,
                                      injectivity_draw, injectivity_checks):
        if gap is not None and gap < GAP_TOL:
            worst_gap_violation = max(worst_gap_violation, GAP_TOL - gap)
            report["violations"].append(
                {"invariant": "injectivity", "k1": k1.tolist(),
                 "k2": k2.tolist(), "gap": gap})
    report["invariants"]["injectivity"] = {
        "pairs": injectivity_pairs, "tolerance": GAP_TOL,
        "max_violation": worst_gap_violation}

    report["passed"] = not report["violations"]
    return report
