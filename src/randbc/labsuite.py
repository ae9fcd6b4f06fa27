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


def _models(n_values, rng):
    models = []
    for i, n in enumerate(n_values):
        pot = None if i % 2 == 0 else rng.standard_normal(int(n))
        models.append(lab.build_discrete_triple(int(n), h=0.2, potential=pot))
    return models


def _sample_contraction(rng, m=2, idx=0):
    # cycle strict / boundary-norm / unitary cases
    if idx % 5 == 4:
        return lab.ContractionOp(impedance.haar_unitary(m, rng))
    return impedance.random_contraction(m, rng, boundary=(idx % 5 == 3))


def run_invariant_suite(seed=20240, n_values=(8, 12, 16), green_pairs=1000,
                        contractions=500, weyl_points=20, krein_triples=200,
                        rank_pairs=100, injectivity_pairs=100) -> dict:
    """Run every extension_lab invariant battery; returns a report dict.

    report["violations"] collects failing cases with enough data to reproduce
    them; an empty list means the suite passed.
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
    worst = 0.0
    for i in range(green_pairs):
        model = models[i % len(models)]
        big_n = model.total_dim
        f = rng.standard_normal(big_n) + 1j * rng.standard_normal(big_n)
        g = rng.standard_normal(big_n) + 1j * rng.standard_normal(big_n)
        worst = max(worst, lab.green_residual(model, f, g))
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
    z_grid = [complex(re, im) for re, im in
              zip(np.linspace(-2.0, 2.0, 10), np.linspace(0.4, 3.0, 10))]
    worst_im, worst_res, worst_sym, worst_conv = 0.0, 0.0, 0.0, 0.0
    for i in range(contractions):
        model = models[i % len(models)]
        con = _sample_contraction(rng, 2, i)
        ext = lab.extension_from_contraction(model, con)
        eig_im = float(ext.eigenvalues().imag.max())
        worst_im = max(worst_im, eig_im)
        if eig_im > EIG_IM_TOL:
            report["violations"].append(
                {"invariant": "eig_lower_halfplane", "k": con.k.tolist(),
                 "n": model.n, "max_imag": eig_im})
        # spectral norms over z_grid from one stacked inverse and SVD per
        # contraction; stacking the contractions too costs memory
        norms = np.linalg.svd(ext.resolvent(np.array(z_grid)),
                              compute_uv=False)[:, 0]
        for z, nrm in zip(z_grid, norms.tolist()):
            bound = (1.0 + RESOLVENT_SLACK) / z.imag
            worst_res = max(worst_res, nrm * z.imag)
            if nrm > bound:
                report["violations"].append(
                    {"invariant": "resolvent_bound", "k": con.k.tolist(),
                     "z": [z.real, z.imag], "norm": nrm})
        sym = float(np.linalg.norm(ext.t - ext.t.conj().T, 2))
        if con.is_unitary:
            worst_sym = max(worst_sym, sym)
            if sym > SELFADJOINT_TOL:
                report["violations"].append(
                    {"invariant": "unitary_selfadjoint", "k": con.k.tolist(),
                     "residual": sym})
        elif sym <= SELFADJOINT_TOL:
            defect = float(np.linalg.norm(
                con.k.conj().T @ con.k - np.eye(con.m), 2))
            worst_conv = max(worst_conv, defect)
            if defect > CONVERSE_UNITARY_TOL:
                report["violations"].append(
                    {"invariant": "selfadjoint_implies_unitary",
                     "k": con.k.tolist(), "defect": defect})
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
    worst_krein = 0.0
    for i in range(krein_triples):
        model = models[i % len(models)]
        con = _sample_contraction(rng, 2, i)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 3.0))
        res = lab.krein_residual(model, con, z)
        worst_krein = max(worst_krein, res)
        if res > KREIN_TOL:
            report["violations"].append(
                {"invariant": "krein_formula", "k": con.k.tolist(),
                 "z": [z.real, z.imag], "residual": res})
    record("krein_formula", worst_krein, KREIN_TOL,
           {"triples": krein_triples})

    # resolvent-difference rank law
    failures = 0
    for i in range(rank_pairs):
        model = models[i % len(models)]
        k1 = _sample_contraction(rng, 2, i)
        if i % 3 == 0:
            # rank-one perturbation staying contractive; shrink the base
            # first so the perturbation has a healthy scale
            k1 = lab.ContractionOp(0.7 * k1.k)
            u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            pert = np.outer(u, v.conj())
            pert *= 0.1 / np.linalg.norm(pert, 2)
            k2 = lab.ContractionOp(k1.k + pert)
        else:
            k2 = _sample_contraction(rng, 2, i + 1)
        z = complex(rng.uniform(-1, 1), rng.uniform(0.7, 2.5))
        got = lab.resolvent_difference_rank(model, k1, k2, z)
        want = lab.matrix_rank(k2.k - k1.k)
        if got != want:
            failures += 1
            report["violations"].append(
                {"invariant": "rank_law", "k1": k1.k.tolist(),
                 "k2": k2.k.tolist(), "got": got, "want": want})
    report["invariants"]["rank_law"] = {"pairs": rank_pairs,
                                        "failures": failures, "tolerance": 0}

    # injectivity spot check of K -> domain
    worst_gap_violation = 0.0
    for i in range(injectivity_pairs):
        model = models[i % len(models)]
        k1 = _sample_contraction(rng, 2, i)
        k2 = _sample_contraction(rng, 2, i + 2)
        if np.linalg.norm(k1.k - k2.k, 2) < 1e-3:
            continue
        gap = lab.domain_gap(model, k1, k2)
        if gap < GAP_TOL:
            worst_gap_violation = max(worst_gap_violation, GAP_TOL - gap)
            report["violations"].append(
                {"invariant": "injectivity", "k1": k1.k.tolist(),
                 "k2": k2.k.tolist(), "gap": gap})
    report["invariants"]["injectivity"] = {
        "pairs": injectivity_pairs, "tolerance": GAP_TOL,
        "max_violation": worst_gap_violation}

    report["passed"] = not report["violations"]
    return report
