"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS lines; every criterion also asserts its stated runtime budget.
"""
import hashlib
import json
import os
import time

import numpy as np
import pytest

from randbc import cli
from randbc import disk_model as dm
from randbc import extension_lab as lab
from randbc import impedance as imp
from randbc import weyl
from randbc.disk_model import MaterialParams
from randbc.specfun import find_real_roots

UNIT = MaterialParams()


def _report(num, text):
    print(f"ACCEPTANCE {num}: {text} ... PASS")


def _models(rng, ns=(8, 12, 16)):
    out = []
    for i, n in enumerate(ns):
        pot = None if i % 2 == 0 else rng.standard_normal(n)
        out.append(lab.build_discrete_triple(n, h=0.2, potential=pot))
    return out


def test_acceptance_01_krein_formula():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        n = int(rng.integers(6, 33))
        pot = rng.standard_normal(n) if i % 2 else None
        model = lab.build_discrete_triple(n, h=0.2, potential=pot)
        con = lab.ContractionOp(
            imp.random_contraction(2, rng, boundary=(i % 4 == 0)))
        z = complex(rng.uniform(-2, 2), rng.uniform(0.4, 3.0))
        worst = max(worst, lab.krein_residual(model, con, z))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9, f"max Krein residual {worst:.3e}"
    assert elapsed <= 10.0, f"runtime {elapsed:.1f}s > 10s"
    _report(1, f"Krein formula residual {worst:.2e} over 200 triples "
               f"({elapsed:.1f}s)")


def test_acceptance_02_m_dissipativity():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    models = _models(rng)
    z_grid = [complex(re, im) for re, im in
              zip(np.linspace(-2.0, 2.0, 10), np.linspace(0.3, 3.0, 10))]
    worst_im, worst_scaled = -np.inf, 0.0
    for i in range(500):
        model = models[i % 3]
        con = lab.ContractionOp(
            imp.random_contraction(2, rng, boundary=(i % 3 == 0)))
        ext = lab.extension_from_contraction(model, con)
        worst_im = max(worst_im, float(ext.eigenvalues().imag.max()))
        for z in z_grid:
            nrm = float(np.linalg.norm(ext.resolvent(z), 2))
            worst_scaled = max(worst_scaled, nrm * z.imag)
    worst_sym = 0.0
    for i in range(50):
        model = models[i % 3]
        con = lab.ContractionOp(imp.haar_unitary(2, rng))
        ext = lab.extension_from_contraction(model, con)
        worst_sym = max(worst_sym,
                        float(np.linalg.norm(ext.t - ext.t.conj().T, 2)))
    elapsed = time.perf_counter() - t0
    assert worst_im <= 1e-10, f"eigenvalue imag part {worst_im:.3e}"
    assert worst_scaled <= 1.0 + 1e-8, f"resolvent bound factor {worst_scaled}"
    assert worst_sym <= 1e-10, f"selfadjointness residual {worst_sym:.3e}"
    assert elapsed <= 20.0, f"runtime {elapsed:.1f}s > 20s"
    _report(2, f"dissipativity: max Im lam {worst_im:.1e}, resolvent factor "
               f"{worst_scaled:.10f}, unitary symmetry {worst_sym:.1e} "
               f"({elapsed:.1f}s)")


def test_acceptance_03_rank_law():
    rng = np.random.default_rng(103)
    models = _models(rng)
    failures = 0
    for i in range(100):
        model = models[i % 3]
        k1 = lab.ContractionOp(imp.random_contraction(2, rng))
        if i % 3 == 0:
            base = lab.ContractionOp(0.7 * k1.k)
            u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            pert = np.outer(u, v.conj())
            k2 = lab.ContractionOp(base.k + 0.1 * pert / np.linalg.norm(pert, 2))
            k1 = base
        elif i % 7 == 0:
            k1 = lab.ContractionOp(np.eye(2, dtype=complex))
            k2 = lab.ContractionOp(-np.eye(2, dtype=complex))
        else:
            k2 = lab.ContractionOp(imp.random_contraction(2, rng))
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.5, 2.5))
        if lab.resolvent_difference_rank(model, k1, k2, z) != \
                lab.matrix_rank(k2.k - k1.k):
            failures += 1
    assert failures == 0, f"{failures} rank-law failures"
    _report(3, "resolvent-difference rank equals rank(K2-K1) on 100 pairs")


def test_acceptance_04_ntd_herglotz_conjugate():
    rng = np.random.default_rng(104)
    sign_violations = 0
    worst_conj = 0.0
    for _ in range(10_000):
        mode = int(rng.integers(0, 41))
        lam = complex(rng.uniform(-8.0, 8.0), rng.uniform(0.02, 4.0))
        sample = dm.ntd_mode(mode, lam, UNIT)
        if lam.imag * sample.value.imag < -1e-10:
            sign_violations += 1
        conj_val = dm.ntd_mode(mode, np.conj(lam), UNIT).value
        worst_conj = max(worst_conj, abs(conj_val - np.conj(sample.value))
                         / max(1.0, abs(sample.value)))
    assert sign_violations == 0
    assert worst_conj <= 1e-10
    _report(4, f"NtD Herglotz sign violations 0/10000, conjugate symmetry "
               f"{worst_conj:.1e}")


def test_acceptance_05_secular_vs_fd_oracle():
    rng = np.random.default_rng(105)
    t0 = time.perf_counter()
    # Neumann limit across modes 0..10: solver roots vs direct derivative
    # brackets of the radial function
    for mode in range(11):
        window = (0.2, mode + 12.5)
        got = dm.solve_mode_eigenvalues(mode, 0.0, UNIT, window).eigenvalues
        direct = find_real_roots(
            lambda lam, k=mode: dm.secular_value(k, 0.0, lam, UNIT).real,
            window, min_spacing=1.0).roots
        assert len(got) == len(direct) >= 3
        for a, b in zip(got, direct):
            assert abs(a.real - b) <= 1e-8
    # Dirichlet limit |zeta| = 1e6
    for mode in range(11):
        window = (0.2, mode + 12.5)
        roots = dm.solve_mode_eigenvalues(mode, 1e6, UNIT, window).eigenvalues
        diri = dm.dirichlet_eigenvalues(mode, UNIT, window)
        assert roots and diri
        for got in roots[:3]:
            assert min(abs(got - d) for d in diri) <= 1e-4
    # 50 random impedances in the right half-disc of radius 5
    worst_rel = 0.0
    for i in range(50):
        mode = i % 11
        while True:
            zeta = complex(rng.uniform(0, 5), rng.uniform(-5, 5))
            if abs(zeta) <= 5.0:
                break
        window = (0.2, mode + 12.5)
        sec = dm.solve_mode_eigenvalues(mode, zeta, UNIT, window).eigenvalues
        take = min(3, len(sec))
        assert take >= 1
        fd = dm.fd_oracle(mode, zeta, UNIT, grid=1024, window=window,
                          n_values=take)
        assert len(fd) == take, (mode, zeta, sec, fd)
        for s, f in zip(sec[:take], fd):
            worst_rel = max(worst_rel, abs(s - f) / abs(s))
    elapsed = time.perf_counter() - t0
    assert worst_rel <= 1e-4, f"secular vs FD relative {worst_rel:.2e}"
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s > 60s"
    _report(5, f"secular vs FD oracle: worst relative {worst_rel:.2e} "
               f"({elapsed:.1f}s)")


def test_acceptance_06_route_equivalence():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(1000):
        mode = int(rng.integers(0, 41))
        zeta = complex(rng.uniform(0, 5), rng.uniform(-5, 5))
        lam = complex(rng.uniform(0.1, 15.0), rng.uniform(-2.0, 2.0))
        worst = max(worst,
                    dm.contraction_route_residual(mode, zeta, lam, UNIT))
    assert worst <= 1e-9, f"cross-residual {worst:.2e}"
    _report(6, f"contraction/impedance route cross-residual {worst:.2e} "
               f"over 1000 samples")


def test_acceptance_07_weyl_exponents():
    t0 = time.perf_counter()
    results = {}
    for model, target in (("circle", 0.5), ("sphere", 1.0)):
        spec = weyl.boundary_spectrum(model, 1.0e7)
        fit = weyl.weyl_exponent_fit(weyl.CountingFunction(spec), 1.0e3, 1.0e7)
        assert abs(fit.exponent - target) <= 0.02, (model, fit.exponent)
        results[model] = fit.exponent
    elapsed = time.perf_counter() - t0
    assert elapsed <= 5.0
    _report(7, f"Weyl exponents circle {results['circle']:.4f}, "
               f"sphere {results['sphere']:.4f} ({elapsed:.2f}s)")


def test_acceptance_08_criterion_equivalence():
    dists = [imp.PointMass(1.3j), imp.UniformDisc(1.0, 1.2),
             imp.UniformImagSegment(0.0, 2.0)]
    worst = 0.0
    for model in ("circle", "sphere"):
        spec = weyl.boundary_spectrum(model, 1.0e6)
        for dist in dists:
            sv = weyl.series_criterion(dist, spec)
            ev = weyl.expectation_criterion(dist, spec)
            for delta in sv.deltas:
                a = sv.evidence[delta]["value"]
                b = ev.evidence[delta]["value"]
                worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    assert worst <= 1e-6, f"series vs expectation relative gap {worst:.2e}"
    _report(8, f"series/expectation identity gap {worst:.2e} "
               f"(3 kinds x 2 boundaries x delta grid)")


def test_acceptance_09_pareto_transition():
    t0 = time.perf_counter()
    a_grid = (0.5, 1.0, 1.5, 2.0, 3.0)
    trials, m_modes = 1000, 10_000
    eps_level = 0.75
    for model, a_c in (("circle", 1.0), ("sphere", 2.0)):
        spec = weyl.boundary_spectrum(model, 1.0e6)
        verdicts = {}
        for a in a_grid:
            dist = imp.ParetoImag(a, 1.0)
            vs = [weyl.series_criterion(dist, spec),
                  weyl.expectation_criterion(dist, spec),
                  weyl.moment_criterion(dist, spec.dim)]
            assert weyl.verdicts_consistent(vs)
            verdicts[a] = vs[0].verdict
        # analytic flip exactly at the critical exponent a_c = d-1
        for a in a_grid:
            expect = weyl.COMPACT if a > a_c else weyl.NOT_COMPACT
            assert verdicts[a] == expect, (model, a, verdicts[a])
        dists = [(f"a={a:g}", imp.ParetoImag(a, 1.0))
                 for a in (a_c - 0.5, a_c + 1.0)]
        entries = weyl.monte_carlo_transition(
            dists, model, trials, m_modes,
            imp.SeededStream(900, 1 if model == "circle" else 2),
            eps_grid=(eps_level, 0.1, 0.01))
        truncs = [m_modes // 4, m_modes // 2, m_modes]
        noncompact, compact = entries
        fr_c = [compact.fraction(eps_level, m) for m in truncs]
        assert fr_c[-1] >= 0.95, (model, fr_c)
        assert fr_c[0] <= fr_c[1] + 0.02 and fr_c[1] <= fr_c[2] + 0.02, \
            (model, fr_c)
        fr_n = [noncompact.fraction(eps_level, m) for m in truncs]
        assert fr_n[-1] <= 0.05, (model, fr_n)
        assert fr_n[0] >= fr_n[1] - 0.02 and fr_n[1] >= fr_n[2] - 0.02, \
            (model, fr_n)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s > 120s"
    _report(9, f"Pareto transition: verdict flips at a_c, MC fractions at "
               f"eps={eps_level} pass on both sides ({elapsed:.1f}s)")


def test_acceptance_10_zero_one_invariance():
    from randbc.cli import builtin_distribution_family

    for model in ("circle", "sphere"):
        spec = weyl.boundary_spectrum(model, 1.0e6)
        for label, dist in builtin_distribution_family():
            base = [weyl.series_criterion(dist, spec).verdict,
                    weyl.expectation_criterion(dist, spec).verdict,
                    weyl.moment_criterion(dist, spec.dim).verdict]
            for prefix in (10, 100, 1000):
                dropped = weyl.drop_prefix(spec, prefix)
                again = [weyl.series_criterion(dist, dropped).verdict,
                         weyl.expectation_criterion(dist, dropped).verdict,
                         weyl.moment_criterion(dist, dropped.dim).verdict]
                assert again == base, (model, label, prefix, base, again)
    _report(10, "verdicts invariant under removal of the first 10/100/1000 "
                "boundary eigenvalues for every built-in distribution")


TRANSITION_CFG = """
[run]
seed = 271828
[transition]
a_grid = 0.5, 1.5, 3
trials = 200
m_modes = 2000
boundaries = circle, sphere
"""


def test_acceptance_11_reproducibility(tmp_path):
    cfg = tmp_path / "transition.ini"
    cfg.write_text(TRANSITION_CFG)
    digests = []
    for name, threads in (("t1", "1"), ("t6", "6")):
        out = str(tmp_path / name)
        rc = cli.main(["transition", str(cfg), "--out", out,
                       "--threads", threads])
        assert rc == 0
        entry = {}
        for fname in ("transition.csv", "transition_summary.json",
                      "config_echo.ini"):
            entry[fname] = hashlib.sha256(
                open(os.path.join(out, fname), "rb").read()).hexdigest()
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert set(manifest["files"]) >= set(entry)
        digests.append(entry)
    assert digests[0] == digests[1]
    _report(11, "transition outputs byte-identical across thread counts")
