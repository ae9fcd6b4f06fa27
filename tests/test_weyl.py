"""Counting functions, Weyl fits, compactness criteria, Monte Carlo transition."""
import itertools
import math

import numpy as np
import pytest

from randbc import impedance as imp
from randbc import weyl


def test_circle_spectrum_counts():
    spec = weyl.boundary_spectrum("circle", 100.0)
    cf = weyl.CountingFunction(spec)
    assert cf(100.0) == 21  # k=0 once, k=1..10 twice
    assert spec.mu[0] == 0.0 and spec.mult[0] == 1


def test_sphere_spectrum_counts():
    spec = weyl.boundary_spectrum("sphere", 6.0)
    assert list(spec.mu) == [0.0, 2.0, 6.0]
    assert list(spec.mult) == [1, 3, 5]
    assert weyl.CountingFunction(spec)(6.0) == 9


def test_counting_function_invariants():
    spec = weyl.boundary_spectrum("circle", 400.0)
    cf = weyl.CountingFunction(spec)
    lam = np.linspace(-5.0, 400.0, 300)
    vals = np.asarray(cf(lam))
    assert np.all(np.diff(vals) >= 0)
    assert np.all(vals[lam < 0] == 0)
    expanded = spec.expanded()
    for j in (1, 5, 17):
        assert cf(expanded[j - 1]) >= j


def test_circle_counting_ratio_limit():
    spec = weyl.boundary_spectrum("circle", 1.0e6)
    cf = weyl.CountingFunction(spec)
    assert abs(cf(1.0e6) / math.sqrt(1.0e6) - 2.0) <= 0.01 * 2.0


def test_weyl_fit_circle_and_sphere():
    for model, target in (("circle", 0.5), ("sphere", 1.0)):
        spec = weyl.boundary_spectrum(model, 1.0e7)
        fit = weyl.weyl_exponent_fit(weyl.CountingFunction(spec), 1.0e3, 1.0e7)
        assert abs(fit.exponent - target) <= 0.02


def test_weyl_fit_degenerate_constant():
    spec = weyl.BoundarySpectrum(dim=2, mu=np.array([0.0]),
                                 mult=np.array([3]), mu_max=1e7)
    fit = weyl.weyl_exponent_fit(weyl.CountingFunction(spec), 1e3, 1e7)
    assert fit.exponent == 0.0


def test_spectrum_by_mode_count_matches_enumeration():
    spec = weyl.boundary_spectrum("sphere", 2000.0)
    expanded = spec.expanded()
    by_count = weyl.spectrum_by_mode_count("sphere", 500)
    assert np.array_equal(by_count, expanded[:500])


def test_series_point_mass_compact():
    spec = weyl.boundary_spectrum("circle", 1e6)
    v = weyl.series_criterion(imp.PointMass(1j * 2.0), spec)
    assert v.verdict == weyl.COMPACT
    # finitely many nonzero terms at every delta
    assert all(math.isfinite(e["value"]) for e in v.evidence.values())


def test_series_pareto_verdicts_circle():
    spec = weyl.boundary_spectrum("circle", 1e6)
    assert weyl.series_criterion(imp.ParetoImag(3.0), spec).verdict == weyl.COMPACT
    assert (weyl.series_criterion(imp.ParetoImag(0.5), spec).verdict
            == weyl.NOT_COMPACT)
    assert (weyl.series_criterion(imp.ParetoImag(1.0), spec).verdict
            == weyl.NOT_COMPACT)


def test_series_pareto_verdicts_sphere():
    spec = weyl.boundary_spectrum("sphere", 1e6)
    assert weyl.series_criterion(imp.ParetoImag(3.0), spec).verdict == weyl.COMPACT
    assert (weyl.series_criterion(imp.ParetoImag(2.0), spec).verdict
            == weyl.NOT_COMPACT)


def test_expectation_matches_series_for_bounded(rng):
    # the proof identity: sum mult (1-F) = int N(s^2/d^2) dF, exactly
    spec_c = weyl.boundary_spectrum("circle", 1e6)
    spec_s = weyl.boundary_spectrum("sphere", 1e6)
    dists = [imp.UniformImagSegment(0.0, 2.0), imp.PointMass(1.3j),
             imp.UniformDisc(1.0, 1.2)]
    for spec in (spec_c, spec_s):
        for dist in dists:
            sv = weyl.series_criterion(dist, spec)
            ev = weyl.expectation_criterion(dist, spec)
            for delta in sv.deltas:
                a = sv.evidence[delta]["value"]
                b = ev.evidence[delta]["value"]
                assert abs(a - b) <= 1e-6 * max(1.0, abs(a))


def test_expectation_pareto_divergence():
    spec = weyl.boundary_spectrum("circle", 1e6)
    v = weyl.expectation_criterion(imp.ParetoImag(1.0), spec)
    assert v.verdict == weyl.NOT_COMPACT


def test_expectation_point_mass_zero():
    spec = weyl.boundary_spectrum("circle", 1e4)
    v = weyl.expectation_criterion(imp.PointMass(0.0), spec)
    assert v.verdict == weyl.COMPACT


def test_moment_criterion_values():
    v = weyl.moment_criterion(imp.ParetoImag(1.5, 1.0), 2)
    assert v.verdict == weyl.COMPACT
    assert abs(v.evidence["value"] - 3.0) <= 1e-12
    assert weyl.moment_criterion(imp.ParetoImag(2.0), 3).verdict == weyl.NOT_COMPACT
    v0 = weyl.moment_criterion(imp.PointMass(0.5 + 0.5j), 3)
    assert v0.verdict == weyl.COMPACT
    assert abs(v0.evidence["value"] - abs(0.5 + 0.5j) ** 2) <= 1e-12


def test_criteria_cross_consistency_builtins():
    from randbc.cli import builtin_distribution_family

    for model in ("circle", "sphere"):
        spec = weyl.boundary_spectrum(model, 1e6)
        for label, dist in builtin_distribution_family():
            verdicts = [weyl.series_criterion(dist, spec),
                        weyl.expectation_criterion(dist, spec),
                        weyl.moment_criterion(dist, spec.dim)]
            assert weyl.verdicts_consistent(verdicts), (model, label)


def test_prefix_removal_invariance():
    spec = weyl.boundary_spectrum("circle", 1e6)
    dist = imp.ParetoImag(3.0)
    base = weyl.series_criterion(dist, spec).verdict
    for n in (10, 100, 1000):
        dropped = weyl.drop_prefix(spec, n)
        assert dropped.n_modes == spec.n_modes - n
        assert weyl.series_criterion(dist, dropped).verdict == base


def test_drop_prefix_counts():
    spec = weyl.boundary_spectrum("sphere", 100.0)
    dropped = weyl.drop_prefix(spec, 2)  # splits the l=1 block
    assert dropped.mult[0] == 2
    assert dropped.mu[0] == 2.0


def test_monte_carlo_transition_circle_spec_example():
    # pareto a=3 on the circle: fraction(eps=0.1, M) >= 0.95, increasing in M;
    # a=0.5: fraction <= 0.05, decreasing
    entries = weyl.monte_carlo_transition(
        [("a=3", imp.ParetoImag(3.0)), ("a=0.5", imp.ParetoImag(0.5))],
        "circle", trials=400, m_modes=10_000,
        stream=imp.SeededStream(2024, 7), eps_grid=(0.1,))
    good, bad = entries
    m = 10_000
    fracs = [good.fraction(0.1, m // 4), good.fraction(0.1, m // 2),
             good.fraction(0.1, m)]
    assert fracs[-1] >= 0.95
    assert fracs[0] <= fracs[1] + 0.02 and fracs[1] <= fracs[2] + 0.02
    bad_fracs = [bad.fraction(0.1, m // 4), bad.fraction(0.1, m // 2),
                 bad.fraction(0.1, m)]
    assert bad_fracs[-1] <= 0.05
    assert bad_fracs[0] >= bad_fracs[1] - 0.02 >= bad_fracs[2] - 0.04


def test_transition_thread_count_invariance():
    kwargs = dict(dists=[("a=2", imp.ParetoImag(2.0))], model="circle",
                  trials=64, m_modes=1024,
                  stream=imp.SeededStream(99, 3), eps_grid=(0.75, 0.1))
    one = weyl.monte_carlo_transition(threads=1, **kwargs)
    four = weyl.monte_carlo_transition(threads=4, **kwargs)
    for c1, c4 in zip(one[0].cells, four[0].cells):
        assert c1.fraction == c4.fraction
    assert one[0].tail_stat_mean == four[0].tail_stat_mean



def _reference_transition(dists, model, trials, m_modes, stream, eps_grid):
    # the per-law loop: each law samples complex zeta from the trial's
    # stream and takes abs
    sqrt_mu = np.sqrt(weyl.spectrum_by_mode_count(model, m_modes))
    truncations = [m_modes // 4, m_modes // 2, m_modes]
    out = []
    for _, dist in dists:
        stats = {mt: np.empty(trials) for mt in truncations}
        for t in range(trials):
            rng = stream.child(t).generator()
            zeta_abs = np.abs(dist.sample(m_modes, rng))
            ratio = zeta_abs / np.where(sqrt_mu > 0, sqrt_mu, np.inf)
            for mt in truncations:
                stats[mt][t] = ratio[mt // 2:mt].max()
        out.append(([float(np.mean(stats[mt] < eps))
                     for eps in eps_grid for mt in truncations],
                    float(np.mean(stats[m_modes]))))
    return out


def test_transition_equals_per_law_sampling():
    # one uniform draw per trial shared by all laws through abs_quantile
    # must give exactly what sampling each law from the trial's stream gave
    dists = [(f"a={a:g}", imp.ParetoImag(a, 1.0)) for a in (0.5, 1, 2, 3)]
    dists.append(("table", imp.BoundedCustom([0.0, 2.0, 50.0],
                                             [0.0, 0.5, 1.0])))
    # a plateau (equal consecutive F) makes abs_quantile jump
    dists.append(("plateau", imp.BoundedCustom([0.0, 1.0, 2.0, 3.0, 9.0],
                                               [0.0, 0.3, 0.3, 0.3, 1.0])))
    eps_grid = (0.75, 0.1, 0.01)
    # m_modes = 8, the smallest allowed, has windows of 1, 2 and 4 modes
    for model, m_modes in itertools.product(("circle", "sphere"), (8, 1030)):
        stream = imp.SeededStream(31, 4)
        want = _reference_transition(dists, model, 40, m_modes, stream,
                                     eps_grid)
        for threads in (1, 3):
            got = weyl.monte_carlo_transition(
                dists, model, trials=40, m_modes=m_modes, stream=stream,
                eps_grid=eps_grid, threads=threads)
            assert [([c.fraction for c in e.cells], e.tail_stat_mean)
                    for e in got] == want, (model, m_modes, threads)


@pytest.mark.parametrize("model", ["circle", "sphere"])
@pytest.mark.parametrize("m_modes", [8, 37, 400])
def test_window_records_max_equals_brute_force(model, m_modes):
    # the records screen against the full-window maximum, bit for bit, on
    # uniforms with many exact ties and on the spectra's equal-mu runs
    # (circle multiplicity 2, sphere 2l + 1)
    truncations = [m_modes // 4, m_modes // 2, m_modes]
    lo = truncations[0] // 2
    starts = [mt // 2 - lo for mt in truncations]
    sqrt_mu = np.sqrt(weyl.spectrum_by_mode_count(model, m_modes)[lo:])
    n = m_modes - lo
    rng = np.random.default_rng(5)
    draws = [rng.integers(0, 4, n) / 4.0,          # four values, many ties
             rng.integers(0, 2, n) * 0.5 + 0.25,   # two values
             np.full(n, 0.5),                      # all tied
             np.linspace(0.0, 0.999, n),           # every mode a record
             np.linspace(0.999, 0.0, n),           # one record per window
             np.repeat(rng.random(n // 3 + 1), 3)[:n],
             rng.random(n)]
    laws = [imp.ParetoImag(a, 1.0) for a in (0.5, 2.0)]
    laws += [imp.BoundedCustom([0.0, 2.0, 50.0], [0.0, 0.5, 1.0]),
             imp.BoundedCustom([0.0, 1.0, 2.0, 3.0, 9.0],
                               [0.0, 0.25, 0.25, 0.5, 1.0])]
    for u in draws:
        idx, offsets = weyl._window_records(u, starts)
        assert (np.diff(offsets) > 0).all() and offsets[0] == 0
        for dist in laws:
            brute = np.maximum.reduceat(dist.abs_quantile(u) / sqrt_mu,
                                        starts)
            screened = np.maximum.reduceat(
                dist.abs_quantile(u[idx]) / sqrt_mu[idx], offsets)
            assert screened.tobytes() == brute.tobytes(), dist.label()


def test_sample_goes_through_abs_quantile():
    laws = [(imp.ParetoImag(a, 1.5), 1j) for a in (0.5, 1.0, 2.0, 3.0)]
    laws.append((imp.BoundedCustom([0.0, 1.0, 3.0], [0.0, 0.4, 0.9]),
                 1.0 + 0j))
    for dist, phase in laws:
        stream = imp.SeededStream(8, 2)
        got = dist.sample(777, stream.generator())
        want = phase * dist.abs_quantile(stream.generator().random(777))
        assert got.dtype == want.dtype == complex
        assert got.tobytes() == want.tobytes(), dist.label()


@pytest.mark.parametrize("dist", [imp.UniformDisc(1.0, 1.2),
                                  imp.HalfNormalReal(1.0)])
def test_transition_rejects_law_without_abs_quantile(dist):
    with pytest.raises(weyl.WeylError, match="abs_quantile"):
        weyl.monte_carlo_transition([("x", dist)], "circle", trials=4,
                                    m_modes=64, stream=imp.SeededStream(1))

def test_limit_criterion_labelling():
    entry = weyl.TransitionEntry(
        label="x",
        cells=[weyl.TransitionCell(0.75, m, f)
               for m, f in ((250, 0.91), (500, 0.95), (1000, 0.99))],
        tail_stat_mean=0.1)
    v = weyl.limit_criterion_from_transition(entry, 0.75, (250, 500, 1000))
    assert v.verdict == weyl.COMPACT


def test_bounded_custom_incomplete_table_inconclusive():
    dist = imp.BoundedCustom([0.0, 1.0, 3.0], [0.0, 0.4, 0.9])
    spec = weyl.boundary_spectrum("circle", 1e4)
    assert weyl.series_criterion(dist, spec).verdict == weyl.INCONCLUSIVE
    assert weyl.expectation_criterion(dist, spec).verdict == weyl.INCONCLUSIVE
    assert weyl.moment_criterion(dist, 2).verdict == weyl.INCONCLUSIVE
