"""Counting functions, Weyl fits, compactness criteria, Monte Carlo transition."""
import hashlib
import itertools
import math
import os
import sys

import mpmath
import numpy as np
import pytest

from randbc import cli
from randbc import impedance as imp
from randbc import weyl

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs")


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


@pytest.mark.parametrize("s", [1.0001, 1.01, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 8.0])
def test_hurwitz_zeta_against_mpmath(s):
    with mpmath.workdps(50):
        for q in (1, 2, 3, 10, 101, 3163, 1e5, 1e7):
            want = mpmath.zeta(mpmath.mpf(s), mpmath.mpf(q))
            got = weyl.hurwitz_zeta(s, q)
            assert abs((mpmath.mpf(got) - want) / want) <= 1e-15, (s, q)


def test_scaled_hurwitz_zeta_against_mpmath():
    # r^s zeta(s, q) with r inside each term, also where r^s overflows
    with mpmath.workdps(50):
        for s, q, r in ((2.5, 101, 100.0), (8.0, 3163, 3000.5),
                        (40.0, 1e10 + 1, 1e10), (20.0, 2.0 ** 52, 2.0 ** 52)):
            want = mpmath.mpf(r) ** s * mpmath.zeta(s, q)
            got = weyl.hurwitz_zeta(s, q, r)
            assert abs((mpmath.mpf(got) - want) / want) <= 1e-14, (s, q, r)


def test_pareto_verdicts_where_the_ratio_power_overflows():
    # (s_min / delta)^a = 1e400 at a = 40, delta = 1e-10: the tail past the
    # head is finite, so all four series and expectation verdicts are
    # compact; on the circle the tail is the head's 2 * 10^10 modes plus
    # 2 sum_{j > 10^10} (10^10 / j)^40
    dist = imp.ParetoImag(40.0, 1.0)
    for model in ("circle", "sphere"):
        spec = weyl.boundary_spectrum(model, 50.0)
        series, expectation, _ = weyl.standard_verdicts(dist, spec, (1e-10,))
        assert series.verdict == expectation.verdict == weyl.COMPACT, model
    lo, hi, certified = weyl._analytic_tail(dist, 2, 1e-10, 0)
    with mpmath.workdps(30):
        want = 2e10 + 2 * mpmath.mpf(1e10) ** 40 * mpmath.zeta(40, 1e10 + 1)
    assert certified and lo == hi
    assert abs((mpmath.mpf(hi) - want) / want) <= 1e-14


def test_hurwitz_zeta_domain():
    for s, q in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.0)):
        with pytest.raises(weyl.WeylError):
            weyl.hurwitz_zeta(s, q)


@pytest.mark.parametrize("subcommand,config,data_file,digest", [
    ("criteria", "criteria.ini", "criteria.csv", "a1c48bdec7a2"),
    ("transition", "transition.ini", "transition.csv", "98bad66b6916"),
])
def test_example_tail_outputs_pinned(tmp_path, subcommand, config, data_file,
                                     digest):
    # the example outputs that go through the analytic Pareto tails; their
    # sha256 prefixes are those from scipy.special.zeta on x86-64 Linux
    out = str(tmp_path / "out")
    assert cli.main([subcommand, os.path.join(CONFIGS, config),
                     "--out", out]) == 0
    with open(os.path.join(out, data_file), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest()[:12] == digest


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


def _bits(x):
    """x with every float replaced by float.hex, for bit equality."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    return x


def _verdict_bits(verdicts):
    return [(v.criterion, v.verdict, v.deltas, _bits(v.evidence))
            for v in verdicts]


@pytest.mark.parametrize("model", ["circle", "sphere"])
def test_prefix_verdicts_share_one_survival_pass(model, monkeypatch):
    # prefix 2 splits the k = 1 / l = 1 block; the dropped spectra read the
    # full spectrum's survival arrays from an offset and must give the bits
    # of their own pass.  survival_abs takes arrays, so the count is of the
    # points it evaluates, not of its calls; the analytic tail is the same
    # for every prefix and is evaluated once per delta
    spec = weyl.boundary_spectrum(model, 1e6)
    deltas = (0.01, 0.3, 1.0, 10.0)
    prefixes = (1, 2, 10, 100, 1000)
    laws = cli.builtin_distribution_family() + [
        ("table", imp.BoundedCustom([0.0, 2.0, 50.0], [0.0, 0.5, 1.0]))]
    calls = {"all": 0, "tail": 0, "tails": 0}
    tail = weyl._analytic_tail

    def counted_tail(*args):
        calls["tails"] += 1
        before = calls["all"]
        out = tail(*args)
        calls["tail"] += calls["all"] - before
        return out

    monkeypatch.setattr(weyl, "_analytic_tail", counted_tail)
    for label, dist in laws:
        want = [weyl.standard_verdicts(dist, weyl.drop_prefix(spec, p), deltas)
                for p in prefixes]
        survival = dist.survival_abs

        def counted(s, survival=survival):
            calls["all"] += np.size(s)
            return survival(s)

        monkeypatch.setattr(dist, "survival_abs", counted)
        calls.update(all=0, tail=0, tails=0)
        got = weyl.prefix_verdicts(dist, spec, deltas, prefixes)
        assert calls["all"] - calls["tail"] == len(deltas) * spec.mu.size, label
        assert calls["tails"] == len(deltas), label
        assert [_verdict_bits(v) for v in got] == \
            [_verdict_bits(v) for v in want], label
        full, stable = weyl.prefix_stable_verdicts(dist, spec, deltas, prefixes)
        assert _verdict_bits(full) == \
            _verdict_bits(weyl.standard_verdicts(dist, spec, deltas))
        assert stable


@pytest.mark.parametrize("model", ["circle", "sphere"])
def test_series_partial_sums_against_fsum(model):
    # the partial sums are numpy's pairwise sums of nonnegative terms: within
    # 1e-14 relative of the correctly rounded sum of the float survivals
    spec = weyl.boundary_spectrum(model, 1e6)
    deltas = (0.01, 0.3, 10.0)
    roots = [math.sqrt(mu) for mu in spec.mu.tolist()]
    for label, dist in cli.builtin_distribution_family():
        series = weyl.series_criterion(dist, spec, deltas)
        for delta in deltas:
            want = math.fsum(m * dist.survival_abs(delta * r)
                             for m, r in zip(spec.mult.tolist(), roots))
            got = series.evidence[delta]["partial"]
            assert abs(got - want) <= 1e-14 * want, (label, delta)


_TAIL_CASES = list(itertools.product(
    [imp.PointMass(1.0), imp.UniformDisc(1.0, 1.5),
     imp.UniformImagSegment(-1.0, 3.0),
     imp.BoundedCustom([0.0, 2.0, 5.0], [0.0, 0.5, 1.0]),
     imp.ParetoImag(3.5, 1.0), imp.ParetoImag(2.5, 2.0),
     imp.HalfNormalReal(1.0), imp.HalfNormalReal(0.05)],
    (0.001, 0.01, 0.3, 10.0), (0, 7, 500, 3162)))


def _terms(dist, dim, delta, first, last):
    """The series terms mult_j S(delta sqrt(mu_j)) at j = first..last."""
    j = np.arange(first, last + 1, dtype=float)
    mult, mu = (2.0, j * j) if dim == 2 else (2 * j + 1, j * (j + 1))
    return mult * dist.survival_abs(delta * np.sqrt(mu))


@pytest.mark.parametrize("dim", [2, 3])
def test_analytic_tail_contains_the_summed_terms(dim):
    # the bounded and half-normal terms vanish from some index n on (erfc
    # underflows past 27).  Pareto: the terms up to n, then mpmath's
    # Hurwitz zeta, exact on the circle (to rounding) and bracketed on the
    # sphere by l < sqrt(l(l+1)) < l + 1
    for dist, delta, start in _TAIL_CASES:
        lo, hi, certified = weyl._analytic_tail(dist, dim, delta, start)
        pareto = isinstance(dist, imp.ParetoImag)
        scale = dist.s_min if pareto else dist.abs_bound() or 40 * dist.sigma
        n = start + math.ceil(scale / delta) + 99
        terms = _terms(dist, dim, delta, start + 1, n)
        rest = (0.0, 0.0)
        if pareto:
            a, ratio = dist.a, (mpmath.mpf(dist.s_min) / delta) ** dist.a

            def z(s, q):
                return float(ratio * mpmath.zeta(s, q))

            rest = ((2 * z(a, n + 1),) * 2 if dim == 2 else
                    (2 * z(a - 1, n + 2) - z(a, n + 2),
                     2 * z(a - 1, n + 1) + z(a, n + 1)))
            lo, hi = lo * (1 - 1e-12), hi * (1 + 1e-12)
        else:
            assert terms[-1] == 0.0
        head = math.fsum(terms)
        assert certified and lo <= head + rest[0] <= head + rest[1] <= hi, (
            dist.label(), delta, start, lo, hi, head, rest)


@pytest.mark.parametrize("dim", [2, 3])
def test_analytic_tail_from_an_earlier_start(dim):
    # the tail from start - m and the terms on (start - m, start] plus the
    # tail from start bound the same sum, so the intervals overlap (the
    # Pareto circle's tails are points, equal to rounding)
    laws = [d for d, _, _ in _TAIL_CASES[::16]] + [
        d for _, d in cli.builtin_distribution_family()]
    for dist, delta, (start, m) in itertools.product(
            laws, (0.001, 0.01, 0.3, 10.0),
            ((7, 7), (500, 3), (500, 493), (3162, 162))):
        lo, hi, _ = weyl._analytic_tail(dist, dim, delta, start)
        early_lo, early_hi, _ = weyl._analytic_tail(dist, dim, delta,
                                                    start - m)
        enum = math.fsum(_terms(dist, dim, delta, start - m + 1, start))
        slack = 1e-12 * early_hi
        assert early_lo <= enum + hi + slack, (dist.label(), delta, start, m)
        assert enum + lo <= early_hi + slack, (dist.label(), delta, start, m)


@pytest.mark.parametrize("model", ["circle", "sphere"])
def test_criteria_at_tiny_delta(model):
    # at delta = 1e-12 every built-in law keeps its delta = 0.01 verdict.
    # At 1e-300 the tails' indices pass 2^52, where the multiplicity sums
    # are no longer exact: each tail is uncertified, never a divergence read
    # from a float overflow (Pareto a = 0.5 diverges whatever delta is);
    # so is a tail whose Pareto ratio overflows
    spec = weyl.boundary_spectrum(model, 1e6)
    for label, dist in cli.builtin_distribution_family():
        for criterion in (weyl.series_criterion, weyl.expectation_criterion):
            assert (criterion(dist, spec, (1e-12,)).verdict
                    == criterion(dist, spec, (0.01,)).verdict), label
        assert weyl._analytic_tail(
            dist, spec.dim, 1e-300, spec.tail_mode_index()) == (
            (math.inf, math.inf, True) if label == "pareto(a=0.5)"
            else (0.0, math.inf, False)), label
    # (s_min / delta)^a overflows float64 at a = 40, delta = 1e-10, but the
    # tail is finite and certified: the ratio sits inside each Hurwitz term
    lo, hi, certified = weyl._analytic_tail(imp.ParetoImag(40.0), spec.dim,
                                            1e-10, 0)
    assert certified and 0.0 < lo <= hi < math.inf


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
    # 10,000 modes: 7-trial blocks, so the 4 threads share out 10 blocks
    kwargs = dict(dists=[("a=2", imp.ParetoImag(2.0))], model="circle",
                  trials=64, m_modes=10_000,
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
@pytest.mark.parametrize("m_modes", [8, 37, 400, 10_000])
def test_window_records_max_equals_brute_force(model, m_modes):
    # the blocked records screen against the full-window maximum, bit for
    # bit, on uniforms with many exact ties and on the spectra's equal-mu
    # runs (circle multiplicity 2, sphere 2l + 1); one draw per trial row,
    # column blocks that do not divide the windows
    truncations = [m_modes // 4, m_modes // 2, m_modes]
    lo = truncations[0] // 2
    starts = [mt // 2 - lo for mt in truncations]
    sqrt_mu = np.sqrt(weyl.spectrum_by_mode_count(model, m_modes)[lo:])
    n = m_modes - lo
    rng = np.random.default_rng(5)
    u = np.array([rng.integers(0, 4, n) / 4.0,          # four values, ties
                  rng.integers(0, 2, n) * 0.5 + 0.25,   # two values
                  np.full(n, 0.5),                      # all tied
                  np.linspace(0.0, 0.999, n),           # every mode a record
                  np.linspace(0.999, 0.0, n),           # one per window
                  np.repeat(rng.random(n // 3 + 1), 3)[:n],
                  rng.random(n)])
    # the one-row screen it replaces: every running max of each window
    want = np.concatenate([seg == np.maximum.accumulate(seg, axis=1)
                           for seg in np.split(u, starts[1:], axis=1)],
                          axis=1)
    laws = [imp.ParetoImag(a, 1.0) for a in (0.5, 2.0)]
    laws += [imp.BoundedCustom([0.0, 2.0, 50.0], [0.0, 0.5, 1.0]),
             imp.BoundedCustom([0.0, 1.0, 2.0, 3.0, 9.0],
                               [0.0, 0.25, 0.25, 0.5, 1.0])]
    for width in (1, 13, 50):
        plan = weyl._records_plan(starts, n, width)
        rows, cols, offsets = weyl._window_records(u, plan)
        want_rows, want_cols = np.nonzero(want)
        assert rows.tolist() == want_rows.tolist(), width
        assert cols.tolist() == want_cols.tolist(), width
        assert len(offsets) == len(u) * len(starts) and offsets[0] == 0
        assert (np.diff(offsets) > 0).all()
        for dist in laws:
            brute = np.maximum.reduceat(dist.abs_quantile(u) / sqrt_mu,
                                        starts, axis=1)
            screened = np.maximum.reduceat(
                dist.abs_quantile(u[rows, cols]) / sqrt_mu[cols], offsets)
            assert screened.tobytes() == brute.tobytes(), (width,
                                                           dist.label())


@pytest.mark.parametrize("trials", [1, 7, 8, 15])
@pytest.mark.parametrize("m_modes", [8, 16, 24, 32])
def test_blocked_draw_equals_trial_generator(monkeypatch, m_modes, trials):
    # the Monte Carlo draws its trials in blocks, from one Philox per worker
    # re-keyed per trial whose counter skips the first lo uniforms (lo % 4 =
    # 1, 2, 3, 0 here); 7-trial blocks leave a short last block for 8 and
    # 15, and 4 threads share at most 3 blocks, so some workers get none
    lo = m_modes // 4 // 2
    stream = imp.SeededStream(4, 9)
    kwargs = dict(dists=[("a=2", imp.ParetoImag(2.0)),
                         ("a=0.5", imp.ParetoImag(0.5))],
                  model="circle", trials=trials, m_modes=m_modes,
                  stream=stream)
    # every trial in one block
    one_block = weyl.monte_carlo_transition(**kwargs)
    monkeypatch.setattr(weyl, "_BLOCK_UNIFORMS", 7 * (m_modes - lo))
    drawn = {}
    draw = weyl._draw_uniforms

    def spy(rng, parent, t0, t1, *rest):
        u = draw(rng, parent, t0, t1, *rest)
        drawn.update((t0 + row, u[row].copy()) for row in range(len(u)))
        assert t1 - t0 == min(7, trials - t0)
        return u

    monkeypatch.setattr(weyl, "_draw_uniforms", spy)
    # switch threads often, so that workers interleave within a block
    interval = sys.getswitchinterval()
    for threads in (1, 3, 4):
        drawn.clear()
        sys.setswitchinterval(1e-6)
        try:
            got = weyl.monte_carlo_transition(threads=threads, **kwargs)
        finally:
            sys.setswitchinterval(interval)
        assert got == one_block, threads
        assert sorted(drawn) == list(range(trials))
        for t, row in drawn.items():
            want = stream.child(t).generator().random(m_modes)[lo:]
            assert row.tobytes() == want.tobytes(), (t, threads)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_one_philox_per_worker(monkeypatch, threads):
    # 2-trial blocks: 30 blocks of 60 trials, and still at most one bit
    # generator per worker thread, whatever the number of blocks
    m_modes = 64
    monkeypatch.setattr(weyl, "_BLOCK_UNIFORMS", 2 * (m_modes - m_modes // 8))
    built = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        built.append(args)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    weyl.monte_carlo_transition([("a=1", imp.ParetoImag(1.0))], "sphere",
                                trials=60, m_modes=m_modes,
                                stream=imp.SeededStream(2, 5),
                                threads=threads)
    assert 1 <= len(built) <= threads


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
