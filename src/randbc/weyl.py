"""Boundary spectra, Weyl-exponent fits, and resolvent-compactness criteria.

The model boundaries are the circle (mu = k^2, multiplicity 2 for k >= 1) and
the 2-sphere (mu = l(l+1), multiplicity 2l+1); their counting functions obey
the Weyl law N(lam) ~ lam^((d-1)/2) exactly.  Four criteria decide whether a
random diagonal impedance yields an a.s. compact resolvent: the tail-limit
statistic |zeta_j|/sqrt(mu_j) (Monte Carlo evidence), the survival series
sum mult (1 - F(delta sqrt(mu))), the expectation E N(|zeta|^2/delta^2), and
the (d-1)-th raw moment of |zeta|.  Series and expectation tails are bounded
analytically per distribution kind so quadrature truncation can never
masquerade as convergence.
"""
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import zeta as hurwitz_zeta

from randbc.impedance import (BoundedCustom, HalfNormalReal,
                              ImpedanceDistribution, ParetoImag, SeededStream)

COMPACT = "compact_as"
NOT_COMPACT = "not_compact_as"
INCONCLUSIVE = "inconclusive"

DEFAULT_DELTAS = (0.01, 0.1, 1.0, 10.0)


class WeylError(ValueError):
    pass


@dataclass(frozen=True)
class BoundarySpectrum:
    """Sorted Laplace-Beltrami eigenvalues with multiplicities."""
    dim: int
    mu: np.ndarray
    mult: np.ndarray
    mu_max: float

    def __post_init__(self):
        if np.any(np.diff(self.mu) <= 0):
            raise WeylError("eigenvalues must be strictly increasing")
        if np.any(self.mult < 1):
            raise WeylError("multiplicities must be positive")

    @property
    def n_modes(self):
        return int(self.mult.sum())

    def expanded(self, count=None):
        """Eigenvalue sequence with multiplicity (the basis enumeration)."""
        full = np.repeat(self.mu, self.mult)
        return full if count is None else full[:count]

    def tail_mode_index(self):
        """Largest distinct mode index present (k or l)."""
        if self.dim == 2:
            return int(round(math.sqrt(self.mu[-1])))
        return int(round((-1.0 + math.sqrt(1.0 + 4.0 * self.mu[-1])) / 2.0))


def boundary_spectrum(model: str, mu_max: float) -> BoundarySpectrum:
    """Exact closed-form boundary spectrum up to mu_max."""
    if mu_max < 1:
        raise WeylError("mu_max must be >= 1")
    if model == "circle":
        k_max = int(math.floor(math.sqrt(mu_max)))
        mu = np.array([float(k * k) for k in range(k_max + 1)])
        mult = np.array([1] + [2] * k_max, dtype=np.int64)
        return BoundarySpectrum(dim=2, mu=mu, mult=mult, mu_max=float(mu_max))
    if model == "sphere":
        ls = []
        l = 0
        while l * (l + 1) <= mu_max:
            ls.append(l)
            l += 1
        mu = np.array([float(l * (l + 1)) for l in ls])
        mult = np.array([2 * l + 1 for l in ls], dtype=np.int64)
        return BoundarySpectrum(dim=3, mu=mu, mult=mult, mu_max=float(mu_max))
    raise WeylError(f"unknown model boundary {model!r}")


def spectrum_by_mode_count(model: str, n_modes: int) -> np.ndarray:
    """First n_modes entries of the multiplicity-expanded spectrum."""
    if model == "circle":
        k_max = n_modes // 2 + 1
        mu = np.repeat(np.arange(k_max + 1, dtype=float) ** 2,
                       [1] + [2] * k_max)
        return mu[:n_modes]
    if model == "sphere":
        l_max = int(math.isqrt(n_modes)) + 1
        ls = np.arange(l_max + 1, dtype=float)
        mu = np.repeat(ls * (ls + 1), (2 * ls + 1).astype(int))
        return mu[:n_modes]
    raise WeylError(f"unknown model boundary {model!r}")


def drop_prefix(spectrum: BoundarySpectrum, n: int) -> BoundarySpectrum:
    """Remove the first n boundary eigenvalues counting multiplicity."""
    if n < 0:
        raise WeylError("prefix length must be >= 0")
    mult = spectrum.mult.copy()
    remaining = n
    start = 0
    while start < mult.size and remaining >= mult[start]:
        remaining -= mult[start]
        start += 1
    if start >= mult.size:
        raise WeylError("prefix removes the whole enumerated spectrum")
    mult = mult[start:].copy()
    mult[0] -= remaining
    return BoundarySpectrum(dim=spectrum.dim, mu=spectrum.mu[start:].copy(),
                            mult=mult, mu_max=spectrum.mu_max)


class CountingFunction:
    """N(lam) = #{j : mu_j <= lam} counting multiplicity."""

    def __init__(self, spectrum: BoundarySpectrum):
        self.spectrum = spectrum
        self._cum = np.concatenate([[0], np.cumsum(spectrum.mult)])

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        idx = np.searchsorted(self.spectrum.mu, lam, side="right")
        out = self._cum[idx]
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class WeylFit:
    exponent: float
    stderr: float
    lam_lo: float
    lam_hi: float
    n_points: int


def weyl_exponent_fit(cf: CountingFunction, lam_lo, lam_hi,
                      n_points=48) -> WeylFit:
    """Least-squares slope of log N against log lam on a log-uniform grid."""
    if lam_hi > cf.spectrum.mu_max:
        raise WeylError("fit range exceeds the enumerated spectrum")
    if lam_hi / lam_lo < 1e3:
        raise WeylError("fit range must span at least 3 decades")
    lam = np.geomspace(lam_lo, lam_hi, n_points)
    n_vals = np.asarray(cf(lam), dtype=float)
    if np.all(n_vals == n_vals[0]):
        return WeylFit(0.0, 0.0, lam_lo, lam_hi, n_points)
    if np.any(n_vals <= 0):
        raise WeylError("counting function vanishes inside the fit range")
    coeffs, cov = np.polyfit(np.log(lam), np.log(n_vals), 1, cov=True)
    return WeylFit(float(coeffs[0]), float(math.sqrt(cov[0, 0])),
                   lam_lo, lam_hi, n_points)


@dataclass
class CriterionVerdict:
    criterion: str
    verdict: str
    deltas: tuple
    evidence: dict = field(default_factory=dict)


def _tail_term(dist, dim, delta, idx):
    """Series term at distinct mode index idx beyond the enumeration."""
    if dim == 2:
        return 2.0 * dist.survival_abs(delta * idx)
    return (2 * idx + 1) * dist.survival_abs(delta * math.sqrt(idx * (idx + 1)))


def _analytic_tail(dist: ImpedanceDistribution, dim: int, delta: float,
                   start: int):
    """Bounds (lo, hi) on sum of series terms at distinct indices > start.

    Returns (lo, hi, certified); hi = inf means certified divergence, and an
    uncertified tail comes back (0, inf, False) -> inconclusive.
    """
    def s_at(idx):
        return delta * (idx if dim == 2 else math.sqrt(idx * (idx + 1)))

    bound = dist.abs_bound()
    if bound is not None:
        # finitely many nonzero terms: sum them directly
        idx_stop = int(math.ceil(bound / delta)) + 2
        total = 0.0
        for idx in range(start + 1, max(start + 1, idx_stop) + 1):
            total += _tail_term(dist, dim, delta, idx)
        return total, total, True
    if isinstance(dist, ParetoImag):
        a, s_min = dist.a, dist.s_min
        # advance until the survival is in its power-law regime
        idx0 = start
        head = 0.0
        while s_at(idx0 + 1) <= s_min * (1 + 1e-12):
            idx0 += 1
            head += _tail_term(dist, dim, delta, idx0)
            if idx0 - start > 10_000_000:
                return 0.0, math.inf, False
        ratio = (s_min / delta) ** a
        if dim == 2:
            if a <= 1.0:
                return math.inf, math.inf, True
            z = float(hurwitz_zeta(a, idx0 + 1))
            val = head + 2.0 * ratio * z
            return val, val, True
        if a <= 2.0:
            return math.inf, math.inf, True
        hi = head + ratio * (2.0 * float(hurwitz_zeta(a - 1.0, idx0 + 1))
                             + float(hurwitz_zeta(a, idx0 + 1)))
        lo = head + ratio * (2.0 * float(hurwitz_zeta(a - 1.0, idx0 + 2))
                             - float(hurwitz_zeta(a, idx0 + 2)))
        return max(lo, 0.0), hi, True
    if isinstance(dist, HalfNormalReal):
        # gaussian decay: direct summation with a certified cutoff
        total = 0.0
        idx = start
        c = delta * delta / (2.0 * dist.sigma ** 2)
        while True:
            idx += 1
            term = _tail_term(dist, dim, delta, idx)
            total += term
            envelope = (2 * idx + 1) * math.exp(-c * idx * idx)
            if envelope < 1e-18 * max(total, 1e-12) or envelope < 1e-280:
                break
            if idx - start > 50_000_000:
                return 0.0, math.inf, False
        return total, total, True
    if isinstance(dist, BoundedCustom):
        return 0.0, math.inf, False  # table does not reach F = 1
    return 0.0, math.inf, False


def _tail_criterion(name, dist: ImpedanceDistribution,
                    spectrum: BoundarySpectrum, deltas,
                    partial_at) -> CriterionVerdict:
    """Verdict over the delta grid from the enumerated part partial_at(delta)
    plus the analytic tail beyond the enumeration."""
    start = spectrum.tail_mode_index()
    evidence = {}
    finite_flags = []
    for delta in deltas:
        partial = partial_at(delta)
        lo, hi, certified = _analytic_tail(dist, spectrum.dim, delta, start)
        finite = certified and math.isfinite(hi)
        infinite = certified and math.isinf(lo)
        evidence[delta] = {"partial": partial, "tail_lo": lo, "tail_hi": hi,
                           "certified": certified,
                           "value": partial + hi if finite else math.inf}
        finite_flags.append(None if not certified else (not infinite and finite))
    if all(f is True for f in finite_flags):
        verdict = COMPACT
    elif any(f is False for f in finite_flags):
        verdict = NOT_COMPACT
    else:
        verdict = INCONCLUSIVE
    return CriterionVerdict(name, verdict, tuple(deltas), evidence)


def _survivals(dist: ImpedanceDistribution, spectrum: BoundarySpectrum,
               deltas) -> dict:
    """{delta: [1 - F(delta sqrt(mu)) for each enumerated mu]}, the one
    survival vector the series and expectation criteria both sum."""
    roots = [math.sqrt(mu) for mu in spectrum.mu.tolist()]
    return {delta: [dist.survival_abs(delta * r) for r in roots]
            for delta in deltas}


def _series_verdict(dist, spectrum, deltas, survivals) -> CriterionVerdict:
    mult = spectrum.mult.tolist()

    def partial_at(delta):
        # Python floats, summed left to right: builtin sum() compensates a
        # sum of floats from Python 3.12 on, which would change the bits
        total = 0.0
        for m, surv in zip(mult, survivals[delta]):
            total += m * surv
        return total

    return _tail_criterion("series", dist, spectrum, deltas, partial_at)


def _expectation_verdict(dist, spectrum, deltas,
                         survivals) -> CriterionVerdict:
    cum = np.cumsum(spectrum.mult).astype(float)

    def partial_at(delta):
        surv = np.array(survivals[delta])
        # sum_{i<M} N_i (S_i - S_{i+1}) + N_M S_M  (Stieltjes against F)
        return float(np.sum(cum[:-1] * (surv[:-1] - surv[1:]))
                     + cum[-1] * surv[-1])

    return _tail_criterion("expectation", dist, spectrum, deltas, partial_at)


def series_criterion(dist: ImpedanceDistribution, spectrum: BoundarySpectrum,
                     deltas=DEFAULT_DELTAS) -> CriterionVerdict:
    """Convergence of sum_k mult_k (1 - F(delta sqrt(mu_k))) over the delta grid."""
    return _series_verdict(dist, spectrum, deltas,
                           _survivals(dist, spectrum, deltas))


def expectation_criterion(dist: ImpedanceDistribution,
                          spectrum: BoundarySpectrum,
                          deltas=DEFAULT_DELTAS) -> CriterionVerdict:
    """Finiteness of E N(|zeta|^2/delta^2) via a Stieltjes sum against F.

    The enumerated part integrates the step function N between its jumps
    (N_i [F(s_{i+1}) - F(s_i)] summed, plus the boundary term), the analytic
    per-kind tail bounds what lies beyond the enumeration.
    """
    return _expectation_verdict(dist, spectrum, deltas,
                                _survivals(dist, spectrum, deltas))


def moment_criterion(dist: ImpedanceDistribution, d: int) -> CriterionVerdict:
    """Finiteness of the (d-1)-th raw moment of |zeta|."""
    if d not in (2, 3):
        raise WeylError("d must be 2 or 3")
    value = dist.abs_moment(float(d - 1))
    uncertified = isinstance(dist, BoundedCustom) and not dist.tail_certified()
    if uncertified:
        verdict = INCONCLUSIVE
    else:
        verdict = COMPACT if math.isfinite(value) else NOT_COMPACT
    return CriterionVerdict("moment", verdict, (),
                            {"order": d - 1, "value": value})


def standard_verdicts(dist: ImpedanceDistribution, spectrum: BoundarySpectrum,
                      deltas=DEFAULT_DELTAS) -> list:
    """The series, expectation and moment verdicts, in that order; the
    first two share one survival vector per delta."""
    survivals = _survivals(dist, spectrum, deltas)
    return [_series_verdict(dist, spectrum, deltas, survivals),
            _expectation_verdict(dist, spectrum, deltas, survivals),
            moment_criterion(dist, spectrum.dim)]


def verdicts_consistent(verdicts) -> bool:
    """Criteria must agree wherever more than one is conclusive."""
    decided = {v.verdict for v in verdicts if v.verdict != INCONCLUSIVE}
    return len(decided) <= 1


@dataclass
class TransitionCell:
    eps: float
    truncation: int
    fraction: float


@dataclass
class TransitionEntry:
    label: str
    cells: list
    tail_stat_mean: float

    def fraction(self, eps, truncation):
        for c in self.cells:
            if c.eps == eps and c.truncation == truncation:
                return c.fraction
        raise KeyError((eps, truncation))


def _window_records(u, starts):
    """Positions of the running-max records of u inside each window
    [starts[w], starts[w + 1]), ties kept, and where each window begins in
    that list (a window's first element is always a record)."""
    keep = np.concatenate([seg == np.maximum.accumulate(seg)
                           for seg in np.split(u, starts[1:])])
    idx = np.flatnonzero(keep)
    return idx, np.searchsorted(idx, starts)


def monte_carlo_transition(dists, model: str, trials: int, m_modes: int,
                           stream: SeededStream, eps_grid=(0.75, 0.1, 0.01),
                           threads=1) -> list:
    """Empirical fractions of trials with small tail statistic.

    For each distribution: sample `trials` impedance sequences of length
    m_modes; at truncations M/4, M/2, M compute the per-trial statistic
    max_{j in (M'/2, M']} |zeta_j| / sqrt(mu_j) and report the fraction of
    trials below each eps.  The fraction tending to 1 (resp. 0) with M
    evidences the a.s.-compact (resp. non-compact) side.

    Each trial draws m_modes uniforms from its own counter-based stream keyed
    by the trial index, and every distribution maps that same draw to |zeta|
    through its abs_quantile, so the result is byte-identical for any thread
    count and equals sampling each distribution from the trial's stream.

    Only the running-max records of each window's uniforms are mapped: in a
    window mu_j is nondecreasing, so when abs_quantile is nondecreasing in u
    a mode whose u_j is below an earlier u_k of its window has a ratio no
    larger than mode k's (division rounds monotonically), and cannot change
    the maximum.  The records, ties kept, are about ln(window) modes per
    window, shared by all laws.  The maximum is then the same float as over
    the whole window; an abs_quantile that is non-monotone at the 1-ulp
    level (libm pow, np.interp at a breakpoint) can move one trial's
    statistic by at most that ulp.
    """
    if trials < 1 or m_modes < 8:
        raise WeylError("need trials >= 1 and m_modes >= 8")
    for label, dist in dists:
        if dist.abs_quantile is None:
            raise WeylError(f"{label}: {dist.kind} has no abs_quantile; the "
                            "Monte Carlo transition needs |zeta| as a "
                            "function of one uniform draw")
    truncations = [m_modes // 4, m_modes // 2, m_modes]
    # the windows [M'//2, M') are contiguous: [M//4//2, M//4), [M//4, M//2),
    # [M//2, M), so one reduceat over the records' ratios from `lo` on gives
    # all three; lo >= 1, where mu > 0
    lo = truncations[0] // 2
    starts = [mt // 2 - lo for mt in truncations]
    sqrt_mu = np.sqrt(spectrum_by_mode_count(model, m_modes)[lo:])
    stats = np.empty((len(dists), len(truncations), trials))

    def run_trial(t):
        u = stream.child(t).generator().random(m_modes)[lo:]
        idx, offsets = _window_records(u, starts)
        u, root = u[idx], sqrt_mu[idx]
        for i, (_, dist) in enumerate(dists):
            ratio = dist.abs_quantile(u) / root
            stats[i, :, t] = np.maximum.reduceat(ratio, offsets)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_trial, range(trials)))
    else:
        for t in range(trials):
            run_trial(t)
    entries = []
    for (label, _), law_stats in zip(dists, stats):
        cells = [TransitionCell(eps=eps, truncation=mt,
                                fraction=float(np.mean(row < eps)))
                 for eps in eps_grid
                 for mt, row in zip(truncations, law_stats)]
        entries.append(TransitionEntry(
            label=label, cells=cells,
            tail_stat_mean=float(np.mean(law_stats[-1]))))
    return entries


def limit_criterion_from_transition(entry: TransitionEntry, eps, truncations,
                                    hi=0.95, lo=0.05) -> CriterionVerdict:
    """Monte Carlo rendering of the tail-limit criterion: evidence, not proof."""
    fracs = [entry.fraction(eps, mt) for mt in truncations]
    increasing = all(b >= a - 0.02 for a, b in zip(fracs, fracs[1:]))
    decreasing = all(b <= a + 0.02 for a, b in zip(fracs, fracs[1:]))
    final = fracs[-1]
    if final >= hi and increasing:
        verdict = COMPACT
    elif final <= lo and decreasing:
        verdict = NOT_COMPACT
    else:
        verdict = INCONCLUSIVE
    return CriterionVerdict("limit", verdict, (),
                            {"eps": eps, "fractions": fracs,
                             "truncations": list(truncations)})
