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

from randbc.impedance import (BoundedCustom, HalfNormalReal,
                              ImpedanceDistribution, ParetoImag, SeededStream)

COMPACT = "compact_as"
NOT_COMPACT = "not_compact_as"
INCONCLUSIVE = "inconclusive"

DEFAULT_DELTAS = (0.01, 0.1, 1.0, 10.0)


class WeylError(ValueError):
    pass


def _mu(dim, idx):
    """The eigenvalue at the distinct mode index idx (k on the circle, l on
    the sphere): k^2 or l(l+1).  idx is an int or an array."""
    return idx * idx if dim == 2 else idx * (idx + 1)


def _modes_between(dim, a, b):
    """The number of eigenvalues, counting multiplicity, at the distinct mode
    indices a <= j < b: (b - a)(b + a) on the sphere (2l + 1 each), 2 (b - a)
    on the circle less one for k = 0.  a and b are ints or arrays."""
    if dim == 3:
        return (b - a) * (b + a)
    return 2 * (b - a) - ((a == 0) & (b > 0))


def _last_index(ok):
    """The largest integer j >= 0 with ok(j), for ok true at 0 and false
    from some j on: a doubling search, then bisection."""
    lo, hi = 0, 1
    while ok(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


def _dim(model: str) -> int:
    """The dimension d of the circle (2) or the sphere (3)."""
    if model not in ("circle", "sphere"):
        raise WeylError(f"unknown model boundary {model!r}")
    return 2 if model == "circle" else 3


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
        return _last_index(lambda j: _mu(self.dim, j) <= self.mu[-1])


def boundary_spectrum(model: str, mu_max: float) -> BoundarySpectrum:
    """Exact closed-form boundary spectrum up to mu_max."""
    if mu_max < 1:
        raise WeylError("mu_max must be >= 1")
    dim = _dim(model)
    idx = np.arange(_last_index(lambda j: _mu(dim, j) <= mu_max) + 1)
    return BoundarySpectrum(dim=dim, mu=_mu(dim, idx).astype(float),
                            mult=_modes_between(dim, idx, idx + 1),
                            mu_max=float(mu_max))


def spectrum_by_mode_count(model: str, n_modes: int) -> np.ndarray:
    """First n_modes entries of the multiplicity-expanded spectrum: the
    expansion of boundary_spectrum up to the n_modes-th eigenvalue's index."""
    dim = _dim(model)
    last = _last_index(lambda j: _modes_between(dim, 0, j) < n_modes)
    return boundary_spectrum(model, max(1, _mu(dim, last))).expanded(n_modes)


def drop_prefix(spectrum: BoundarySpectrum, n: int) -> BoundarySpectrum:
    """Remove the first n boundary eigenvalues counting multiplicity."""
    if n < 0:
        raise WeylError("prefix length must be >= 0")
    cum = np.cumsum(spectrum.mult)
    start = int(np.searchsorted(cum, n, side="right"))
    if start >= cum.size:
        raise WeylError("prefix removes the whole enumerated spectrum")
    mult = spectrum.mult[start:].copy()
    mult[0] = cum[start] - n
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


def weyl_exponent_fit(cf: CountingFunction, lam_lo, lam_hi) -> WeylFit:
    """Least-squares slope of log N against log lam on a log-uniform grid."""
    n_points = 48
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


# B_2j / (2j)! for j = 1..9: the Euler-Maclaurin corrections of hurwitz_zeta
_EM_COEFFS = tuple(b / math.factorial(2 * j) for j, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
     -3617 / 510, 43867 / 798), start=1))


def hurwitz_zeta(s: float, q: float, r: float = 1.0) -> float:
    """r^s zeta(s, q) = sum_{k >= 0} (r / (q + k))^s for s > 1, q > 0,
    r > 0 (zeta(s, q) itself at r = 1).

    Euler-Maclaurin at x = q + n after n = 12 + int(2s) head terms: the
    integral r^s x^(1-s)/(s-1), the half term r^s x^-s/2 and the B_2..B_18
    corrections.  The first omitted correction is below 1e-22 of the sum
    for s <= 20, so the result is the rounded sum of its terms.  Each term
    is formed from a power of (q + k) / r or x / r, never from r^s, which
    may overflow: for q >= r the head terms are at most 1.
    """
    if not (s > 1.0 and q > 0.0):
        raise WeylError(f"hurwitz_zeta needs s > 1 and q > 0, got ({s}, {q})")
    n = 12 + int(2 * s)
    x = q + n
    terms = [((q + k) / r) ** -s for k in range(n)]
    terms.append(r * (x / r) ** (1.0 - s) / (s - 1.0))
    terms.append(0.5 * (x / r) ** -s)
    rising = s                      # s (s+1) ... (s+2j-2)
    power = (x / r) ** (-s - 1.0) / r   # r^s x^(-s-2j+1)
    inv_x2 = 1.0 / (x * x)
    for j, coeff in enumerate(_EM_COEFFS, start=1):
        terms.append(coeff * rising * power)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power *= inv_x2
    return math.fsum(terms)


# _block_sum halves a block while its bounds differ by more than this
# fraction of the sum's lower bound
_SPLIT_WIDTH = 2.0 ** -20


def _s_at(dim, delta, idx):
    """delta sqrt(mu) at the distinct mode indices idx, as float64: the
    argument of S in the series terms, rounded as over the spectrum."""
    return delta * np.sqrt(_mu(dim, np.asarray(idx, dtype=float)))


def _block_sum(dist, dim, delta, start, remainder):
    """Bounds (lo, hi) on the sum of mult_j S(delta sqrt(mu_j)) over the
    distinct indices j > start, remainder(J) bounding the terms past J;
    None once an index reaches 2^52 (float64 indices are exact below 2^53).

    The blocks [a, b] hold 1, 2, 4, ... indices from start + 1.  S is
    nonincreasing and mu increasing, so a block's terms sum to within
    [M S(s_b), M S(s_a)], M = _modes_between(a, b + 1).  Each pass halves
    the blocks wider than _SPLIT_WIDTH times the lower bound and, while the
    remainder is that wide, adds the next block: one survival_abs call at
    the new ends.  That width also pads the bounds against rounding.
    """
    ends = np.array([start + 1.0, start + 1.0])   # a, b of each block
    surv = dist.survival_abs(_s_at(dim, delta, ends))
    while ends[-1] < 2.0 ** 52:
        a, b = ends[::2], ends[1::2]
        m = _modes_between(dim, a, b + 1.0)
        lo, hi = math.fsum(m * surv[1::2]), math.fsum(m * surv[::2])
        rest, cut = remainder(float(b[-1])), _SPLIT_WIDTH * lo
        wide = (m * (surv[::2] - surv[1::2]) > cut) & (b > a)
        if not (wide.any() or rest > cut):
            return lo - cut, hi + rest + cut
        mid = np.floor((a[wide] + b[wide] + 1.0) / 2.0)
        new = np.concatenate([mid - 1.0, mid] + (
            [[b[-1] + 1.0, 2.0 * b[-1] + 1.0 - start]] if rest > cut else []))
        pos = np.searchsorted(ends, new)
        ends = np.insert(ends, pos, new)
        surv = np.insert(surv, pos, dist.survival_abs(_s_at(dim, delta, new)))
    return None


def _analytic_tail(dist: ImpedanceDistribution, dim: int, delta: float,
                   start: int):
    """Certified bounds (lo, hi, certified) on the sum of the series terms
    mult_j S(delta sqrt(mu_j)) at the distinct mode indices j > start, from
    O(log(1/delta)) survival values; hi = inf is certified divergence and
    (0, inf, False) uncertified -> inconclusive.  A bounded law's terms end
    where delta sqrt(mu) passes abs_bound; ParetoImag counts its head, where
    S = 1, and adds a Hurwitz zeta, exact on the circle and bracketed on the
    sphere.  A tail whose indices reach 2^52, or whose bounds overflow, is
    uncertified, so that no float overflow reads as divergence.
    """
    uncertified = 0.0, math.inf, False
    bound = dist.abs_bound()
    if bound is not None:
        sums = _block_sum(dist, dim, delta, start, lambda j: (
            0.0 if _s_at(dim, delta, j) > bound else math.inf))
    elif isinstance(dist, ParetoImag):
        a, s_min = dist.a, dist.s_min
        if a <= dim - 1:
            return math.inf, math.inf, True
        if s_min / delta >= 2.0 ** 52:
            return uncertified
        head = max(start, _last_index(lambda j: _s_at(dim, delta, j) <= s_min))
        count = float(_modes_between(dim, start + 1, head + 1))
        # ratio^s zeta(s, q) with ratio = s_min / delta inside each term,
        # where ratio^a alone may overflow
        ratio = s_min / delta

        def z(s, q):
            return hurwitz_zeta(s, q, ratio)

        try:
            if dim == 2:
                sums = (count + 2.0 * z(a, head + 1),) * 2
            else:  # l < sqrt(l(l+1)) < l + 1
                sums = (max(count + (2 * ratio * z(a - 1, head + 2)
                                     - z(a, head + 2)), 0.0),
                        count + (2 * ratio * z(a - 1, head + 1)
                                 + z(a, head + 1)))
        except OverflowError:
            return uncertified
    elif isinstance(dist, HalfNormalReal):
        # erfc(x) <= exp(-x^2), sqrt(mu_j) >= j and mult_j <= 2j + 1: past J
        # the terms are at most (2j + 1) exp(-c j^2), which decreases once
        # c J (2J + 1) >= 1, and sum to at most its integral from J
        c = delta * delta / (2.0 * dist.sigma ** 2)
        sums = _block_sum(dist, dim, delta, start, lambda j: (
            math.exp(-c * j * j) * (1.0 + 0.5 / j) / c
            if c * j * (2.0 * j + 1.0) >= 1.0 else math.inf))
    else:  # any other law, such as a BoundedCustom table short of F = 1
        return uncertified
    # None: an index reached 2^52; not finite: a float overflow
    if sums is None or not math.isfinite(sums[1]):
        return uncertified
    return (*sums, True)


def _tail_criterion(name, deltas, partials, tails) -> CriterionVerdict:
    """Verdict over the delta grid from the enumerated part partials[delta]
    plus the analytic tail beyond the enumeration, tails[delta]."""
    evidence = {}
    finite_flags = []
    for delta in deltas:
        partial = partials[delta]
        lo, hi, certified = tails[delta]
        finite = certified and math.isfinite(hi)
        evidence[delta] = {"partial": partial, "tail_lo": lo, "tail_hi": hi,
                           "certified": certified,
                           "value": partial + hi if finite else math.inf}
        # None: uncertified; a certified tail is finite or divergent
        finite_flags.append(finite if certified else None)
    if all(f is True for f in finite_flags):
        verdict = COMPACT
    elif any(f is False for f in finite_flags):
        verdict = NOT_COMPACT
    else:
        verdict = INCONCLUSIVE
    return CriterionVerdict(name, verdict, tuple(deltas), evidence)


def _series_verdict(spectrum, deltas, survivals, tails,
                    offset=0) -> CriterionVerdict:
    """The series criterion of `spectrum`, whose modes are those of the
    survival arrays from index `offset` on: sum mult * survival, by
    numpy's pairwise sum.  The slice holds the floats of the spectrum's
    own survival pass, so the partial sums have its bits."""
    partials = {delta: float(np.sum(spectrum.mult * survivals[delta][offset:]))
                for delta in deltas}
    return _tail_criterion("series", deltas, partials, tails)


def _expectation_verdict(spectrum, deltas, survivals, tails,
                         offset=0) -> CriterionVerdict:
    cum = np.cumsum(spectrum.mult).astype(float)
    partials = {}
    for delta in deltas:
        surv = survivals[delta][offset:]
        # sum_{i<M} N_i (S_i - S_{i+1}) + N_M S_M  (Stieltjes against F)
        partials[delta] = float(np.sum(cum[:-1] * (surv[:-1] - surv[1:]))
                                + cum[-1] * surv[-1])
    return _tail_criterion("expectation", deltas, partials, tails)


def series_criterion(dist: ImpedanceDistribution, spectrum: BoundarySpectrum,
                     deltas=DEFAULT_DELTAS) -> CriterionVerdict:
    """Convergence of sum_k mult_k (1 - F(delta sqrt(mu_k))) over the delta grid."""
    return standard_verdicts(dist, spectrum, deltas)[0]


def expectation_criterion(dist: ImpedanceDistribution,
                          spectrum: BoundarySpectrum,
                          deltas=DEFAULT_DELTAS) -> CriterionVerdict:
    """Finiteness of E N(|zeta|^2/delta^2) via a Stieltjes sum against F.

    The enumerated part integrates the step function N between its jumps
    (N_i [F(s_{i+1}) - F(s_i)] summed, plus the boundary term), the analytic
    per-kind tail bounds what lies beyond the enumeration.
    """
    return standard_verdicts(dist, spectrum, deltas)[1]


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
    return prefix_verdicts(dist, spectrum, deltas, (0,))[0]


def prefix_verdicts(dist: ImpedanceDistribution, spectrum: BoundarySpectrum,
                    deltas, prefixes) -> list:
    """[standard_verdicts(dist, drop_prefix(spectrum, p), deltas) for p in
    prefixes], from one survival pass over the whole spectrum, 1 - F(delta
    sqrt(mu)) in one survival_abs call per delta that the series and the
    expectation criteria both sum, and one analytic tail per delta beyond
    the last mode, the interval that alone decides the verdicts (the
    partial sums only feed `evidence`).

    A dropped spectrum's mu is the trailing slice spectrum.mu[cut:], the same
    floats, so each dropped spectrum sums the shared survival arrays from
    offset cut and gets the same bits as its own pass would; it also keeps
    mu[-1], and with it the tails, so prefix_stable_verdicts cannot report
    a change.  The moment criterion does not depend on the spectrum's
    modes: every prefix shares one verdict.
    """
    roots = np.sqrt(spectrum.mu)
    survivals = {delta: dist.survival_abs(delta * roots) for delta in deltas}
    start = spectrum.tail_mode_index()
    tails = {delta: _analytic_tail(dist, spectrum.dim, delta, start)
             for delta in deltas}
    moment = moment_criterion(dist, spectrum.dim)
    out = []
    for prefix in prefixes:
        dropped = drop_prefix(spectrum, prefix)
        cut = spectrum.mu.size - dropped.mu.size
        out.append([
            _series_verdict(dropped, deltas, survivals, tails, cut),
            _expectation_verdict(dropped, deltas, survivals, tails, cut),
            moment])
    return out


def prefix_stable_verdicts(dist: ImpedanceDistribution,
                           spectrum: BoundarySpectrum, deltas,
                           prefixes) -> tuple:
    """(standard_verdicts(dist, spectrum, deltas), stable): stable is whether
    every criterion keeps its verdict when the first p modes are dropped,
    for each p in prefixes (the zero-one law of a tail event)."""
    verdicts, *dropped = prefix_verdicts(dist, spectrum, deltas,
                                         (0, *prefixes))
    stable = all(a.verdict == b.verdict
                 for again in dropped for a, b in zip(verdicts, again))
    return verdicts, stable


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


# uniforms (float64) per block of Monte Carlo trials: 512 KiB, whatever
# m_modes is
_BLOCK_UNIFORMS = 2**16
# columns per block of the records screen; about sqrt of a window's length at
# the example's 10,000 modes
_SCREEN_COLUMNS = 50


@dataclass(frozen=True)
class _RecordsPlan:
    """The column blocks of the records screen on rows of n uniforms, cut
    into windows at `starts`; fixed for a Monte Carlo call."""
    n: int
    starts: np.ndarray
    first: np.ndarray   # each block's first column
    spans: list         # (first block, block count) of each window
    cols: np.ndarray    # (blocks, width): each block's columns, padded past
    #                     its end with the row's last column
    inside: np.ndarray  # (blocks, width): which of cols lie in the block


def _records_plan(starts, n, width=_SCREEN_COLUMNS) -> _RecordsPlan:
    """Cut each window [starts[w], starts[w + 1]) of a row of n (the last
    window ends with the row) into column blocks of `width`."""
    edges = [*starts, n]
    blocks = [np.arange(a, b, width) for a, b in zip(edges, edges[1:])]
    first = np.concatenate(blocks)
    step = np.arange(width)
    spans, j = [], 0
    for b in blocks:
        spans.append((j, len(b)))
        j += len(b)
    return _RecordsPlan(n=n, starts=np.asarray(starts), first=first,
                        spans=spans,
                        cols=np.minimum(first[:, None] + step, n - 1),
                        inside=step < np.diff(first, append=n)[:, None])


def _window_records(u, plan: _RecordsPlan):
    """The running-max records of each row of u inside each window of
    `plan`, ties kept: (rows, cols) sorted by row, then column, and where
    each (row, window) begins in that list (a window's first element is a
    record).

    Only a column block whose max reaches the max of the window's earlier
    blocks can hold a record, and only those blocks are scanned."""
    n = plan.n
    block_max = np.maximum.reduceat(u, plan.first, axis=1)
    # the max of the window's earlier blocks, -inf before its first
    before = np.full_like(block_max, -np.inf)
    for j, count in plan.spans:
        np.maximum.accumulate(block_max[:, j:j + count - 1], axis=1,
                              out=before[:, j + 1:j + count])
    rows, cand = np.nonzero(block_max >= before)
    # the candidate blocks' flat positions in u, one block per row, so the
    # records come out sorted by position
    pos = rows[:, None] * n + plan.cols[cand]
    vals = u.ravel()[pos]
    is_record = (plan.inside[cand] & (vals >= before[rows, cand][:, None])
                 & (vals == np.maximum.accumulate(vals, axis=1)))
    pos = pos[is_record]
    window_first = (np.arange(len(u))[:, None] * n + plan.starts).ravel()
    return *np.divmod(pos, n), np.searchsorted(pos, window_first)


def _draw_uniforms(rng, stream, t0, t1, lo, m_modes):
    """Row t - t0 is stream.child(t).generator().random(m_modes)[lo:], for
    t in [t0, t1), drawn by the Philox Generator `rng`, re-keyed for each
    trial with its counter set past the first lo uniforms."""
    u = np.empty((t1 - t0, m_modes - lo))
    bitgen = rng.bit_generator
    for row, t in enumerate(range(t0, t1)):
        # one counter step gives 4 uint64, so 4 uniforms
        stream.child(t).rekey(bitgen, lo // 4)
        if lo % 4:
            rng.random(lo % 4)
        rng.random(out=u[row])
    return u


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
    Only the uniforms from mode M/8 on are drawn: the Philox counter skips
    the others.

    Trials run in blocks of max(1, 2**16 // (m_modes - M/8)) (7 at the
    example's 10,000 modes): one (block, m_modes - M/8) float64 buffer of
    at most 512 KiB, unless one trial needs more, one records screen and
    one abs_quantile call per law.  The blocks depend on the trial index
    only.  Each of the `threads` workers takes every threads-th block and
    builds one Philox, re-keyed for each of its trials; the records screen's
    column blocks are planned once per call.

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
    block = max(1, _BLOCK_UNIFORMS // (m_modes - lo))
    plan = _records_plan(starts, m_modes - lo)

    def run_blocks(t0s):
        rng = np.random.Generator(np.random.Philox(0))
        for t0 in t0s:
            u = _draw_uniforms(rng, stream, t0, min(t0 + block, trials), lo,
                               m_modes)
            rows, cols, offsets = _window_records(u, plan)
            u, root = u[rows, cols], sqrt_mu[cols]
            for i, (_, dist) in enumerate(dists):
                ratio = dist.abs_quantile(u) / root
                stats[i, :, t0:t0 + block] = np.maximum.reduceat(
                    ratio, offsets).reshape(-1, len(starts)).T

    blocks = range(0, trials, block)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_blocks,
                          [blocks[i::threads] for i in range(threads)]))
    else:
        run_blocks(blocks)
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


def limit_criterion_from_transition(entry: TransitionEntry, eps,
                                    truncations) -> CriterionVerdict:
    """Monte Carlo rendering of the tail-limit criterion: evidence, not proof.
    Compact when the last fraction is at least 0.95 and the fractions rise
    (within 0.02), not compact when it is at most 0.05 and they fall."""
    fracs = [entry.fraction(eps, mt) for mt in truncations]
    increasing = all(b >= a - 0.02 for a, b in zip(fracs, fracs[1:]))
    decreasing = all(b <= a + 0.02 for a, b in zip(fracs, fracs[1:]))
    final = fracs[-1]
    if final >= 0.95 and increasing:
        verdict = COMPACT
    elif final <= 0.05 and decreasing:
        verdict = NOT_COMPACT
    else:
        verdict = INCONCLUSIVE
    return CriterionVerdict("limit", verdict, (),
                            {"eps": eps, "fractions": fracs,
                             "truncations": list(truncations)})
