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


def hurwitz_zeta(s: float, q: float) -> float:
    """zeta(s, q) = sum_{k >= 0} (q + k)^-s for s > 1, q > 0.

    Euler-Maclaurin at x = q + n after n = 12 + int(2s) head terms: the
    integral x^(1-s)/(s-1), the half term x^-s/2 and the B_2..B_18
    corrections.  The first omitted correction is below 1e-22 of the sum
    for s <= 20, so the result is the rounded sum of its terms.
    """
    if not (s > 1.0 and q > 0.0):
        raise WeylError(f"hurwitz_zeta needs s > 1 and q > 0, got ({s}, {q})")
    n = 12 + int(2 * s)
    x = q + n
    terms = [(q + k) ** -s for k in range(n)]
    terms.append(x ** (1.0 - s) / (s - 1.0))
    terms.append(0.5 * x ** -s)
    rising = s                      # s (s+1) ... (s+2j-2)
    power = x ** (-s - 1.0)         # x^(-s-2j+1)
    inv_x2 = 1.0 / (x * x)
    for j, coeff in enumerate(_EM_COEFFS, start=1):
        terms.append(coeff * rising * power)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power *= inv_x2
    return math.fsum(terms)


def _tail_terms(dist, dim, delta, idx):
    """Series terms at the distinct mode indices idx (an int array) beyond
    the enumeration."""
    if dim == 2:
        return 2.0 * dist.survival_abs(delta * idx)
    return (2 * idx + 1) * dist.survival_abs(delta * np.sqrt(idx * (idx + 1)))


def _index_blocks(start, stop):
    """The indices start + 1 .. stop as consecutive int64 arrays of 64,
    128, ... and at most 2**16 indices."""
    lo, n = start + 1, 64
    while lo <= stop:
        yield np.arange(lo, min(lo + n, stop + 1))
        lo, n = lo + n, min(2 * n, 2**16)


def _running_sums(total, terms):
    """total + terms[0], total + terms[0] + terms[1], ...: summed left to
    right (np.cumsum), as a loop over the terms would."""
    return np.cumsum(np.concatenate(([total], terms)))[1:]


def _analytic_tail(dist: ImpedanceDistribution, dim: int, delta: float,
                   start: int):
    """Bounds (lo, hi) on sum of series terms at distinct indices > start.

    Returns (lo, hi, certified); hi = inf means certified divergence, and an
    uncertified tail comes back (0, inf, False) -> inconclusive.  The terms
    are evaluated in blocks of indices (_index_blocks) and summed left to
    right.
    """
    bound = dist.abs_bound()
    if bound is not None:
        # finitely many nonzero terms: sum them directly
        idx_stop = int(math.ceil(bound / delta)) + 2
        total = 0.0
        for idx in _index_blocks(start, max(start + 1, idx_stop)):
            total = float(_running_sums(
                total, _tail_terms(dist, dim, delta, idx))[-1])
        return total, total, True
    if isinstance(dist, ParetoImag):
        a, s_min = dist.a, dist.s_min
        # advance until the survival is in its power-law regime: the head
        # is the indices with s <= s_min (1 + 1e-12), a run from start + 1
        idx0 = start
        head = 0.0
        for block in _index_blocks(start, start + 10_000_001):
            s = delta * (block if dim == 2 else np.sqrt(block * (block + 1)))
            idx = block[s <= s_min * (1 + 1e-12)]
            if idx.size:
                head = float(_running_sums(
                    head, _tail_terms(dist, dim, delta, idx))[-1])
            idx0 += idx.size
            if idx.size < block.size:
                break
        else:
            return 0.0, math.inf, False
        ratio = (s_min / delta) ** a
        if dim == 2:
            if a <= 1.0:
                return math.inf, math.inf, True
            z = hurwitz_zeta(a, idx0 + 1)
            val = head + 2.0 * ratio * z
            return val, val, True
        if a <= 2.0:
            return math.inf, math.inf, True
        hi = head + ratio * (2.0 * hurwitz_zeta(a - 1.0, idx0 + 1)
                             + hurwitz_zeta(a, idx0 + 1))
        lo = head + ratio * (2.0 * hurwitz_zeta(a - 1.0, idx0 + 2)
                             - hurwitz_zeta(a, idx0 + 2))
        return max(lo, 0.0), hi, True
    if isinstance(dist, HalfNormalReal):
        # gaussian decay: direct summation with a certified cutoff, the
        # first index whose envelope is negligible against the sum so far
        total = 0.0
        c = delta * delta / (2.0 * dist.sigma ** 2)
        for idx in _index_blocks(start, start + 50_000_001):
            totals = _running_sums(total, _tail_terms(dist, dim, delta, idx))
            envelope = (2 * idx + 1) * np.exp(-c * idx * idx)
            done = ((envelope < 1e-18 * np.maximum(totals, 1e-12))
                    | (envelope < 1e-280))
            if done.any():
                total = float(totals[np.argmax(done)])
                return total, total, True
            total = float(totals[-1])
        return 0.0, math.inf, False
    # any other law, such as a BoundedCustom table that does not reach F = 1
    return 0.0, math.inf, False


def _tails(dist: ImpedanceDistribution, spectrum: BoundarySpectrum,
           deltas) -> dict:
    """{delta: _analytic_tail(...)} beyond the spectrum's last mode.

    The verdicts are decided by these alone; the finite partial sums only
    feed `evidence`.  drop_prefix keeps mu[-1], so the tail index and the
    tails are those of the full spectrum for every dropped prefix: the
    criteria's prefix check (prefix_stable_verdicts) cannot report a
    change.
    """
    start = spectrum.tail_mode_index()
    return {delta: _analytic_tail(dist, spectrum.dim, delta, start)
            for delta in deltas}


def _tail_criterion(name, deltas, partials, tails) -> CriterionVerdict:
    """Verdict over the delta grid from the enumerated part partials[delta]
    plus the analytic tail beyond the enumeration, tails[delta]."""
    evidence = {}
    finite_flags = []
    for delta in deltas:
        partial = partials[delta]
        lo, hi, certified = tails[delta]
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
    """{delta: 1 - F(delta sqrt(mu)) as an array over the enumerated mu},
    one survival_abs call per delta; the series and expectation criteria
    both sum it."""
    roots = np.sqrt(spectrum.mu)
    return {delta: dist.survival_abs(delta * roots) for delta in deltas}


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
    return _series_verdict(spectrum, deltas,
                           _survivals(dist, spectrum, deltas),
                           _tails(dist, spectrum, deltas))


def expectation_criterion(dist: ImpedanceDistribution,
                          spectrum: BoundarySpectrum,
                          deltas=DEFAULT_DELTAS) -> CriterionVerdict:
    """Finiteness of E N(|zeta|^2/delta^2) via a Stieltjes sum against F.

    The enumerated part integrates the step function N between its jumps
    (N_i [F(s_{i+1}) - F(s_i)] summed, plus the boundary term), the analytic
    per-kind tail bounds what lies beyond the enumeration.
    """
    return _expectation_verdict(spectrum, deltas,
                                _survivals(dist, spectrum, deltas),
                                _tails(dist, spectrum, deltas))


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
    prefixes], from one survival pass over the whole spectrum and one
    analytic tail per delta.

    A dropped spectrum's mu is the trailing slice spectrum.mu[cut:], the same
    floats, so each dropped spectrum sums the shared survival arrays from
    offset cut and gets the same bits as its own pass would; it also keeps
    mu[-1], and with it the tails.  The moment criterion does not depend on
    the spectrum's modes: every prefix shares one verdict.
    """
    survivals = _survivals(dist, spectrum, deltas)
    tails = _tails(dist, spectrum, deltas)
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
