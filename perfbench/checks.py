"""Correctness checks on one iteration's CLI outputs.

Every check returns (attempted, failed) operation counts.  The checks hold
for any seed and use scipy.special, not randbc's own kernels.
"""
import csv
import json
import math
import os

EIG_RESIDUAL_TOL = 1e-8    # scaled secular residual of a written eigenvalue
ORACLE_TOL = 1e-4          # acceptance_05's secular-vs-FD tolerance
DISSIPATIVE_TOL = 1e-10    # Im lambda <= this
MC_EPS = 0.75              # acceptance_09's Monte Carlo level
WEYL_TOL = 0.02            # acceptance_07's exponent tolerance
COMPACT, NOT_COMPACT = "compact_as", "not_compact_as"


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def secular_residual(dim, mu, zeta, lam, a=1.0, b=1.0):
    """|F(lam)| / (|F'(lam)| max(1, |lam|)) for the secular function
    F(lam) = sqrt(b/a) C'(w) - i zeta C(w), w = sqrt(ab) lam, with C = J_k
    (dim 2) or j_l (dim 3).  C'' comes from the radial Bessel ODE
    w^2 C'' + (dim-1) w C' + (w^2 - mu) C = 0.  Near a simple root this is
    the root's relative error."""
    from scipy import special

    order = round(math.sqrt(mu)) if dim == 2 else round(
        (math.sqrt(1.0 + 4.0 * mu) - 1.0) / 2.0)
    w = math.sqrt(a * b) * complex(lam)
    if dim == 2:
        c, dc = special.jv(order, w), special.jvp(order, w)
    else:
        c = special.spherical_jn(order, w)
        dc = special.spherical_jn(order, w, derivative=True)
    ddc = -(dim - 1) / w * dc - (1.0 - mu / (w * w)) * c
    root = math.sqrt(b / a)
    f = root * dc - 1j * zeta * c
    df = math.sqrt(a * b) * (root * ddc - 1j * zeta * dc)
    return abs(f) / max(abs(df) * max(1.0, abs(lam)), 1e-300)


def check_disk(out_dir, dim, n_spot, a=1.0, b=1.0):
    """One operation per mode solve and per oracle spot check.

    A mode fails when one of its eigenvalues is not a root to
    EIG_RESIDUAL_TOL, is not dissipative, or its continuation stalled.  A
    spot check fails above ORACLE_TOL; spot checks the CLI skipped count as
    failed.
    """
    modes = _read_csv(os.path.join(out_dir, "impedance_sequence.csv"))
    rows = _read_csv(os.path.join(out_dir, "eigenvalues.csv"))
    summary = _read_json(os.path.join(out_dir, "summary.json"))
    bad = set()
    for row in rows:
        zeta = complex(float(row["re_zeta"]), float(row["im_zeta"]))
        lam = complex(float(row["re_lambda"]), float(row["im_lambda"]))
        if (lam.imag > DISSIPATIVE_TOL
                or not secular_residual(dim, float(row["mu"]), zeta, lam, a, b)
                <= EIG_RESIDUAL_TOL):
            bad.add(int(row["mode"]))
    for warning in summary["warnings"]:
        if "stalled" in warning:
            bad.add(int(warning.split(":")[0].split()[1]))
    spot_want = min(n_spot, len(modes))
    spot_ok = sum(1 for s in summary["oracle_spot_checks"]
                  if s["rel_disagreement"] <= ORACLE_TOL)
    return len(modes) + spot_want, len(bad) + spot_want - spot_ok


def check_transition(out_dir):
    """One operation per (boundary, a) entry.

    The analytic verdicts must be compact exactly for a > a_c = d - 1.  On
    acceptance_09's pair a = a_c - 1/2 and a = a_c + 1, the Monte Carlo
    fractions at eps = 0.75 must end <= 0.05 (resp. >= 0.95) and move
    monotonically to within 0.02 across the three truncations.
    """
    summary = _read_json(os.path.join(out_dir, "transition_summary.json"))
    m = summary["m_modes"]
    truncations = [m // 4, m // 2, m]
    attempted = failed = 0
    for boundary, entries in summary["results"].items():
        for label, entry in entries.items():
            attempted += 1
            a = float(label.split("=")[1])
            a_c = entry["critical_exponent"]
            want = COMPACT if a > a_c else NOT_COMPACT
            ok = all(entry["verdicts"][c] == want
                     for c in ("series", "expectation", "moment"))
            fr = [entry["fractions"][f"eps={MC_EPS:g},M={t}"]
                  for t in truncations]
            if a == a_c + 1.0:
                ok = ok and fr[-1] >= 0.95 and all(
                    x <= y + 0.02 for x, y in zip(fr, fr[1:]))
            elif a == a_c - 0.5:
                ok = ok and fr[-1] <= 0.05 and all(
                    x >= y - 0.02 for x, y in zip(fr, fr[1:]))
            failed += not ok
    return attempted, failed


def check_lab(out_dir):
    """One operation per lab invariant: within its tolerance and named by no
    violation."""
    report = _read_json(os.path.join(out_dir, "lab_report.json"))
    violated = {v["invariant"] for v in report["violations"]}
    names = set(report["invariants"]) | violated
    failed = 0
    for name in names:
        entry = report["invariants"].get(name, {})
        worst = max(entry.get("max_residual", 0.0),
                    entry.get("failures", 0), entry.get("max_violation", 0.0))
        within = worst <= entry.get("tolerance", 0)
        failed += name in violated or not within
    return len(names), failed


def check_criteria(out_dir):
    """One operation per criteria row: consistent and prefix invariant.

    The CLI writes distribution labels such as `uniform_disc(r=1,c=1)`
    unquoted, so the row is read from its right end."""
    with open(os.path.join(out_dir, "criteria.csv"), newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    failed = sum(1 for r in rows if r[-2:] != ["1", "1"])
    return len(rows), failed


def check_weyl_fit(out_dir):
    """One operation per boundary: exponent within WEYL_TOL of (d-1)/2."""
    rows = _read_csv(os.path.join(out_dir, "weyl_fit.csv"))
    failed = sum(1 for r in rows
                 if not abs(float(r["exponent"]) - float(r["target"]))
                 <= WEYL_TOL)
    return len(rows), failed


def data_digests(out_dir):
    """sha256 of every file the manifest lists."""
    return _read_json(os.path.join(out_dir, "manifest.json"))["files"]
