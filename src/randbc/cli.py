"""Reproducible experiment runner.

Subcommands: lab, disk-spectrum, weyl-fit, criteria, transition.
Exit codes: 0 success, 1 usage/config error, 2 invariant violation,
3 numerical failure.  Outputs: CSV + JSON data files, config echo, and a
manifest with sha256 checksums; identical (config, seed) gives byte-identical
data files for any thread count.
"""
import argparse
import os
import sys

import numpy as np

import randbc
from randbc import config as cfgmod
from randbc import disk_model, impedance, labsuite, serialize, weyl
from randbc.config import ConfigError, RunManifest, StageTimer
from randbc.disk_model import ConvergenceError, MaterialParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser():
    parser = _Parser(prog="randbc",
                     description="random dissipative boundary-condition lab")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in cfgmod.SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="experiment config (INI)")
        p.add_argument("--seed", type=int, default=None,
                       help="override [run] seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="Monte Carlo worker threads for `transition`; "
                            "shows that results do not depend on the "
                            "thread count, does not make runs faster")
    return parser


def _prepare(args):
    cfg = cfgmod.load_config(args.config, args.subcommand)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.threads is not None:
        cfg.threads = args.threads
    params = cfgmod.validate_config(cfg)
    out_dir = cfgmod.resolve_out_dir(cfg, args.out)
    os.makedirs(out_dir, exist_ok=True)
    manifest = RunManifest(config_hash=cfg.hash(), seed=cfg.seed,
                           artifact_version=randbc.__version__)
    return cfg, params, out_dir, manifest


def _save(files, out_dir, name, write, *data):
    """write(path, *data) to out_dir/name and list the file in files."""
    path = os.path.join(out_dir, name)
    write(path, *data)
    files[name] = path


def _finish(cfg, out_dir, manifest, files):
    echo = os.path.join(out_dir, "config_echo.ini")
    with open(echo, "w") as fh:
        fh.write(cfg.canonical_text())
    files["config_echo.ini"] = echo
    for name, path in sorted(files.items()):
        manifest.add_file(name, path)
    serialize.write_json(os.path.join(out_dir, "manifest.json"),
                         manifest.payload())


def run_lab(cfg, p, out_dir, manifest) -> int:
    timer = StageTimer(manifest)
    with timer.stage("lab_suite"):
        report = labsuite.run_invariant_suite(seed=cfg.seed, **p)
    files = {}
    _save(files, out_dir, "lab_report.json", serialize.write_json, report)
    if not report["passed"]:
        bad = report["violations"][0]
        _save(files, out_dir, "failing_case.json", serialize.write_json, bad)
        if "k" in bad:
            _save(files, out_dir, "failing_contraction.txt",
                  serialize.save_matrix, np.array(bad["k"], dtype=complex))
    _finish(cfg, out_dir, manifest, files)
    return EXIT_OK if report["passed"] else EXIT_INVARIANT


def run_disk_spectrum(cfg, p, out_dir, manifest) -> int:
    params = MaterialParams(a=p["a"], b=p["b"],
                            dim=2 if p["boundary"] == "circle" else 3)
    dist, modes, window = p["distribution"], p["modes"], p["window"]
    n_spot = p["oracle_spot_checks"]
    stream = impedance.SeededStream(cfg.seed, 1)
    timer = StageTimer(manifest)
    rows, warnings, results = [], [], []
    with timer.stage("solve_modes"):
        zetas = impedance.sample_sequence(dist, modes + 1, stream)
        # every mode scans the same lam grid: C and C' of all modes in one
        # batched kernel call
        grids = disk_model.radial_grids(range(modes + 1), params, window)
        for mode, grid in enumerate(grids):
            res = disk_model.solve_mode_eigenvalues(
                mode, zetas[mode], params, window, grid)
            results.append(res)
            rows.extend(disk_model.eigenvalue_rows(res))
            warnings.extend(f"mode {mode}: {w}" for w in res.warnings)
    spot = []
    with timer.stage("oracle_spot_checks"):
        spot_rng = stream.child(999).generator()
        spot_modes = sorted(spot_rng.choice(
            modes + 1, size=min(n_spot, modes + 1), replace=False).tolist())
        for mode in spot_modes:
            res = results[mode]
            low = sorted(res.eigenvalues, key=lambda z: z.real)[:3]
            if not low:
                continue
            # the oracle's default window, raised past the highest root it
            # is asked for when that root lies beyond it
            spot_window = disk_model.oracle_window(mode, params, window[0],
                                                   low[-1].real)
            if window[0] >= spot_window[1]:
                # the oracle's lowest roots all lie below the config window,
                # so pairing them by rank with the secular roots would
                # compare different roots
                spot.append({"mode": mode, "skipped": (
                    f"window starts at lam = {window[0]:.6g}, at or above "
                    f"the FD oracle's window end {spot_window[1]:.6g}")})
                continue
            oracle = disk_model.fd_oracle(mode, res.zeta, params, grid=2048,
                                          window=spot_window,
                                          n_values=len(low))
            rel = max(abs(a - b) / abs(a) for a, b in zip(low, oracle))
            spot.append({"mode": mode, "rel_disagreement": rel})
    files = {}
    _save(files, out_dir, "eigenvalues.csv", serialize.write_csv,
          ["mode", "mu", "re_zeta", "im_zeta", "re_lambda", "im_lambda",
           "method", "residual"], rows)
    _save(files, out_dir, "impedance_sequence.csv", serialize.write_csv,
          ["mode", "mu", "re_zeta", "im_zeta"],
          [[mode, disk_model.mode_mu(params, mode),
            zetas[mode].real, zetas[mode].imag]
           for mode in range(modes + 1)])
    min_im = min((row[5] for row in rows), default=float("nan"))
    summary = {
        "seed": cfg.seed,
        "boundary": p["boundary"],
        "distribution": dist.label(),
        "modes": modes,
        "window": window,
        "eigenvalue_count": len(rows),
        "min_im_lambda": min_im,
        "oracle_spot_checks": spot,
        "warnings": warnings,
    }
    _save(files, out_dir, "summary.json", serialize.write_json, summary)
    _finish(cfg, out_dir, manifest, files)
    return EXIT_OK


def run_weyl_fit(cfg, p, out_dir, manifest) -> int:
    lo, hi = p["lambda_lo"], p["lambda_hi"]
    timer = StageTimer(manifest)
    rows, summary = [], {}
    with timer.stage("fits"):
        for boundary in p["boundaries"]:
            spectrum = weyl.boundary_spectrum(boundary, hi)
            fit = weyl.weyl_exponent_fit(weyl.CountingFunction(spectrum),
                                         lo, hi)
            target = (spectrum.dim - 1) / 2.0
            rows.append([boundary, lo, hi, fit.exponent, fit.stderr, target])
            summary[boundary] = {"exponent": fit.exponent,
                                 "stderr": fit.stderr, "target": target}
    files = {}
    _save(files, out_dir, "weyl_fit.csv", serialize.write_csv,
          ["boundary", "lambda_lo", "lambda_hi", "exponent", "stderr",
           "target"], rows)
    _save(files, out_dir, "summary.json", serialize.write_json, summary)
    _finish(cfg, out_dir, manifest, files)
    return EXIT_OK


def builtin_distribution_family():
    return [
        ("point_mass(1i)", impedance.PointMass(1j)),
        ("uniform_disc(r=1,c=1)", impedance.UniformDisc(1.0, 1.0)),
        ("uniform_segment(0,2)", impedance.UniformImagSegment(0.0, 2.0)),
        ("half_normal(sigma=1)", impedance.HalfNormalReal(1.0)),
        ("pareto(a=3)", impedance.ParetoImag(3.0, 1.0)),
        ("pareto(a=0.5)", impedance.ParetoImag(0.5, 1.0)),
    ]


def run_criteria(cfg, p, out_dir, manifest) -> int:
    deltas, mu_max, prefixes = p["deltas"], p["mu_max"], p["prefixes"]
    family = builtin_distribution_family()
    if p["distribution"] is not None:
        family = [("configured", p["distribution"])] + family
    spectra = {b: weyl.boundary_spectrum(b, mu_max)
               for b in ("circle", "sphere")}
    for boundary, spectrum in spectra.items():
        for prefix in prefixes:
            if prefix >= spectrum.n_modes:
                raise ConfigError(
                    f"[criteria] prefixes: {prefix} removes the whole "
                    f"enumerated {boundary} spectrum ({spectrum.n_modes} "
                    f"modes up to mu_max)")
    timer = StageTimer(manifest)
    rows, summary, consistent = [], {}, True
    with timer.stage("criteria"):
        for boundary, spectrum in spectra.items():
            for label, dist in family:
                verdicts, stable = weyl.prefix_stable_verdicts(
                    dist, spectrum, deltas, prefixes)
                ok = weyl.verdicts_consistent(verdicts)
                consistent = consistent and ok
                for v in verdicts:
                    rows.append([label, boundary, v.criterion, v.verdict,
                                 int(ok), int(stable)])
                summary.setdefault(boundary, {})[label] = {
                    "verdicts": {v.criterion: v.verdict for v in verdicts},
                    "consistent": ok,
                    "prefix_invariant": stable,
                }
                consistent = consistent and stable
    files = {}
    _save(files, out_dir, "criteria.csv", serialize.write_csv,
          ["distribution", "boundary", "criterion", "verdict", "consistent",
           "prefix_invariant"], rows)
    _save(files, out_dir, "summary.json", serialize.write_json,
          {"seed": cfg.seed, "deltas": list(deltas), "mu_max": mu_max,
           "prefixes": prefixes, "consistent": consistent,
           # reserved: criteria run verbatim on any externally supplied
           # (mu, multiplicity) table
           "spectrum_source": "builtin-exact",
           "results": summary})
    _finish(cfg, out_dir, manifest, files)
    return EXIT_OK if consistent else EXIT_INVARIANT


def run_transition(cfg, p, out_dir, manifest) -> int:
    a_grid, trials, m_modes = p["a_grid"], p["trials"], p["m_modes"]
    s_min, eps_grid, deltas = p["s_min"], p["eps"], p["deltas"]
    timer = StageTimer(manifest)
    rows, summary = [], {}
    for bi, boundary in enumerate(p["boundaries"]):
        spectrum = weyl.boundary_spectrum(boundary, p["mu_max"])
        dists = [(f"a={a:g}", impedance.ParetoImag(a, s_min)) for a in a_grid]
        stream = impedance.SeededStream(cfg.seed, 1_000_000 + bi)
        with timer.stage(f"monte_carlo_{boundary}"):
            entries = weyl.monte_carlo_transition(
                dists, boundary, trials, m_modes, stream,
                eps_grid=eps_grid, threads=cfg.threads)
        truncations = [m_modes // 4, m_modes // 2, m_modes]
        with timer.stage(f"criteria_{boundary}"):
            for (label, dist), entry in zip(dists, entries):
                verdicts = weyl.standard_verdicts(dist, spectrum, deltas) + [
                    weyl.limit_criterion_from_transition(
                        entry, eps_grid[0], truncations)]
                for cell in entry.cells:
                    rows.append([boundary, label, cell.eps, cell.truncation,
                                 cell.fraction])
                summary.setdefault(boundary, {})[label] = {
                    "verdicts": {v.criterion: v.verdict for v in verdicts},
                    "fractions": {
                        f"eps={cell.eps:g},M={cell.truncation}": cell.fraction
                        for cell in entry.cells},
                    "critical_exponent": spectrum.dim - 1,
                }
    files = {}
    _save(files, out_dir, "transition.csv", serialize.write_csv,
          ["boundary", "parameter", "eps", "truncation", "fraction"], rows)
    _save(files, out_dir, "transition_summary.json", serialize.write_json,
          {"a_grid": a_grid, "trials": trials, "m_modes": m_modes,
           "s_min": s_min, "eps_grid": list(eps_grid),
           "deltas": list(deltas), "seed": cfg.seed, "results": summary})
    _finish(cfg, out_dir, manifest, files)
    return EXIT_OK


# runner(cfg, p, out_dir, manifest); p is what config.validate_config returns
_RUNNERS = {
    "lab": run_lab,
    "disk-spectrum": run_disk_spectrum,
    "weyl-fit": run_weyl_fit,
    "criteria": run_criteria,
    "transition": run_transition,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg, params, out_dir, manifest = _prepare(args)
        return _RUNNERS[args.subcommand](cfg, params, out_dir, manifest)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_USAGE
    except ConvergenceError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
