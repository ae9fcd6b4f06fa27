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
from randbc.config import ConfigError, ExperimentConfig, RunManifest, StageTimer
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
    cfgmod.validate_config(cfg)
    out_dir = cfgmod.resolve_out_dir(cfg, args.out)
    os.makedirs(out_dir, exist_ok=True)
    manifest = RunManifest(config_hash=cfg.hash(), seed=cfg.seed,
                           artifact_version=randbc.__version__)
    return cfg, out_dir, manifest


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


def run_lab(cfg: ExperimentConfig, out_dir: str, manifest: RunManifest) -> int:
    timer = StageTimer(manifest)
    with timer.stage("lab_suite"):
        report = labsuite.run_invariant_suite(
            seed=cfg.seed,
            n_values=[int(n) for n in cfg.get("lab", "n_values",
                                              default=[8, 12, 16], listy=True)],
            green_pairs=int(cfg.get("lab", "green_pairs", default=1000)),
            contractions=int(cfg.get("lab", "contractions", default=500)),
            krein_triples=int(cfg.get("lab", "krein_triples", default=200)),
            rank_pairs=int(cfg.get("lab", "rank_pairs", default=100)),
            injectivity_pairs=int(cfg.get("lab", "injectivity_pairs",
                                          default=100)))
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


def _material(cfg) -> MaterialParams:
    boundary = str(cfg.get("model", "boundary", default="circle"))
    return MaterialParams(a=float(cfg.get("model", "a", default=1.0)),
                          b=float(cfg.get("model", "b", default=1.0)),
                          dim=2 if boundary == "circle" else 3)


def run_disk_spectrum(cfg, out_dir, manifest) -> int:
    params = _material(cfg)
    dist = cfgmod.build_distribution(cfg)
    modes = int(cfg.get("disk", "modes", default=5))
    window = [float(x) for x in cfg.get("disk", "window",
                                        default=[1.0, 10.0], listy=True)]
    n_spot = int(cfg.get("disk", "oracle_spot_checks", default=5))
    stream = impedance.SeededStream(cfg.seed, 1)
    timer = StageTimer(manifest)
    rows, warnings, results = [], [], []
    with timer.stage("solve_modes"):
        zetas = impedance.sample_sequence(dist, modes + 1, stream)
        for mode in range(modes + 1):
            res = disk_model.solve_mode_eigenvalues(
                mode, zetas[mode], params, window)
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
            oracle = disk_model.fd_oracle(mode, res.zeta, params,
                                          grid=2048, n_values=len(low))
            rel = max(abs(a - b) / abs(a)
                      for a, b in zip(low, oracle[:len(low)]))
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
        "boundary": "circle" if params.dim == 2 else "sphere",
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


def run_weyl_fit(cfg, out_dir, manifest) -> int:
    lo = float(cfg.get("weylfit", "lambda_lo", default=1e3))
    hi = float(cfg.get("weylfit", "lambda_hi", default=1e7))
    boundaries = [str(b) for b in cfg.get(
        "weylfit", "boundaries", default=["circle", "sphere"], listy=True)]
    timer = StageTimer(manifest)
    rows, summary = [], {}
    with timer.stage("fits"):
        for boundary in boundaries:
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


def run_criteria(cfg, out_dir, manifest) -> int:
    deltas = tuple(float(d) for d in cfg.get(
        "criteria", "deltas", default=[0.01, 0.1, 1.0, 10.0], listy=True))
    mu_max = float(cfg.get("criteria", "mu_max", default=4.0e4))
    prefixes = [int(p) for p in cfg.get("criteria", "prefixes",
                                        default=[10, 100, 1000], listy=True)]
    family = builtin_distribution_family()
    if cfg.get("distribution", "kind") is not None:
        family = [("configured", cfgmod.build_distribution(cfg))] + family
    spectra = {b: weyl.boundary_spectrum(b, mu_max)
               for b in ("circle", "sphere")}
    for boundary, spectrum in spectra.items():
        for prefix in prefixes:
            if prefix >= spectrum.n_modes:
                raise ConfigError(
                    f"prefix {prefix} removes the whole enumerated {boundary} "
                    f"spectrum ({spectrum.n_modes} modes up to mu_max)")
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


def run_transition(cfg, out_dir, manifest) -> int:
    a_grid = [float(a) for a in cfg.get(
        "transition", "a_grid", default=[0.5, 1.0, 1.5, 2.0, 3.0], listy=True)]
    trials = int(cfg.get("transition", "trials", default=1000))
    m_modes = int(cfg.get("transition", "m_modes", default=10_000))
    s_min = float(cfg.get("transition", "s_min", default=1.0))
    eps_grid = tuple(float(e) for e in cfg.get(
        "transition", "eps", default=[0.75, 0.1, 0.01], listy=True))
    deltas = tuple(float(d) for d in cfg.get(
        "transition", "deltas", default=[0.01, 0.1, 1.0, 10.0], listy=True))
    mu_max = float(cfg.get("transition", "mu_max", default=4.0e4))
    boundaries = [str(b) for b in cfg.get(
        "transition", "boundaries", default=["circle", "sphere"], listy=True)]
    timer = StageTimer(manifest)
    rows, summary = [], {}
    for bi, boundary in enumerate(boundaries):
        spectrum = weyl.boundary_spectrum(boundary, mu_max)
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
        cfg, out_dir, manifest = _prepare(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_USAGE
    try:
        return _RUNNERS[args.subcommand](cfg, out_dir, manifest)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_USAGE
    except ConvergenceError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
