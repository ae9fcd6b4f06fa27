"""CLI subcommands: config validation, outputs, manifests, determinism."""
import configparser
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import event, example, given, seed, settings, strategies as st

from randbc import cli, disk_model
from randbc.config import ConfigError, load_config, validate_config, config_roundtrip
from randbc.disk_model import MaterialParams


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


LAB_SMALL = """
[run]
seed = 4242
[lab]
n_values = 8, 12
green_pairs = 120
contractions = 60
krein_triples = 20
rank_pairs = 20
injectivity_pairs = 20
"""


def test_lab_runs_clean(tmp_path):
    cfg = write_config(tmp_path, LAB_SMALL)
    out = str(tmp_path / "out")
    rc = cli.main(["lab", cfg, "--out", out])
    assert rc == 0
    report = json.load(open(os.path.join(out, "lab_report.json")))
    assert report["passed"]
    assert report["invariants"]["green_identity"]["max_residual"] <= 1e-12
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    for name, digest in manifest["files"].items():
        assert sha(os.path.join(out, name)) == digest


def test_lab_repeat_same_seed_identical(tmp_path):
    cfg = write_config(tmp_path, LAB_SMALL)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert cli.main(["lab", cfg, "--out", out1]) == 0
    assert cli.main(["lab", cfg, "--out", out2]) == 0
    assert sha(os.path.join(out1, "lab_report.json")) == \
        sha(os.path.join(out2, "lab_report.json"))


def test_lab_rejects_bad_n(tmp_path):
    cfg = write_config(tmp_path, "[lab]\nn_values = 3, 8\n")
    rc = cli.main(["lab", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1


def test_unknown_subcommand_usage_error(tmp_path):
    assert cli.main(["frobnicate", "x.ini"]) == 1


def test_missing_config_is_usage_error(tmp_path):
    assert cli.main(["lab", str(tmp_path / "missing.ini")]) == 1


DISK_NEUMANN = """
[run]
seed = 7
[model]
boundary = circle
a = 1.0
b = 1.0
[distribution]
kind = point_mass
z0 = 0
[disk]
modes = 5
window = 1.0, 10.0
oracle_spot_checks = 2
"""


def test_disk_spectrum_neumann_table(tmp_path):
    cfg = write_config(tmp_path, DISK_NEUMANN)
    out = str(tmp_path / "out")
    assert cli.main(["disk-spectrum", cfg, "--out", out]) == 0
    rows = open(os.path.join(out, "eigenvalues.csv")).read().splitlines()
    assert rows[0] == "mode,mu,re_zeta,im_zeta,re_lambda,im_lambda,method,residual"
    data = [r.split(",") for r in rows[1:]]
    first_neumann = {0: 3.8317059702075123, 1: 1.8411837813406593,
                     2: 3.0542369282271403, 3: 4.2011889412105285,
                     4: 5.3175531260839944}
    for mode, want in first_neumann.items():
        got = [float(r[4]) for r in data if r[0] == str(mode)]
        assert abs(got[0] - want) <= 1e-8, (mode, got[:1], want)
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["eigenvalue_count"] == len(data)
    for spot in summary["oracle_spot_checks"]:
        assert spot["rel_disagreement"] <= 1e-3


def test_disk_spectrum_dissipative_summary(tmp_path):
    cfg = write_config(tmp_path, DISK_NEUMANN.replace("z0 = 0", "z0 = 1.0"))
    out = str(tmp_path / "out")
    assert cli.main(["disk-spectrum", cfg, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["min_im_lambda"] < 0.0


def test_disk_reproducible_checksum(tmp_path):
    cfg = write_config(tmp_path, DISK_NEUMANN.replace("point_mass", "point_mass")
                       .replace("z0 = 0", "z0 = 0.5+0.5j"))
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert cli.main(["disk-spectrum", cfg, "--out", out]) == 0
        outs.append(sha(os.path.join(out, "eigenvalues.csv")))
    assert outs[0] == outs[1]


def test_disk_window_validation(tmp_path):
    cfg = write_config(tmp_path, DISK_NEUMANN.replace(
        "window = 1.0, 10.0", "window = 10.0, 1.0"))
    assert cli.main(["disk-spectrum", cfg, "--out", str(tmp_path / "o")]) == 1


WEYL_FIT = """
[run]
seed = 1
[weylfit]
lambda_lo = 1e3
lambda_hi = 1e7
boundaries = circle, sphere
"""


def test_weyl_fit_outputs(tmp_path):
    cfg = write_config(tmp_path, WEYL_FIT)
    out = str(tmp_path / "out")
    assert cli.main(["weyl-fit", cfg, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert abs(summary["circle"]["exponent"] - 0.5) <= 0.02
    assert abs(summary["sphere"]["exponent"] - 1.0) <= 0.02


CRITERIA = """
[run]
seed = 1
[criteria]
deltas = 0.01, 0.1, 1, 10
mu_max = 1e6
prefixes = 10, 100, 1000
"""


def test_criteria_consistent(tmp_path):
    cfg = write_config(tmp_path, CRITERIA)
    out = str(tmp_path / "out")
    assert cli.main(["criteria", cfg, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["consistent"]
    circle = summary["results"]["circle"]
    assert circle["pareto(a=3)"]["verdicts"]["series"] == "compact_as"
    assert circle["pareto(a=0.5)"]["verdicts"]["moment"] == "not_compact_as"


TRANSITION_SMALL = """
[run]
seed = 31415
[transition]
a_grid = 0.5, 1, 1.5, 2, 3
trials = 120
m_modes = 2000
boundaries = circle
eps = 0.75, 0.1
"""


def test_transition_verdict_flip_and_flags(tmp_path):
    cfg = write_config(tmp_path, TRANSITION_SMALL)
    out = str(tmp_path / "out")
    assert cli.main(["transition", cfg, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "transition_summary.json")))
    verd = {a: summary["results"]["circle"][f"a={a:g}"]["verdicts"]["moment"]
            for a in (0.5, 1.0, 1.5, 2.0, 3.0)}
    assert verd[0.5] == verd[1.0] == "not_compact_as"
    assert verd[1.5] == verd[2.0] == verd[3.0] == "compact_as"


def test_transition_empty_grid_rejected(tmp_path):
    cfg = write_config(tmp_path, TRANSITION_SMALL.replace(
        "a_grid = 0.5, 1, 1.5, 2, 3", "a_grid ="))
    assert cli.main(["transition", cfg, "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("sub,old,new,key", [
    ("criteria", "prefixes = 10, 100, 1000", "prefixes = -1", "prefixes"),
    ("criteria", "mu_max = 1e6\nprefixes = 10, 100, 1000",
     "mu_max = 4\nprefixes = 1000", "prefixes"),
    ("criteria", "mu_max = 1e6", "mu_max = 0.5", "mu_max"),
    ("transition", "boundaries = circle", "boundaries = circle\nmu_max = 0.5",
     "mu_max"),
    ("criteria", "mu_max = 1e6", "mu_max = abc", "mu_max"),
    ("criteria", "mu_max = 1e6", "mu_max = 1j", "mu_max"),
    ("transition", "seed = 31415", "seed = 31415\nthreads = x", "threads"),
    ("lab", "n_values = 8, 12", "n_values = 8, x", "n_values"),
    ("transition", "trials = 120", "trials = inf", "trials"),
    ("disk-spectrum", "oracle_spot_checks = 2", "oracle_spot_checks = -1",
     "oracle_spot_checks"),
    ("transition", "trials = 120", "trials = 120\ns_min = -1", "s_min"),
    ("transition", "trials = 120", "trials = 120\ndeltas = -1", "deltas"),
    ("disk-spectrum", "modes = 5", "modes = 1.7", "modes"),
    ("disk-spectrum", "\na = 1.0", "\na = nan", "a"),
    ("disk-spectrum", "modes = 5", "mode = 3", "mode"),
    ("transition", "trials = 120", "trials = 120\ntrials = 130", "trials"),
    ("lab", "seed = 4242", "seed = -5", "seed"),
    ("criteria", "prefixes = 10, 100, 1000",
     "prefixes = 10, 100, 1000\n[distribution]\nkind = pareto_imaginary\n"
     "a = nan", "[distribution] a"),
    ("disk-spectrum", "z0 = 0", "z0 = nan", "[distribution] z0"),
    ("disk-spectrum", "a = 1.0\nb = 1.0\n", "a = 1000.5\nb = 1000.5\n",
     "window"),
], ids=["negative-prefix", "prefix-past-spectrum", "criteria-mu_max",
        "transition-mu_max", "mu_max-not-a-number", "mu_max-complex",
        "threads-not-a-number", "n_values-item-not-a-number", "trials-inf",
        "negative-oracle_spot_checks", "negative-s_min",
        "transition-negative-deltas", "modes-not-integral", "a-nan",
        "misspelt-key", "repeated-key", "negative-seed",
        "distribution-a-nan", "distribution-z0-nan", "bessel-argument"])
def test_bad_spectrum_inputs_are_config_errors(tmp_path, capsys, sub, old, new,
                                               key):
    text = {"criteria": CRITERIA, "transition": TRANSITION_SMALL,
            "lab": LAB_SMALL, "disk-spectrum": DISK_NEUMANN}[sub]
    assert text.count(old) == 1
    cfg = write_config(tmp_path, text.replace(old, new))
    assert cli.main([sub, cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err


def test_bessel_argument_edge_is_accepted(tmp_path):
    # sqrt(ab) * hi = 1e4 is the kernels' validated |x| itself; the
    # bessel-argument case above rejects sqrt(ab) * hi = 10,005.  The window
    # starts at lam = 1, above the FD oracle's window end (mode + 16) /
    # sqrt(ab) = 0.16, so the spot check records a skip instead of pairing
    # the oracle's roots below w = 16 with the secular roots above w = 100
    cfg = write_config(tmp_path, DISK_NEUMANN.replace(
        "a = 1.0\nb = 1.0\n", "a = 100.0\nb = 100.0\n").replace(
        "modes = 5\nwindow = 1.0, 10.0", "modes = 0\nwindow = 1.0, 100.0"))
    out = str(tmp_path / "o")
    assert cli.main(["disk-spectrum", cfg, "--out", out]) == 0
    with open(os.path.join(out, "summary.json")) as fh:
        spot = json.load(fh)["oracle_spot_checks"]
    assert spot == [{"mode": 0, "skipped": "window starts at lam = 1, at or "
                     "above the FD oracle's window end 0.16"}]


def test_transition_thread_invariance_bytes(tmp_path):
    cfg = write_config(tmp_path, TRANSITION_SMALL)
    digests = []
    for name, threads in (("t1", "1"), ("t4", "4")):
        out = str(tmp_path / name)
        assert cli.main(["transition", cfg, "--out", out,
                         "--threads", threads]) == 0
        digests.append((sha(os.path.join(out, "transition.csv")),
                        sha(os.path.join(out, "transition_summary.json"))))
    assert digests[0] == digests[1]


def test_env_var_out_dir(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, WEYL_FIT)
    target = str(tmp_path / "envout")
    monkeypatch.setenv("RANDBC_OUT", target)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["weyl-fit", cfg]) == 0
    assert os.path.exists(os.path.join(target, "summary.json"))


def test_config_roundtrip_lossless(tmp_path):
    path = write_config(tmp_path, DISK_NEUMANN)
    cfg = load_config(path, "disk-spectrum")
    validate_config(cfg)
    clone = config_roundtrip(cfg)
    assert clone.sections == cfg.sections
    assert clone.hash() == cfg.hash()


DISK_BALL = DISK_NEUMANN.replace("boundary = circle", "boundary = sphere")


def test_disk_spectrum_ball_boundary(tmp_path):
    cfg = write_config(tmp_path, DISK_BALL)
    out = str(tmp_path / "out")
    assert cli.main(["disk-spectrum", cfg, "--out", out]) == 0
    rows = open(os.path.join(out, "eigenvalues.csv")).read().splitlines()
    data = [r.split(",") for r in rows[1:]]
    mode0 = [float(r[4]) for r in data if r[0] == "0"]
    # lowest ball Neumann value: first zero of the derivative of sin(x)/x
    assert abs(mode0[0] - 4.4934094579090642) <= 1e-8
    # mu column is l(l+1)
    mu1 = {float(r[1]) for r in data if r[0] == "1"}
    assert mu1 == {2.0}


# on the ball at zeta = 20i the third-lowest root of modes 32-34 lies above
# w = mode + 16, where the FD oracle's default window ends; seed 3 spot-checks
# modes 12 and 32
DISK_BALL_HIGH_ROOTS = (
    DISK_BALL.replace("seed = 7", "seed = 3").replace("z0 = 0", "z0 = 20j")
    .replace("modes = 5", "modes = 34")
    .replace("window = 1.0, 10.0", "window = 0.6283185307179586, 52.0"))


def test_spot_check_window_reaches_the_roots(tmp_path):
    # the spot check widens the oracle's window past the highest root it
    # asks for; with the default window mode 32 kept 2 roots, not 3 (exit 3)
    params = MaterialParams(a=1.0, b=1.0, dim=3)
    default = (0.2 * math.pi, 48.0)
    assert disk_model.oracle_window(32, params) == default
    assert disk_model.oracle_window(32, params, 1.0, 47.9) == default
    assert disk_model.oracle_window(32, params, 1.0, 48.2) == (
        0.2 * math.pi, 48.2 + math.pi)
    # a window from above the default end keeps it
    assert disk_model.oracle_window(32, params, 48.0, 50.0) == default
    cfg = write_config(tmp_path, DISK_BALL_HIGH_ROOTS)
    out = str(tmp_path / "out")
    assert cli.main(["disk-spectrum", cfg, "--out", out]) == 0
    spot = json.load(open(os.path.join(out, "summary.json")))[
        "oracle_spot_checks"]
    assert [c["mode"] for c in spot] == [12, 32]
    assert all(c["rel_disagreement"] <= 1e-4 for c in spot), spot


DISK_SCAN_CONFIGS = [
    DISK_NEUMANN.replace("kind = point_mass\nz0 = 0",
                         "kind = pareto_imaginary\na = 3.0\ns_min = 1.0")
    .replace("window = 1.0, 10.0", "window = 1.0, 55.0")
    .replace("oracle_spot_checks = 2", "oracle_spot_checks = 0"),
    DISK_BALL.replace("z0 = 0", "z0 = 0.5+0.5j")
    .replace("oracle_spot_checks = 2", "oracle_spot_checks = 0"),
]


def _counted_grid_calls(monkeypatch):
    """The (orders, points) of every batched grid call disk_model makes,
    the orders broadcast to one per point."""
    calls = []

    def counted(kernel):
        def call(k, xs):
            xs = np.asarray(xs)
            calls.append((np.broadcast_to(k, xs.shape).tolist(), xs.tolist()))
            return kernel(k, xs)
        return call

    for name in ("bessel_j_grid", "spherical_j_grid"):
        monkeypatch.setattr(disk_model, name,
                            counted(getattr(disk_model, name)))
    return calls


@pytest.mark.parametrize("config", DISK_SCAN_CONFIGS, ids=["circle", "sphere"])
def test_disk_spectrum_batched_scans_match_pointwise(tmp_path, monkeypatch,
                                                     config):
    # The real-axis scans evaluate their grids through the batched Bessel
    # kernels; the data files must be the ones per-point scans write.  With
    # _radial_grid reading C and C' point by point through the scalar
    # kernels, every scan, the grid of all modes, the certified count and
    # the subdivisions included, runs point by point: the pointwise run
    # makes no batched call at all.

    def pointwise_radial(modes, lams, params):
        evs = [[disk_model._radial(mode, params.wave_factor * lam, params)
                for lam in lams] for mode in modes]
        return (np.array([[ev.value.real for ev in row] for row in evs]),
                np.array([[ev.derivative.real for ev in row] for row in evs]))

    batched_calls = _counted_grid_calls(monkeypatch)
    cfg = write_config(tmp_path, config)
    files, calls = [], []
    for name in ("batched", "pointwise"):
        if name == "pointwise":
            monkeypatch.setattr(disk_model, "_radial_grid",
                                pointwise_radial)
        out = str(tmp_path / name)
        batched_calls.clear()
        assert cli.main(["disk-spectrum", cfg, "--out", out]) == 0
        calls.append(len(batched_calls))
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        files.append(manifest["files"])
    assert "eigenvalues.csv" in files[0]
    assert files[0] == files[1]
    assert calls[0] > 0 and calls[1] == 0


@pytest.mark.parametrize("config, coarse", [
    (DISK_SCAN_CONFIGS[0], None), (DISK_SCAN_CONFIGS[1], None),
    (DISK_NEUMANN.replace("oracle_spot_checks = 2", "oracle_spot_checks = 0")
     .replace("modes = 5", "modes = 0")
     .replace("window = 1.0, 10.0", "window = 3.0, 13.5"),
     [3.0, 7.5, 9.5, 13.5])], ids=["circle", "sphere", "subdivided"])
def test_disk_spectrum_one_batched_grid_call(tmp_path, monkeypatch, config,
                                             coarse):
    # A run of N modes evaluates C and C' of every mode on the shared scan
    # grid in one batched call of (N + 1) x len(scan_grid) (mode, w) pairs,
    # mode by mode; every later batched call holds the interior points of
    # ratio_roots' subdivisions, of one mode.  On the coarse grid two cells
    # of mode 0's Neumann scan hold two roots each, around j_{0,2} and
    # j_{0,4} (as in test_bessel_scan_subdivision_is_batched).
    from randbc import specfun

    calls = _counted_grid_calls(monkeypatch)
    subdivided = []
    subdivision = specfun._subdivision

    def recorded(lo, hi):
        points = subdivision(lo, hi)
        subdivided.append(points[1:-1])
        return points

    monkeypatch.setattr(specfun, "_subdivision", recorded)
    if coarse:
        monkeypatch.setattr(disk_model, "scan_grid",
                            lambda window, spacing: list(coarse))
    cfg = write_config(tmp_path, config)
    assert cli.main(["disk-spectrum", cfg, "--out",
                     str(tmp_path / "out")]) == 0
    p = validate_config(load_config(cfg, "disk-spectrum"))
    params = MaterialParams(a=p["a"], b=p["b"],
                            dim=2 if p["boundary"] == "circle" else 3)
    ws = [params.wave_factor * lam for lam in disk_model.scan_grid(
        p["window"], math.pi / params.wave_factor)]
    modes = range(p["modes"] + 1)
    assert calls[0] == ([mode for mode in modes for _ in ws],
                        ws * len(modes))
    for orders, _ in calls[1:]:
        assert len(set(orders)) == 1, orders
    assert [x for _, xs in calls[1:] for x in xs] == [
        params.wave_factor * x for sub in subdivided for x in sub]
    if coarse:
        assert [len(xs) for _, xs in calls] == [len(ws), 2 * 15]


def test_disk_spectrum_underflow_message(tmp_path, capsys):
    # CI's modes-200 copy of the example: J_k and J_k' underflow to 0.0
    # together from mode 157 on at lam = 1, which the one batched grid
    # reports for the lowest such mode, as mode-by-mode solves did
    text = open(os.path.join(REPO, "configs", "disk_spectrum.ini")).read()
    text = text.replace("modes = 8", "modes = 200").replace(
        "oracle_spot_checks = 5", "oracle_spot_checks = 0")
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out")
    assert cli.main(["disk-spectrum", cfg, "--out", out]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: mode 157: C(w) and C'(w) underflow to 0 at "
        "lam = 1, w = 1\n")
    assert not os.path.exists(os.path.join(out, "eigenvalues.csv"))


def test_disk_spectrum_count_mismatch_exits_3(tmp_path, monkeypatch):
    # at Re zeta = 0 a certified count that disagrees with the roots found
    # is a numerical failure (exit 3), not a warning in summary.json
    from randbc import specfun

    count = specfun.ratio_root_count
    monkeypatch.setattr(specfun, "ratio_root_count",
                        lambda fs, cs: count(fs, cs) + 1)
    cfg = os.path.join(REPO, "configs", "disk_spectrum.ini")
    out = str(tmp_path / "out")
    assert cli.main(["disk-spectrum", cfg, "--out", out]) == 3
    assert not os.path.exists(os.path.join(out, "summary.json"))


def test_criteria_with_configured_distribution(tmp_path):
    cfg = write_config(tmp_path, CRITERIA + """
[distribution]
kind = pareto_imaginary
a = 2.5
s_min = 1.0
""")
    out = str(tmp_path / "out")
    assert cli.main(["criteria", cfg, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    entry = summary["results"]["circle"]["configured"]
    assert entry["verdicts"]["moment"] == "compact_as"


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# example config -> section overrides that make it run in well under a second
SMALL_EXAMPLES = {
    "lab": ("lab.ini", {"lab": {
        "n_values": "8, 12", "green_pairs": "100", "contractions": "50",
        "krein_triples": "20", "rank_pairs": "20", "injectivity_pairs": "20"}}),
    "criteria": ("criteria.ini", {"criteria": {
        "mu_max": "1e4", "prefixes": "10, 100"}}),
    "weyl-fit": ("weyl_fit.ini", {"weylfit": {
        "lambda_lo": "1e2", "lambda_hi": "1e5"}}),
    "transition": ("transition.ini", {"transition": {
        "trials": "100", "m_modes": "1000"}}),
    "disk-spectrum": ("disk_spectrum.ini", {"disk": {
        "modes": "2", "window": "1.0, 6.0", "oracle_spot_checks": "0"}}),
}

BLOCKED_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None
from randbc import cli
print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""


def _python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_impedance_does_not_import_the_lab():
    # the transition path (impedance, weyl) loads no extension_lab; only the
    # matrix samplers import its ContractionOp, when called
    loaded = _python("import json, sys, randbc.weyl; print(json.dumps("
                     "'randbc.extension_lab' in sys.modules))")
    assert loaded is False


def test_runtime_without_scipy(tmp_path):
    loaded = _python("import json, sys, randbc.cli; print(json.dumps(sorted("
                     "m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    assert loaded == []
    argvs = {"blocked": [], "plain": []}
    for sub, (name, overrides) in SMALL_EXAMPLES.items():
        parser = configparser.ConfigParser()
        parser.read(os.path.join(REPO, "configs", name))
        parser.read_dict(overrides)
        cfg = tmp_path / name
        with open(cfg, "w") as fh:
            parser.write(fh)
        for kind, argv in argvs.items():
            argv.append([sub, str(cfg), "--out", str(tmp_path / kind / sub)])
    assert _python(BLOCKED_SCIPY_RUN, json.dumps(argvs["blocked"])) == \
        [0] * len(SMALL_EXAMPLES)
    for argv in argvs["plain"]:
        assert cli.main(argv) == 0
    for sub in SMALL_EXAMPLES:
        files = [json.load(open(tmp_path / kind / sub / "manifest.json"))["files"]
                 for kind in argvs]
        assert files[0] == files[1] and len(files[0]) >= 2, sub


DISK_GOLDEN = DISK_NEUMANN.replace(
    "kind = point_mass\nz0 = 0",
    "kind = pareto_imaginary\na = 3.0\ns_min = 1.0").replace(
    "modes = 5", "modes = 4").replace(
    "window = 1.0, 10.0", "window = 1.0, 30.0").replace(
    "oracle_spot_checks = 2", "oracle_spot_checks = 0")

# prefix 1 removes k = l = 0, 2 splits the k = 1 and l = 1 blocks, and 7
# splits the sphere's l = 2 block (1 + 3 + 3 of its 5 modes) and ends at the
# circle's k = 3 block (1 + 2 + 2 + 2)
CRITERIA_GOLDEN = """
[run]
seed = 1
[criteria]
deltas = 0.01, 0.1, 1, 10
mu_max = 50
prefixes = 1, 2, 7
[distribution]
kind = pareto_imaginary
a = 2.5
s_min = 1.0
"""

with open(os.path.join(REPO, "configs", "criteria.ini")) as _fh:
    CRITERIA_EXAMPLE = _fh.read()

# sha256 of the data files (config echo and manifest excluded) of small runs,
# by case: (subcommand, config, digests); a change here is a golden-file
# change and must be recorded as one.  The two disk-spectrum-* cases reach
# the paths DISK_GOLDEN does not: the circle to window 60, where J_k takes
# its asymptotic branch (|x| >= 50 and |x| >= 4k^2), and the ball at
# Re zeta > 0, where the roots come from the Re-zeta continuation.  Their
# summaries pin that neither writes a warning: the real-axis counts are
# certified, and no continued root stalls, drifts or merges.
GOLDEN_DIGESTS = {
    "criteria": ("criteria", CRITERIA_GOLDEN, {
        "criteria.csv":
            "06f3054e99ad7a86feddee9e1b2dfafa80c515a2f4e33460c57bdf9c54d99a20",
        "summary.json":
            "28dc0c48f98a0d253156572dc003332c35fe90d09e76a9d36c4a24d84697960a",
    }),
    # the example as shipped: mu_max 1e6, the six built-in laws, prefixes
    # 10, 100 and 1000
    "criteria-example": ("criteria", CRITERIA_EXAMPLE, {
        "criteria.csv":
            "a1c48bdec7a25d2c8b82c61c36b4f92888e76eb47f196b18dc8a02572cf105a0",
        "summary.json":
            "b7362cf4e71d8678c440399a9716c6cb1b8d7e0c2d14f3dbd8df48a9413cef71",
    }),
    "disk-spectrum": ("disk-spectrum", DISK_GOLDEN, {
        "eigenvalues.csv":
            "ded5242bac0784e441dabb61c5621bb44affbd5c8fdf91d7a667d57d72e10f6d",
        "impedance_sequence.csv":
            "0f5e38ccb6850828dac7a5b7e01666a8a69635bb5c6c77ace7699d57e098858a",
        "summary.json":
            "ea1c6e7e9e31c3f4478af7b036f9327dbaf834f05f9363e3e96dcd7ff29da66b",
    }),
    "disk-spectrum-circle-wide": ("disk-spectrum", DISK_GOLDEN.replace(
            "window = 1.0, 30.0", "window = 1.0, 60.0"), {
        "eigenvalues.csv":
            "48507a77ef80e02c85092b76560930332fc0f36448c0c289ef191e138537a1fe",
        "impedance_sequence.csv":
            "0f5e38ccb6850828dac7a5b7e01666a8a69635bb5c6c77ace7699d57e098858a",
        "summary.json":
            "f7f5c797a23ca960517dc5f4e50e51d1e37fa14875f8d211ed9e0be562030831",
    }),
    # the ball at imaginary zeta: its roots come from the real-axis search,
    # whose refinement runs j_l's series and Miller branches in float
    # arithmetic, and its residual column from j_l at a float lam
    "disk-spectrum-sphere-imaginary": ("disk-spectrum", DISK_GOLDEN.replace(
            "boundary = circle", "boundary = sphere"), {
        "eigenvalues.csv":
            "70cd004ddd819851544aeb2132d6f1c1e177f577a5d0df21e643a4a48af2435c",
        "impedance_sequence.csv":
            "e2ad1cba49681cb80da48868610ff6441f1ff3142b60f48a2c72092e1c79e742",
        "summary.json":
            "f02c8932614932b07a47f2d1b6d00f5d55b269e1c98e38c3758575e2fe1279de",
    }),
    "disk-spectrum-sphere-continuation": ("disk-spectrum", DISK_BALL.replace(
            "z0 = 0", "z0 = 0.5+0.5j").replace("oracle_spot_checks = 2",
                                               "oracle_spot_checks = 0"), {
        "eigenvalues.csv":
            "9a2c1ce0c718eed5fba7731c4a334772b08959e3d792a65a89f22af1eb5540ad",
        "impedance_sequence.csv":
            "f1f2a5350ccc4bc0d14027f4f38d2fdaa4ab083aa39f973ea284a0f8722594e6",
        "summary.json":
            "616af45f1e3f7a2d43238194452626c073e1f6354f7ea1d172db47842dc6672b",
    }),
    # the two cases above with oracle spot checks: summary.json pins the FD
    # oracle's rel_disagreement bits, on the circle at Re zeta = 0 and on
    # the ball through the oracle's Re-zeta continuation
    "disk-spectrum-oracle": ("disk-spectrum", DISK_GOLDEN.replace(
            "oracle_spot_checks = 0", "oracle_spot_checks = 2"), {
        "eigenvalues.csv":
            "ded5242bac0784e441dabb61c5621bb44affbd5c8fdf91d7a667d57d72e10f6d",
        "impedance_sequence.csv":
            "0f5e38ccb6850828dac7a5b7e01666a8a69635bb5c6c77ace7699d57e098858a",
        "summary.json":
            "ff1bd3ddacfca6425749ffeffb5b71362ece7e12ba973506b1e83b23a5677e90",
    }),
    "disk-spectrum-sphere-continuation-oracle": ("disk-spectrum",
                                                 DISK_BALL.replace(
            "z0 = 0", "z0 = 0.5+0.5j"), {
        "eigenvalues.csv":
            "9a2c1ce0c718eed5fba7731c4a334772b08959e3d792a65a89f22af1eb5540ad",
        "impedance_sequence.csv":
            "f1f2a5350ccc4bc0d14027f4f38d2fdaa4ab083aa39f973ea284a0f8722594e6",
        "summary.json":
            "92738556ff2fcb0e964f5363f8e28082dbe92479827b71f97c72d5868798ebed",
    }),
    "lab": ("lab", LAB_SMALL, {
        "lab_report.json":
            "543f03c7ad5348c3a7119221a81acaa757fb0a39786738d5c84de36a758d27bb",
    }),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_DIGESTS))
def test_golden_digests(tmp_path, case):
    sub, text, want = GOLDEN_DIGESTS[case]
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out")
    assert cli.main([sub, cfg, "--out", out]) == 0
    got = {name: sha(os.path.join(out, name)) for name in want}
    assert got == want


# counts that are no multiple of the stacked batteries' windows (16 samples
# per model), over three models
LAB_ODD = """
[run]
seed = 4242
[lab]
n_values = 8, 12, 16
green_pairs = 37
contractions = 37
krein_triples = 37
rank_pairs = 37
injectivity_pairs = 37
"""
# sha256 of the data files of configs/lab.ini at two seeds and of LAB_ODD,
# with the exit code; seed 15 fails an invariant (exit 2) and so also writes
# the failing case
LAB_GOLDEN = {
    "full-12345": ("lab.ini", 12345, 0, {
        "lab_report.json":
            "c2560d22b521491d5cfd04197406c135d2027d7ff9996506d1a5381ee87f5773",
    }),
    "full-15": ("lab.ini", 15, 2, {
        "lab_report.json":
            "c7face566c3760f78e5b7f34c11a53dd8f7afdbb9945757288ef115b15ff7a9d",
        "failing_case.json":
            "18898da73683a7cd508a519bef0de205403dccbe339de3bb163ca2f822677bf5",
        "failing_contraction.txt":
            "8e039f69ec13610ffb713f010a398859b75cc6da9244aa0ad844958b79af2ff6",
    }),
    "odd-4242": (None, 4242, 0, {
        "lab_report.json":
            "8067d20ee519cac847dc78e82071f86bb4c13b09c52d861c5b1d073320daab19",
    }),
}


@pytest.mark.parametrize("case", sorted(LAB_GOLDEN))
def test_lab_golden_digests(tmp_path, case):
    example, run_seed, want_rc, want = LAB_GOLDEN[case]
    cfg = (os.path.join(REPO, "configs", example) if example
           else write_config(tmp_path, LAB_ODD))
    out = str(tmp_path / "out")
    assert cli.main(["lab", cfg, "--seed", str(run_seed), "--out", out]) \
        == want_rc
    data = sorted(set(os.listdir(out)) - {"manifest.json", "config_echo.ini"})
    assert data == sorted(want)
    assert {name: sha(os.path.join(out, name)) for name in want} == want


# valid values that keep each run tiny; the fuzz test swaps some of them for
# values at the edge of a key's range or outside its type or range
FUZZ_VALID = {
    "lab": {"lab": {
        "n_values": "8", "green_pairs": "5", "contractions": "5",
        "krein_triples": "5", "rank_pairs": "5", "injectivity_pairs": "5"}},
    "disk-spectrum": {
        "model": {"boundary": "circle", "a": "1.0", "b": "1.0"},
        "distribution": {"kind": "pareto_imaginary", "a": "3.0",
                         "s_min": "1.0"},
        "disk": {"modes": "1", "window": "1.0, 6.0",
                 "oracle_spot_checks": "0"}},
    "weyl-fit": {"weylfit": {"lambda_lo": "10", "lambda_hi": "1e4",
                             "boundaries": "circle, sphere"}},
    "criteria": {"criteria": {"deltas": "0.1, 1", "mu_max": "100",
                              "prefixes": "1, 2"}},
    "transition": {"transition": {
        "a_grid": "0.5, 3", "trials": "100", "m_modes": "1000",
        "s_min": "1", "eps": "0.75, 0.1", "deltas": "0.1, 1",
        "mu_max": "100", "boundaries": "circle, sphere"}},
}
FUZZ_EDGES = {
    "seed": ["-5", "1e3", "18446744073709551617"], "threads": ["0", "2"],
    "n_values": ["3", "4", "8, 12"], "modes": ["0", "201"],
    "window": ["1, 100", "1, 100.5", "6, 1", "1", "0, 6"],
    "oracle_spot_checks": ["1"], "boundary": ["sphere"],
    "boundaries": ["sphere", "circle, square"], "lambda_lo": ["1e2"],
    "mu_max": ["1", "0.99"], "prefixes": ["0", "20", "21"],
    "trials": ["1e2", "99"], "m_modes": ["999"], "a_grid": ["0"],
}
FUZZ_INVALID = ["abc", "nan", "inf", "-inf", "-1", "1.7", "1j", "true", "",
                "1, abc", "nan, 1"]


def fuzz_case(sub, section=None, key=None, value=None):
    sections = {**{name: dict(keys) for name, keys in FUZZ_VALID[sub].items()},
                "run": {"seed": "1", "threads": "1"}}
    if section is not None:
        sections[section][key] = value
    return sub, sections


@st.composite
def fuzz_configs(draw):
    sub, sections = fuzz_case(draw(st.sampled_from(sorted(FUZZ_VALID))))
    keys = [(name, key) for name in sections if name != "distribution"
            for key in sections[name]]
    # one key at an edge of its range (never two, so that no two edges
    # multiply the run time), one or two keys with an invalid value, or a
    # copy of one key under a name no subcommand reads
    change = draw(st.sampled_from(["valid", "edge", "valid", "edge",
                                   "invalid", "misspelt"]))
    if change == "edge":
        name, key = draw(st.sampled_from(
            [(name, key) for name, key in keys if key in FUZZ_EDGES]))
        sections[name][key] = draw(st.sampled_from(FUZZ_EDGES[key]))
    elif change == "invalid":
        for name, key in draw(st.lists(st.sampled_from(keys), min_size=1,
                                       max_size=2)):
            sections[name][key] = draw(st.sampled_from(FUZZ_INVALID))
    elif change == "misspelt":
        name, key = draw(st.sampled_from(keys))
        sections[name][key[:-1] or key + "s"] = sections[name][key]
    return sub, sections


# modes = 200 costs seconds, so it runs once, here, and is not drawn
@seed(20241019)
@settings(max_examples=150, deadline=None, database=None)
@example(fuzz_case("criteria", "criteria", "mu_max", "abc"))
@example(fuzz_case("disk-spectrum", "disk", "modes", "200"))
@example(fuzz_case("disk-spectrum", "disk", "modes", "201"))
@example(fuzz_case("disk-spectrum", "disk", "window", "1, 100"))
@example(fuzz_case("disk-spectrum", "disk", "window", "1, 100.5"))
@given(fuzz_configs())
def test_fuzzed_configs_exit_cleanly(config):
    # every run returns an exit code and writes no traceback; a config
    # error names itself as one; a successful run repeats byte for byte
    sub, sections = config
    parser = configparser.ConfigParser()
    parser.read_dict(sections)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.ini")
        with open(path, "w") as fh:
            parser.write(fh)
        files = []
        for run in ("a", "b"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main([sub, path, "--out", os.path.join(tmp, run)])
            assert rc in (0, 1, 2, 3), (rc, err.getvalue())
            event(f"{sub}: exit {rc}")
            assert rc != 1 or err.getvalue().startswith("config error: ")
            if rc != 0:
                break
            manifest = json.load(open(os.path.join(tmp, run, "manifest.json")))
            files.append(manifest["files"])
        assert rc != 0 or files[0] == files[1]
