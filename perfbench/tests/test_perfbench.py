"""Tests of the benchmark itself: inputs, checks, tracing, smoke runs.

    python3 -m pytest perfbench/tests -q
"""
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import types

import pytest
from scipy import special

import checks
import child
import run
import tracer
from workloads import REPO, WORKLOADS, make_inputs


def _configs(steps):
    out = []
    for step in steps:
        with open(step.config, "rb") as fh:
            out.append(fh.read())
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(tmp_path, name):
    a = make_inputs(name, 11, str(tmp_path / "a"))
    b = make_inputs(name, 11, str(tmp_path / "b"))
    c = make_inputs(name, 12, str(tmp_path / "c"))
    assert [(s.label, s.subcommand, s.args) for s in a] == [
        (s.label, s.subcommand, s.args) for s in b]
    assert _configs(a) == _configs(b)
    # the analysis suite runs the example configs with their own seeds
    differs = (_configs(a), [s.args for s in a]) != (
        _configs(c), [s.args for s in c])
    assert differs == (name != "analysis-suite")


def _write_disk(out, dim, mu, zeta, lams, spot):
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "impedance_sequence.csv"), "w") as fh:
        fh.write(f"mode,mu,re_zeta,im_zeta\n0,{mu!r},{zeta.real!r},"
                 f"{zeta.imag!r}\n")
    with open(os.path.join(out, "eigenvalues.csv"), "w") as fh:
        fh.write("mode,mu,re_zeta,im_zeta,re_lambda,im_lambda,method,"
                 "residual\n")
        for lam in lams:
            fh.write(f"0,{mu!r},{zeta.real!r},{zeta.imag!r},{lam.real!r},"
                     f"{lam.imag!r},bracketed,0.0\n")
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump({"warnings": [], "oracle_spot_checks": [
            {"mode": 0, "rel_disagreement": spot}]}, fh)


def test_disk_check_rejects_perturbed_eigenvalue(tmp_path):
    # zeta = 0: the roots are Neumann eigenvalues, zeros of J_1'
    roots = [complex(r) for r in special.jnp_zeros(1, 3)]
    good, bad = str(tmp_path / "good"), str(tmp_path / "bad")
    _write_disk(good, 2, 1.0, 0j, roots, 1e-9)
    assert checks.check_disk(good, 2, 1) == (2, 0)
    _write_disk(bad, 2, 1.0, 0j, [roots[0], roots[1] * (1 + 1e-6), roots[2]],
                1e-9)
    assert checks.check_disk(bad, 2, 1) == (2, 1)
    _write_disk(bad, 2, 1.0, 0j, roots, 3e-4)
    assert checks.check_disk(bad, 2, 1) == (2, 1)


def test_secular_residual_sphere():
    # spherical j_1' zero near 2.0816 (zeta = 0, mu = l(l+1) = 2)
    root = 2.0815759778181
    assert checks.secular_residual(3, 2.0, 0j, root) < 1e-12
    assert checks.secular_residual(3, 2.0, 0j, root + 1e-5) > 1e-8


def _transition_summary(fractions_a2):
    def entry(a_c, fr, verdict):
        return {"critical_exponent": a_c,
                "verdicts": {c: verdict
                             for c in ("series", "expectation", "moment")},
                "fractions": {f"eps=0.75,M={m}": f
                              for m, f in zip((2500, 5000, 10000), fr)}}
    return {"m_modes": 10000, "results": {"circle": {
        "a=0.5": entry(1, [0.0, 0.0, 0.0], checks.NOT_COMPACT),
        "a=2": entry(1, fractions_a2, checks.COMPACT)}}}


def test_transition_check_rejects_flipped_verdict(tmp_path):
    path = tmp_path / "transition_summary.json"
    path.write_text(json.dumps(_transition_summary([0.97, 0.98, 0.99])))
    assert checks.check_transition(str(tmp_path)) == (2, 0)
    # the Monte Carlo fraction now lands on the non-compact side
    path.write_text(json.dumps(_transition_summary([0.6, 0.3, 0.01])))
    assert checks.check_transition(str(tmp_path)) == (2, 1)
    summary = _transition_summary([0.97, 0.98, 0.99])
    summary["results"]["circle"]["a=2"]["verdicts"]["series"] = \
        checks.NOT_COMPACT
    path.write_text(json.dumps(summary))
    assert checks.check_transition(str(tmp_path)) == (2, 1)


def test_self_times_subtract_union_of_children():
    spans = [
        (0, 0, 0.0, 10.0, -1),
        (1, 1, 1.0, 5.0, 0),     # two children overlapping (worker threads)
        (2, 1, 2.0, 6.0, 0),
        (3, 1, 8.0, 9.0, 0),
        (4, 2, 1.5, 2.5, 1),
    ]
    own = tracer.self_times(spans).tolist()
    assert own == pytest.approx([10.0 - 5.0 - 1.0, 3.0, 4.0, 1.0, 1.0])


def test_tracer_wraps_restores_and_reports_missing(monkeypatch):
    mod = types.ModuleType("fake_layers")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    targets = (tracer.Target("fake.outer", "fake_layers", "outer"),
               tracer.Target("fake.inner", "fake_layers", "inner"),
               tracer.Target("fake.gone", "fake_layers", "gone"))
    t = tracer.Tracer(targets)
    t.install()
    assert mod.outer(1) == 4
    t.restore()
    assert mod.inner is inner and mod.outer is outer
    metrics = t.metrics()
    assert t.missing == ["fake.gone"]
    assert "fake.gone.calls" not in metrics
    assert metrics["fake.outer.calls"] == 1
    assert metrics["fake.inner.calls"] == 2


def test_times_scale_to_the_reference_speed():
    ref = run.CAL_REF_S
    its = [{"wall_s": 3.0, "setup_s": 0.8, "cal_s": [2 * ref, 2 * ref],
            "peak_rss_mb": 60.0},
           {"wall_s": 1.0, "setup_s": 0.3, "cal_s": [ref / 2, ref / 2],
            "peak_rss_mb": 61.0}]
    ref_s = run.REF_IMPORT_S
    samples = run._end_to_end_samples(its, [(1.2, 2 * ref_s), None])
    assert samples["wall_s"] == pytest.approx([1.5, 2.0])
    assert samples["setup_s"] == pytest.approx([0.6])
    assert samples["setup_raw_s"] == [1.2]
    assert samples["wall_raw_s"] == [3.0, 1.0]
    assert samples["peak_rss_mb"] == [60.0, 61.0]


def test_speed_sampler_covers_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with child.SpeedSampler() as sampler:
        end = time.monotonic() + 5.5 * child.SAMPLE_PERIOD_S
        while time.monotonic() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one sample on entry, one on exit and about five in between
    assert len(sampler.cal_s) >= 2 + 3
    assert all(t > 0 for t in sampler.cal_s)
    assert 0 < sampler.spent_s < 5.5 * child.SAMPLE_PERIOD_S


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, run.unit_of(n)) for n in run.per_layer_names()]


def _bench(*args, cwd=REPO, out=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    if out is not None:
        cmd += ["--out", str(out)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run(tmp_path, name):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--size", "smoke", out=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name, nonzero, zero", [
    ("disk-fd-continuation",
     ["kernels.fd_radial_edge.calls", "specfun.complex_root_polish.calls"],
     []),
    ("disk-bessel-scan", ["kernels.bessel_jk.calls"],
     ["kernels.fd_radial_edge.calls", "specfun.complex_root_polish.calls"]),
    ("transition-mc", ["impedance.sample.calls"],
     ["kernels.bessel_jk.calls", "kernels.spherical_jl.calls",
      "kernels.fd_radial_edge.calls"]),
    ("analysis-suite", ["extension_lab.krein_residual.calls",
                        "impedance.survival_abs.calls"], []),
])
def test_smoke_trace(tmp_path, name, nonzero, zero):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "1",
                  "--trace", "1", "--size", "smoke", out=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(run.per_layer_names())
    assert all(metrics[k] > 0 for k in nonzero)
    assert all(metrics[k] == 0 for k in zero)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(REPO, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "transition-mc", "--seed", "1", "--seconds",
                  "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
