"""Layered benchmark of the randbc CLI on the pure-Python kernel path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; it needs `src/` and
`configs/` next to `perfbench/`.  Each iteration starts a fresh interpreter
(`child.py`), times `import randbc.cli` (setup_s) and then the workload's
`cli.main` calls (wall_s), closed loop, one invocation at a time.  After the
timed loop the outputs are checked (`checks.py`) and the last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` iterations
alternate untraced / traced and the metrics are the per-layer ones
(`tracer.py`).  Everything is written under `.perfbench_out/` in the
checkout.
"""
import argparse
import configparser
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracer
from workloads import REPO, WORKLOADS, make_inputs

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
OUT_ROOT = os.path.join(REPO, ".perfbench_out")

MIN_ITERATIONS = 2
SETUP_RUNS = 6             # import-only interpreters, after one warm-up
LOOP_BUDGET_S = 150.0      # the timed loop ends by then; the run by 175 s
RUN_BUDGET_S = 175.0
# The machine's speed changes by tens of percent within seconds.  wall_s is
# scaled to the speed at which one child.calibrate() sample takes CAL_REF_S,
# setup_s to the speed at which a fresh interpreter imports randbc's
# third-party dependencies (REF_IMPORT) in REF_IMPORT_S.
CAL_REF_S = 0.002
REF_IMPORT_S = 0.5
REF_IMPORT = ["-c", "import sys, time; "
              "import numpy, scipy.linalg, scipy.special; "
              "print(time.monotonic() - float(sys.argv[1]))"]

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# manifest timings_s stages per subcommand
STAGES = {
    "disk-spectrum": ("solve_modes", "oracle_spot_checks"),
    "lab": ("lab_suite",),
    "criteria": ("criteria",),
    "weyl-fit": ("fits",),
    "transition": ("monte_carlo_circle", "criteria_circle",
                   "monte_carlo_sphere", "criteria_sphere"),
}


def per_layer_names():
    stages = [f"cli.stage.{s}_s" for names in STAGES.values() for s in names]
    return (tracer.metric_names()
            + ["cli.import_s", "cli.import_scipy_s"] + stages
            + ["trace.overhead_s"])


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_per_root"):
        return "evals/root"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def _check_tree():
    need = [os.path.join(REPO, "src", "randbc", "cli.py"),
            os.path.join(REPO, "configs")]
    missing = [p for p in need if not os.path.exists(p)]
    if missing:
        sys.stderr.write("perfbench: not inside a randbc checkout; missing "
                         + ", ".join(missing) + "\n")
        raise SystemExit(2)


def _child_env():
    env = dict(os.environ)
    src = os.path.join(REPO, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _spawn(args, log_prefix, deadline, importtime=False, script=(CHILD,)):
    """Run child.py (or `script`) to completion, or kill it at the deadline;
    returns its exit code, None on timeout."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    with open(log_prefix + ".out", "w") as out, \
            open(log_prefix + ".err", "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + list(script) + [repr(spawned)] + args,
                                stdout=out, stderr=err, env=_child_env(),
                                cwd=REPO)
        try:
            return proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            return None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def _setup_sample(out_dir, i, deadline):
    """(import randbc.cli, REF_IMPORT) seconds, each from spawning a fresh
    interpreter, one right after the other."""
    times = []
    for name, script in (("import", (CHILD,)), ("deps", REF_IMPORT)):
        prefix = os.path.join(out_dir, f"{name}{i}")
        if _spawn([], prefix, deadline, script=script) != 0:
            return None
        with open(prefix + ".out") as fh:
            times.append(float(fh.read()))
    return tuple(times)


def _iteration(steps, out_dir, trace, deadline, importtime, threads=None):
    os.makedirs(out_dir)
    argvs = [s.argv(out_dir) for s in steps]
    if threads is not None:
        for argv in argvs:
            if "--threads" in argv:
                argv[argv.index("--threads") + 1] = str(threads)
    spec = {"steps": argvs, "trace": trace,
            "result": os.path.join(out_dir, "result.json"),
            "spans": os.path.join(out_dir, "spans.npz")}
    spec_path = os.path.join(out_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    code = _spawn([spec_path], os.path.join(out_dir, "child"), deadline,
                  importtime)
    result = {"child_exit": code, "dir": out_dir, "trace": trace}
    if code == 0:
        with open(spec["result"]) as fh:
            result.update(json.load(fh))
    return result


def _check(it, steps):
    """(attempted, failed, digests) for one iteration; a nonzero exit fails
    every operation of the step."""
    attempted = failed = 0
    digests = {}
    codes = it.get("exit_codes", [])
    for i, step in enumerate(steps):
        out = os.path.join(it["dir"], step.label)
        try:
            a, f = _check_step(step, out)
            digests[step.label] = checks.data_digests(out)
        except (OSError, ValueError, KeyError):
            a, f = 1, 1
        if i >= len(codes) or codes[i] != 0:
            f = a
        attempted += a
        failed += f
    return attempted, failed, digests


def _check_step(step, out):
    if step.subcommand == "disk-spectrum":
        cfg = configparser.ConfigParser()
        cfg.read(step.config)
        dim = 2 if cfg["model"]["boundary"] == "circle" else 3
        return checks.check_disk(out, dim,
                                 int(cfg["disk"]["oracle_spot_checks"]),
                                 float(cfg["model"]["a"]),
                                 float(cfg["model"]["b"]))
    return {"transition": checks.check_transition,
            "lab": checks.check_lab,
            "criteria": checks.check_criteria,
            "weyl-fit": checks.check_weyl_fit}[step.subcommand](out)


def _import_times(err_path):
    """(randbc.cli, scipy) import seconds from a `-X importtime` log: the
    cumulative time of `randbc.cli`, and the summed cumulative time of the
    scipy modules no other scipy module imported (so it counts what scipy
    pulls in)."""
    roots = []      # post-order lines; a node adopts the deeper ones before it
    with open(err_path) as fh:
        for line in fh:
            parts = line[len("import time:"):].split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                cum_us = int(parts[1])
            except ValueError:
                continue    # the header line
            depth = len(parts[2]) - len(parts[2].lstrip())
            kids = []
            while roots and roots[-1][0] > depth:
                kids.append(roots.pop())
            roots.append((depth, parts[2].strip(), cum_us, kids))

    def walk(nodes):
        for node in nodes:
            yield node
            yield from walk(node[3])

    def top_scipy(nodes):
        for _, name, cum_us, kids in nodes:
            if name == "scipy" or name.startswith("scipy."):
                yield cum_us
            else:
                yield from top_scipy(kids)

    cli_us = [n[2] for n in walk(roots) if n[1] == "randbc.cli"]
    if not cli_us:
        return None, None
    return cli_us[0] / 1e6, sum(top_scipy(roots)) / 1e6


def _environment(versions, workload):
    env = dict(versions)
    env["comparable"] = versions.get("backend") == "python"
    env["nproc"] = os.cpu_count()
    env["cpus_usable"] = len(os.sched_getaffinity(0))
    env["threads"] = workload.threads
    env["reference_threads"] = workload.reference_threads
    env["cpu_model"] = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            def read(name, index=index):
                with open(os.path.join(base, index, name)) as fh:
                    return fh.read().strip()
            kind = {"Data": "d", "Instruction": "i"}.get(read("type"), "")
            caches[f"L{read('level')}{kind}"] = read("size")
    except OSError:
        pass
    env["caches"] = caches
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(REPO)})
        env["git_commit"] = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        env["git_commit"] = None
    return env


def _median(values, pick=statistics.median):
    values = [v for v in values if v is not None]
    return pick(values) if values else None


def run(name, seed, seconds, trace, size="full", out_root=OUT_ROOT):
    started = time.monotonic()
    loop_deadline = started + LOOP_BUDGET_S
    run_deadline = started + RUN_BUDGET_S
    workload = WORKLOADS[name]
    out_dir = os.path.join(out_root, name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    steps = make_inputs(name, seed, os.path.join(out_dir, "inputs"), size)

    # warm-up: bytecode caches and the page cache, not timed
    _setup_sample(out_dir, "-warmup", loop_deadline)
    setup = [] if trace else [
        _setup_sample(out_dir, i, loop_deadline) for i in range(SETUP_RUNS)]

    iterations, durations = [], []
    loop_start = time.monotonic()
    while True:
        # start another iteration only if it is expected to end in time
        expect = statistics.mean(durations) if durations else 0.0
        now = time.monotonic()
        if len(iterations) >= MIN_ITERATIONS and (
                now - loop_start + expect > seconds):
            break
        if iterations and now + expect > loop_deadline:
            break
        traced = bool(trace) and len(iterations) % 2 == 1
        it = _iteration(steps, os.path.join(out_dir, f"iter{len(iterations)}"),
                        traced, loop_deadline, importtime=bool(trace))
        durations.append(time.monotonic() - now)
        iterations.append(it)
        if it["child_exit"] != 0:
            break

    # untimed: outputs must not depend on the thread count
    reference = None
    if workload.reference_threads:
        reference = _iteration(
            steps, os.path.join(out_dir, f"threads{workload.reference_threads}"),
            False, run_deadline, False, threads=workload.reference_threads)

    attempted = failed = 0
    first = None
    for it in iterations + ([reference] if reference else []):
        a, f, digests = _check(it, steps)
        if first is None:
            first = digests
        elif digests != first:
            f = a
        attempted += a
        failed += f

    untraced = [it for it in iterations if not it["trace"]]
    traced = [it for it in iterations if it["trace"]]
    versions = next((it["versions"] for it in iterations if "versions" in it),
                    {})
    env = _environment(versions, workload)
    if trace:
        samples = {}
        values, missing = _layer_values(untraced, traced, steps)
        units = {k: unit_of(k) for k in values}
    else:
        samples = _end_to_end_samples(untraced, setup)
        values = {k: _median(samples[k]) for k, _ in END_TO_END}
        missing = [k for k, v in values.items() if v is None]
        units = dict(END_TO_END)
    metrics = {k: {"value": v, "unit": units[k]}
               for k, v in values.items() if v is not None}
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "environment": env, "samples": samples,
        "iterations": iterations, "reference": reference,
        "attempted": attempted, "failed": failed, "missing": missing,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    return report


def _end_to_end_samples(untraced, setup):
    """wall_s per iteration, scaled to CAL_REF_S; setup_s per import-only
    pair, scaled to REF_IMPORT_S; the raw seconds as wall_raw_s and
    setup_raw_s."""
    done = [it for it in untraced if "wall_s" in it]
    setup = [s for s in setup if s is not None]
    return {
        "wall_s": [it["wall_s"] * CAL_REF_S / statistics.mean(it["cal_s"])
                   for it in done],
        "setup_s": [t * REF_IMPORT_S / ref for t, ref in setup],
        "peak_rss_mb": [it["peak_rss_mb"] for it in done],
        "wall_raw_s": [it["wall_s"] for it in done],
        "setup_raw_s": [t for t, _ in setup],
    }


def _stage_times(it, steps):
    """Manifest stage timings of one iteration, summed over its steps."""
    totals = {}
    for step in steps:
        path = os.path.join(it["dir"], step.label, "manifest.json")
        try:
            with open(path) as fh:
                timings = json.load(fh)["timings_s"]
        except OSError:
            continue
        for stage, t in timings.items():
            totals[stage] = totals.get(stage, 0.0) + t
    return totals


def _layer_values(untraced, traced, steps):
    names = per_layer_names()
    values = {}
    for key in tracer.metric_names():
        # a sample, not an average of two: counts stay whole numbers
        values[key] = _median((it.get("layers", {}).get(key) for it in traced),
                              statistics.median_low)
    imports = [_import_times(os.path.join(it["dir"], "child.err"))
               for it in untraced + traced]
    values["cli.import_s"] = _median(t[0] for t in imports)
    values["cli.import_scipy_s"] = _median(t[1] for t in imports)
    ran = {s.subcommand for s in steps}
    stage_times = [_stage_times(it, steps) for it in untraced]
    for sub, stages in STAGES.items():
        for stage in stages:
            values[f"cli.stage.{stage}_s"] = (
                _median(t.get(stage) for t in stage_times) if sub in ran
                else 0.0)
    wall_u = _median(_end_to_end_samples(untraced, [])["wall_s"])
    wall_t = _median(_end_to_end_samples(traced, [])["wall_s"])
    values["trace.overhead_s"] = (wall_t - wall_u
                                  if None not in (wall_u, wall_t) else None)
    missing = [k for k in names if values.get(k) is None]
    return values, missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: reduced inputs for the benchmark's tests")
    parser.add_argument("--out", default=OUT_ROOT,
                        help="output root (default: .perfbench_out)")
    args = parser.parse_args(argv)
    _check_tree()
    report = run(args.workload, args.seed, args.seconds, args.trace,
                 args.size, args.out)

    env = report["environment"]
    print("environment: " + json.dumps(env, sort_keys=True))
    if not env["comparable"]:
        print(f"NOT COMPARABLE: kernel backend is {env.get('backend')!r}, "
              "not the pure-python path")
    n_it = len(report["iterations"])
    for key, m in report["metrics"].items():
        n = len(report["samples"].get(key, ()))
        note = f" (median of {n})" if n else ""
        print(f"{key} = {m['value']!r} {m['unit']}{note}")
    for key in ("wall_raw_s", "setup_raw_s"):
        raw = report["samples"].get(key)
        if raw:
            print(f"{key} = {_median(raw)!r} s (median of {len(raw)}, "
                  "not scaled)")
    if report["missing"]:
        print("missing: " + ", ".join(report["missing"]))
    attempted, failed = report["attempted"], report["failed"]
    print(f"ops_failed_frac = {failed / max(attempted, 1)!r} "
          f"({failed} of {attempted} operations; {n_it} iterations)")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1,
                      "metrics": report["metrics"]}))


if __name__ == "__main__":
    main()
