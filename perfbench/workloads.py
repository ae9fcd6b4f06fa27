"""Workload definitions: the CLI invocations one benchmark iteration makes.

`make_inputs(name, seed, inputs_dir, size)` is the only place inputs come
from.  It writes the INI configs into `inputs_dir` and returns the steps; the
same (name, seed, size) always gives the same steps and config bytes.
"""
import configparser
import math
import os
import random
from dataclasses import dataclass, field

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(REPO, "configs")

# The CLI's FD oracle searches (0.2 pi / sqrt(ab), (mode + 16) / sqrt(ab))
# and its spot check pairs the lowest roots of both routes by rank, so the
# solve window starts at the same point (a = b = 1 here).  From window 1-12
# the solver drops roots with Re lambda < 1 that the oracle keeps, and the
# pairing then reports a spurious disagreement.
ORACLE_WINDOW_LO = 0.2 * math.pi
# transition-mc is timed on one thread.  On two threads (nproc of the 2-CPU
# machine it was sized on) it ran no faster, and its wall time scattered
# beyond the bound: the workers compete with the speed samples for both
# CPUs.  One untimed run on REFERENCE_THREADS checks that the data files do
# not depend on the thread count.
TRANSITION_THREADS = 1
REFERENCE_THREADS = 2


@dataclass
class Step:
    """One `randbc <subcommand> <config> [args]` call; `label` names its
    output directory."""
    label: str
    subcommand: str
    config: str
    args: list = field(default_factory=list)

    def argv(self, out_dir):
        return [self.subcommand, self.config, *self.args,
                "--out", os.path.join(out_dir, self.label)]


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    build: object  # (cli_seed, inputs_dir, smoke) -> list[Step]
    reference_threads: int = None   # untimed run with another --threads


def _write_ini(path, sections):
    parser = configparser.ConfigParser()
    for name, values in sections.items():
        parser[name] = {k: str(v) for k, v in values.items()}
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def _example(name, overrides, inputs_dir, smoke, full=None):
    """Copy of an example config, with `overrides` applied at smoke size and
    `full` at full size."""
    parser = configparser.ConfigParser()
    parser.read(os.path.join(CONFIGS, name))
    sections = {s: dict(parser[s]) for s in parser.sections()}
    for section, values in ((overrides if smoke else full) or {}).items():
        sections.setdefault(section, {}).update(values)
    return _write_ini(os.path.join(inputs_dir, name), sections)


def _disk_fd(seed, inputs_dir, smoke):
    # One mode, so the one oracle spot check always lands on mode 0: the CLI
    # picks spot modes at random, and the oracle's cost ranges from 6 s to
    # 15 s across modes 0-3.  Im zeta in [1, 2] keeps five continuation
    # seeds in the oracle window (four below Im zeta ~ 0.3), and Re zeta in
    # [1, 2] keeps the Re-zeta schedule at seven steps; with the disc of
    # radius 1 around 1.5 the run time jumped by ~20% with the seed.
    cfg = _write_ini(os.path.join(inputs_dir, "disk_fd.ini"), {
        "run": {"seed": seed},
        "model": {"boundary": "sphere", "a": 1.0, "b": 1.0},
        "distribution": {"kind": "uniform_disc", "radius": 0.5,
                         "center": "1.5+1.5j"},
        "disk": {"modes": 0,
                 "window": f"{ORACLE_WINDOW_LO!r}, {6.0 if smoke else 12.0}",
                 "oracle_spot_checks": 1},
    })
    return [Step("disk-spectrum", "disk-spectrum", cfg)]


def _disk_bessel(seed, inputs_dir, smoke):
    # window reaches past 50 so J_k's asymptotic branch runs for k <= 3,
    # next to the series (|x| <= 12) and Miller branches
    cfg = _write_ini(os.path.join(inputs_dir, "disk_bessel.ini"), {
        "run": {"seed": seed},
        "model": {"boundary": "circle", "a": 1.0, "b": 1.0},
        "distribution": {"kind": "pareto_imaginary", "a": 3.0, "s_min": 1.0},
        "disk": {"modes": 4 if smoke else 8,
                 "window": f"1.0, {55.0 if smoke else 60.0}",
                 "oracle_spot_checks": 0},
    })
    return [Step("disk-spectrum", "disk-spectrum", cfg)]


def _transition(seed, inputs_dir, smoke):
    cfg = _example("transition.ini",
                   {"transition": {"trials": 100}},
                   inputs_dir, smoke)
    return [Step("transition", "transition", cfg,
                 ["--seed", str(seed), "--threads", str(TRANSITION_THREADS)])]


def _analysis(seed, inputs_dir, smoke):
    # The example configs keep their own seeds: `lab` fails its invariant
    # battery for about one seed in eight (unitary_selfadjoint above 1e-10),
    # and criteria and weyl-fit draw nothing.
    lab = _example("lab.ini", {"lab": {
        "n_values": "8, 12", "green_pairs": 20, "contractions": 10,
        "krein_triples": 5, "rank_pairs": 5, "injectivity_pairs": 5}},
        inputs_dir, smoke)
    # criteria at mu_max 1e7, not the example's 1e6: the whole iteration
    # then takes about 3 s instead of 1.5 s, long enough for the speed
    # samples to steady it; the verdicts are the same.
    criteria = _example("criteria.ini", {"criteria": {
        "mu_max": "1e4", "prefixes": "10"}}, inputs_dir, smoke,
        full={"criteria": {"mu_max": "1e7"}})
    weyl_fit = _example("weyl_fit.ini", {}, inputs_dir, smoke)
    return [Step("lab", "lab", lab), Step("criteria", "criteria", criteria),
            Step("weyl-fit", "weyl-fit", weyl_fit)]


WORKLOADS = {w.name: w for w in (
    # why each was chosen: BENCHMARK.json and README.md
    Workload("disk-fd-continuation", 1, _disk_fd),
    Workload("disk-bessel-scan", 1, _disk_bessel),
    Workload("transition-mc", TRANSITION_THREADS, _transition,
             REFERENCE_THREADS),
    Workload("analysis-suite", 1, _analysis),
)}


def cli_seed(name, seed):
    """The `--seed` the CLI receives, derived from the benchmark seed."""
    return random.Random(f"{name}/{seed}").randrange(1, 2**31)


def make_inputs(name, seed, inputs_dir, size="full"):
    if size not in ("full", "smoke"):
        raise ValueError(f"unknown size {size!r}")
    os.makedirs(inputs_dir, exist_ok=True)
    return WORKLOADS[name].build(cli_seed(name, seed), inputs_dir,
                                 size == "smoke")
