"""Experiment configuration (INI, `key = value` with sections) and run manifests.

Configs round-trip losslessly through a canonical serialization whose sha256
is the config hash recorded in the manifest; identical config + seed must
reproduce identical output checksums.
"""
import configparser
import hashlib
import io
import os
import time
from dataclasses import dataclass, field

SUBCOMMANDS = ("lab", "disk-spectrum", "weyl-fit", "criteria", "transition")
ENV_OUT = "RANDBC_OUT"


class ConfigError(ValueError):
    pass


def _parse_scalar(text):
    text = text.strip()
    for cast in (int, float, complex):
        try:
            return cast(text)
        except ValueError:
            continue
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _parse_list(text):
    return [_parse_scalar(tok) for tok in text.split(",") if tok.strip()]


@dataclass
class ExperimentConfig:
    subcommand: str
    sections: dict = field(default_factory=dict)
    seed: int = 12345
    out_dir: str = ""
    threads: int = 1

    def get(self, section, key, default=None, required=False, listy=False):
        sec = self.sections.get(section, {})
        if key not in sec:
            if required:
                raise ConfigError(f"missing [{section}] {key}")
            return default
        raw = sec[key]
        return _parse_list(raw) if listy else _parse_scalar(raw)

    def canonical_text(self) -> str:
        buf = io.StringIO()
        buf.write(f"# randbc experiment config (subcommand: {self.subcommand})\n")
        for section in sorted(self.sections):
            buf.write(f"[{section}]\n")
            for key in sorted(self.sections[section]):
                buf.write(f"{key} = {self.sections[section][key]}\n")
            buf.write("\n")
        return buf.getvalue()

    def hash(self) -> str:
        payload = self.canonical_text() + f"seed={self.seed}\n"
        return hashlib.sha256(payload.encode()).hexdigest()


def load_config(path, subcommand) -> ExperimentConfig:
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    sections = {name: dict(parser[name]) for name in parser.sections()}
    cfg = ExperimentConfig(subcommand=subcommand, sections=sections)
    run = sections.get("run", {})
    if "seed" in run:
        cfg.seed = int(_parse_scalar(run["seed"]))
    if "out" in run:
        cfg.out_dir = str(run["out"])
    if "threads" in run:
        cfg.threads = int(_parse_scalar(run["threads"]))
    return cfg


def config_roundtrip(cfg: ExperimentConfig) -> ExperimentConfig:
    """Parse the canonical serialization back; must be lossless."""
    parser = configparser.ConfigParser()
    parser.read_string(cfg.canonical_text())
    sections = {name: dict(parser[name]) for name in parser.sections()}
    clone = ExperimentConfig(subcommand=cfg.subcommand, sections=sections,
                             seed=cfg.seed, out_dir=cfg.out_dir,
                             threads=cfg.threads)
    return clone


def validate_config(cfg: ExperimentConfig):
    """Check every referenced parameter against module preconditions before
    any computation starts."""
    sub = cfg.subcommand
    if cfg.threads < 1:
        raise ConfigError("threads must be >= 1")
    if sub == "lab":
        for n in cfg.get("lab", "n_values", default=[8, 12, 16], listy=True):
            if int(n) < 4:
                raise ConfigError(f"lab n={n} violates n >= 4")
        for key in ("green_pairs", "contractions", "krein_triples",
                    "rank_pairs", "injectivity_pairs"):
            val = cfg.get("lab", key, default=1)
            if int(val) < 1:
                raise ConfigError(f"lab {key} must be >= 1")
    elif sub == "disk-spectrum":
        _validate_model(cfg)
        _validate_distribution(cfg)
        modes = int(cfg.get("disk", "modes", default=5))
        if modes < 0 or modes > 200:
            raise ConfigError("disk modes must be in [0, 200]")
        window = cfg.get("disk", "window", default=[1.0, 10.0], listy=True)
        if len(window) != 2 or not 0 < float(window[0]) < float(window[1]):
            raise ConfigError("disk window must satisfy 0 < lo < hi")
        if float(window[1]) > 100.0:
            raise ConfigError("disk window exceeds Lambda_max = 100")
    elif sub == "weyl-fit":
        lo = float(cfg.get("weylfit", "lambda_lo", default=1e3))
        hi = float(cfg.get("weylfit", "lambda_hi", default=1e7))
        if not (0 < lo < hi) or hi / lo < 1e3:
            raise ConfigError("weyl fit range must span >= 3 decades")
        for b in cfg.get("weylfit", "boundaries", default=["circle", "sphere"],
                         listy=True):
            if b not in ("circle", "sphere"):
                raise ConfigError(f"unknown boundary {b!r}")
    elif sub == "criteria":
        _validate_distribution(cfg, optional=True)
        deltas = cfg.get("criteria", "deltas", default=[0.01, 0.1, 1.0, 10.0],
                         listy=True)
        if not deltas or any(float(d) <= 0 for d in deltas):
            raise ConfigError("deltas must be positive")
        _validate_mu_max(cfg, "criteria")
        for p in cfg.get("criteria", "prefixes", default=[10, 100, 1000],
                         listy=True):
            if int(p) < 0:
                raise ConfigError(f"criteria prefix {p} must be >= 0")
    elif sub == "transition":
        grid = cfg.get("transition", "a_grid",
                       default=[0.5, 1.0, 1.5, 2.0, 3.0], listy=True)
        if not grid:
            raise ConfigError("transition a_grid must be non-empty")
        if any(float(a) <= 0 for a in grid):
            raise ConfigError("Pareto exponents must be positive")
        trials = int(cfg.get("transition", "trials", default=1000))
        m_modes = int(cfg.get("transition", "m_modes", default=10_000))
        if trials < 100:
            raise ConfigError("transition trials must be >= 100")
        if m_modes < 1000:
            raise ConfigError("transition m_modes must be >= 1e3")
        _validate_mu_max(cfg, "transition")
        for b in cfg.get("transition", "boundaries",
                         default=["circle", "sphere"], listy=True):
            if b not in ("circle", "sphere"):
                raise ConfigError(f"unknown boundary {b!r}")


def _validate_mu_max(cfg, section):
    if not float(cfg.get(section, "mu_max", default=4.0e4)) >= 1:
        raise ConfigError(f"{section} mu_max must be >= 1")


def _validate_model(cfg):
    boundary = cfg.get("model", "boundary", default="circle")
    if boundary not in ("circle", "sphere"):
        raise ConfigError(f"unknown boundary {boundary!r}")
    a = float(cfg.get("model", "a", default=1.0))
    b = float(cfg.get("model", "b", default=1.0))
    if a <= 0 or b <= 0:
        raise ConfigError("material constants must be positive")


def _validate_distribution(cfg, optional=False):
    kind = cfg.get("distribution", "kind")
    if kind is None:
        if optional:
            return
        raise ConfigError("missing [distribution] kind")
    build_distribution(cfg)


def build_distribution(cfg: ExperimentConfig):
    from randbc import impedance

    kind = str(cfg.get("distribution", "kind", required=True))
    params = {k: _parse_scalar(v)
              for k, v in cfg.sections.get("distribution", {}).items()
              if k != "kind"}
    try:
        return impedance.distribution_from_spec(kind, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad distribution spec: {exc}") from exc


def resolve_out_dir(cfg: ExperimentConfig, override=None) -> str:
    out = override or cfg.out_dir or os.environ.get(ENV_OUT) or "randbc-out"
    return out


@dataclass
class RunManifest:
    config_hash: str
    seed: int
    artifact_version: str
    files: dict = field(default_factory=dict)
    timings_s: dict = field(default_factory=dict)

    def add_file(self, name, path):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                digest.update(chunk)
        self.files[name] = digest.hexdigest()

    def payload(self):
        return {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "artifact_version": self.artifact_version,
            "files": self.files,
            "timings_s": self.timings_s,
        }


class StageTimer:
    def __init__(self, manifest: RunManifest):
        self.manifest = manifest
        self._start = None
        self._stage = None

    def stage(self, name):
        self._stage = name
        self._start = time.perf_counter()
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.manifest.timings_s[self._stage] = time.perf_counter() - self._start
        return False
