"""Experiment configuration (INI, `key = value` with sections) and run manifests.

Configs round-trip losslessly through a canonical serialization whose sha256
is the config hash recorded in the manifest; identical config + seed must
reproduce identical output checksums.
"""
import configparser
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass, field

SUBCOMMANDS = ("lab", "disk-spectrum", "weyl-fit", "criteria", "transition")
ENV_OUT = "RANDBC_OUT"


class ConfigError(ValueError):
    pass


def _parse_scalar(key, text):
    """The [distribution] constructor argument `key`, in the first type that
    fits; a NaN or infinite number is a ConfigError."""
    text = text.strip()
    for cast in (int, float, complex):
        try:
            value = cast(text)
        except ValueError:
            continue
        if cast is not int and not (math.isfinite(value.real)
                                    and math.isfinite(value.imag)):
            raise ConfigError(f"[distribution] {key} must be finite, "
                              f"got {text!r}")
        return value
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


_INF = float("inf")


def _parse_item(kind, text):
    """text as an int (integral number text, so 1e3 is 1000), a finite float
    or a str; ValueError if it is not one."""
    text = text.strip()
    if kind is str:
        return text
    if kind is int:
        try:
            return int(text)
        except ValueError:
            pass
    number = float(text)
    if not -_INF < number < _INF or kind is int and not number.is_integer():
        raise ValueError(text)
    return kind(number)


@dataclass(frozen=True)
class Key:
    """A config key: its type (int, float or str, or [int], [float] or [str]
    for a non-empty comma-separated list, read as a tuple), its default and
    its range, which holds for every item of a list."""
    kind: object
    default: object
    ge: float = None
    gt: float = None
    le: float = None
    choices: tuple = None

    def check(self, where, value):
        items = value if isinstance(self.kind, list) else [value]
        if not items:
            raise ConfigError(f"{where} needs at least one value")
        for item in items:
            # each test is written so that NaN fails it
            for ok, rule in (
                    (self.ge is None or item >= self.ge, f">= {self.ge}"),
                    (self.gt is None or item > self.gt, f"> {self.gt}"),
                    (self.le is None or item <= self.le, f"<= {self.le}"),
                    (self.choices is None or item in self.choices,
                     f"one of {', '.join(self.choices or ())}")):
                if not ok:
                    raise ConfigError(f"{where} = {item!r} must be {rule}")


_BOUNDARIES = ("circle", "sphere")
_BOUNDARY_LIST = Key([str], _BOUNDARIES, choices=_BOUNDARIES)
_DELTAS = Key([float], (0.01, 0.1, 1.0, 10.0), gt=0)
_MU_MAX = Key(float, 4.0e4, ge=1)

RUN_KEYS = {"seed": Key(int, 12345, ge=0), "out": Key(str, ""),
            "threads": Key(int, 1, ge=1)}
# The one list of the keys each subcommand reads, by section, besides
# RUN_KEYS.  [distribution] is not listed: its keys are the constructor
# arguments of impedance.distribution_from_spec.
KEYS = {
    "lab": {"lab": {
        "n_values": Key([int], (8, 12, 16), ge=4),
        "green_pairs": Key(int, 1000, ge=1),
        "contractions": Key(int, 500, ge=1),
        "krein_triples": Key(int, 200, ge=1),
        "rank_pairs": Key(int, 100, ge=1),
        "injectivity_pairs": Key(int, 100, ge=1)}},
    "disk-spectrum": {
        "model": {"boundary": Key(str, "circle", choices=_BOUNDARIES),
                  "a": Key(float, 1.0, gt=0), "b": Key(float, 1.0, gt=0)},
        # 100 is the solver's Lambda_max
        "disk": {"modes": Key(int, 5, ge=0, le=200),
                 "window": Key([float], (1.0, 10.0), gt=0, le=100),
                 "oracle_spot_checks": Key(int, 5, ge=0)}},
    "weyl-fit": {"weylfit": {"lambda_lo": Key(float, 1e3, gt=0),
                             "lambda_hi": Key(float, 1e7, gt=0),
                             "boundaries": _BOUNDARY_LIST}},
    "criteria": {"criteria": {"deltas": _DELTAS, "mu_max": _MU_MAX,
                              "prefixes": Key([int], (10, 100, 1000), ge=0)}},
    "transition": {"transition": {
        "a_grid": Key([float], (0.5, 1.0, 1.5, 2.0, 3.0), gt=0),
        "trials": Key(int, 1000, ge=100),
        "m_modes": Key(int, 10_000, ge=1000),
        "s_min": Key(float, 1.0, gt=0),
        "eps": Key([float], (0.75, 0.1, 0.01), gt=0),
        "deltas": _DELTAS, "mu_max": _MU_MAX,
        "boundaries": _BOUNDARY_LIST}},
}


@dataclass
class ExperimentConfig:
    subcommand: str
    sections: dict
    seed: int = None
    out_dir: str = None
    threads: int = None

    def value(self, section, key, spec: Key):
        """[section] key read as spec's type and checked against its range;
        spec's default if the key is absent."""
        text = self.sections.get(section, {}).get(key)
        if text is None:
            return spec.default
        where, listy = f"[{section}] {key}", isinstance(spec.kind, list)
        kind = spec.kind[0] if listy else spec.kind
        try:
            value = (tuple(_parse_item(kind, tok) for tok in text.split(",")
                           if tok.strip()) if listy
                     else _parse_item(kind, text))
        except ValueError:
            raise ConfigError(f"{where} = {text!r} is not of type "
                              f"{'list of ' * listy}{kind.__name__}") from None
        spec.check(where, value)
        return value

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
    try:
        if not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    sections = {name: dict(parser[name]) for name in parser.sections()}
    cfg = ExperimentConfig(subcommand=subcommand, sections=sections)
    cfg.seed, cfg.out_dir, cfg.threads = (
        cfg.value("run", key, RUN_KEYS[key])
        for key in ("seed", "out", "threads"))
    return cfg


def config_roundtrip(cfg: ExperimentConfig) -> ExperimentConfig:
    """Parse the canonical serialization back; must be lossless."""
    parser = configparser.ConfigParser()
    parser.read_string(cfg.canonical_text())
    sections = {name: dict(parser[name]) for name in parser.sections()}
    return ExperimentConfig(subcommand=cfg.subcommand, sections=sections,
                            seed=cfg.seed, out_dir=cfg.out_dir,
                            threads=cfg.threads)


def validate_config(cfg: ExperimentConfig) -> dict:
    """Read every key of cfg's subcommand (KEYS) and check it before any
    computation starts.  Returns the typed values by key name; disk-spectrum
    and criteria also get the [distribution] law (None where criteria has
    no [distribution] section)."""
    sub, sections = cfg.subcommand, KEYS[cfg.subcommand]
    for key in ("seed", "threads"):  # --seed and --threads replace them
        RUN_KEYS[key].check(f"[run] {key}", getattr(cfg, key))
    for section, known in {"run": RUN_KEYS, **sections}.items():
        unknown = sorted(set(cfg.sections.get(section, {})) - set(known))
        if unknown:
            raise ConfigError(f"unknown key [{section}] {unknown[0]}; "
                              f"known: {', '.join(known)}")
    params = {key: cfg.value(section, key, spec)
              for section, known in sections.items()
              for key, spec in known.items()}
    if sub == "disk-spectrum":
        from randbc.specfun import MAX_ABS_ARGUMENT

        window = params["window"]
        if len(window) != 2 or not window[0] < window[1]:
            raise ConfigError("[disk] window must be two values lo < hi")
        w_hi = math.sqrt(params["a"] * params["b"]) * window[1]
        if w_hi > MAX_ABS_ARGUMENT:
            raise ConfigError(
                f"[disk] window: sqrt(a b) * hi = {w_hi:.6g} exceeds the "
                f"validated Bessel argument {MAX_ABS_ARGUMENT:g}")
        params["distribution"] = build_distribution(cfg)
    elif sub == "weyl-fit":
        if params["lambda_hi"] / params["lambda_lo"] < 1e3:
            raise ConfigError("[weylfit] lambda_lo, lambda_hi must span "
                              ">= 3 decades")
    elif sub == "criteria":
        params["distribution"] = (build_distribution(cfg)
                                  if "distribution" in cfg.sections else None)
    return params


def build_distribution(cfg: ExperimentConfig):
    """The [distribution] law: `kind` and its constructor arguments."""
    from randbc import impedance

    params = {k: _parse_scalar(k, v)
              for k, v in cfg.sections.get("distribution", {}).items()}
    kind = params.pop("kind", None)
    if kind is None:
        raise ConfigError("missing [distribution] kind")
    try:
        return impedance.distribution_from_spec(str(kind), **params)
    except (KeyError, TypeError, ValueError) as exc:
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
