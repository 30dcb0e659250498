"""Experiment configuration files (INI format) and bundled presets."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .detectors import DetectorSpec
from .montecarlo import SimConfig
from .sampling import NoiseModel

PRESETS = ("fig1", "fig2", "fig3", "fig4")
_ALIASES = {"fig2": "fig1"}  # fig2 views fig1's simulation through the blind statistics
EXPERIMENT_KINDS = ("pof-curve", "roc")


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"= {raw!r} is not an integer") from None


def _float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"= {raw!r} is not a number") from None


def _names(raw: str) -> tuple[str, ...]:
    items = tuple(item.strip() for item in raw.split(",") if item.strip())
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ValueError(f"lists {item!r} more than once")
    return items


_REQUIRED = object()  # the default of a key every file must set
# every section and key load_config reads, as section -> key -> (parser,
# default); any other is an error.  A parser's ValueError is the rest of
# the message after "[section] key ".
_KEYS = {
    "experiment": {"kind": (str, _REQUIRED), "p": (_int, _REQUIRED), "n": (_int, _REQUIRED),
                   "trials": (_int, _REQUIRED), "seed": (_int, _REQUIRED),
                   "snr_db": (_float, None)},
    "noise": {"families": (_names, _REQUIRED), "sigma2": (_float, 1.0),
              "gg_shape": (_float, None), "student_t_dof": (_float, 3.0)},
    "detectors": {"estimators": (_names, _REQUIRED), "statistics": (_names, _REQUIRED),
                  "student_t_nu": (_float, 3.0)},
}


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment: geometry, noise families and detector grid."""

    path: str
    kind: str
    p: int
    n: int
    trials: int
    seed: int
    snr_db: float | None
    sigma2: float
    families: tuple[str, ...]
    gg_shape: float | None
    student_t_dof: float
    estimators: tuple[str, ...]
    statistics: tuple[str, ...]
    student_t_nu: float

    @property
    def rho(self) -> float:
        """Linear-scale SNR; internals never see decibels."""
        try:
            return 0.0 if self.snr_db is None else 10.0 ** (self.snr_db / 10.0)
        except OverflowError:  # snr_db above ~3083; SimConfig rejects the infinite rho
            return float("inf")

    def detector_specs(self) -> tuple[DetectorSpec, ...]:
        return tuple(DetectorSpec(statistic, estimator)
                     for estimator in self.estimators for statistic in self.statistics)

    def sim_config(self, family: str, master_seed: int) -> SimConfig:
        return SimConfig(
            p=self.p,
            n=self.n,
            trials=self.trials,
            noise=NoiseModel(family, self.sigma2,
                             shape_s=self.gg_shape if family == "gg" else None,
                             dof_nu=self.student_t_dof if family == "student_t" else None),
            detectors=self.detector_specs(),
            master_seed=master_seed,
            rho=self.rho,
            student_t_nu=self.student_t_nu,
        )


def preset_path(name: str) -> Path | None:
    """Filesystem path of a bundled preset, or None if unknown."""
    if name not in PRESETS:
        return None
    return Path(str(resources.files("robustsense") / "presets" / f"{_ALIASES.get(name, name)}.ini"))


def load_config(path_or_preset: str) -> ExperimentConfig:
    """Parse a config file (bare preset names resolve to bundled files) and
    build its simulations, whose model objects check every value they read;
    a number nothing reads must still be finite."""
    path = Path(path_or_preset)
    if not path.exists():
        bundled = preset_path(path_or_preset)
        if bundled is None:
            raise ConfigError(f"{path_or_preset}: no such config file or preset (presets: {', '.join(PRESETS)})")
        path = bundled
    where = str(path)

    # no interpolation: a '%' in a value is plain text, not configparser syntax
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=where)
    except OSError as exc:
        raise ConfigError(f"{where}: cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{where}: {exc}") from exc

    if parser.defaults():  # its keys would show up in every section
        raise ConfigError(f"{where}: unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"{where}: unknown section [{section}]")
        for key in parser.options(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"{where}: [{section}] unknown key '{key}'")
    for section in _KEYS:
        if not parser.has_section(section):
            raise ConfigError(f"{where}: missing required section [{section}]")

    values = {}
    for section, keys in _KEYS.items():
        for key, (parse, default) in keys.items():
            if parser.has_option(section, key):
                try:
                    values[key] = parse(parser.get(section, key))
                except ValueError as exc:
                    raise ConfigError(f"{where}: [{section}] {key} {exc}") from None
            elif default is _REQUIRED:
                raise ConfigError(f"{where}: [{section}] missing required key '{key}'")
            else:
                values[key] = default

    kind, seed, families = values["kind"], values["seed"], values["families"]
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"{where}: [experiment] kind = {kind!r} is not one of {', '.join(EXPERIMENT_KINDS)}"
        )
    if seed < 0:
        raise ConfigError(f"{where}: [experiment] seed = {seed} must be a non-negative integer")
    if kind == "roc" and values["snr_db"] is None:
        raise ConfigError(f"{where}: [experiment] roc experiments require snr_db")
    if not families:
        raise ConfigError(f"{where}: [noise] at least one family is required")
    if kind == "roc" and len(families) != 1:
        raise ConfigError(f"{where}: [noise] roc experiments take exactly one family")
    if "gg" in families and values["gg_shape"] is None:
        raise ConfigError(f"{where}: [noise] gg family requires gg_shape")

    cfg = ExperimentConfig(path=where, **values)
    try:
        for family in cfg.families:  # a check only; the commands derive the seeds
            cfg.sim_config(family, cfg.seed)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    # the owners above checked every value they read; no other number may be nan or inf
    for section, keys in _KEYS.items():
        for key, (parse, _) in keys.items():
            value = values[key]
            silent = key == "snr_db" and value == -math.inf  # a silent primary
            if parse is _float and value is not None and not (math.isfinite(value) or silent):
                raise ConfigError(f"{where}: [{section}] {key} = {value} must be finite")
    return cfg
