"""Experiment configuration files (INI format) and bundled presets."""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .detectors import DetectorSpec
from .montecarlo import SimConfig, derive_seed
from .sampling import NoiseModel

PRESETS = ("fig1", "fig2", "fig3", "fig4")
_ALIASES = {"fig2": "fig1"}  # fig2 views fig1's simulation through the blind statistics
EXPERIMENT_KINDS = ("pof-curve", "roc")
# every section and key load_config reads; any other is an error
_KEYS = {
    "experiment": ("kind", "p", "n", "trials", "seed", "snr_db"),
    "noise": ("families", "sigma2", "gg_shape", "student_t_dof"),
    "detectors": ("estimators", "statistics", "student_t_nu"),
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

    def noise_model(self, family: str) -> NoiseModel:
        return NoiseModel(family, self.sigma2,
                          shape_s=self.gg_shape if family == "gg" else None,
                          dof_nu=self.student_t_dof if family == "student_t" else None)

    def detector_specs(self) -> tuple[DetectorSpec, ...]:
        specs = []
        for estimator in self.estimators:
            for statistic in self.statistics:
                sigma2 = self.sigma2 if statistic == "rlrt" else None
                specs.append(DetectorSpec(statistic=statistic, estimator=estimator, sigma2=sigma2))
        return tuple(specs)

    def sim_config(self, family: str, master_seed: int) -> SimConfig:
        return SimConfig(
            p=self.p,
            n=self.n,
            trials=self.trials,
            noise=self.noise_model(family),
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
    build its simulations, whose model objects check every value."""
    path = Path(path_or_preset)
    if not path.exists():
        bundled = preset_path(path_or_preset)
        if bundled is None:
            raise ConfigError(f"{path_or_preset}: no such config file or preset (presets: {', '.join(PRESETS)})")
        path = bundled
    where = str(path)

    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=where)
    except OSError as exc:
        raise ConfigError(f"{where}: cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{where}: {exc}") from exc

    def need(section: str, key: str) -> str:
        if not parser.has_option(section, key):
            raise ConfigError(f"{where}: [{section}] missing required key '{key}'")
        return parser.get(section, key)

    def grab(section: str, key: str, fallback: str | None = None) -> str | None:
        return parser.get(section, key, fallback=fallback)

    def as_int(section: str, key: str, raw: str) -> int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{where}: [{section}] {key} = {raw!r} is not an integer") from None

    def as_float(section: str, key: str, raw: str) -> float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{where}: [{section}] {key} = {raw!r} is not a number") from None

    def as_list(section: str, key: str, raw: str) -> tuple[str, ...]:
        items = tuple(item.strip() for item in raw.split(",") if item.strip())
        for i, item in enumerate(items):
            if item in items[:i]:
                raise ConfigError(f"{where}: [{section}] {key} lists {item!r} more than once")
        return items

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

    kind = need("experiment", "kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"{where}: [experiment] kind = {kind!r} is not one of {', '.join(EXPERIMENT_KINDS)}"
        )
    p = as_int("experiment", "p", need("experiment", "p"))
    n = as_int("experiment", "n", need("experiment", "n"))
    trials = as_int("experiment", "trials", need("experiment", "trials"))
    seed = as_int("experiment", "seed", need("experiment", "seed"))
    if seed < 0:
        raise ConfigError(f"{where}: [experiment] seed = {seed} must be a non-negative integer")
    snr_raw = grab("experiment", "snr_db")
    if kind == "roc" and snr_raw is None:
        raise ConfigError(f"{where}: [experiment] roc experiments require snr_db")
    snr_db = None if snr_raw is None else as_float("experiment", "snr_db", snr_raw)

    families = as_list("noise", "families", need("noise", "families"))
    if not families:
        raise ConfigError(f"{where}: [noise] at least one family is required")
    if kind == "roc" and len(families) != 1:
        raise ConfigError(f"{where}: [noise] roc experiments take exactly one family")
    sigma2 = as_float("noise", "sigma2", grab("noise", "sigma2", "1.0"))
    gg_shape_raw = grab("noise", "gg_shape")
    gg_shape = None if gg_shape_raw is None else as_float("noise", "gg_shape", gg_shape_raw)
    if "gg" in families and gg_shape is None:
        raise ConfigError(f"{where}: [noise] gg family requires gg_shape")
    student_t_dof = as_float("noise", "student_t_dof", grab("noise", "student_t_dof", "3.0"))

    estimators = as_list("detectors", "estimators", need("detectors", "estimators"))
    statistics = as_list("detectors", "statistics", need("detectors", "statistics"))
    student_t_nu = as_float("detectors", "student_t_nu", grab("detectors", "student_t_nu", "3.0"))

    cfg = ExperimentConfig(
        path=where,
        kind=kind,
        p=p,
        n=n,
        trials=trials,
        seed=seed,
        snr_db=snr_db,
        sigma2=sigma2,
        families=families,
        gg_shape=gg_shape,
        student_t_dof=student_t_dof,
        estimators=estimators,
        statistics=statistics,
        student_t_nu=student_t_nu,
    )
    try:
        for i, family in enumerate(cfg.families):
            cfg.sim_config(family, derive_seed(cfg.seed, i))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return cfg
