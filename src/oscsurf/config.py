"""Experiment configuration: INI-style key = value text with [sections].

Unknown sections and keys are rejected so that typos fail loudly with the
file position; every consumed value is echoed verbatim into the run manifest.
The only environment override honored is the output directory.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

from .errors import ConfigError

_KNOWN = {
    "instance": {"name", "b0", "b1", "d", "grid_density", "rho_table", "phi_table"},
    "tiling": {"lambda", "xi_max", "n_random", "seed"},
    "window": {"profile", "grid"},
    "reconstruct": {"n_signals", "xi_band", "tolerance", "seed"},
    "certify": {"x_density", "circle_points", "threshold", "lipschitz_padding"},
    "ibp": {"lambda", "orders", "tolerance", "nodes", "xi"},
    "kernel": {"lambda", "n_samples", "oracle_tolerance", "oracle_nodes", "seed"},
    "decay": {"lambda", "family", "n_families", "seed", "slope_target",
              "slope_tol", "c_prime", "max_freq", "normalized"},
    "selftest": {"skip"},
}

DEFAULTS = {
    "instance": {"name": "paper-even-d2", "b0": "0.3", "b1": "0.5",
                 "grid_density": "9"},
    "tiling": {"lambda": "10", "xi_max": "40", "n_random": "1000000",
               "seed": "1"},
    "window": {"profile": "autocorr-bump", "grid": "16384"},
    "reconstruct": {"n_signals": "50", "xi_band": "0.8",
                    "tolerance": "1e-6", "seed": "2024"},
    "certify": {"x_density": "9", "circle_points": "64", "threshold": "1e-10",
                "lipschitz_padding": "false"},
    "ibp": {"lambda": "50", "orders": "1 2", "tolerance": "1e-4",
            "nodes": "16", "xi": "3 -2 1 0.5"},
    "kernel": {"lambda": "100", "n_samples": "20", "oracle_tolerance": "0.01",
               "oracle_nodes": "120", "seed": "7"},
    "decay": {"lambda": "25 50 100 200 400 800", "family": "extremizer",
              "n_families": "20", "seed": "1234", "slope_target": "-1.5",
              "slope_tol": "0.15", "c_prime": "0.1", "max_freq": "2",
              "normalized": "true"},
    "selftest": {"skip": ""},
}


@dataclass
class ExperimentConfig:
    """Parsed configuration with typed accessors and a verbatim echo."""

    sections: dict = field(default_factory=dict)
    source: str = "(defaults)"

    def get(self, section, key):
        sec = dict(DEFAULTS.get(section, {}))
        sec.update(self.sections.get(section, {}))
        if key not in sec:
            raise ConfigError(f"missing key {key!r} in section [{section}]")
        return sec[key]

    def get_float(self, section, key):
        try:
            return float(self.get(section, key))
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc

    def get_int(self, section, key):
        try:
            return int(self.get(section, key))
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc

    def get_bool(self, section, key):
        v = self.get(section, key).strip().lower()
        if v in ("1", "true", "yes", "on"):
            return True
        if v in ("0", "false", "no", "off", ""):
            return False
        raise ConfigError(f"[{section}] {key}: expected a boolean, got {v!r}")

    def get_floats(self, section, key):
        raw = self.get(section, key).replace(",", " ").split()
        try:
            return [float(v) for v in raw]
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc

    def get_ints(self, section, key):
        return [int(v) for v in self.get_floats(section, key)]

    def echo(self):
        """The effective configuration (defaults merged with overrides)."""
        out = {}
        for section, defaults in DEFAULTS.items():
            merged = dict(defaults)
            merged.update(self.sections.get(section, {}))
            out[section] = merged
        return out


def load_config(path=None, text=None):
    cfg = ExperimentConfig()
    if path is None and text is None:
        return cfg
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if text is not None:
            parser.read_string(text)
            cfg.source = "(inline)"
        else:
            if not os.path.exists(path):
                raise ConfigError(f"config file not found: {path}")
            parser.read(path)
            cfg.source = str(path)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    for section in parser.sections():
        if section not in _KNOWN:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            cfg.sections.setdefault(section, {})[key] = parser[section][key]
    return cfg


def resolve_out_dir(flag_value):
    """Output directory: flag wins, then the environment, then ./oscsurf-out."""
    if flag_value:
        return flag_value
    env = os.environ.get("OSCSURF_OUT")
    if env:
        return env
    return "oscsurf-out"
