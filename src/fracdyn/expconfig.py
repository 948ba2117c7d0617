"""Experiment configuration files: flat key=value lines under section headers.

Format (diffable, no nesting):

    [run]
    system = maxwell-bloch-5d-controlled
    alpha = 0.65
    h = 0.01
    steps = 500
    seed = 0
    output_dir = out

    [initial]
    epsilon = 0.01            ; or: x0 = v1 v2 v3 v4 v5

    [control]
    gains = 1.2 1.2 0.5 0.5 0
    target = e1 0.4330127018922193 0.25

Exactly one of x0/epsilon must be given; the epsilon shorthand offsets
every component of the target equilibrium by that amount and therefore
requires a target. Floats are serialized with repr, so a parse of a
serialize round-trips bit for bit. The FRACDYN_SEED environment variable
overrides the stored seed when a file is loaded.
"""

import configparser
import os
from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "serialize_config", "load_config"]

SEED_ENV_VAR = "FRACDYN_SEED"


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    system: str
    alpha: float
    h: float
    steps: int
    x0: Optional[tuple] = None
    epsilon: Optional[float] = None
    gains: Optional[tuple] = None
    target: Optional[tuple] = None  # ("e1", m, n) or ("e2", m)
    seed: int = 0
    output_dir: str = "."

    def __post_init__(self):
        if (self.x0 is None) == (self.epsilon is None):
            raise ConfigError("exactly one of x0 / epsilon must be given")
        if self.epsilon is not None and self.target is None:
            raise ConfigError("the epsilon shorthand needs a target equilibrium")
        if self.target is not None:
            tag = self.target[0]
            if tag not in ("e1", "e2"):
                raise ConfigError(f"unknown target family {tag!r}")
            want = 3 if tag == "e1" else 2
            if len(self.target) != want:
                raise ConfigError(f"target family {tag} takes {want - 1} parameter(s)")


def _floats(text):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def parse_config(text):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse configuration: {exc}") from exc
    if not parser.has_section("run"):
        raise ConfigError("missing [run] section")
    run = parser["run"]
    try:
        kwargs = {
            "system": run.get("system", "").strip(),
            "alpha": float(run["alpha"]),
            "h": float(run["h"]),
            "steps": int(run["steps"]),
            "seed": int(run.get("seed", "0")),
            "output_dir": run.get("output_dir", ".").strip(),
        }
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad [run] section: {exc}") from exc
    if not kwargs["system"]:
        raise ConfigError("missing system name")

    if parser.has_section("initial"):
        init = parser["initial"]
        if "x0" in init:
            kwargs["x0"] = _floats(init["x0"])
        if "epsilon" in init:
            kwargs["epsilon"] = float(init["epsilon"])

    if parser.has_section("control"):
        control = parser["control"]
        if "gains" in control:
            kwargs["gains"] = _floats(control["gains"])
        if "target" in control:
            tokens = control["target"].split()
            if not tokens:
                raise ConfigError("empty target")
            kwargs["target"] = (tokens[0].lower(),) + tuple(float(t) for t in tokens[1:])

    return ExperimentConfig(**kwargs)


def serialize_config(cfg):
    lines = [
        "[run]",
        f"system = {cfg.system}",
        f"alpha = {cfg.alpha!r}",
        f"h = {cfg.h!r}",
        f"steps = {cfg.steps}",
        f"seed = {cfg.seed}",
        f"output_dir = {cfg.output_dir}",
        "",
        "[initial]",
    ]
    if cfg.x0 is not None:
        lines.append("x0 = " + " ".join(repr(v) for v in cfg.x0))
    if cfg.epsilon is not None:
        lines.append(f"epsilon = {cfg.epsilon!r}")
    if cfg.gains is not None or cfg.target is not None:
        lines += ["", "[control]"]
        if cfg.gains is not None:
            lines.append("gains = " + " ".join(repr(v) for v in cfg.gains))
        if cfg.target is not None:
            tag, *params = cfg.target
            lines.append(f"target = {tag} " + " ".join(repr(v) for v in params))
    return "\n".join(lines) + "\n"


def load_config(path, env=None):
    """Read a configuration file, honoring the FRACDYN_SEED override."""
    env = os.environ if env is None else env
    with open(path, "r", encoding="utf-8") as handle:
        cfg = parse_config(handle.read())
    override = env.get(SEED_ENV_VAR)
    if override is not None:
        try:
            seed = int(override)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer: {override!r}") from exc
        cfg = replace(cfg, seed=seed)
    return cfg
