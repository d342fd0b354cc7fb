"""Experiment configuration, the deterministic runner, and CSV telemetry.

Config files are ``section.key = value`` lines, ended by line feeds only,
with ``#`` comments. Every key but landscape.kind is a field of a type, parsed
by its annotation, and required if neither its field nor the parser gives a
default: run.* of ExperimentConfig, optimizer.* of OptimizerConfig, lite.*
(only with a lite family) of LitePolicy, schedule.* of ScheduleSpec, and
landscape.* of the spec that landscape.kind names. Each type checks its own
values when built, and a rejection led by a key names its line. Example::

    run.seed = 42
    run.steps = 200
    landscape.kind = mlp
    landscape.widths = 6, 8, 8, 4
    optimizer.family = muon_lite
    lite.chi = 4.0
    lite.beta2 = 1.0
    schedule.kind = constant
    schedule.lr_max = 0.01

Identical config and seed produce byte-identical CSV output; divergence is
reported in the run summary as data, not raised.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .landscapes import (Landscape, MlpLandscape, MlpSpec, RiverValleySpec,
                         quadratic_landscape, river_valley_landscape)
from .linalg import check_fields
from .optim import (KINDS, LITE_FAMILIES, LitePolicy, OptimizerConfig, ScheduleSpec,
                    init_states, lr_at, route_and_step)
from .quadratic import QuadraticSpec

# Per-block telemetry columns; inapplicable entries render as nan so the
# column set stays fixed for a whole run.
BLOCK_COLUMNS = ("update_rms", "sharp_mass", "l", "l_s", "l_smooth")


class ConfigError(ValueError):
    """Raised for unknown keys, missing keys, and malformed values."""


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    steps: int
    landscape: QuadraticSpec | RiverValleySpec | MlpSpec
    optimizer: OptimizerConfig
    schedule: ScheduleSpec
    log_every: int = 1
    output_path: str = ""

    def __post_init__(self):
        # seed is an unsigned 64-bit integer: [0, 2**64)
        check_fields(self, {"seed": "[0, 18446744073709551616)", "steps": "[1, inf)",
                            "log_every": "[1, inf)"})
        if not isinstance(self.landscape, tuple(_LANDSCAPE_SPECS.values())):
            raise ValueError(f"landscape must be a landscape spec, not {type(self.landscape).__name__}")
        if self.schedule.total_steps < self.steps:
            raise ValueError(f"schedule.total_steps {self.schedule.total_steps} "
                             f"is below run.steps {self.steps}")


def _parse_int(raw: str) -> int:
    return int(raw, 0)


def parse_list(raw: str, parse_item) -> tuple:
    """Comma-separated items, each stripped and parsed; none may be empty."""
    items = [part.strip() for part in raw.split(",")] if raw.strip() else []
    if "" in items:
        raise ValueError(f"empty item in list '{raw}'")
    return tuple(map(parse_item, items))


# field annotation -> value parser; an optional field ("X | None") parses as X
_PARSERS = {"str": str, "int": _parse_int, "float": float,
            "tuple[int, ...]": lambda raw: parse_list(raw, _parse_int),
            "np.ndarray": lambda raw: parse_list(raw, float)}


def _keys(cls, skip=()):
    """Config key -> value parser for each field of the dataclass cls."""
    keys = {}
    for field in dataclasses.fields(cls):
        if field.name in skip:
            continue
        annotation = field.type.removesuffix(" | None")
        if annotation not in _PARSERS:
            raise TypeError(f"no config parser for {cls.__name__}.{field.name}: {field.type}")
        keys[field.name] = _PARSERS[annotation]
    return keys


_LANDSCAPE_SPECS = {"quadratic": QuadraticSpec, "river_valley": RiverValleySpec, "mlp": MlpSpec}

# section -> key -> value parser
_SCHEMA = {
    "run": _keys(ExperimentConfig, skip=("landscape", "optimizer", "schedule")),
    "landscape": {"kind": str, **{key: parse for spec in _LANDSCAPE_SPECS.values()
                                  for key, parse in _keys(spec).items()}},
    "optimizer": _keys(OptimizerConfig, skip=("lite",)),
    "lite": _keys(LitePolicy),
    "schedule": _keys(ScheduleSpec),
}


def parse_config(text: str) -> ExperimentConfig:
    """Type every key, reject text outside the schema, and build the config.

    The parser owns only the rules about the text; each value rule lives on
    the type it checks. A rule's message that begins with a key, bare (of
    the section being built) or as 'section.key', is reported at its line.
    """
    sections = {section: {} for section in _SCHEMA}  # section -> key -> typed value
    lines = {}  # (section, key) -> line number
    for lineno, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got '{raw_line.strip()}'")
        name, raw_value = (part.strip() for part in line.split("=", 1))
        if name.count(".") != 1:
            raise ConfigError(f"line {lineno}: key '{name}' must be 'section.key'")
        section, key = name.split(".")
        if section not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown section '{section}'")
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key '{name}'")
        if key in sections[section]:
            raise ConfigError(f"line {lineno}: duplicate key '{name}' (first set on line {lines[(section, key)]})")
        try:
            sections[section][key] = _SCHEMA[section][key](raw_value)
        except (ValueError, TypeError):
            raise ConfigError(f"line {lineno}: malformed value '{raw_value}' for '{name}'") from None
        lines[(section, key)] = lineno

    if "kind" not in sections["landscape"]:
        raise ConfigError("missing required key 'landscape.kind'")
    kind = sections["landscape"].pop("kind")
    if kind not in _LANDSCAPE_SPECS:
        raise ConfigError(f"line {lines[('landscape', 'kind')]}: unknown landscape kind '{kind}'")
    types = {"run": ExperimentConfig, "landscape": _LANDSCAPE_SPECS[kind],
             "optimizer": OptimizerConfig, "lite": LitePolicy, "schedule": ScheduleSpec}
    for key in sections["landscape"]:
        if key not in {field.name for field in dataclasses.fields(types["landscape"])}:
            raise ConfigError(f"line {lines[('landscape', key)]}: key 'landscape.{key}' "
                              f"is not valid for landscape kind '{kind}'")
    # the parser's schedule defaults, so never missing; total_steps is at least 1 so
    # that steps < 1 or no run.steps is reported for run, not by ScheduleSpec
    sections["schedule"] = {"warmup_steps": 0, "total_steps": max(sections["run"].get("steps", 1), 1),
                            **sections["schedule"]}
    for section, cls in types.items():  # a key is required where its field has no default
        for field in dataclasses.fields(cls):
            if field.default is dataclasses.MISSING and field.name in _SCHEMA[section] \
                    and field.name not in sections[section]:
                suffix = f" for kind '{kind}'" if section == "landscape" else ""
                raise ConfigError(f"missing required key '{section}.{field.name}'{suffix}")
    is_lite = sections["optimizer"]["family"] in LITE_FAMILIES
    for key in sections["lite"]:
        if not is_lite:
            raise ConfigError(f"line {lines[('lite', key)]}: {key} requires a lite family")

    def build(section, cls, **fields):
        try:
            return cls(**fields)
        except ValueError as err:
            head = str(err).split(" ", 1)[0]
            key = tuple(head.split(".")) if "." in head else (section, head)
            raise ConfigError(f"line {lines[key]}: {err}" if key in lines else str(err)) from None

    lite = build("lite", LitePolicy, **sections["lite"]) if is_lite else None
    optimizer = build("optimizer", OptimizerConfig, lite=lite, **sections["optimizer"])
    schedule = build("schedule", ScheduleSpec, **sections["schedule"])
    landscape = build("landscape", types["landscape"], **sections["landscape"])
    return build("run", ExperimentConfig, landscape=landscape, optimizer=optimizer,
                 schedule=schedule, **sections["run"])


def build_landscape(config: ExperimentConfig) -> Landscape:
    if isinstance(config.landscape, QuadraticSpec):
        return quadratic_landscape(config.landscape)
    if isinstance(config.landscape, RiverValleySpec):
        return river_valley_landscape(config.landscape)
    return MlpLandscape(config.landscape, config.seed)


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return f"{float(x):.17g}"


def csv_header(block_names) -> str:
    cols = ["step", "lr", "loss", "global_grad_norm"]
    for name in sorted(block_names):
        cols.extend(f"{name}.{col}" for col in BLOCK_COLUMNS)
    return ",".join(cols)


def record_to_row(step, lr, loss, global_grad_norm, blocks) -> str:
    cells = [str(step), _fmt(lr), _fmt(loss), _fmt(global_grad_norm)]
    for name in sorted(blocks):
        cells.extend(_fmt(blocks[name][col]) for col in BLOCK_COLUMNS)
    return ",".join(cells)


def _block_telemetry(state, update_rms):
    ctrl = state.controller  # a rank controller fills l, a mask controller l_s and l_smooth
    return {"update_rms": update_rms, "sharp_mass": state.last_sharp_mass,
            "l": getattr(ctrl, "scale_l", None), "l_s": getattr(ctrl, "l_s", None),
            "l_smooth": getattr(ctrl, "l_smooth", None)}


def run_experiment(config: ExperimentConfig) -> dict:
    """Seeded landscape, optimizer loop, CSV rows every log_every steps.

    Returns the summary; the CSV is the run's only log, and without an
    output_path no telemetry is computed. A non-finite loss sets status
    "diverged": in the loop, which it stops, with "divergence at step N"; as
    the final loss with "divergence after step N". That is an outcome, not an
    error. A family other than adamw that would run plain adamw on every
    block of the landscape raises ConfigError before any output is written.
    """
    land = build_landscape(config)
    family = config.optimizer.family
    states = init_states(land.blocks, config.optimizer)
    if family != "adamw" and all(state.kind is KINDS["adamw"] for state in states.values()):
        kind = next(kind for kind, spec in _LANDSCAPE_SPECS.items() if isinstance(config.landscape, spec))
        raise ConfigError(f"{family} changes no block of landscape "
                          f"'{kind}': every block would run plain adamw")
    mats = land.unpack(land.initial_point)

    summary = {"status": "ok", "steps_completed": 0, "final_loss": math.nan, "message": ""}
    out = open(config.output_path, "w", newline="") if config.output_path else None
    # divergence is an expected outcome, so overflow must produce inf quietly
    try:
        if out is not None:
            out.write(csv_header(mats) + "\n")
        with np.errstate(over="ignore", invalid="ignore"):
            for step, batch in enumerate(land.step_batches(1, config.steps), start=1):
                loss, grads = land.loss_and_block_grads(mats, batch)
                if not math.isfinite(loss):
                    summary["status"] = "diverged"
                    summary["message"] = f"divergence at step {step}"
                    summary["final_loss"] = loss
                    return summary
                logged = out is not None and step % config.log_every == 0
                before = dict(mats) if logged else None
                route_and_step(mats, states, grads, step, config.schedule, config.optimizer)
                summary["steps_completed"] = step
                if logged:
                    # unchanged by the step; summed last block first, as the recorded bytes were
                    grad_norm = math.sqrt(sum(float((g * g).sum()) for g in reversed(grads.values())))
                    per_block = {}
                    for name in mats:
                        delta = mats[name] - before[name]
                        rms = math.sqrt(float((delta * delta).sum()) / delta.size)
                        per_block[name] = _block_telemetry(states[name], rms)
                    out.write(record_to_row(step, lr_at(config.schedule, step), loss,
                                            grad_norm, per_block) + "\n")
                    out.flush()
            summary["final_loss"] = land.loss_and_block_grads(mats, land.fixed_batch)[0]
            if not math.isfinite(summary["final_loss"]):
                summary["status"] = "diverged"
                summary["message"] = f"divergence after step {config.steps}"
    finally:
        if out is not None:
            out.close()
    return summary
