"""Experiment configuration, the deterministic runner, and CSV telemetry.

Config files are line-oriented ``section.key = value`` text with ``#``
comments. Sections: run (seed, steps, log_every, output_path), landscape
(kind plus kind-specific parameters), optimizer, lite (acceleration knobs,
only with a lite family), schedule. Every key outside run.* and
landscape.kind is a field of OptimizerConfig, LitePolicy, ScheduleSpec or
the kind's spec (QuadraticSpec, RiverValleySpec, MlpSpec), parsed by its
annotation; the spec is built, and checked, at parse time. Example::

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
from .optim import (FAMILY_KEYS, LITE_FAMILIES, LitePolicy, OptimizerConfig, ScheduleSpec,
                    init_states, lr_at, resolve_stepper, route_and_step)
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
    log_every: int
    output_path: str
    landscape_kind: str
    landscape: QuadraticSpec | RiverValleySpec | MlpSpec
    optimizer: OptimizerConfig
    schedule: ScheduleSpec


def _parse_int(raw: str) -> int:
    return int(raw, 0)


def _parse_float(raw: str) -> float:
    value = float(raw)
    if math.isnan(value):
        raise ValueError(f"{raw!r} is not a number")
    return value


def parse_list(raw: str, parse_item) -> tuple:
    """Comma-separated items, each stripped and parsed; none may be empty."""
    items = [part.strip() for part in raw.split(",")] if raw.strip() else []
    if "" in items:
        raise ValueError(f"empty item in list '{raw}'")
    return tuple(map(parse_item, items))


# field annotation -> value parser; an optional field ("X | None") parses as X
_PARSERS = {"str": str, "int": _parse_int, "float": _parse_float,
            "tuple": lambda raw: parse_list(raw, _parse_int),
            "np.ndarray": lambda raw: parse_list(raw, _parse_float)}


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
    "run": {"seed": _parse_int, "steps": _parse_int, "log_every": _parse_int, "output_path": str},
    "landscape": {"kind": str, **{key: parse for spec in _LANDSCAPE_SPECS.values()
                                  for key, parse in _keys(spec).items()}},
    "optimizer": _keys(OptimizerConfig, skip=("lite",)),
    "lite": _keys(LitePolicy),
    "schedule": _keys(ScheduleSpec),
}

_REQUIRED = (("run", "seed"), ("run", "steps"), ("landscape", "kind"),
             ("optimizer", "family"), ("schedule", "kind"), ("schedule", "lr_max"))


def parse_config(text: str) -> ExperimentConfig:
    """Validate and type every key; reject anything outside the schema."""
    values = {}
    lines = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
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
        if (section, key) in values:
            raise ConfigError(f"line {lineno}: duplicate key '{name}' (first set on line {lines[(section, key)]})")
        try:
            values[(section, key)] = _SCHEMA[section][key](raw_value)
        except (ValueError, TypeError):
            raise ConfigError(f"line {lineno}: malformed value '{raw_value}' for '{name}'") from None
        lines[(section, key)] = lineno

    for section, key in _REQUIRED:
        if (section, key) not in values:
            raise ConfigError(f"missing required key '{section}.{key}'")

    seed = values[("run", "seed")]
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"line {lines[('run', 'seed')]}: seed must be an unsigned 64-bit integer")
    steps = values[("run", "steps")]
    if steps < 1:
        raise ConfigError(f"line {lines[('run', 'steps')]}: steps must be >= 1")
    log_every = values.get(("run", "log_every"), 1)
    if log_every < 1:
        raise ConfigError(f"line {lines[('run', 'log_every')]}: log_every must be >= 1")

    kind = values[("landscape", "kind")]
    if kind not in _LANDSCAPE_SPECS:
        raise ConfigError(f"line {lines[('landscape', 'kind')]}: unknown landscape kind '{kind}'")
    spec_fields = dataclasses.fields(_LANDSCAPE_SPECS[kind])
    spec_keys = {field.name for field in spec_fields}
    land_params = {}
    for (section, key), value in values.items():
        if section != "landscape" or key == "kind":
            continue
        if key not in spec_keys:
            raise ConfigError(f"line {lines[(section, key)]}: key 'landscape.{key}' "
                              f"is not valid for landscape kind '{kind}'")
        land_params[key] = value
    for field in spec_fields:
        if field.default is dataclasses.MISSING and field.name not in land_params:
            raise ConfigError(f"missing required key 'landscape.{field.name}' for kind '{kind}'")

    family = values[("optimizer", "family")]
    is_lite = family in LITE_FAMILIES
    for section, key in values:
        if section == "lite" and not is_lite:
            raise ConfigError(f"line {lines[(section, key)]}: {key} requires a lite family")
        if section == "optimizer" and key in FAMILY_KEYS and family not in FAMILY_KEYS[key]:
            raise ConfigError(f"line {lines[(section, key)]}: optimizer.{key} is read only by "
                              f"{' and '.join(FAMILY_KEYS[key])}, not by family '{family}'")
    lite_items = {key: value for (section, key), value in values.items() if section == "lite"}

    try:
        lite = LitePolicy(**lite_items) if is_lite else None
        optimizer = OptimizerConfig(
            family=family,
            lite=lite,
            **{key: value for (section, key), value in values.items()
               if section == "optimizer" and key != "family"})
    except ValueError as err:
        raise ConfigError(str(err)) from None

    total_steps = values.get(("schedule", "total_steps"), steps)
    if total_steps < steps:
        raise ConfigError(f"line {lines[('schedule', 'total_steps')]}: schedule.total_steps "
                          f"{total_steps} is below run.steps {steps}")
    try:
        schedule = ScheduleSpec(
            kind=values[("schedule", "kind")],
            lr_max=values[("schedule", "lr_max")],
            warmup_steps=values.get(("schedule", "warmup_steps"), 0),
            total_steps=total_steps)
        landscape = _LANDSCAPE_SPECS[kind](**land_params)
    except ValueError as err:
        raise ConfigError(str(err)) from None

    return ExperimentConfig(seed=seed, steps=steps, log_every=log_every,
                            output_path=values.get(("run", "output_path"), ""),
                            landscape_kind=kind, landscape=landscape,
                            optimizer=optimizer, schedule=schedule)


def build_landscape(config: ExperimentConfig) -> Landscape:
    if config.landscape_kind == "quadratic":
        return quadratic_landscape(config.landscape)
    if config.landscape_kind == "river_valley":
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
    per = {col: None for col in BLOCK_COLUMNS}
    per["update_rms"] = update_rms
    per["sharp_mass"] = state.last_sharp_mass
    if state.rank_ctrl is not None:
        per["l"] = state.rank_ctrl.scale_l
    if state.mask_ctrl is not None:
        per["l_s"] = state.mask_ctrl.l_s
        per["l_smooth"] = state.mask_ctrl.l_smooth
    return per


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
    if family != "adamw" and all(resolve_stepper(family, layout.role) == "adamw"
                                 for layout in land.blocks.values()):
        raise ConfigError(f"{family} changes no block of landscape "
                          f"'{config.landscape_kind}': every block would run plain adamw")
    mats = land.unpack(land.initial_point)
    states = init_states(land.blocks, config.optimizer)

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
