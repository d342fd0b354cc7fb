"""Experiment configuration, the deterministic runner, and CSV telemetry.

Config files are line-oriented ``section.key = value`` text with ``#``
comments. Sections: run (seed, steps, log_every, output_path), landscape
(kind plus kind-specific parameters), optimizer, lite (acceleration knobs,
only with a lite family), schedule. Example::

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

from .landscapes import (Landscape, MlpSpec, RiverValleySpec, mlp_landscape,
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
    landscape_params: dict
    optimizer: OptimizerConfig
    schedule: ScheduleSpec


@dataclasses.dataclass(frozen=True)
class TrajectoryRecord:
    """One logged optimizer step: scalars first, then per-block telemetry."""

    step: int
    lr: float
    loss: float
    global_grad_norm: float
    blocks: dict


def _parse_int(raw: str) -> int:
    return int(raw, 0)


def _parse_float(raw: str) -> float:
    value = float(raw)
    if math.isnan(value):
        raise ValueError(f"{raw!r} is not a number")
    return value


def _parse_str(raw: str) -> str:
    return raw


def _parse_floats(raw: str):
    return tuple(_parse_float(part.strip()) for part in raw.split(",") if part.strip())


def _parse_ints(raw: str):
    return tuple(int(part.strip()) for part in raw.split(",") if part.strip())


# section -> key -> value parser
_SCHEMA = {
    "run": {
        "seed": _parse_int,
        "steps": _parse_int,
        "log_every": _parse_int,
        "output_path": _parse_str,
    },
    "landscape": {
        "kind": _parse_str,
        "eigenvalues": _parse_floats,
        "offsets": _parse_floats,
        "sharp_dim": _parse_int,
        "flat_dim": _parse_int,
        "sharp_curvature": _parse_float,
        "widths": _parse_ints,
        "batch_size": _parse_int,
        "noise_sigma": _parse_float,
    },
    "optimizer": {
        "family": _parse_str,
        "theta": _parse_float,
        "beta_v": _parse_float,
        "theta_shampoo": _parse_float,
        "epsilon": _parse_float,
        "weight_decay": _parse_float,
        "clip_norm": _parse_float,
        "nesterov_beta": _parse_float,
        "mars_gamma": _parse_float,
        "ademamix_kappa": _parse_float,
        "alpha_fast": _parse_float,
        "alpha_slow": _parse_float,
        "qr_refresh_every": _parse_int,
    },
    "lite": {
        "chi": _parse_float,
        "beta1": _parse_float,
        "beta2": _parse_float,
        "r_s": _parse_float,
        "d_smooth_ratio": _parse_float,
        "chi_embedding": _parse_float,
    },
    "schedule": {
        "kind": _parse_str,
        "lr_max": _parse_float,
        "warmup_steps": _parse_int,
        "total_steps": _parse_int,
    },
}

_REQUIRED = (("run", "seed"), ("run", "steps"), ("landscape", "kind"),
             ("optimizer", "family"), ("schedule", "kind"), ("schedule", "lr_max"))

_LANDSCAPE_KEYS = {
    "quadratic": {"required": ("eigenvalues",), "optional": ("offsets",)},
    "river_valley": {"required": ("sharp_dim", "flat_dim", "sharp_curvature"), "optional": ()},
    "mlp": {"required": ("widths",), "optional": ("batch_size", "noise_sigma")},
}


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
    if kind not in _LANDSCAPE_KEYS:
        raise ConfigError(f"line {lines[('landscape', 'kind')]}: unknown landscape kind '{kind}'")
    allowed = set(_LANDSCAPE_KEYS[kind]["required"]) | set(_LANDSCAPE_KEYS[kind]["optional"])
    land_params = {}
    for (section, key), value in values.items():
        if section != "landscape" or key == "kind":
            continue
        if key not in allowed:
            raise ConfigError(f"line {lines[(section, key)]}: key 'landscape.{key}' "
                              f"is not valid for landscape kind '{kind}'")
        land_params[key] = value
    for key in _LANDSCAPE_KEYS[kind]["required"]:
        if key not in land_params:
            raise ConfigError(f"missing required key 'landscape.{key}' for kind '{kind}'")

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
    except ValueError as err:
        raise ConfigError(str(err)) from None

    return ExperimentConfig(seed=seed, steps=steps, log_every=log_every,
                            output_path=values.get(("run", "output_path"), ""),
                            landscape_kind=kind, landscape_params=land_params,
                            optimizer=optimizer, schedule=schedule)


def build_landscape(config: ExperimentConfig) -> Landscape:
    params = config.landscape_params
    try:
        if config.landscape_kind == "quadratic":
            lam = np.array(params["eigenvalues"], dtype=float)
            b = np.array(params.get("offsets", np.zeros(lam.size)), dtype=float)
            return quadratic_landscape(QuadraticSpec(lam, b))
        if config.landscape_kind == "river_valley":
            return river_valley_landscape(RiverValleySpec(
                params["sharp_dim"], params["flat_dim"], params["sharp_curvature"]))
        spec = MlpSpec(tuple(params["widths"]),
                       batch_size=params.get("batch_size", 32),
                       noise_sigma=params.get("noise_sigma", 0.01))
        return mlp_landscape(spec, config.seed)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return f"{float(x):.17g}"


def csv_header(block_names) -> str:
    cols = ["step", "lr", "loss", "global_grad_norm"]
    for name in sorted(block_names):
        cols.extend(f"{name}.{col}" for col in BLOCK_COLUMNS)
    return ",".join(cols)


def record_to_row(record: TrajectoryRecord) -> str:
    cells = [str(record.step), _fmt(record.lr), _fmt(record.loss), _fmt(record.global_grad_norm)]
    for name in sorted(record.blocks):
        per = record.blocks[name]
        cells.extend(_fmt(per[col]) for col in BLOCK_COLUMNS)
    return ",".join(cells)


def _block_telemetry(name, state, update_rms):
    per = {col: None for col in BLOCK_COLUMNS}
    per["update_rms"] = update_rms
    per["sharp_mass"] = state.last_sharp_mass
    if state.rank_ctrl is not None:
        per["l"] = state.rank_ctrl.scale_l
    if state.mask_ctrl is not None:
        per["l_s"] = state.mask_ctrl.l_s
        per["l_smooth"] = state.mask_ctrl.l_smooth
    return per


def run_experiment(config: ExperimentConfig):
    """Seeded landscape, optimizer loop, CSV rows every log_every steps.

    Returns (records, summary). A non-finite loss stops the loop and sets
    summary["status"] = "diverged" with a "divergence at step N" message;
    that is an outcome, not an error. A family other than adamw that would
    run plain adamw on every block of the landscape raises ConfigError before
    any output is written.
    """
    land = build_landscape(config)
    family = config.optimizer.family
    if family != "adamw" and all(resolve_stepper(family, layout.role) == "adamw"
                                 for layout in land.blocks.values()):
        raise ConfigError(f"{family} changes no block of landscape "
                          f"'{config.landscape_kind}': every block would run plain adamw")
    blocks = land.matrix_blocks(land.initial_point)
    states = init_states(blocks, config.optimizer)
    names = sorted(blocks)

    records = []
    summary = {"status": "ok", "steps_completed": 0, "final_loss": math.nan, "message": ""}
    out = open(config.output_path, "w", newline="") if config.output_path else None
    # divergence is an expected outcome, so overflow must produce inf quietly
    try:
        if out is not None:
            out.write(csv_header(names) + "\n")
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(1, config.steps + 1):
                loss, grads = land.loss_and_block_grads(
                    {name: blocks[name].matrix for name in names}, step)
                if not math.isfinite(loss):
                    summary["status"] = "diverged"
                    summary["message"] = f"divergence at step {step}"
                    summary["final_loss"] = loss
                    return records, summary
                grad_norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
                log_now = step % config.log_every == 0
                before = {name: blocks[name].matrix.copy() for name in names} if log_now else None
                route_and_step(blocks, states, grads, step, config.schedule, config.optimizer)
                summary["steps_completed"] = step
                if log_now:
                    per_block = {}
                    for name in names:
                        delta = blocks[name].matrix - before[name]
                        rms = math.sqrt(float((delta * delta).mean()))
                        per_block[name] = _block_telemetry(name, states[name], rms)
                    record = TrajectoryRecord(step=step, lr=lr_at(config.schedule, step),
                                              loss=loss, global_grad_norm=grad_norm, blocks=per_block)
                    records.append(record)
                    if out is not None:
                        out.write(record_to_row(record) + "\n")
                        out.flush()
            w = land.pack({name: blocks[name].matrix for name in names})
            summary["final_loss"] = float(land.loss(w))
    finally:
        if out is not None:
            out.close()
    return records, summary
