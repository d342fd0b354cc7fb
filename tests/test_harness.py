"""Config parsing, the experiment runner, CSV telemetry, and the CLI."""

import dataclasses
import gc
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flatopt
from flatopt import cli
from flatopt.cli import main
from flatopt.harness import (
    BLOCK_COLUMNS,
    ConfigError,
    ExperimentConfig,
    _keys,
    build_landscape,
    csv_header,
    parse_config,
    record_to_row,
    run_experiment,
)
from flatopt.landscapes import MlpSpec, RiverValleySpec
from flatopt.optim import FAMILIES, FAMILY_KEYS, LitePolicy, OptimizerConfig, ScheduleSpec
from flatopt.quadratic import QuadraticSpec

MINIMAL = """\
run.seed = 42
run.steps = 20
landscape.kind = quadratic
landscape.eigenvalues = 2.0, 1.0
optimizer.family = adamw
schedule.kind = constant
schedule.lr_max = 0.01
"""

RIVER_VALLEY = MINIMAL.replace(
    "landscape.kind = quadratic\nlandscape.eigenvalues = 2.0, 1.0",
    "landscape.kind = river_valley\nlandscape.sharp_dim = 2\n"
    "landscape.flat_dim = 2\nlandscape.sharp_curvature = 100.0")

MLP_BASE = """\
run.seed = 7
run.steps = 30
landscape.kind = mlp
landscape.widths = 6, 8, 8, 4
landscape.batch_size = 8
optimizer.family = {family}
schedule.kind = constant
schedule.lr_max = 0.001
"""

DIVERGENT = """\
run.seed = 1
run.steps = 500
landscape.kind = quadratic
landscape.eigenvalues = 1.0
optimizer.family = adamw
schedule.kind = constant
schedule.lr_max = 1000.0
"""

# the last update overflows: the loop sees only finite losses, the final one is inf
LAST_STEP_OVERFLOWS = {
    "mlp": """\
run.seed = 1
run.steps = 6
landscape.kind = mlp
landscape.widths = 4, 6, 6, 3
landscape.batch_size = 4
optimizer.family = muon
optimizer.clip_norm = inf
schedule.kind = constant
schedule.lr_max = 1e30
""",
    "quadratic": """\
run.seed = 1
run.steps = 1
landscape.kind = quadratic
landscape.eigenvalues = 1e10, 1
optimizer.family = adamw
schedule.kind = constant
schedule.lr_max = 1e300
""",
}


# a few steps on a small quadratic, for the byte-mutation property
SMALL_RUN = b"""\
run.seed = 3
run.steps = 4
landscape.kind = quadratic
landscape.eigenvalues = 2.0, 1.0
optimizer.family = adamw
schedule.kind = constant
schedule.lr_max = 0.01
"""


# A non-default setting for every config key read off a dataclass field:
# key -> (raw value, parsed value).
KEY_SETTINGS = {
    "run.seed": ("9", 9),
    "run.steps": ("12", 12),
    "run.log_every": ("5", 5),
    "run.output_path": ("out.csv", "out.csv"),
    "optimizer.family": ("lion", "lion"),
    "optimizer.theta": ("0.9", 0.9),
    "optimizer.beta_v": ("0.95", 0.95),
    "optimizer.theta_shampoo": ("0.5", 0.5),
    "optimizer.epsilon": ("1e-6", 1e-6),
    "optimizer.weight_decay": ("0.05", 0.05),
    "optimizer.clip_norm": ("2.0", 2.0),
    "optimizer.nesterov_beta": ("0.9", 0.9),
    "optimizer.mars_gamma": ("0.5", 0.5),
    "optimizer.ademamix_kappa": ("7.0", 7.0),
    "optimizer.alpha_fast": ("0.2", 0.2),
    "optimizer.alpha_slow": ("0.01", 0.01),
    "optimizer.qr_refresh_every": ("3", 3),
    "lite.chi": ("4.0", 4.0),
    "lite.beta1": ("-0.25", -0.25),
    "lite.beta2": ("1.0", 1.0),
    "lite.r_s": ("0.25", 0.25),
    "lite.d_smooth_ratio": ("0.2", 0.2),
    "schedule.kind": ("cos", "cos"),
    "schedule.lr_max": ("0.5", 0.5),
    "schedule.warmup_steps": ("5", 5),
    "schedule.total_steps": ("100", 100),
    "landscape.eigenvalues": ("3.0, 1.0, 0.5", (3.0, 1.0, 0.5)),
    "landscape.offsets": ("0.5, -0.5", (0.5, -0.5)),
    "landscape.sharp_dim": ("3", 3),
    "landscape.flat_dim": ("3", 3),
    "landscape.sharp_curvature": ("50.0", 50.0),
    "landscape.widths": ("5, 7, 3", (5, 7, 3)),
    "landscape.batch_size": ("16", 16),
    "landscape.noise_sigma": ("0.5", 0.5),
}

# the other river-valley dimension must match
COMPANIONS = {"landscape.sharp_dim": ("landscape.flat_dim", "3"),
              "landscape.flat_dim": ("landscape.sharp_dim", "3")}

# fields that hold another section's object rather than a config key
SECTION_FIELDS = {ExperimentConfig: ("landscape", "optimizer", "schedule"),
                  OptimizerConfig: ("lite",)}

FIELD_OWNERS = [
    ("run", ExperimentConfig, MINIMAL, lambda cfg: cfg),
    ("optimizer", OptimizerConfig, MINIMAL, lambda cfg: cfg.optimizer),
    ("lite", LitePolicy, MINIMAL.replace("family = adamw", "family = muon_lite"),
     lambda cfg: cfg.optimizer.lite),
    ("schedule", ScheduleSpec, MINIMAL, lambda cfg: cfg.schedule),
    ("landscape", QuadraticSpec, MINIMAL, lambda cfg: cfg.landscape),
    ("landscape", RiverValleySpec, RIVER_VALLEY, lambda cfg: cfg.landscape),
    ("landscape", MlpSpec, MLP_BASE.format(family="adamw"), lambda cfg: cfg.landscape),
]


def with_setting(text, key, raw):
    """text with key set to raw: its line replaced if present, else appended."""
    lines = text.splitlines()
    slot = next((i for i, ln in enumerate(lines) if ln.startswith(key + " ")), None)
    if slot is None:
        lines.append(f"{key} = {raw}")
    else:
        lines[slot] = f"{key} = {raw}"
    return "\n".join(lines) + "\n"


class TestConfigKeysFromFields:
    @pytest.mark.parametrize("section,cls,base,owner", FIELD_OWNERS,
                             ids=[owner[1].__name__ for owner in FIELD_OWNERS])
    def test_every_key_reaches_its_field(self, section, cls, base, owner):
        for field in dataclasses.fields(cls):
            if field.name in SECTION_FIELDS.get(cls, ()):
                continue
            key = f"{section}.{field.name}"
            raw, parsed = KEY_SETTINGS[key]
            if field.default is not dataclasses.MISSING:
                assert parsed != field.default, key
            text = with_setting(base, key, raw)
            if section == "optimizer" and field.name in FAMILY_KEYS:
                text = text.replace("family = adamw", f"family = {FAMILY_KEYS[field.name][0]}")
            if key in COMPANIONS:
                text = with_setting(text, *COMPANIONS[key])
            got = getattr(owner(parse_config(text)), field.name)
            assert np.array_equal(got, parsed), (key, got)

    def test_unmapped_annotation_raises(self):
        @dataclasses.dataclass
        class Knobs:
            ratio: "float"
            phase: "complex"

        assert list(_keys(Knobs, skip=("phase",))) == ["ratio"]
        with pytest.raises(TypeError, match="no config parser for Knobs.phase: complex"):
            _keys(Knobs)


class TestParseConfig:
    def test_minimal_config_and_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.seed == 42
        assert cfg.steps == 20
        assert cfg.log_every == 1
        assert cfg.output_path == ""
        assert isinstance(cfg.landscape, QuadraticSpec)
        assert np.array_equal(cfg.landscape.eigenvalues, [2.0, 1.0])
        assert np.array_equal(cfg.landscape.offsets, [0.0, 0.0])
        assert cfg.optimizer.family == "adamw"
        assert cfg.schedule.warmup_steps == 0
        # the schedule inherits the run length unless total_steps is given
        assert cfg.schedule.total_steps == 20

    def test_comments_blank_lines_and_hex_ints(self):
        text = MINIMAL.replace("run.seed = 42", "run.seed = 0x2A  # forty-two") \
                      + "\n# trailing comment\n\n"
        assert parse_config(text).seed == 42

    def test_explicit_total_steps_wins(self):
        cfg = parse_config(MINIMAL + "schedule.total_steps = 100\n")
        assert cfg.schedule.total_steps == 100

    def test_lite_family_without_lite_keys_gets_trivial_policy(self):
        text = MINIMAL.replace("optimizer.family = adamw", "optimizer.family = soap_lite")
        cfg = parse_config(text)
        assert cfg.optimizer.lite.chi == 1.0
        assert cfg.optimizer.lite.beta1 == 0.0

    def test_infinite_clip_norm_is_accepted(self):
        cfg = parse_config(MINIMAL + "optimizer.clip_norm = inf\n")
        assert cfg.optimizer.clip_norm == math.inf
        assert run_experiment(cfg)["status"] == "ok"

    @pytest.mark.parametrize("mutation,fragment", [
        ("garbage line", "line 1: expected 'section.key = value'"),
        ("runseed = 1", "must be 'section.key'"),
        ("run.a.b = 1", "must be 'section.key'"),
        ("walrus.seed = 1", "unknown section 'walrus'"),
        ("run.sneed = 1", "unknown key 'run.sneed'"),
        # the run section's keys are ExperimentConfig's fields, less its objects
        ("run.landscape = mlp", "line 1: unknown key 'run.landscape'"),
        ("run.optimizer = adamw", "line 1: unknown key 'run.optimizer'"),
        ("run.schedule = constant", "line 1: unknown key 'run.schedule'"),
        ("run.landscape_kind = quadratic", "line 1: unknown key 'run.landscape_kind'"),
        ("run.steps = soon", "malformed value 'soon' for 'run.steps'"),
        ("landscape.widths = 4, 4, 4", "not valid for landscape kind 'quadratic'"),
        ("optimizer.chi = 2.0", "unknown key 'optimizer.chi'"),
        ("lite.beta1 = 0.5", "beta1 requires a lite family"),
        ("schedule.total_steps = 10", "line 1: schedule.total_steps 10 is below run.steps 20"),
        ("optimizer.family = mars\noptimizer.mars_gamma = 1.0",
         "mars_gamma = 1 discards the current gradient"),
        ("lite.chi_norm = 50.0", "line 1: unknown key 'lite.chi_norm'"),
        ("optimizer.family = sgd", "family 'sgd' is unknown"),
        ("optimizer.nesterov_beta = 0.9",
         "line 1: optimizer.nesterov_beta is read only by n_adamw, not by family 'adamw'"),
        # lion's sign update has no epsilon, and ademamix's EMAs take no theta
        ("optimizer.family = lion\noptimizer.epsilon = 0.5",
         "line 6: optimizer.epsilon is read only by adamw and n_adamw and mars and ademamix "
         "and muon and soap and muon_lite and soap_lite, not by family 'lion'"),
        ("optimizer.family = ademamix\noptimizer.theta = 0.5",
         "line 6: optimizer.theta is read only by adamw and n_adamw and lion and mars "
         "and muon and soap and muon_lite and soap_lite, not by family 'ademamix'"),
        # NaN parses as a float, and the first rule that applies rejects it at its line
        ("schedule.lr_max = nan", "line 7: lr_max must be in [0, inf), got nan"),
        ("lite.chi = NaN", "line 1: chi requires a lite family"),
        ("optimizer.family = muon_lite\nlite.chi = NaN", "line 6: chi must be in [1, inf), got nan"),
        ("landscape.noise_sigma = nan",
         "line 1: key 'landscape.noise_sigma' is not valid for landscape kind 'quadratic'"),
        ("landscape.eigenvalues = 1, nan", "line 4: eigenvalues must be finite, got nan"),
    ])
    def test_rejections(self, mutation, fragment):
        # Swap the mutated line in for its original when the key already
        # appears in MINIMAL, otherwise prepend it.
        name = mutation.split(" = ")[0]
        lines = MINIMAL.splitlines()
        slot = next((i for i, ln in enumerate(lines) if ln.startswith(name + " ")), None)
        if slot is None:
            text = mutation + "\n" + MINIMAL
        else:
            lines[slot] = mutation
            text = "\n".join(lines) + "\n"
        with pytest.raises(ConfigError, match=re.escape(fragment)):
            parse_config(text)

    @pytest.mark.parametrize("key", [field.name for field in dataclasses.fields(OptimizerConfig)
                                     if field.name not in ("family", "lite")])
    def test_family_keys_only_for_their_families(self, key):
        # a non-default key parses only for a family with a stepper that
        # reads it; route_and_step reads clip_norm for every family
        raw, parsed = KEY_SETTINGS[f"optimizer.{key}"]
        for family in FAMILIES:
            text = MINIMAL.replace("family = adamw", f"family = {family}") \
                + f"optimizer.{key} = {raw}\n"
            if family in (FAMILIES if key == "clip_norm" else FAMILY_KEYS[key]):
                assert getattr(parse_config(text).optimizer, key) == parsed
            else:
                with pytest.raises(ConfigError, match=f"line 8: optimizer.{key} is read only by"):
                    parse_config(text)

    def test_line_numbers_in_errors(self):
        text = MINIMAL + "optimizer.weight_decay = nope\n"
        with pytest.raises(ConfigError, match="line 8: malformed value"):
            parse_config(text)

    def test_duplicate_key_reports_both_lines(self):
        text = MINIMAL + "run.seed = 43\n"
        with pytest.raises(ConfigError,
                           match="line 8: duplicate key 'run.seed' \\(first set on line 1\\)"):
            parse_config(text)

    def test_missing_required_keys(self):
        text = MINIMAL.replace("schedule.lr_max = 0.01\n", "")
        with pytest.raises(ConfigError, match="missing required key 'schedule.lr_max'"):
            parse_config(text)
        text = MINIMAL.replace("landscape.eigenvalues = 2.0, 1.0\n", "")
        with pytest.raises(ConfigError,
                           match="missing required key 'landscape.eigenvalues' for kind 'quadratic'"):
            parse_config(text)

    @pytest.mark.parametrize("base,key,kind", [pytest.param(base, key, kind, id=key) for base, key, kind in [
        (MINIMAL, "run.seed", None), (MINIMAL, "run.steps", None),
        (MINIMAL, "landscape.kind", None), (MINIMAL, "optimizer.family", None),
        (MINIMAL, "schedule.kind", None), (MINIMAL, "schedule.lr_max", None),
        (MINIMAL, "landscape.eigenvalues", "quadratic"),
        (RIVER_VALLEY, "landscape.sharp_dim", "river_valley"),
        (RIVER_VALLEY, "landscape.flat_dim", "river_valley"),
        (RIVER_VALLEY, "landscape.sharp_curvature", "river_valley"),
        (MLP_BASE.format(family="adamw"), "landscape.widths", "mlp"),
    ]])
    def test_each_required_key_is_reported_when_dropped(self, base, key, kind):
        text = "".join(line for line in base.splitlines(keepends=True)
                       if not line.startswith(f"{key} ="))
        assert text != base
        suffix = f" for kind '{kind}'" if kind else ""
        with pytest.raises(ConfigError, match=f"^missing required key '{key}'{suffix}$"):
            parse_config(text)

    @pytest.mark.parametrize("separator", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85",
                                           "\u2028", "\u2029", "\r"])
    def test_only_a_line_feed_ends_a_line(self, separator):
        # str.splitlines also breaks at these; "\r" before "\n" is a CRLF ending
        lines = MINIMAL.splitlines()
        lines[1] += separator
        lines.insert(5, "optimizer.theta = 2")
        with pytest.raises(ConfigError, match="^line 6: theta must be in"):
            parse_config("\n".join(lines) + "\n")

    def test_unknown_landscape_kind(self):
        with pytest.raises(ConfigError, match="unknown landscape kind 'banana'"):
            parse_config(MINIMAL.replace("kind = quadratic", "kind = banana"))

    def test_policy_errors_become_config_errors(self):
        text = MINIMAL.replace("optimizer.family = adamw",
                               "optimizer.family = muon_lite\nlite.beta1 = 0.5\nlite.beta2 = 0.25")
        with pytest.raises(ConfigError, match="beta2 must be"):
            parse_config(text)

    def test_schedule_errors_become_config_errors(self):
        text = MINIMAL.replace("schedule.kind = constant", "schedule.kind = cos") \
                      + "schedule.warmup_steps = 20\n"
        with pytest.raises(ConfigError, match="warmup_steps < total_steps"):
            parse_config(text)

    @pytest.mark.parametrize("config,fragment", [
        (MINIMAL.replace("eigenvalues = 2.0, 1.0", "eigenvalues = 1.0, 2.0"),
         "eigenvalues must be sorted descending"),
        (MINIMAL.replace("eigenvalues = 2.0, 1.0", "eigenvalues ="),
         "eigenvalues must have shape \\(>=1,\\), got \\(0,\\)"),
        (MLP_BASE.format(family="adamw").replace("6, 8, 8, 4", "200, 101, 4"),
         "parameter count 20604 exceeds the 20000 budget"),
        (RIVER_VALLEY.replace("flat_dim = 2", "flat_dim = 3"), "sharp_dim == flat_dim"),
    ])
    def test_landscape_spec_rejected_at_parse_time(self, config, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(config)

    @pytest.mark.parametrize("key,raw", [
        ("landscape.eigenvalues", ","),
        ("landscape.eigenvalues", "100, , 1"),
        ("landscape.eigenvalues", "2.0, 1.0,"),
        ("landscape.widths", "6, , 8, 4"),
        ("landscape.widths", ", 6, 8, 4"),
    ])
    def test_empty_list_item_is_malformed(self, key, raw):
        # an empty item used to be dropped, so "6, , 8, 4" ran a 2-layer MLP
        base = MLP_BASE.format(family="adamw") if key == "landscape.widths" else MINIMAL
        with pytest.raises(ConfigError, match=f"line 4: malformed value '{raw}' for '{key}'"):
            parse_config(with_setting(base, key, raw))

    def test_list_items_parse_like_scalars(self):
        # a list item takes its scalar's syntax, so hex works as for run.seed
        text = with_setting(MLP_BASE.format(family="adamw"), "landscape.widths", "0x6, 8, 8, 4")
        assert parse_config(text).landscape.widths == (6, 8, 8, 4)
        with pytest.raises(ConfigError, match="malformed value '1, 2.5'"):
            parse_config(with_setting(MLP_BASE.format(family="adamw"), "landscape.widths", "1, 2.5"))

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)

    @pytest.mark.parametrize("base,settings,fragment", [
        (MINIMAL, {"optimizer.theta": "1.5"}, "line 8: theta must be in [0, 1)"),
        (MINIMAL.replace("family = adamw", "family = muon_lite"), {"lite.chi": "0.5"},
         "line 8: chi must be in [1, inf), got 0.5"),
        (MINIMAL.replace("family = adamw", "family = muon_lite"),
         {"lite.beta1": "0.5", "lite.beta2": "0.25"}, "line 9: beta2 must be ≥ beta1"),
        (MINIMAL, {"schedule.warmup_steps": "30"},
         "line 8: warmup_steps must lie in [0, total_steps]"),
        (MINIMAL.replace("kind = constant", "kind = wsd"), {"schedule.warmup_steps": "18"},
         "line 8: warmup_steps must end before the wsd decay phase"),
        (MINIMAL, {"landscape.eigenvalues": "1.0, 2.0"},
         "line 4: eigenvalues must be sorted descending"),
        (MINIMAL.replace("family = adamw", "family = mars"), {"optimizer.mars_gamma": "1.0"},
         "line 8: mars_gamma = 1 discards the current gradient"),
        # total_steps defaults to run.steps, yet the run rule is the one reported
        (MINIMAL, {"run.steps": "0"}, "line 2: steps must be in [1, inf), got 0"),
        (MINIMAL, {"optimizer.family": "sgd"}, "line 5: family 'sgd' is unknown"),
        (MINIMAL, {"schedule.kind": "linear"}, "line 6: kind 'linear' is not a schedule kind"),
    ], ids=["theta", "chi", "beta2-below-beta1", "warmup_steps", "wsd-warmup", "eigenvalues",
            "mars_gamma", "steps", "family", "schedule-kind"])
    def test_value_rejection_names_its_line(self, base, settings, fragment):
        text = base
        for key, raw in settings.items():
            text = with_setting(text, key, raw)
        with pytest.raises(ConfigError, match="^" + re.escape(fragment)):
            parse_config(text)

    def test_family_key_at_its_default_is_accepted(self):
        # OptimizerConfig owns the rule: a key the family does not read may
        # hold only its default, which is what the family runs with anyway
        cfg = parse_config(MINIMAL + "optimizer.nesterov_beta = 0.0\n")
        assert cfg.optimizer == OptimizerConfig("adamw")


class TestExperimentConfigRules:
    @pytest.mark.parametrize("change,fragment", [
        ({"steps": 21}, "schedule.total_steps 20 is below run.steps 21"),
        ({"landscape": "mlp"}, "landscape must be a landscape spec, not str"),
        ({"landscape": None}, "landscape must be a landscape spec, not NoneType"),
        # both raised AttributeError: a family name once the run began, None when built
        ({"optimizer": "adamw"}, "optimizer must be an OptimizerConfig, not str"),
        ({"schedule": None}, "schedule must be a ScheduleSpec, not NoneType"),
    ], ids=["steps-past-schedule", "landscape-kind-name", "landscape-none", "optimizer-family-name",
            "schedule-none"])
    def test_python_built_config_gets_the_run_rules(self, change, fragment):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ValueError, match="^" + re.escape(fragment) + "$"):
            dataclasses.replace(cfg, **change)

    def test_run_rules_accept_their_bounds(self):
        cfg = parse_config(MINIMAL)
        assert dataclasses.replace(cfg, seed=2 ** 64 - 1, log_every=20).seed == 2 ** 64 - 1
        assert dataclasses.replace(cfg, seed=0, steps=1).steps == 1
        assert dataclasses.replace(cfg, steps=np.int64(3)).steps == 3

    def test_log_every_and_output_path_default_on_the_type(self):
        cfg = parse_config(MINIMAL)
        built = ExperimentConfig(seed=1, steps=2, landscape=cfg.landscape,
                                 optimizer=cfg.optimizer, schedule=cfg.schedule)
        assert (built.log_every, built.output_path) == (1, "")


class TestBuildLandscape:
    def test_quadratic_with_offsets(self):
        cfg = parse_config(MINIMAL + "landscape.offsets = 0.5, -0.5\n")
        land = build_landscape(cfg)
        assert land.dim == 2
        assert land.loss_and_block_grads(land.unpack(np.zeros(2)), None)[0] == 0.0

    def test_replaced_landscape_runs_as_its_spec(self, tmp_path):
        # the spec's type is the kind: swapping it in swaps the landscape
        path = tmp_path / "run.csv"
        cfg = dataclasses.replace(parse_config(MINIMAL), landscape=MlpSpec((6, 8, 4), 4),
                                  steps=2, output_path=str(path))
        assert run_experiment(cfg)["status"] == "ok"
        header = path.read_text().splitlines()[0].split(",")
        assert {col.split(".")[0] for col in header[4:]} == {"layer0", "layer1"}

    def test_river_valley_and_mlp(self):
        assert build_landscape(parse_config(RIVER_VALLEY)).dim == 4
        mlp = build_landscape(parse_config(MLP_BASE.format(family="adamw")))
        assert mlp.dim == 6 * 8 + 8 * 8 + 8 * 4


def run_csv(tmp_path, text, name="run.csv"):
    """Run text with its CSV in tmp_path: (summary, header cells, row cells)."""
    path = tmp_path / name
    summary = run_experiment(parse_config(text + f"run.output_path = {path}\n"))
    header, *rows = path.read_text().splitlines()
    return summary, header.split(","), [row.split(",") for row in rows]


class TestRunExperiment:
    def test_summary_of_a_clean_run(self, tmp_path):
        summary, _, rows = run_csv(tmp_path, MINIMAL)
        assert summary["status"] == "ok"
        assert summary["steps_completed"] == 20
        assert math.isfinite(summary["final_loss"])
        assert summary["message"] == ""
        assert [row[0] for row in rows] == [str(step) for step in range(1, 21)]

    def test_log_every_thins_the_records(self, tmp_path):
        _, _, rows = run_csv(tmp_path, MINIMAL + "run.log_every = 5\n")
        assert [row[0] for row in rows] == ["5", "10", "15", "20"]

    def test_loss_decreases_on_the_quadratic(self, tmp_path):
        summary, _, rows = run_csv(tmp_path, MINIMAL)
        assert summary["final_loss"] < float(rows[0][2])

    def test_double_run_writes_identical_bytes(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run_experiment(parse_config(MINIMAL + f"run.output_path = {path}\n"))
        a, b = (p.read_bytes() for p in paths)
        assert a == b
        assert a.decode().splitlines()[0] == csv_header(["all"])

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "out.csv"
        run_experiment(parse_config(MINIMAL + f"run.output_path = {path}\nrun.log_every = 10\n"))
        lines = path.read_text().splitlines()
        header = "step,lr,loss,global_grad_norm," + ",".join(
            f"all.{col}" for col in BLOCK_COLUMNS)
        assert lines[0] == header
        assert len(lines) == 3  # header + steps 10 and 20
        cells = lines[1].split(",")
        assert len(cells) == 9
        assert cells[0] == "10"
        # adamw carries no subspace controllers: those columns render as nan
        assert cells[5:] == ["nan", "nan", "nan", "nan"]
        assert float(cells[2]) == pytest.approx(float(cells[2]))  # loss parses back

    def test_family_that_changes_no_block_names_the_landscape(self):
        cfg = parse_config(RIVER_VALLEY.replace("family = adamw", "family = muon"))
        with pytest.raises(ConfigError,
                           match="^muon changes no block of landscape 'river_valley': "):
            run_experiment(cfg)

    def test_no_output_path_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        summary = run_experiment(parse_config(MINIMAL))
        assert summary["status"] == "ok"
        assert list(tmp_path.iterdir()) == []

    def test_no_output_path_computes_no_telemetry(self, monkeypatch):
        for name in ("_block_telemetry", "record_to_row"):
            monkeypatch.setattr(f"flatopt.harness.{name}",
                                lambda *a: pytest.fail("telemetry without an output_path"))
        summary = run_experiment(parse_config(MLP_BASE.format(family="muon_lite")))
        assert summary["steps_completed"] == 30

    def test_trivial_lite_run_matches_baseline_losses(self, tmp_path):
        _, _, base = run_csv(tmp_path, MLP_BASE.format(family="muon"), "base.csv")
        _, _, lite = run_csv(tmp_path, MLP_BASE.format(family="muon_lite"), "lite.csv")
        assert [row[2] for row in base] == [row[2] for row in lite]

    def test_lite_run_populates_subspace_telemetry(self, tmp_path):
        summary, header, rows = run_csv(tmp_path, MLP_BASE.format(family="muon_lite"))
        assert summary["status"] == "ok"
        last = dict(zip(header, rows[-1]))
        assert last["layer1.l"] != "nan"                # rank-threshold scale
        assert last["layer1.sharp_mass"] != "nan"
        assert last["layer0.l_s"] != "nan"              # masked elementwise stepper
        assert last["layer0.l_smooth"] != "nan"
        assert last["layer2.l"] == "nan"                # output stays on adamw
        for name in ("layer0", "layer1", "layer2"):
            assert last[f"{name}.update_rms"] != "nan"

    def test_one_chi_reaches_every_lite_block(self, tmp_path, capsys):
        # with beta1 = beta2 = 0 only chi reweights the update: raising it
        # moves the first step of layer0 (adam_lite's mask) and of layer1
        # (muon_lite's rank controller), not of the adamw output layer2
        base = MLP_BASE.format(family="muon_lite").replace("run.steps = 30", "run.steps = 3")
        firsts = []
        for chi in ("1.0", "4.0"):
            _, header, rows = run_csv(tmp_path, base + f"lite.chi = {chi}\n", f"chi{chi}.csv")
            firsts.append(dict(zip(header, rows[0])))
        trivial, amplified = firsts
        for name in ("layer0", "layer1"):
            assert trivial[f"{name}.update_rms"] != amplified[f"{name}.update_rms"], name
        assert trivial["layer2.update_rms"] == amplified["layer2.update_rms"]
        # there is no second chi to set
        path = tmp_path / "exp.cfg"
        path.write_text(base + "lite.chi_embedding = 2\n")
        assert main(["run", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith(
            "config error: line 9: unknown key 'lite.chi_embedding'")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_run_leaves_the_initial_point_unchanged(self, tmp_path, monkeypatch, family):
        # the run steps views of the initial point; a write into one of them
        # raises on the read-only vector
        lands = []

        def build_read_only(config):
            land = build_landscape(config)
            land.initial_point.flags.writeable = False
            lands.append((land, land.initial_point.copy()))
            return land

        monkeypatch.setattr("flatopt.harness.build_landscape", build_read_only)
        summary, _, _ = run_csv(tmp_path, MLP_BASE.format(family=family) + "run.log_every = 4\n")
        assert summary["status"] == "ok"
        (land, initial), = lands
        assert np.array_equal(land.initial_point, initial)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_steppers_never_write_into_grads(self, tmp_path, monkeypatch, family):
        # the logged gradient norm is summed after the step, so a write into
        # grads would move CSV bytes; here it raises on the read-only arrays
        def build_read_only_grads(config):
            land = build_landscape(config)
            objective = land.loss_and_block_grads

            def frozen(mats, batch):
                loss, grads = objective(mats, batch)
                for g in grads.values():
                    g.flags.writeable = False
                return loss, grads

            land.loss_and_block_grads = frozen
            return land

        monkeypatch.setattr("flatopt.harness.build_landscape", build_read_only_grads)
        summary, _, rows = run_csv(tmp_path, MLP_BASE.format(family=family))
        assert summary["status"] == "ok"
        assert len(rows) == 30

    def test_divergence_is_an_outcome_not_an_error(self, tmp_path):
        summary, _, rows = run_csv(tmp_path, DIVERGENT)
        assert summary["status"] == "diverged"
        assert summary["message"] == "divergence at step 78"
        assert summary["steps_completed"] == 77
        assert len(rows) == 77
        assert not math.isfinite(summary["final_loss"])

    def test_divergence_emits_no_warnings(self, recwarn):
        run_experiment(parse_config(DIVERGENT))
        assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("kind", sorted(LAST_STEP_OVERFLOWS))
    def test_overflow_on_the_last_update_is_a_divergence(self, tmp_path, kind, recwarn):
        steps = parse_config(LAST_STEP_OVERFLOWS[kind]).steps
        summary, _, rows = run_csv(tmp_path, LAST_STEP_OVERFLOWS[kind])
        assert summary["status"] == "diverged"
        assert summary["message"] == f"divergence after step {steps}"
        assert summary["steps_completed"] == steps == len(rows)
        assert not math.isfinite(summary["final_loss"])
        assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


class TestCsvCells:
    def test_seventeen_digit_roundtrip(self):
        cells = record_to_row(3, 1.0 / 3.0, math.pi, 1e-17,
                              {"b": {c: None for c in BLOCK_COLUMNS}}).split(",")
        assert float(cells[1]) == 1.0 / 3.0
        assert float(cells[2]) == math.pi
        assert float(cells[3]) == 1e-17

    def test_header_sorts_block_names(self):
        header = csv_header(["beta", "alpha"])
        assert header.index("alpha.update_rms") < header.index("beta.update_rms")


class TestCli:
    def write(self, tmp_path, text, name="exp.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == "0.1.0"

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0

    def test_run_ok(self, tmp_path, capsys):
        code = main(["run", "--config", self.write(tmp_path, MINIMAL)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("ok steps=20 final_loss=")

    def test_run_missing_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "align"])
    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "exp.cfg"
        path.write_bytes(MLP_BASE.format(family="adamw").encode().replace(b"7", b"\xff", 1))
        assert main([command, "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path} is not UTF-8: 'utf-8' codec can't decode")

    def test_config_with_a_byte_order_mark_runs(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + MINIMAL.encode())
        assert main(["run", "--config", str(path)]) == 0
        assert capsys.readouterr().out.startswith("ok steps=20 ")

    @settings(derandomize=True, database=None, max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(st.tuples(st.integers(0, len(SMALL_RUN) - 1),
                                    st.sampled_from(["insert", "replace", "delete"]),
                                    st.integers(0, 255)), max_size=3))
    def test_mutated_config_bytes_run_or_are_config_errors(self, tmp_path, capsys, edits):
        data = bytearray(SMALL_RUN)
        for at, op, byte in edits:
            at = min(at, len(data))
            if op == "insert":
                data[at:at] = bytes([byte])
            elif op == "replace":
                data[at:at + 1] = bytes([byte])
            else:
                del data[at:at + 1]
        path = tmp_path / "mutated.cfg"
        path.write_bytes(bytes(data))
        code = main(["run", "--config", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 10) or (code == 3 and err.startswith("config error: ")), (code, err)
        assert "Traceback" not in err

    def test_run_bad_config(self, tmp_path, capsys):
        path = self.write(tmp_path, "run.sneed = 1\n" + MINIMAL)
        assert main(["run", "--config", path]) == 3
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        # a matrix family on a landscape whose blocks all stay on adamw
        MINIMAL.replace("family = adamw", "family = muon_lite"),
        RIVER_VALLEY.replace("family = adamw", "family = soap_lite"),
        MINIMAL.replace("family = adamw", "family = muon"),
        RIVER_VALLEY.replace("family = adamw", "family = soap"),
        # a schedule that ends before the run does
        MINIMAL.replace("run.steps = 20", "run.steps = 30") + "schedule.total_steps = 20\n",
        # a mars_gamma that discards the gradient, and knobs the run would not read
        MINIMAL.replace("family = adamw", "family = mars") + "optimizer.mars_gamma = 1.0\n",
        MLP_BASE.format(family="muon_lite") + "lite.chi_norm = 50.0\n",
        MINIMAL + "optimizer.nesterov_beta = 0.9\n",
        # a family with no stepper, with a family-specific key set beside it
        MINIMAL.replace("family = adamw", "family = sgd") + "optimizer.mars_gamma = 0.5\n",
        # a NaN value, a NaN eigenvalue and an empty spectrum
        MINIMAL.replace("lr_max = 0.01", "lr_max = nan"),
        MINIMAL.replace("eigenvalues = 2.0, 1.0", "eigenvalues = 1, nan"),
        MINIMAL.replace("eigenvalues = 2.0, 1.0", "eigenvalues ="),
        # an empty list item, which used to drop a layer or an eigenvalue
        MLP_BASE.format(family="adamw").replace("6, 8, 8, 4", "6, , 8, 4"),
        MINIMAL.replace("eigenvalues = 2.0, 1.0", "eigenvalues = 100, , 1"),
    ], ids=["muon_lite-quadratic", "soap_lite-river_valley", "muon-quadratic",
            "soap-river_valley", "total_steps-below-steps", "mars_gamma-one",
            "chi_norm", "nesterov_beta-adamw", "unknown-family", "lr_max-nan",
            "eigenvalue-nan", "empty-spectrum", "widths-empty-item", "eigenvalues-empty-item"])
    def test_run_rejected_before_any_output(self, tmp_path, capsys, config):
        csv = tmp_path / "out.csv"
        path = self.write(tmp_path, config + f"run.output_path = {csv}\n")
        assert main(["run", "--config", path]) == 3
        assert "config error" in capsys.readouterr().err
        assert not csv.exists()

    @pytest.mark.parametrize("argv,code,message", [
        (["align", "--config", "{big_mlp}"], 3,
         "config error: parameter count 40800 exceeds the 20000 budget"),
        (["run", "--config", "{missing_dir}"], 3, "error: [Errno 2] No such file or directory"),
        (["align", "--config", "{mlp}", "--d-s", "2", "--k-grid", "1"], 2,
         "every --k-grid size must be >= --d-s 2"),
        (["align", "--config", "{mlp}", "--k-grid", ""], 2,
         "argument --k-grid: needs at least one subspace size"),
        (["align", "--config", "{mlp}", "--k-grid", "2,,4"], 2,
         "argument --k-grid: empty item in list '2,,4'"),
        (["align", "--config", "{mlp}", "--k-grid", ","], 2,
         "argument --k-grid: empty item in list ','"),
        (["align", "--config", "{mlp}", "--k-grid", "2,x"], 2,
         "argument --k-grid: invalid literal for int() with base 10: 'x'"),
    ], ids=["align-over-budget", "run-output-in-missing-dir",
            "align-k-below-d_s", "align-empty-k-grid",
            "align-k-grid-empty-item", "align-k-grid-comma", "align-k-grid-not-integer"])
    def test_rejected_without_traceback(self, tmp_path, capsys, monkeypatch, argv, code, message):
        # none of these may reach the alignment training loop
        monkeypatch.setattr("flatopt.cli.alignment_experiment",
                            lambda *a, **kw: pytest.fail("alignment_experiment was called"))
        missing = tmp_path / "missing" / "out.csv"
        paths = {
            "big_mlp": self.write(tmp_path, MLP_BASE.format(family="adamw")
                                  .replace("6, 8, 8, 4", "200, 200, 4"), "big.cfg"),
            "missing_dir": self.write(tmp_path, MINIMAL + f"run.output_path = {missing}\n",
                                      "missing.cfg"),
            "mlp": self.write(tmp_path, MLP_BASE.format(family="adamw")),
        }
        assert main([arg.format(**paths) for arg in argv]) == code
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not missing.parent.exists()

    def test_run_divergence_exit_code(self, tmp_path, capsys):
        code = main(["run", "--config", self.write(tmp_path, DIVERGENT)])
        assert code == 10
        assert "divergence at step 78" in capsys.readouterr().out

    def test_overflow_on_the_last_update_exits_diverged(self, tmp_path, capsys):
        code = main(["run", "--config", self.write(tmp_path, LAST_STEP_OVERFLOWS["mlp"])])
        assert code == 10
        assert capsys.readouterr().out == "divergence after step 6\n"

    @pytest.mark.parametrize("steps,code,last_line", [
        (2, 0, "ok steps=2 final_loss=1.1535883068548822e+306"),
        (4, 4, "numerical error: step 3, block layer1: a must be finite, got nan"),
    ], ids=["run_ends_at_the_overflow", "next_step_reads_the_basis"])
    def test_soap_gram_overflow_fails_at_the_step_that_reads_the_basis(
            self, tmp_path, capsys, steps, code, last_line):
        # step 2's gradient (entries up to 6e154) overflows g @ g.T in the
        # Gram EMA while the losses stay finite (about 1e306). The basis is
        # refreshed at the start of step 3, so steps 1 and 2 are written either
        # way: a 2-step run never reads the basis and ends ok, a longer one
        # exits 4 when its QR meets the overflowed Gram, naming the step and
        # the block
        csv = tmp_path / "run.csv"
        config = self.write(tmp_path, f"""\
run.seed = 1
run.steps = {steps}
run.output_path = {csv}
landscape.kind = mlp
landscape.widths = 6, 8, 8, 4
landscape.batch_size = 8
landscape.noise_sigma = 1e153
optimizer.family = soap
optimizer.clip_norm = inf
optimizer.qr_refresh_every = 2
schedule.kind = constant
schedule.lr_max = 1000
""")
        assert main(["run", "--config", config]) == code
        out = capsys.readouterr()
        assert (out.out + out.err).strip() == last_line
        rows = [row.split(",") for row in csv.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["1", "2"]
        assert all(math.isfinite(float(row[2])) for row in rows)

    def test_quadratic_report(self, capsys):
        code = main(["quadratic-report", "--alpha", "0.1", "--beta", "1.0",
                     "--eta", "0.01", "--lambda-min", "0.1", "--lambda-max", "10",
                     "--points", "5"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "lambda,T,D,discriminant,regime,dominant_modulus"
        assert len(lines) == 6
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 6
            assert cells[4] in ("underdamped", "overdamped", "critical")

    def test_quadratic_report_overflowed_mode_is_a_numerical_error(self, capsys):
        # eta*lam overflows, so T = D = -inf: no regime or modulus to report
        code = main(["quadratic-report", "--alpha", "0.1", "--beta", "1", "--eta", "1e300",
                     "--lambda-min", "1e9", "--lambda-max", "1e10", "--points", "3"])
        out = capsys.readouterr()
        assert code == 4
        assert out.out == ""
        assert "numerical error: recurrence coefficients T = -inf, D = -inf are not finite" in out.err

    def test_quadratic_report_overflowed_discriminant_is_a_numerical_error(self, capsys):
        # T and D are finite, but T*T overflows: no discriminant or modulus to report
        code = main(["quadratic-report", "--alpha", "0.1", "--beta", "1", "--eta", "1e300",
                     "--lambda-min", "1e4", "--lambda-max", "1e5", "--points", "2"])
        out = capsys.readouterr()
        assert code == 4
        assert out.out == ""
        assert out.err.startswith("numerical error: discriminant T*T - D overflows")

    def test_align_requires_mlp(self, tmp_path, capsys):
        assert main(["align", "--config", self.write(tmp_path, MINIMAL)]) == 3
        assert "align requires landscape.kind = mlp" in capsys.readouterr().err

    def test_align_outputs_coverage_rows(self, tmp_path, capsys):
        path = self.write(tmp_path, MLP_BASE.format(family="adamw"))
        code = main(["align", "--config", path, "--train-steps", "5",
                     "--d-s", "2", "--k-grid", "2,4"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "block,side,k,coverage"
        assert len(lines) > 1
        for line in lines[1:]:
            block, side, k, cov = line.split(",")
            assert side in ("row", "col")
            assert 0.0 <= float(cov) <= 1.0 + 1e-12

    def test_dynamics_check_all_pass(self, capsys):
        code = main(["dynamics-check"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "check,value,bound,status"
        assert len(lines) == 5
        assert all(line.endswith(",pass") for line in lines[1:])

    def test_calls_in_sequence_share_no_state(self, tmp_path, capsys, monkeypatch):
        path = self.write(tmp_path, MLP_BASE.format(family="adamw"))
        train_steps = []

        def fake_alignment(spec, seed, steps, d_s, k_grid):
            train_steps.append(steps)
            return {}

        monkeypatch.setattr(cli, "alignment_experiment", fake_alignment)
        assert main(["align", "--config", path, "--d-s", "4", "--k-grid", "2"]) == 2
        assert main(["run", "--config", path]) == 0
        assert main(["align", "--config", path, "--train-steps", "7"]) == 0
        assert main(["align", "--config", path]) == 0
        assert train_steps == [7, 100]
        capsys.readouterr()
        outs = []
        for _ in range(2):
            assert main(["version"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == "0.1.0\n"

    @pytest.mark.parametrize("command", ["run", "align", "dynamics-check"])
    def test_command_leaves_no_cyclic_garbage(self, tmp_path, capsys, command):
        path = self.write(tmp_path, MLP_BASE.format(family="muon_lite"))
        argv = {"run": ["run", "--config", path],
                "align": ["align", "--config", path, "--train-steps", "3",
                          "--d-s", "2", "--k-grid", "2,4"],
                "dynamics-check": ["dynamics-check"]}[command]
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()


@pytest.mark.parametrize("family", ["muon_lite", "soap_lite"])
def test_csv_bytes_do_not_depend_on_blas_threads(tmp_path, family):
    # each run is a fresh process, so BLAS starts with the thread count set here
    src = str(Path(flatopt.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        csv = tmp_path / f"{threads}.csv"
        cfg = tmp_path / f"{threads}.cfg"
        cfg.write_text(MLP_BASE.format(family=family)
                       .replace("run.steps = 30", "run.steps = 10")
                       .replace("6, 8, 8, 4", "32, 96, 96, 16")
                       .replace("batch_size = 8", "batch_size = 32")
                       + f"lite.chi = 4.0\nlite.beta2 = 1.0\nrun.output_path = {csv}\n")
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-m", "flatopt.cli", "run", "--config", str(cfg)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(csv.read_bytes())
    assert outputs[0].count(b"\n") == 11
    assert outputs[0] == outputs[1]


def test_align_output_does_not_depend_on_blas_threads(tmp_path):
    # each run is a fresh process, so BLAS starts with the thread count set here
    src = str(Path(flatopt.__file__).resolve().parent.parent)
    cfg = tmp_path / "align.cfg"
    cfg.write_text(MLP_BASE.format(family="adamw")
                   .replace("6, 8, 8, 4", "16, 40, 40, 8")
                   .replace("batch_size = 8", "batch_size = 32"))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-m", "flatopt.cli", "align", "--config", str(cfg)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0].startswith("block,side,k,coverage\n")
    assert outputs[0].count("\n") == 18
    assert outputs[0] == outputs[1]
