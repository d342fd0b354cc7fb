"""One rule for every number that enters from outside, and one for every
array; this module pins both, and each argument's range, once.

A number goes through linalg.check_number: a config field by way of
linalg.check_fields, which takes the field's kind from its annotation, and a
CLI flag or an analysis entry point's argument directly. An array goes
through linalg.check_array. The tables below give every such argument the
interval or shape that src/ passes, and each case matches the whole message,
so the rows of one argument pin both the rule and that argument's range:

- a real's NaN, inf and -inf read ``<name> must be in <interval>, got nan``
  (less an inf the interval admits), and a string ``<name> must be a real
  number, got 'half'``;
- an integer's 2.5 and a string read ``<name> must be an integer, got 2.5``;
- each finite end of an interval is admitted where its bracket is closed and
  rejected where it is open, and the value just past a closed end (the next
  float, or the next integer) is rejected;
- an array's NaN, inf or -inf entry reads ``<name> must be finite, got nan``,
  and an axis too many or too few, an empty axis and one entry too many on an
  axis of fixed length ``<name> must have shape <shape>, got <shape>``.

A flag exits 2 and argparse names it. How check_number reads each bracket
form and how check_array reads a shape are pinned once, on the functions
themselves. A guard walks src/ so that every name passed to either function,
and every type that calls check_fields, has a row.
"""

import ast
import dataclasses
import math
import numbers
import re
from pathlib import Path

import numpy as np
import pytest

import flatopt
from flatopt.cli import _build_parser, main
from flatopt.dynamics import (AdemamixFlowConfig, DynamicsState, FlowParams,
                              ademamix_flow_trajectory, nesterov_forms_trace, rk4_flow,
                              semi_implicit_step)
from flatopt.harness import ExperimentConfig
from flatopt.landscapes import (MlpSpec, RiverValleySpec, alignment_experiment,
                                gram_alignment_curve, quadratic_landscape)
from flatopt.linalg import (check_array, check_fields, check_number, qr_decompose, svd_oracle,
                            sym_eig)
from flatopt.optim import FAMILY_KEYS, LitePolicy, OptimizerConfig, ScheduleSpec
from flatopt.polar import NsSchedule, RankController, composite_sharp_projection, ns_polar
from flatopt.quadratic import (QuadraticSpec, monotonicity_probe, regime_boundaries,
                               simulate_recurrence, stability_bound)
from flatopt.subspace import SoapMaskController, coverage_score, smoothed_sharp_mask

SPEC = QuadraticSpec(np.array([2.0, 1.0]))
STATE = DynamicsState(np.array([1.0, -1.0]), np.zeros(2))
PARAMS = FlowParams(alpha=0.2, eta=0.05)
MLP = MlpSpec(widths=(6, 8, 8, 4))
SCHEDULE = ScheduleSpec("constant", 0.1, 0, 10)
EXPERIMENT = ExperimentConfig(1, 10, MLP, OptimizerConfig("adamw"), SCHEDULE)
REAL = "(-inf, inf)"  # the interval check_number reads when it is given none


def bounds(interval, integer):
    """(value, admitted) at and just past each end of interval: an end is
    admitted where its bracket is closed, as clip_norm's inf is, and the
    value just past a finite end never."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    cases = []
    for end, closed, step in ((low, interval[0] == "[", -1), (high, interval[-1] == "]", 1)):
        if not math.isfinite(end):
            cases += [(end, True)] if closed else []
            continue
        at = int(end) if integer else end
        cases.append((at, closed))
        if closed:
            cases.append((at + step if integer else math.nextafter(end, step * math.inf), False))
    return cases


def bad_numbers(name, interval, integer):
    """(bad value, the whole message that rejects it) for a number argument:
    the wrong kind, each value outside interval next to its ends and, for a
    real, each non-finite value interval leaves out."""
    outside = f"{name} must be in {interval}, got "
    if integer:
        cases = [(2.5, f"{name} must be an integer, got 2.5"),
                 ("three", f"{name} must be an integer, got 'three'")]
    else:
        cases = [("half", f"{name} must be a real number, got 'half'"),
                 *((value, outside + str(value)) for value in (math.nan, -math.inf, math.inf)
                   if (value, True) not in bounds(interval, integer))]
    return cases + [(value, outside + str(value))
                    for value, admitted in bounds(interval, integer) if not admitted]


def admitted_bounds(name, interval, integer):
    return [value for value, admitted in bounds(interval, integer) if admitted]


def whole(message):
    return f"^{re.escape(message)}$"


# a valid instance of each type that calls check_fields, and the interval of
# each of its number fields; an OptimizerConfig field is set on a family that
# reads it
FIELDS = [
    (LitePolicy(), {"chi": "[1, inf)", "beta1": REAL, "beta2": REAL, "r_s": "(0, 1]",
                    "d_smooth_ratio": "[0, 1)"}),
    (SCHEDULE, {"lr_max": "[0, inf)", "warmup_steps": "[0, inf)", "total_steps": "[1, inf)"}),
    (MLP, {"widths": "[1, inf)", "batch_size": "[1, inf)", "noise_sigma": "[0, inf)"}),
    (RiverValleySpec(1, 1, 10.0), {"sharp_dim": "[1, inf)", "flat_dim": "[1, inf)",
                                   "sharp_curvature": "(0, inf)"}),
    (FlowParams(alpha=0.1), {"alpha": "[0, inf)", "eta": REAL, "chi": REAL}),
    (AdemamixFlowConfig(0.1, 1e-3, 2.0, 0.05), {"alpha_fast": "(0, inf)", "alpha_slow": "(0, inf)",
                                                "kappa": "[0, inf)", "eta": REAL}),
    (EXPERIMENT, {"seed": "[0, 18446744073709551616)", "steps": "[1, inf)",
                  "log_every": "[1, inf)"}),
    (NsSchedule(), {"iterations": "[1, inf)"}),
    *((OptimizerConfig(FAMILY_KEYS.get(name, ("adamw",))[0]), {name: interval})
      for name, interval in {
          "theta": "[0, 1)", "beta_v": "[0, 1)", "theta_shampoo": "[0, 1)", "epsilon": "(0, inf)",
          "weight_decay": "[0, inf)", "clip_norm": "(0, inf]", "nesterov_beta": REAL,
          "mars_gamma": REAL, "ademamix_kappa": "[0, inf)", "alpha_fast": "(0, 1]",
          "alpha_slow": "(0, 1]", "qr_refresh_every": "[1, inf)"}.items()),
]
NUMBER_ANNOTATIONS = ("int", "float", "tuple[int, ...]")


def is_integer_field(cls, name):
    return next(f.type for f in dataclasses.fields(cls) if f.name == name) != "float"


FIELD_CASES = [
    pytest.param(base, name, bad, message, id=f"{type(base).__name__}.{name}={bad!r}")
    for base, intervals in FIELDS for name, interval in intervals.items()
    for bad, message in bad_numbers(name, interval, is_integer_field(type(base), name))]
FIELD_BOUNDS = [
    pytest.param(base, name, value, id=f"{type(base).__name__}.{name}={value!r}")
    for base, intervals in FIELDS for name, interval in intervals.items()
    for value in admitted_bounds(name, interval, is_integer_field(type(base), name))]

# entry point, valid keyword arguments, the interval of each number argument,
# the integer ones
ENTRY_POINTS = [
    (stability_bound, {"lam_max": 10.0, "alpha": 0.5, "beta": 1.0},
     {"lam_max": "(0, inf)", "alpha": "(0, inf)", "beta": "[0, inf)"}, ()),
    (regime_boundaries, {"alpha": 0.1, "beta": 1.0, "eta": 0.01},
     {"alpha": "(0, inf)", "beta": "[0, inf)", "eta": REAL}, ()),
    (simulate_recurrence, {"spec": SPEC, "alpha": 0.1, "beta": 1.0, "eta": 0.01,
                           "w0": np.ones(2), "m0": np.zeros(2), "steps": 5},
     {"alpha": REAL, "beta": REAL, "eta": REAL, "steps": "[1, inf)"}, ("steps",)),
    (monotonicity_probe, {"lam": -0.05, "alpha": 0.1, "eta_grid": (0.01, 0.02),
                          "beta_grid": (0.5, 1.0)},
     {"lam": REAL, "alpha": "(0, inf)", "eta_grid": "(0, inf)", "beta_grid": "[0, inf)"}, ()),
    (semi_implicit_step, {"state": STATE, "quadratic": SPEC, "params": PARAMS, "h": 0.5},
     {"h": "(0, inf)"}, ()),
    # t_end lies in [state.t, inf)
    (rk4_flow, {"state": STATE, "quadratic": SPEC, "params": PARAMS, "t_end": 0.1, "h": 0.05},
     {"h": "(0, inf)", "t_end": "[0.0, inf)"}, ()),
    (nesterov_forms_trace, {"quadratic": SPEC, "alpha": 0.1, "eta": 0.05, "steps": 5},
     {"alpha": "(0, 1)", "eta": REAL, "steps": "[1, inf)"}, ("steps",)),
    # each k of k_grid lies in [d_s, len(gram)], or [d_s, inf) for the experiment
    (gram_alignment_curve, {"reference": np.diag([3.0, 2.0, 1.0]), "gram": np.diag([1.0, 3.0, 2.0]),
                            "d_s": 1, "k_grid": (1, 2)},
     {"d_s": "[1, inf)", "k_grid": "[1, 3]"}, ("d_s", "k_grid")),
    (alignment_experiment, {"spec": MLP, "seed": 1, "train_steps": 1, "d_s": 2, "k_grid": (2, 4)},
     {"train_steps": "[0, inf)", "d_s": "[1, inf)", "k_grid": "[2, inf)"},
     ("train_steps", "d_s", "k_grid")),
    (DynamicsState, {"w": np.ones(2), "m": np.zeros(2), "t": 0.0}, {"t": REAL}, ()),
    (FlowParams, {"alpha": 0.1, "beta": 0.0}, {"beta": REAL}, ()),
]

ARGUMENT_CASES = [
    pytest.param(func, kwargs, name, bad, message, id=f"{func.__name__}-{name}={bad}")
    for func, kwargs, intervals, integers in ENTRY_POINTS for name, interval in intervals.items()
    for bad, message in bad_numbers(name, interval, name in integers)]
ARGUMENT_BOUNDS = [
    pytest.param(func, kwargs, name, value, id=f"{func.__name__}-{name}={value}")
    for func, kwargs, intervals, integers in ENTRY_POINTS for name, interval in intervals.items()
    for value in admitted_bounds(name, interval, name in integers)]

M = np.array([[2.0, 0.5], [0.0, 1.0], [1.0, -1.0]])
MATRIX = "(>=1, >=1)"  # how check_array names the shape (None, None)
# entry point, valid keyword arguments, the shape of each array argument
ARRAY_ARGUMENTS = [
    (qr_decompose, {"a": M}, {"a": MATRIX}),
    (sym_eig, {"a": M.T @ M}, {"a": MATRIX}),
    (svd_oracle, {"a": M}, {"a": MATRIX}),
    (ns_polar, {"a": M}, {"a": MATRIX}),
    (composite_sharp_projection, {"m_tilde": M, "controller": RankController(0.5, 1),
                                  "polar": ns_polar(M)}, {"m_tilde": MATRIX, "polar": "(3, 2)"}),
    (smoothed_sharp_mask, {"v": np.abs(M), "ctrl": SoapMaskController(1, 1)}, {"v": MATRIX}),
    (coverage_score, {"basis_a": np.eye(3)[:, :1], "basis_b": np.eye(3)[:, :2]},
     {"basis_a": MATRIX, "basis_b": "(3, >=1)"}),
    (QuadraticSpec, {"eigenvalues": np.array([2.0, 1.0]), "offsets": np.zeros(2)},
     {"eigenvalues": "(>=1,)", "offsets": "(2,)"}),
    (simulate_recurrence, {"spec": SPEC, "alpha": 0.1, "beta": 1.0, "eta": 0.01,
                           "w0": np.ones(2), "m0": np.zeros(2), "steps": 5},
     {"w0": "(2,)", "m0": "(2,)"}),
    (DynamicsState, {"w": np.ones(2), "m": np.zeros(2)}, {"w": "(>=1,)", "m": "(2,)"}),
    (FlowParams, {"alpha": 0.2, "projector_sharp": np.diag([1.0, 0.0]), "metric": np.eye(2)},
     {"projector_sharp": MATRIX, "metric": MATRIX}),
    (ademamix_flow_trajectory, {"quadratic": SPEC, "t_grid": np.array([0.0, 0.5]),
                                "cfg": AdemamixFlowConfig(0.5, 0.1, 1.0, 0.1)}, {"t_grid": "(>=1,)"}),
    (quadratic_landscape(SPEC).unpack, {"w": np.ones(2)}, {"w": "(2,)"}),
]


def bad_arrays(name, shape, valid):
    """(kind, bad array, the whole message that rejects it) for an array
    argument: each non-finite entry, an axis too many or too few, an empty
    axis and, on each axis of fixed length, one entry too many."""
    cases = []
    for entry in (math.nan, math.inf, -math.inf):
        bad = valid.copy()
        bad.flat[0] = entry
        cases.append((str(entry), bad, f"{name} must be finite, got {entry}"))
    for kind, bad in [("extra axis", valid[None]), ("missing axis", valid[0]),
                      ("empty", valid[:0]),
                      *((f"axis {axis} longer", np.concatenate([valid, valid.take([0], axis)], axis))
                        for axis, length in enumerate(shape[1:-1].split(","))
                        if length.strip().isdigit())]:
        cases.append((kind, bad, f"{name} must have shape {shape}, got {np.shape(bad)}"))
    return cases


ARRAY_CASES = [
    pytest.param(func, kwargs, name, bad, message, id=f"{func.__qualname__}-{name}-{kind}")
    for func, kwargs, shapes in ARRAY_ARGUMENTS for name, shape in shapes.items()
    for kind, bad, message in bad_arrays(name, shape, kwargs[name])]

# subcommand, valid arguments, the interval of each number flag, the integer ones
FLAGS = [
    ("quadratic-report", {"--alpha": "0.1", "--beta": "1.0", "--eta": "0.01",
                          "--lambda-min": "0.1", "--lambda-max": "10", "--points": "3"},
     {"--alpha": REAL, "--beta": REAL, "--eta": REAL, "--lambda-min": REAL, "--lambda-max": REAL,
      "--points": "[1, inf)"}, ("--points",)),
    ("align", {"--config": "unread.cfg"}, {"--train-steps": "[0, inf)", "--d-s": "[1, inf)"},
     ("--train-steps", "--d-s")),
]



def flag_reason(flag, integers, bad, message):
    """What argparse prints after the flag: int() or float() refuses a value
    of the wrong kind before check_number sees it."""
    if " must be an integer" in message or " must be a real number" in message:
        return f"invalid {'int' if flag in integers else 'float'} value: '{bad}'"
    return message


FLAG_CASES = [
    pytest.param(command, args, flag, str(bad), flag_reason(flag, integers, bad, message),
                 id=f"{command}{flag}={bad}")
    for command, args, intervals, integers in FLAGS for flag, interval in intervals.items()
    for bad, message in bad_numbers(flag[2:].replace("-", "_"), interval, flag in integers)]
FLAG_BOUNDS = [
    pytest.param(command, args, flag, value, id=f"{command}{flag}={value}")
    for command, args, intervals, integers in FLAGS for flag, interval in intervals.items()
    for value in admitted_bounds(flag, interval, flag in integers)]


@pytest.fixture
def no_training(monkeypatch):
    """alignment_experiment must reject its arguments before it builds a landscape."""
    monkeypatch.setattr("flatopt.landscapes.MlpLandscape",
                        lambda *a, **kw: pytest.fail("the landscape was built"))


class TestCheckFields:
    @pytest.mark.parametrize("base,name,bad,message", FIELD_CASES)
    def test_number_field_pins_its_interval(self, base, name, bad, message):
        if isinstance(getattr(base, name), tuple):  # every item is checked: the last one is bad
            bad = getattr(base, name)[:-1] + (bad,)
        with pytest.raises(ValueError, match=whole(message)):
            dataclasses.replace(base, **{name: bad})

    @pytest.mark.parametrize("base,name,value", FIELD_BOUNDS)
    def test_number_field_admits_its_closed_ends(self, base, name, value):
        if isinstance(getattr(base, name), tuple):
            value = getattr(base, name)[:-1] + (value,)
        assert getattr(dataclasses.replace(base, **{name: value}), name) == value

    def test_real_field_rejects_an_int_no_float_holds(self):
        # 10**400 lay in [0, inf) by comparison, and the run died with
        # OverflowError at its first step
        with pytest.raises(ValueError, match="^lr_max must fit in a float"):
            dataclasses.replace(SCHEDULE, lr_max=10**400)
        with pytest.raises(ValueError, match="^weight_decay must fit in a float"):
            OptimizerConfig("adamw", weight_decay=-10**400)
        # an int field still judges an int of any size exactly
        assert dataclasses.replace(EXPERIMENT, seed=2**64 - 1).seed == 2**64 - 1
        with pytest.raises(ValueError, match=r"^seed must be in \[0, 18446744073709551616\), got 1"):
            dataclasses.replace(EXPERIMENT, seed=10**400)

    @pytest.mark.parametrize("key", ["chii", "kind"])
    def test_interval_key_must_be_a_number_field(self, key):
        # a misspelled key would otherwise drop its check silently
        with pytest.raises(TypeError, match=rf"ScheduleSpec has no number field \['{key}'\]"):
            check_fields(SCHEDULE, {key: "[1, inf)"})


# interval -> values inside it, values outside it
BRACKETS = {
    "[0, 1)": ((0, 0.5), (1, -1e-300)),
    "(0, 1]": ((1e-300, 1), (0, 1.5)),
    "[1, 3]": ((1, 3), (0, 4)),
    "(0, inf)": ((1e-300, 1e300), (0.0, math.inf)),
    "(0, inf]": ((math.inf,), (0.0, -math.inf)),  # clip_norm's: inf turns clipping off
    REAL: ((-1e300, 1e300), (math.inf, -math.inf, math.nan)),
}


@pytest.mark.parametrize("interval", BRACKETS)
def test_check_number_reads_each_bracket_form(interval):
    inside, outside = BRACKETS[interval]
    for value in inside:
        assert check_number("x", value, interval=interval) == value
    for value in outside:
        with pytest.raises(ValueError, match=whole(f"x must be in {interval}, got {value}")):
            check_number("x", value, interval=interval)


def test_check_number_checks_the_kind():
    with pytest.raises(ValueError, match=whole("n must be an integer, got 2.5")):
        check_number("n", 2.5, numbers.Integral, "[1, inf)")
    with pytest.raises(ValueError, match=whole("x must be a real number, got '0.5'")):
        check_number("x", "0.5")
    assert check_number("n", np.int64(3), numbers.Integral, "[1, inf)") == 3


class TestCheckArray:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="^a must be finite, got inf$"):
            check_array("a", np.array([[1.0, np.inf]]), (None, None))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match=r"^a must have shape \(>=1, >=1\), got \(3,\)$"):
            check_array("a", np.ones(3), (None, None))

    def test_rejects_a_wrong_or_empty_axis(self):
        with pytest.raises(ValueError, match=r"^w must have shape \(3,\), got \(2,\)$"):
            check_array("w", np.ones(2), (3,))
        with pytest.raises(ValueError, match=r"^w must have shape \(>=1, 2\), got \(0, 2\)$"):
            check_array("w", np.ones((0, 2)), (None, 2))

    def test_float64_input_is_not_copied(self):
        a = np.ones((2, 3))
        assert check_array("a", a, (2, None)) is a
        assert check_array("a", [[1, 2]], (1, 2)).dtype == np.float64


def test_entry_points_accept_their_valid_arguments():
    for func, kwargs, _, _ in ENTRY_POINTS:
        func(**kwargs)


@pytest.mark.parametrize("func,kwargs,name,bad,message", ARGUMENT_CASES)
def test_entry_point_rejects_a_bad_number_by_name(no_training, func, kwargs, name, bad, message):
    if isinstance(kwargs[name], tuple):  # every item of a grid is checked: the second is bad
        bad = kwargs[name][:1] + (bad,)
    with pytest.raises(ValueError, match=whole(message)):
        func(**{**kwargs, name: bad})


@pytest.mark.parametrize("func,kwargs,name,value", ARGUMENT_BOUNDS)
def test_entry_point_admits_the_closed_ends_of_a_range(func, kwargs, name, value):
    if isinstance(kwargs[name], tuple):
        value = kwargs[name][:1] + (value,)
    func(**{**kwargs, name: value})


@pytest.mark.parametrize("func", [gram_alignment_curve, alignment_experiment])
def test_alignment_rejects_an_empty_grid(no_training, func):
    kwargs = next(kw for f, kw, _, _ in ENTRY_POINTS if f is func)
    with pytest.raises(ValueError, match="^k_grid must be non-empty$"):
        func(**{**kwargs, "k_grid": ()})


def test_an_int_too_long_to_print_keeps_the_message():
    # str() refuses an int of more than 4300 digits
    message = r"^steps must be in \[1, inf\), got a negative integer of 16610 bits$"
    with pytest.raises(ValueError, match=message):
        check_number("steps", -10**5000, numbers.Integral, "[1, inf)")
    with pytest.raises(ValueError, match=message):
        simulate_recurrence(SPEC, 0.1, 0.0, 0.1, np.ones(2), np.zeros(2), -10**5000)
    with pytest.raises(ValueError, match=r"^k must be in \[1, 100\], got an integer of 16610 bits$"):
        check_number("k", 10**5000, numbers.Integral, "[1, 100]")
    # repr() of a list holding one raises, so the message names the list's type instead
    shown = "got a list holding an integer too long to print"
    with pytest.raises(ValueError, match=f"^beta must be a real number, {shown}$"):
        FlowParams(alpha=0.1, beta=[10**5000])
    with pytest.raises(ValueError, match=f"^widths must be a tuple of integers, {shown}$"):
        MlpSpec(widths=[10**5000])


def test_array_arguments_accept_their_valid_values():
    for func, kwargs, _ in ARRAY_ARGUMENTS:
        func(**kwargs)


@pytest.mark.parametrize("func,kwargs,name,bad,message", ARRAY_CASES)
def test_array_argument_rejects_a_bad_array_by_name(func, kwargs, name, bad, message):
    with pytest.raises(ValueError, match=whole(message)):
        func(**{**kwargs, name: bad})


@pytest.mark.parametrize("command,args,flag,bad,message", FLAG_CASES)
def test_flag_rejects_a_bad_number_by_name(capsys, monkeypatch, command, args, flag, bad, message):
    monkeypatch.setattr("flatopt.cli.alignment_experiment",
                        lambda *a, **kw: pytest.fail("alignment_experiment was called"))
    argv = [command, *(f"{key}={value}" for key, value in {**args, flag: bad}.items())]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.endswith(f"error: argument {flag}: {message}\n")
    assert "Traceback" not in out.err


@pytest.mark.parametrize("command,args,flag,value", FLAG_BOUNDS)
def test_flag_admits_the_closed_ends_of_its_range(command, args, flag, value):
    argv = [command, *(f"{key}={arg}" for key, arg in {**args, flag: value}.items())]
    assert getattr(_build_parser().parse_args(argv), flag[2:].replace("-", "_")) == value


# the names that src/ passes to check_number or check_array through a
# variable, by the function or class that passes them; check_fields passes
# each number field's name, which FIELDS lists
BY_HAND = {
    "FlowParams": {"projector_sharp", "metric"},
    "simulate_recurrence": {"alpha", "beta", "eta"},
    "_number": {"--alpha", "--beta", "--eta", "--lambda-min", "--lambda-max", "--points",
                "--train-steps", "--d-s"},
    "check_fields": set(),
}


def checked_in_src():
    """The (owner, name) pairs that src/ passes to check_number or check_array
    as a string literal, the owners that pass a name through a variable, and
    the classes that call check_fields. An owner is the module-level function
    or class making the call; a private helper's names count for each of its
    callers in the module."""
    literal, through_variable, field_types = set(), set(), set()
    for path in sorted(Path(flatopt.__file__).parent.glob("*.py")):
        owners = [node for node in ast.parse(path.read_text()).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        calls = {owner.name: [node for node in ast.walk(owner)
                              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
                 for owner in owners}
        for owner in owners:
            public = [caller for caller, nodes in calls.items()
                      if any(node.func.id == owner.name for node in nodes)] \
                if owner.name.startswith("_") and owner.name not in BY_HAND else [owner.name]
            for node in calls[owner.name]:
                if node.func.id in ("check_number", "check_array"):
                    if isinstance(node.args[0], ast.Constant):
                        literal.update((caller, node.args[0].value) for caller in public)
                    else:
                        through_variable.add(owner.name)
                if node.func.id == "check_fields" and isinstance(owner, ast.ClassDef):
                    field_types.add(owner.name)
    return literal, through_variable, field_types


def test_every_checked_name_has_a_row():
    literal, through_variable, field_types = checked_in_src()
    assert through_variable == BY_HAND.keys()
    rows = {(func.__qualname__.partition(".")[0], name)
            for func, _, names, *_ in ENTRY_POINTS + ARRAY_ARGUMENTS for name in names}
    rows |= {("_number", flag) for _, _, intervals, _ in FLAGS for flag in intervals}
    by_hand = {(owner, name) for owner, names in BY_HAND.items() for name in names}
    assert (literal | by_hand) - rows == set()
    assert {type(base).__name__ for base, _ in FIELDS} == field_types
    for cls in {type(base) for base, _ in FIELDS}:
        listed = {name for base, intervals in FIELDS if type(base) is cls for name in intervals}
        assert listed == {f.name for f in dataclasses.fields(cls)
                          if f.type in NUMBER_ANNOTATIONS}, cls.__name__
