"""One rule for every number that enters from outside: a CLI flag or an
argument of an analysis entry point is checked by linalg.check_number; and
one rule for every array, linalg.check_array.

NaN is rejected everywhere, +-inf unless the interval is closed at inf, and
2.5 wherever an integer goes. A rejection is a ValueError led by the
argument's name; a flag exits 2 and argparse names it. An array argument
also rejects a wrong number of axes and an empty axis.
"""

import math
import numbers

import numpy as np
import pytest

from flatopt.cli import main
from flatopt.dynamics import (AdemamixFlowConfig, DynamicsState, FlowParams,
                              ademamix_flow_trajectory, nesterov_forms_trace, rk4_flow,
                              semi_implicit_step)
from flatopt.landscapes import (MlpSpec, alignment_experiment, gram_alignment_curve,
                                quadratic_landscape)
from flatopt.linalg import check_number, qr_decompose, svd_oracle, sym_eig
from flatopt.polar import NsSchedule, RankController, composite_sharp_projection, ns_polar
from flatopt.quadratic import (QuadraticSpec, monotonicity_probe, regime_boundaries,
                               simulate_recurrence, stability_bound)
from flatopt.subspace import SoapMaskController, coverage_score, smoothed_sharp_mask

SPEC = QuadraticSpec(np.array([2.0, 1.0]))
STATE = DynamicsState(np.array([1.0, -1.0]), np.zeros(2))
PARAMS = FlowParams(alpha=0.2, eta=0.05)
MLP = MlpSpec(widths=(6, 8, 8, 4))

# entry point, valid keyword arguments, the number arguments, the integer ones;
# a grid argument gets its bad value as a one-item grid
ENTRY_POINTS = [
    (stability_bound, {"lam_max": 10.0, "alpha": 0.5, "beta": 1.0},
     ("lam_max", "alpha", "beta"), ()),
    (regime_boundaries, {"alpha": 0.1, "beta": 1.0, "eta": 0.01}, ("alpha", "beta", "eta"), ()),
    (simulate_recurrence, {"spec": SPEC, "alpha": 0.1, "beta": 1.0, "eta": 0.01,
                           "w0": np.ones(2), "m0": np.zeros(2), "steps": 5},
     ("alpha", "beta", "eta", "steps"), ("steps",)),
    (monotonicity_probe, {"lam": -0.05, "alpha": 0.1, "eta_grid": (0.01, 0.02),
                          "beta_grid": (0.5, 1.0)},
     ("lam", "alpha", "eta_grid", "beta_grid"), ()),
    (semi_implicit_step, {"state": STATE, "quadratic": SPEC, "params": PARAMS, "h": 0.5},
     ("h",), ()),
    (rk4_flow, {"state": STATE, "quadratic": SPEC, "params": PARAMS, "t_end": 0.1, "h": 0.05},
     ("h", "t_end"), ()),
    (nesterov_forms_trace, {"quadratic": SPEC, "alpha": 0.1, "eta": 0.05, "steps": 5},
     ("alpha", "eta", "steps"), ("steps",)),
    (gram_alignment_curve, {"reference": np.diag([3.0, 2.0, 1.0]), "gram": np.diag([1.0, 3.0, 2.0]),
                            "d_s": 1, "k_grid": (1, 2)}, ("d_s", "k_grid"), ("d_s", "k_grid")),
    (alignment_experiment, {"spec": MLP, "seed": 1, "train_steps": 1, "d_s": 2, "k_grid": (2, 4)},
     ("train_steps", "d_s", "k_grid"), ("train_steps", "d_s", "k_grid")),
    (NsSchedule, {"iterations": 6}, ("iterations",), ("iterations",)),
]

ARGUMENT_CASES = [
    pytest.param(func, kwargs, name, bad, id=f"{func.__name__}-{name}={bad}")
    for func, kwargs, names, integers in ENTRY_POINTS for name in names
    for bad in (math.nan, math.inf, -math.inf) + ((2.5,) if name in integers else ())]

M = np.array([[2.0, 0.5], [0.0, 1.0], [1.0, -1.0]])
# entry point, valid keyword arguments, the array arguments
ARRAY_ARGUMENTS = [
    (qr_decompose, {"a": M}, ("a",)),
    (sym_eig, {"a": M.T @ M}, ("a",)),
    (svd_oracle, {"a": M}, ("a",)),
    (ns_polar, {"a": M}, ("a",)),
    (composite_sharp_projection, {"m_tilde": M, "controller": RankController(0.5, 1),
                                  "polar": ns_polar(M)}, ("m_tilde", "polar")),
    (smoothed_sharp_mask, {"v": np.abs(M), "ctrl": SoapMaskController(1, 1)}, ("v",)),
    (coverage_score, {"basis_a": np.eye(3)[:, :1], "basis_b": np.eye(3)[:, :2]},
     ("basis_a", "basis_b")),
    (QuadraticSpec, {"eigenvalues": np.array([2.0, 1.0]), "offsets": np.zeros(2)},
     ("eigenvalues", "offsets")),
    (simulate_recurrence, {"spec": SPEC, "alpha": 0.1, "beta": 1.0, "eta": 0.01,
                           "w0": np.ones(2), "m0": np.zeros(2), "steps": 5}, ("w0", "m0")),
    (DynamicsState, {"w": np.ones(2), "m": np.zeros(2)}, ("w", "m")),
    (FlowParams, {"alpha": 0.2, "projector_sharp": np.diag([1.0, 0.0]), "metric": np.eye(2)},
     ("projector_sharp", "metric")),
    (ademamix_flow_trajectory, {"quadratic": SPEC, "t_grid": np.array([0.0, 0.5]),
                                "cfg": AdemamixFlowConfig(0.5, 0.1, 1.0, 0.1)}, ("t_grid",)),
    (quadratic_landscape(SPEC).unpack, {"w": np.ones(2)}, ("w",)),
]


def _bad_array(valid, kind):
    """valid with a first entry of nan or inf, an axis in front, or its first axis emptied."""
    if kind in ("nan", "inf"):
        bad = valid.copy()
        bad.flat[0] = float(kind)
        return bad
    return valid[None] if kind == "extra axis" else valid[:0]


ARRAY_CASES = [
    pytest.param(func, kwargs, name, kind, id=f"{func.__qualname__}-{name}-{kind}")
    for func, kwargs, names in ARRAY_ARGUMENTS for name in names
    for kind in ("nan", "inf", "extra axis", "empty axis")]

# subcommand, valid arguments, {flag: its value is an integer}; no interval
# here is closed at inf, so every flag rejects inf
FLAGS = [
    ("quadratic-report", {"--alpha": "0.1", "--beta": "1.0", "--eta": "0.01",
                          "--lambda-min": "0.1", "--lambda-max": "10", "--points": "3"},
     {"--alpha": False, "--beta": False, "--eta": False, "--lambda-min": False,
      "--lambda-max": False, "--points": True}),
    ("align", {"--config": "unread.cfg"}, {"--train-steps": True, "--d-s": True}),
]

FLAG_CASES = [
    pytest.param(command, args, flag, is_int, bad, id=f"{command}{flag}={bad}")
    for command, args, flags in FLAGS for flag, is_int in flags.items()
    for bad in ("nan", "inf", "-inf") + (("2.5",) if is_int else ())]


def test_entry_points_accept_their_valid_arguments():
    for func, kwargs, _, _ in ENTRY_POINTS:
        func(**kwargs)


@pytest.mark.parametrize("func,kwargs,name,bad", ARGUMENT_CASES)
def test_entry_point_rejects_a_bad_number_by_name(func, kwargs, name, bad):
    value = (bad,) if isinstance(kwargs[name], tuple) else bad
    with pytest.raises(ValueError, match=f"^{name} must be "):
        func(**{**kwargs, name: value})


GRID_CASES = [
    ({"d_s": 0}, r"d_s must be in \[1, inf\), got 0"),
    ({"d_s": math.nan}, "d_s must be an integer, got nan"),
    ({"k_grid": (2.5,)}, "k_grid must be an integer, got 2.5"),
    ({"k_grid": ()}, "k_grid must be non-empty"),
]


@pytest.mark.parametrize("func,bad,message", [
    pytest.param(func, bad, message, id=f"{func.__name__}-{next(iter(bad.items()))}")
    for func, bad, message in [
        *((gram_alignment_curve, bad, message) for bad, message in GRID_CASES),
        *((alignment_experiment, bad, message) for bad, message in GRID_CASES),
        (alignment_experiment, {"train_steps": -3}, r"train_steps must be in \[0, inf\), got -3"),
        # below d_s a curve would fail only after training
        (alignment_experiment, {"k_grid": (1, 2)}, r"k_grid must be in \[2, inf\), got 1"),
    ]])
def test_alignment_rejects_a_bad_grid_before_any_work(monkeypatch, func, bad, message):
    monkeypatch.setattr("flatopt.landscapes.MlpLandscape",
                        lambda *a, **kw: pytest.fail("the landscape was built"))
    kwargs = next(kw for f, kw, _, _ in ENTRY_POINTS if f is func)
    with pytest.raises(ValueError, match=f"^{message}$"):
        func(**{**kwargs, **bad})


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


@pytest.mark.parametrize("func,kwargs,name,kind", ARRAY_CASES)
def test_array_argument_rejects_a_bad_array_by_name(func, kwargs, name, kind):
    with pytest.raises(ValueError, match=f"^{name} must "):
        func(**{**kwargs, name: _bad_array(kwargs[name], kind)})


@pytest.mark.parametrize("command,args,flag,is_int,bad", FLAG_CASES)
def test_flag_rejects_a_bad_number_by_name(capsys, monkeypatch, command, args, flag, is_int, bad):
    monkeypatch.setattr("flatopt.cli.alignment_experiment",
                        lambda *a, **kw: pytest.fail("alignment_experiment was called"))
    argv = [command, *(f"{key}={value}" for key, value in {**args, flag: bad}.items())]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    # int() refuses every bad value, so only a float flag reaches check_number
    reason = f"invalid int value: '{bad}'" if is_int else \
        f"{flag[2:].replace('-', '_')} must be in (-inf, inf), got {bad}"
    assert f"argument {flag}: {reason}" in out.err
    assert "Traceback" not in out.err
