"""One rule for every number that enters from outside: a CLI flag or an
argument of an analysis entry point is checked by linalg.check_number.

NaN is rejected everywhere, +-inf unless the interval is closed at inf, and
2.5 wherever an integer goes. A rejection is a ValueError led by the
argument's name; a flag exits 2 and argparse names it.
"""

import math

import numpy as np
import pytest

from flatopt.cli import main
from flatopt.dynamics import DynamicsState, FlowParams, nesterov_forms_trace, rk4_flow, \
    semi_implicit_step
from flatopt.quadratic import (QuadraticSpec, monotonicity_probe, regime_boundaries,
                               simulate_recurrence, stability_bound)

SPEC = QuadraticSpec(np.array([2.0, 1.0]))
STATE = DynamicsState(np.array([1.0, -1.0]), np.zeros(2))
PARAMS = FlowParams(alpha=0.2, eta=0.05)

# entry point, valid keyword arguments, the number arguments, the integer ones;
# a grid argument gets its bad value as a one-item grid
ENTRY_POINTS = [
    (stability_bound, {"lam_max": 10.0, "alpha": 0.5, "beta": 1.0},
     ("lam_max", "alpha", "beta"), ()),
    (regime_boundaries, {"alpha": 0.1, "beta": 1.0, "eta": 0.01}, ("alpha", "beta", "eta"), ()),
    (simulate_recurrence, {"spec": SPEC, "alpha": 0.1, "beta": 1.0, "eta": 0.01,
                           "w0": np.ones(2), "m0": np.zeros(2), "steps": 5},
     ("steps",), ("steps",)),
    (monotonicity_probe, {"lam": -0.05, "alpha": 0.1, "eta_grid": (0.01, 0.02),
                          "beta_grid": (0.5, 1.0)},
     ("lam", "alpha", "eta_grid", "beta_grid"), ()),
    (semi_implicit_step, {"state": STATE, "quadratic": SPEC, "params": PARAMS, "h": 0.5},
     ("h",), ()),
    (rk4_flow, {"state": STATE, "quadratic": SPEC, "params": PARAMS, "t_end": 0.1, "h": 0.05},
     ("h", "t_end"), ()),
    (nesterov_forms_trace, {"quadratic": SPEC, "alpha": 0.1, "eta": 0.05, "steps": 5},
     ("alpha", "eta", "steps"), ("steps",)),
]

ARGUMENT_CASES = [
    pytest.param(func, kwargs, name, bad, id=f"{func.__name__}-{name}={bad}")
    for func, kwargs, names, integers in ENTRY_POINTS for name in names
    for bad in (math.nan, math.inf, -math.inf) + ((2.5,) if name in integers else ())]

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
