"""One rule for every float the library validates.

A number is a finite int or float (numpy's too, never a bool), and some
arguments also need a sign.  Each row of ``NUMBERS`` names an argument, its
rule, the exception its callers document and a call that feeds it one
value.  Every row is fed the same refused values plus its boundary, and an
accepted int must come back unchanged where the argument is stored.
"""

import copy
import math
import warnings
from operator import attrgetter
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest

from antires.fitting import stark_calibration
from antires.heterodyne import BeatNoteConfig, ConfigError
from antires.network import (
    InvalidNetworkError,
    Mode,
    ProbeGrid,
    _real,
    network_from_dict,
    network_to_dict,
)
from antires.oracle import JCParams, linear_limit_check, lindblad_steady_state
from antires.presets import emitter_resonator, five_node_demo
from antires.spectra import (
    MotionEnsemble,
    cancel_pole_zero_pairs,
    detect_antiresonances_numeric,
    lossy_component_identify,
    sweep,
)

FINITE, NON_NEGATIVE, POSITIVE = "finite", "non-negative", "positive"
REFUSED = (math.nan, math.inf, -math.inf, True, "1", None)
# below the boundary: 0 for a positive-only argument, the least negative float else
BELOW = {FINITE: (), NON_NEGATIVE: (-5e-324,), POSITIVE: (0, 0.0)}

JC = dict(gamma=3.0, kappa=1.5, g=16.0)
NETWORK_DOC = network_to_dict(emitter_resonator())
SPECTRUM = sweep(emitter_resonator(), ProbeGrid(-25.0, 25.0, 201))


def _network_file(section: str, key: str, value: Any):
    doc = copy.deepcopy(NETWORK_DOC)
    doc[section][0][key] = value
    return network_from_dict(doc)


class Number(NamedTuple):
    site: str  # the function or class that checks the number
    argument: str  # as the message names it
    rule: str
    error: type
    call: Callable[[Any], Any]
    ok: int | None  # an accepted int (None: not fed, its run escalates for long)
    stored: Callable[[Any], Any] | None = None  # reads the value back from call's result


NUMBERS = [
    Number("Mode", "frequency", FINITE, InvalidNetworkError,
           lambda x: Mode("m", "emitter", x, 1.0), 1, attrgetter("frequency")),
    Number("Mode", "decay", POSITIVE, InvalidNetworkError,
           lambda x: Mode("m", "emitter", 0.0, x), 1, attrgetter("decay")),
    Number("network_from_dict", "frequency_mhz", FINITE, InvalidNetworkError,
           lambda x: _network_file("modes", "frequency_mhz", x), 1),
    # the file's number must be finite and the Mode it builds needs a positive decay
    Number("network_from_dict", "decay", POSITIVE, InvalidNetworkError,
           lambda x: _network_file("modes", "decay_mhz", x), 1),
    Number("network_from_dict", "g_mhz", FINITE, InvalidNetworkError,
           lambda x: _network_file("couplings", "g_mhz", x), 1),
    Number("network_from_dict", "re", FINITE, InvalidNetworkError,
           lambda x: _network_file("drive", "re", x), 1),
    Number("network_from_dict", "im", FINITE, InvalidNetworkError,
           lambda x: _network_file("drive", "im", x), 1),
    Number("ProbeGrid", "grid start", FINITE, ValueError,
           lambda x: ProbeGrid(x, 10.0, 3), 1, attrgetter("start")),
    Number("ProbeGrid", "grid stop", FINITE, ValueError,
           lambda x: ProbeGrid(-10.0, x, 3), 1, attrgetter("stop")),
    Number("detect_antiresonances_numeric", "prominence_db", NON_NEGATIVE, ValueError,
           lambda x: detect_antiresonances_numeric(SPECTRUM, "cavity", x), 0),
    Number("cancel_pole_zero_pairs", "tol", NON_NEGATIVE, ValueError,
           lambda x: cancel_pole_zero_pairs([], [], tol=x), 0),
    Number("lossy_component_identify", "rel_tol", NON_NEGATIVE, ValueError,
           lambda x: lossy_component_identify(five_node_demo(), rel_tol=x), 0),
    Number("MotionEnsemble", "scale_mean", FINITE, ValueError,
           lambda x: MotionEnsemble(scale_mean=x), 1, attrgetter("scale_mean")),
    Number("MotionEnsemble", "scale_sigma", NON_NEGATIVE, ValueError,
           lambda x: MotionEnsemble(scale_sigma=x), 0, attrgetter("scale_sigma")),
    Number("MotionEnsemble", "frequency_jitter", NON_NEGATIVE, ValueError,
           lambda x: MotionEnsemble(frequency_jitter=x), 0, attrgetter("frequency_jitter")),
    Number("MotionEnsemble", "scale_bounds", FINITE, ValueError,
           lambda x: MotionEnsemble(scale_bounds=(0.5, x)), 1, lambda e: e.scale_bounds[1]),
    Number("stark_calibration", "calibration power_nw", FINITE, ValueError,
           lambda x: stark_calibration([(x, 12.0), (950.0, -5.0)]), 1),
    Number("stark_calibration", "calibration detuning_mhz", FINITE, ValueError,
           lambda x: stark_calibration([(1400.0, x), (950.0, -5.0)]), 1),
    Number("stark_calibration", "calibration uncertainty", POSITIVE, ValueError,
           lambda x: stark_calibration([(1400.0, 12.0), (950.0, -5.0)], [1.0, x]), 1),
    *[Number("JCParams", field, rule, ValueError,
             lambda x, f=field: JCParams(**{**JC, f: x}), 1, attrgetter(field))
      for field, rule in (("gamma", POSITIVE), ("kappa", POSITIVE), ("g", FINITE),
                          ("delta_pe", FINITE), ("delta_pr", FINITE), ("eta", NON_NEGATIVE))],
    Number("lindblad_steady_state", "rel_tol", POSITIVE, ValueError,
           lambda x: lindblad_steady_state(JCParams(**JC, eta=0.015), rel_tol=x), 1),
    Number("linear_limit_check", "eta/kappa ratios", POSITIVE, ValueError,
           lambda x: linear_limit_check(JCParams(**JC), (0.1, x)), None),
    *[Number("BeatNoteConfig", field, POSITIVE, ConfigError,
             lambda x, f=field: BeatNoteConfig(**{f: x}), ok, attrgetter(field))
      for field, ok in (("if_freq_mhz", 1), ("sample_rate_msps", 50), ("window_us", 10),
                        ("reference_amplitude", 1), ("snr_per_window", 10))],
]


def _refused(row: Number):
    for value in REFUSED + BELOW[row.rule]:
        if value is None and row.argument == "snr_per_window":
            continue  # None is a noiseless record
        yield value


@pytest.mark.parametrize(
    "row, value",
    [pytest.param(row, value, id=f"{row.site}-{row.argument}-{value!r}")
     for row in NUMBERS for value in _refused(row)],
)
def test_a_refused_number_raises_the_documented_error_naming_its_argument(row, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        with pytest.raises(ValueError) as info:
            row.call(value)
    assert type(info.value) is row.error
    message = str(info.value)
    assert row.argument in message and f"got {value!r}" in message


@pytest.mark.parametrize(
    "row",
    [pytest.param(row, id=f"{row.site}-{row.argument}") for row in NUMBERS if row.ok is not None],
)
def test_an_accepted_int_is_kept_unchanged(row):
    result = row.call(row.ok)
    if row.stored is not None:
        value = row.stored(result)
        assert type(value) is int and value == row.ok


def test_real_returns_the_value_itself_or_names_the_rule():
    for value in (0, 2.5, np.float32(1.5), np.int64(-3), np.float64(0.0)):
        assert _real("x", value) is value
    assert _real("x", 0, 0.0) == 0
    for value, low, strict, rule in ((math.nan, None, False, "finite number"),
                                     (10**400, None, False, "finite number"),
                                     (np.bool_(True), None, False, "finite number"),
                                     (1 + 0j, None, False, "finite number"),
                                     (-1, 0.0, False, "finite non-negative number"),
                                     (0.0, 0.0, True, "finite positive number"),
                                     (-0.0, 0.0, True, "finite positive number")):
        with pytest.raises(ValueError, match=rf"^x must be a {rule}, got "):
            _real("x", value, low, strict=strict)
