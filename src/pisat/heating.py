"""District heating benchmark: a ten-building network under a shared
heat source, expressed in physical units and convertible to the
standard saturated-loop form.

Buildings exchange heat with outdoor air (loss coefficient a, thermal
capacity c) and receive heat through valves whose interaction is
captured by a static gain matrix b_heat.  States are temperature
deviations from a comfort setpoint; the disturbance is the outdoor
temperature trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import model, sector
from .errors import (ConfigError, DimensionMismatch, ParseError,
                     UnsupportedVariant)

BENCHMARK_SIZE = 10
COMFORT_DEGC = 20.0


@dataclass(frozen=True, eq=False)
class TemperatureSeries:
    """Sampled outdoor temperature in degC on an hour axis."""

    time_h: np.ndarray
    temp_degc: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.time_h, dtype=float)
        y = np.asarray(self.temp_degc, dtype=float)
        if t.ndim != 1 or t.shape != y.shape or t.size < 2:
            raise DimensionMismatch("temperature series needs matching 1-d "
                                    "axes with at least two samples")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise ConfigError("temperature series samples must be finite")
        if np.any(np.diff(t) <= 0.0):
            raise ParseError("time axis must be strictly increasing")
        object.__setattr__(self, "time_h", t)
        object.__setattr__(self, "temp_degc", y)

    @property
    def span_h(self) -> tuple[float, float]:
        return float(self.time_h[0]), float(self.time_h[-1])


@dataclass(frozen=True, eq=False)
class HeatingScenario:
    """Physical network description plus the controller to run on it.

    a: heat loss kW/degC per building, c: capacity kWh/degC, b_heat:
    input gains kW (an M-matrix; ``to_standard_form`` proves it), x_c:
    comfort setpoint degC, t_ext: outdoor temperature (series or a constant).
    """

    a: np.ndarray
    c: np.ndarray
    b_heat: np.ndarray
    x_c: float
    t_ext: TemperatureSeries | float
    controller: model.ControllerSpec
    name: str = "custom"

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        b = np.asarray(self.b_heat, dtype=float)
        n = a.size
        if c.size != n or b.shape != (n, n) or self.controller.n != n:
            raise DimensionMismatch("scenario arrays or controller disagree "
                                    "on network size")
        x_c, t_ext = float(self.x_c), self.t_ext
        consts = [x_c]
        if not isinstance(t_ext, TemperatureSeries):
            t_ext = float(t_ext)
            consts.append(t_ext)
        if not np.all(np.isfinite(np.concatenate([a, c, b.ravel(), consts]))):
            raise ConfigError("scenario values must be finite")
        if np.any(a <= 0.0) or np.any(c <= 0.0):
            raise ConfigError("loss and capacity coefficients must be positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "b_heat", b)
        object.__setattr__(self, "x_c", x_c)
        object.__setattr__(self, "t_ext", t_ext)

    @property
    def n(self) -> int:
        return self.a.size


def benchmark_scenario(t_ext: TemperatureSeries | float = -10.0,
                       controller: str = "decentralized") -> HeatingScenario:
    """The ten-building reference network with its published gains.

    Valve gains are 12 kW on the diagonal with coupling
    -0.15 min(i, j) kW off it (1-based indices).  ``controller`` picks
    one of decentralized, coordinating, static.
    """
    n = BENCHMARK_SIZE
    a = np.full(n, 0.167)
    c = np.full(n, 2.0)
    idx = np.arange(1, n + 1, dtype=float)
    b_heat = -0.15 * np.minimum(idx[:, None], idx[None, :])
    np.fill_diagonal(b_heat, 12.0)
    ctrl = model.ControllerSpec(controller, p=np.full(n, 2.5),
                                r=np.full(n, 0.2), s=np.full(n, 2.0),
                                k_static=(b_heat / c[:, None]).T)
    return HeatingScenario(a, c, b_heat, COMFORT_DEGC, t_ext, ctrl,
                           name="benchmark10")


def _formed(quantity: str, compute):
    # numpy raises on overflow here, so the overflow lands in the error
    # message instead of a RuntimeWarning printed before it
    try:
        with np.errstate(over="raise"):
            return compute()
    except FloatingPointError as exc:
        raise ConfigError(f"standard form out of floating-point range: "
                          f"{quantity} must be finite ({exc})") from None


def to_standard_form(scn: HeatingScenario) -> tuple[model.PlantModel,
                                                    model.DisturbanceSignal]:
    """Convert a scenario to the normalized saturated-loop form.

    Temperature deviations x = T - x_c evolve with decay a/c, input
    matrix b_heat/c, and disturbance (a/c)(t_ext - x_c).  Finite
    scenario values whose form leaves the floating-point range raise
    ConfigError naming the quantity; a coupling that is no M-matrix
    raises NotMMatrix.
    """
    decay = _formed("a", lambda: scn.a / scn.c)
    gain = _formed("matrix entries", lambda: scn.b_heat / scn.c[:, None])
    series = isinstance(scn.t_ext, TemperatureSeries)
    if series:
        load = _formed("sampled disturbance", lambda: (
            scn.t_ext.temp_degc[:, None] - scn.x_c) * decay[None, :])
    else:
        load = _formed("constant disturbance",
                       lambda: decay * (scn.t_ext - scn.x_c))
    try:
        plant = _formed("static gain", lambda: model.PlantModel(
            decay, gain, sector.saturation_deadzone(scn.n)))
        w = (model.DisturbanceSignal.sampled(scn.t_ext.time_h, load)
             if series else model.DisturbanceSignal.constant(load))
    except (ValueError, DimensionMismatch) as exc:
        raise ConfigError(f"standard form out of floating-point range: "
                          f"{exc}") from exc
    return plant, w


def default_cost_weights(scn: HeatingScenario) -> np.ndarray:
    """Quadratic state weights proportional to each building's loss rate."""
    return scn.a / scn.c


def synthetic_cold_snap(hours: int = 336, base_degc: float = 0.0,
                        swing_degc: float = 3.0, dip_degc: float = 17.0,
                        dip_center_h: float = 100.0, ramp_h: float = 12.0,
                        hold_h: float = 48.0) -> TemperatureSeries:
    """Hourly outdoor trace: a daily swing plus a trapezoidal cold dip.

    Defaults reach -20 degC at the bottom of the dip, deep enough to
    saturate the benchmark heat sources.
    """
    t = np.arange(0.0, float(hours) + 0.5, 1.0)
    daily = swing_degc * np.sin(2.0 * math.pi * t / 24.0)
    half = 0.5 * hold_h
    dist = np.abs(t - dip_center_h)
    dip = np.clip((ramp_h + half - dist) / ramp_h, 0.0, 1.0)
    return TemperatureSeries(t, base_degc + daily - dip_degc * dip)


def _number(value):
    # float() and numpy would read a JSON true or false as 1 or 0
    kinds = set(map(type, value)) if isinstance(value, list) else {type(value)}
    if bool in kinds:
        raise TypeError("true and false are not numbers")
    return list(map(_number, value)) if list in kinds else value


def scenario_from_json(data: dict) -> HeatingScenario:
    """Build a scenario from its unit-named JSON form (see ``configs/``).

    A missing, malformed (true or false included) or non-finite value,
    or arrays whose sizes disagree, raise ConfigError.
    """
    try:
        text, cd = data["t_ext"], data["controller"]
        if "constant_degc" in text:
            t_ext = _number(text["constant_degc"])
        else:
            t_ext = TemperatureSeries(_number(text["time_h"]),
                                      _number(text["temp_degc"]))
        # the spec reads the gains its variant needs and checks them
        ctrl = model.ControllerSpec(
            cd["variant"], p=_number(cd.get("p_per_degc")),
            r=_number(cd.get("r_per_degc_h")), s=_number(cd.get("s_degc")),
            beta=_number(cd.get("beta")), k_static=_number(cd.get("k_static")))
        # the scenario converts and checks the values
        return HeatingScenario(_number(data["a_kw_per_degc"]),
                               _number(data["c_kwh_per_degc"]),
                               _number(data["b_heat_kw"]),
                               _number(data["x_c_degc"]), t_ext, ctrl,
                               name=str(data.get("name", "custom")))
    except (KeyError, TypeError, ValueError, DimensionMismatch,
            UnsupportedVariant) as exc:
        raise ConfigError(f"scenario json missing or malformed field: {exc}") \
            from exc


def read_json(path):
    """The JSON value in the file at ``path``; malformed JSON raises
    ConfigError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def load_scenario(path) -> HeatingScenario:
    return scenario_from_json(read_json(path))
