"""Run configuration: defaults, strict ingestion, canonical hashing.

Config files are JSON objects. All frequencies and rates are linear Hz,
passives SI, times seconds. The bridges here build the device records in
angular units; a caller converts each other leaf it reads, such as an
experiment's detuning or loss rate, with ``device.to_angular``. Unknown
keys are rejected with the full path so unit typos cannot pass silently.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

from .detector import DetectorParams
from .device import FjsParams, TlrParams, coupling_strength, mode_frequency, to_angular

__all__ = [
    "ConfigError",
    "DEFAULT_CONFIG",
    "MAX_SAMPLES",
    "load_config",
    "canonical_json",
    "config_hash",
    "tlr_params",
    "tap_coupling",
    "fjs_params",
    "detector_params",
]


class ConfigError(ValueError):
    """Configuration rejected; ``path`` names the offending key."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# Monte Carlo runs samples in blocks of lindblad.SAMPLE_BLOCK, at about
# 0.01 ms per controlled-phase sample with or without loss (0.008 with
# ideal flips, 0.013 with simulated ones, on a 2-CPU host), so this cap
# already allows runs of minutes per point; larger counts are typos or
# cannot even be allocated
MAX_SAMPLES = 10_000_000

# log-spaced figure grids at coarse resolution, frozen explicitly so the
# config hash does not depend on grid-generation code
_KAPPA_GRID_HZ = [1.0e3, 3.1622776601683795e3, 1.0e4, 3.1622776601683795e4, 1.0e5]
_GAMMA2_GRID_HZ = [1.0e5, 3.1622776601683795e5, 1.0e6, 3.1622776601683795e6, 1.0e7]

# (low, high, open) ranges outside which the engine cannot run a leaf:
# low < x <= high if open, else low <= x <= high; a list leaf applies its
# range to each item.  Detunings are signed: unbounded.
_NONNEGATIVE = (0, math.inf, False)
_POSITIVE = (0, math.inf, True)
_UNBOUNDED = (-math.inf, math.inf, False)

# the default device and its rules, one row per leaf: (default, rule).  A
# string leaf's rule is the tuple of its allowed values, every other
# leaf's its range; a leaf may be null exactly when its default is None
_LEAVES = {
    "device.tlr.inductance_h": (0.5e-9, _POSITIVE),
    "device.tlr.capacitance_f": (5.0e-12, _POSITIVE),
    "device.tlr.mode_index": (2, (1, math.inf, False)),
    "device.cbjj.junction_capacitance_f": (0.5e-12, _POSITIVE),
    "device.cbjj.decay_rate_hz": (1.0e5, _NONNEGATIVE),
    "device.cbjj.dephasing_rate_hz": (1.0e6, _NONNEGATIVE),
    "device.coupler.coupling_capacitance_f": (2.3e-14, _POSITIVE),
    "device.coupler.right_coupling_capacitance_f": (2.3e-14, _POSITIVE),
    "device.fjs.junction_critical_current_a": (5.0e-5, _POSITIVE),
    "device.fjs.junction_capacitance_f": (1.0e-12, _POSITIVE),
    "device.fjs.shunt_capacitance_f": (1.9e-11, _NONNEGATIVE),
    "device.fjs.squid_self_inductance_h": (1.0e-11, _POSITIVE),
    "device.fjs.loop_inductance_h": (1.0e-10, _NONNEGATIVE),
    "device.fjs.mutual_inductance_c_h": (8.0e-11, _POSITIVE),
    "device.fjs.mutual_inductance_d_h": (None, _POSITIVE),  # None: derived; when set
    "device.fjs.bias_current_a": (0.0, _UNBOUNDED),  # signed; fjs_derive bounds its size
    "device.fjs.phi_sq_spread_scale": (1.0, _POSITIVE),
    "device.detector.coupling_hz": (1.0e8, _NONNEGATIVE),
    "device.detector.detuning_hz": (0.0, _UNBOUNDED),
    "device.detector.photon_loss_rate_hz": (1.0e4, _NONNEGATIVE),
    "device.detector.escape_rate_hz": (2.0e7, _NONNEGATIVE),
    "device.detector.intra_well_decay_hz": (1.0e5, _NONNEGATIVE),
    "device.detector.dephasing_rate_hz": (1.0e6, _NONNEGATIVE),
    "device.temperature_k": (0.04, _NONNEGATIVE),
    "noise.kappa_hz": (1.0e4, _NONNEGATIVE),
    "noise.samples": (1000, (2, MAX_SAMPLES, False)),  # a standard error needs two
    "noise.seed": (42, (0, 2**64 - 1, False)),  # the range the --seed flag accepts
    "experiments.transfer.detuning_hz": (2.0e9, _UNBOUNDED),
    "experiments.transfer.kappa_grid_hz": (_KAPPA_GRID_HZ, _NONNEGATIVE),
    "experiments.transfer.gamma2_grid_hz": (_GAMMA2_GRID_HZ, _NONNEGATIVE),
    "experiments.cphase.speed_ratios": ([5.0, 10.0, 20.0, 40.0, 80.0], _POSITIVE),
    "experiments.cphase.kappa_hz": (0.0, _NONNEGATIVE),
    "experiments.cphase.flips": ("ideal", ("ideal", "simulated")),
    "experiments.detector.gamma_over_kappa": ([10.0, 100.0, 1000.0, 2000.0, 10000.0], _POSITIVE),
}


def _nest(leaves: dict) -> dict:
    tree: dict = {}  # the rows' defaults, nested by their dotted paths
    for path, (default, _) in leaves.items():
        *sections, key = path.split(".")
        node = tree
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = default
    return tree


DEFAULT_CONFIG = _nest(_LEAVES)


def _finite(path: str, value: int | float) -> float:
    """``value`` as a float; NaN, infinities and ints past float range fail."""
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(path, "number out of float range") from None
    if not math.isfinite(number):
        raise ConfigError(path, f"expected a finite number, got {number}")
    return number


def _check_range(path: str, value: int | float, bounds: tuple) -> None:
    low, high, open_low = bounds
    if value < low or value > high or (open_low and value == low):
        if high < math.inf:
            bound = f"in [{low}, {high}]"
        else:
            bound = f"{'>' if open_low else '>='} {low}"
        raise ConfigError(path, f"must be {bound}, got {value!r}")


def _check_leaf(path: str, value):
    default, rule = _LEAVES[path]
    if isinstance(default, str):
        if value not in rule:
            raise ConfigError(path, f"must be one of {rule}, got {value!r}")
        return value
    if value is None:
        if default is None:
            return None
        raise ConfigError(path, "null is not allowed here")
    if isinstance(value, bool):
        raise ConfigError(path, "boolean values are not used in this schema")
    if isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(path, "expected a nonempty list of numbers")
        out = []
        for i, item in enumerate(value):
            item_path = f"{path}[{i}]"
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ConfigError(item_path, "expected a number")
            out.append(_finite(item_path, item))
            _check_range(item_path, item, rule)
        return out
    # every other leaf is a number (a nullable one defaults to None)
    if not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    number = _finite(path, value)
    if isinstance(default, int):
        if value != int(value):  # not number: it rounds ints past 2**53
            raise ConfigError(path, "expected an integer")
        number = int(value)
    _check_range(path, value, rule)
    return number


def _merge(defaults: dict, overrides: dict, prefix: str = "") -> dict:
    merged = {}
    for key, default in defaults.items():
        path = f"{prefix}{key}"
        if key not in overrides:
            merged[key] = copy.deepcopy(default)
            continue
        value = overrides[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(path, "expected an object")
            merged[key] = _merge(default, value, prefix=f"{path}.")
        else:
            merged[key] = _check_leaf(path, value)
    for key in overrides:
        if key not in defaults:
            raise ConfigError(f"{prefix}{key}", "unknown key")
    return merged


def load_config(source: str | Path | dict | None = None) -> dict:
    """Full effective configuration: documented defaults plus overrides.

    ``source`` may be a JSON file path, an already-parsed mapping, or
    ``None`` for pure defaults. Unknown keys, wrong types and malformed
    JSON raise :class:`ConfigError`.
    """
    if source is None:
        overrides = {}
    elif isinstance(source, dict):
        overrides = source
    else:
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise ConfigError(str(source), f"cannot read config file: {exc}") from exc
        try:
            overrides = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(str(source), f"invalid JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ConfigError(str(source), "top level must be a JSON object")
    return _merge(DEFAULT_CONFIG, overrides)


def canonical_json(config: dict) -> str:
    """Key-sorted, whitespace-free serialization used for hashing and CSV."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(config: dict) -> str:
    import hashlib  # OpenSSL bindings: a few ms of import that `params` does not need

    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


# ------------------------------------------------ engine parameter bridges


def tlr_params(config: dict) -> TlrParams:
    sec = config["device"]["tlr"]
    return TlrParams(
        inductance=sec["inductance_h"],
        capacitance=sec["capacitance_f"],
        mode_index=sec["mode_index"],
    )


_TAP_CAPACITANCE = {"left": "coupling_capacitance_f", "right": "right_coupling_capacitance_f"}


def tap_coupling(config: dict, tap: str) -> float:
    """Angular resonator-junction coupling g of the ``left`` or ``right`` transfer tap."""
    return coupling_strength(
        mode_frequency(tlr_params(config)),
        config["device"]["tlr"]["capacitance_f"],
        config["device"]["coupler"][_TAP_CAPACITANCE[tap]],
        config["device"]["cbjj"]["junction_capacitance_f"],
    )


def fjs_params(config: dict) -> FjsParams:
    sec = config["device"]["fjs"]
    return FjsParams(
        junction_critical_current=sec["junction_critical_current_a"],
        junction_capacitance=sec["junction_capacitance_f"],
        shunt_capacitance=sec["shunt_capacitance_f"],
        squid_self_inductance=sec["squid_self_inductance_h"],
        loop_inductance=sec["loop_inductance_h"],
        mutual_inductance_c=sec["mutual_inductance_c_h"],
        mutual_inductance_d=sec["mutual_inductance_d_h"],
        bias_current=sec["bias_current_a"],
        phi_sq_spread_scale=sec["phi_sq_spread_scale"],
    )


def detector_params(config: dict) -> DetectorParams:
    sec = config["device"]["detector"]
    return DetectorParams(
        coupling=to_angular(sec["coupling_hz"]),
        detuning=to_angular(sec["detuning_hz"]),
        photon_loss_rate=to_angular(sec["photon_loss_rate_hz"]),
        escape_rate=to_angular(sec["escape_rate_hz"]),
        intra_well_decay=to_angular(sec["intra_well_decay_hz"]),
        dephasing_rate=to_angular(sec["dephasing_rate_hz"]),
    )
