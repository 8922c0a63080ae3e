import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from tlrsim.config import (
    _LEAVES,
    DEFAULT_CONFIG,
    MAX_SAMPLES,
    ConfigError,
    canonical_json,
    config_hash,
    detector_params,
    fjs_params,
    load_config,
    tlr_params,
)

TWO_PI = 2.0 * math.pi

# canonical bytes of the shipped defaults; any change to a default value
# or to key ordering must be deliberate and show up here
DEFAULT_HASH = "73b4b6db012633768750ac4284fa27fb9d3b710326405a730ed7fe6ee686f965"


class TestDefaults:
    def test_loads_without_source(self):
        config = load_config()
        assert config["device"]["tlr"]["capacitance_f"] == 5.0e-12
        assert config["noise"]["seed"] == 42
        assert config["experiments"]["cphase"]["speed_ratios"] == [5.0, 10.0, 20.0, 40.0, 80.0]

    def test_hash_is_stable(self):
        assert config_hash(load_config()) == DEFAULT_HASH

    def test_empty_override_is_identity(self):
        assert load_config({}) == load_config()
        assert load_config(None) == load_config()

    def test_grids_are_log_spaced(self):
        grid = load_config()["experiments"]["transfer"]["kappa_grid_hz"]
        steps = [grid[i + 1] / grid[i] for i in range(len(grid) - 1)]
        for step in steps:
            assert step == pytest.approx(math.sqrt(10.0), rel=1e-12)


class TestLeafTable:
    """Each row of ``_LEAVES`` is a default and the rule that accepts it."""

    def test_string_rule_lists_its_default(self):
        strings = [(default, rule) for default, rule in _LEAVES.values() if isinstance(default, str)]
        assert strings
        for default, rule in strings:
            assert isinstance(rule, tuple) and all(isinstance(v, str) for v in rule)
            assert default in rule

    def test_range_accepts_its_default(self):
        for path, (default, rule) in _LEAVES.items():
            if isinstance(default, str):
                continue
            low, high, open_low = rule
            assert isinstance(open_low, bool) and low < high, path
            if default is None:  # derived when null: no default to accept
                continue
            for value in default if isinstance(default, list) else [default]:
                assert low <= value <= high and not (open_low and value == low), path

    def test_only_the_derived_mutual_inductance_defaults_to_null(self):
        nullable = [path for path, (default, _) in _LEAVES.items() if default is None]
        assert nullable == ["device.fjs.mutual_inductance_d_h"]


class TestMerge:
    def test_partial_override_keeps_siblings(self):
        config = load_config({"noise": {"seed": 7}})
        assert config["noise"]["seed"] == 7
        assert config["noise"]["samples"] == 1000
        assert config["device"]["tlr"]["mode_index"] == 2

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError) as err:
            load_config({"device": {"tlr": {"indctance_h": 1e-9}}})
        assert err.value.path == "device.tlr.indctance_h"

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config({"devices": {}})

    def test_string_where_number_expected(self):
        with pytest.raises(ConfigError, match="noise.seed"):
            load_config({"noise": {"seed": "42"}})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError):
            load_config({"noise": {"samples": True}})

    def test_integer_leaf_rejects_fraction(self):
        with pytest.raises(ConfigError, match="mode_index"):
            load_config({"device": {"tlr": {"mode_index": 2.5}}})

    def test_null_only_where_allowed(self):
        config = load_config({"device": {"fjs": {"mutual_inductance_d_h": None}}})
        assert config["device"]["fjs"]["mutual_inductance_d_h"] is None
        with pytest.raises(ConfigError, match="temperature_k"):
            load_config({"device": {"temperature_k": None}})

    def test_enum_leaf_rejects_unknown_value(self):
        with pytest.raises(ConfigError, match="experiments.cphase.flips"):
            load_config({"experiments": {"cphase": {"flips": "sometimes"}}})
        config = load_config({"experiments": {"cphase": {"flips": "simulated"}}})
        assert config["experiments"]["cphase"]["flips"] == "simulated"

    @pytest.mark.parametrize(
        "path, value",
        [
            ("noise.seed", -3),
            ("noise.seed", 2**64),
            ("noise.samples", 0),
            ("noise.samples", 1),
            ("noise.samples", MAX_SAMPLES + 1),
            ("noise.kappa_hz", -1.0),
            ("experiments.cphase.kappa_hz", -1.0),
            ("device.tlr.inductance_h", 0.0),
            ("device.tlr.capacitance_f", -5e-12),
            ("device.tlr.mode_index", 0),
            ("device.cbjj.junction_capacitance_f", 0.0),
            ("device.cbjj.decay_rate_hz", -1.0),
            ("device.cbjj.dephasing_rate_hz", -1.0),
            ("device.coupler.coupling_capacitance_f", -0.0),
            ("device.coupler.right_coupling_capacitance_f", 0.0),
            ("device.temperature_k", -1e-3),
            ("device.fjs.junction_critical_current_a", 0),
            ("device.fjs.junction_capacitance_f", 0.0),
            ("device.fjs.shunt_capacitance_f", -1),
            ("device.fjs.squid_self_inductance_h", 0.0),
            ("device.fjs.loop_inductance_h", -1e-10),
            ("device.fjs.mutual_inductance_c_h", 0.0),
            ("device.fjs.mutual_inductance_d_h", -8e-11),
            ("device.fjs.phi_sq_spread_scale", 0.0),
            ("device.detector.coupling_hz", -1.0),
            ("device.detector.photon_loss_rate_hz", -1.0),
            ("device.detector.escape_rate_hz", -1),
            ("device.detector.intra_well_decay_hz", -1.0),
            ("device.detector.dephasing_rate_hz", -1.0),
        ],
    )
    def test_out_of_range_rejected_with_path(self, path, value):
        section, *rest = path.split(".")
        override = value
        for key in reversed(rest):
            override = {key: override}
        with pytest.raises(ConfigError, match="must be") as err:
            load_config({section: override})
        assert err.value.path == path

    def test_range_limits_and_signed_detunings_accepted(self):
        config = load_config(
            {
                "noise": {"samples": MAX_SAMPLES, "kappa_hz": 0},
                "experiments": {
                    "transfer": {"detuning_hz": -2e9, "kappa_grid_hz": [0.0]},
                    "cphase": {"kappa_hz": 0},
                },
                "device": {
                    "cbjj": {"dephasing_rate_hz": 0},
                    "detector": {"detuning_hz": -1e6, "coupling_hz": 0},
                    "fjs": {
                        "shunt_capacitance_f": 0,
                        "loop_inductance_h": 0,
                        "bias_current_a": -1e-6,
                        "mutual_inductance_d_h": None,
                    },
                    "temperature_k": 0,
                },
            }
        )
        assert config["noise"]["samples"] == MAX_SAMPLES
        assert config["device"]["fjs"]["mutual_inductance_d_h"] is None
        assert config["device"]["fjs"]["bias_current_a"] == -1e-6
        assert config["experiments"]["transfer"]["detuning_hz"] == -2e9
        for seed in (0, 2**64 - 1):
            assert load_config({"noise": {"seed": seed}})["noise"]["seed"] == seed

    @pytest.mark.parametrize(
        "path, grid, bad, bound",
        [
            ("experiments.transfer.kappa_grid_hz", [1e3, -1.0], 1, ">= 0"),
            ("experiments.transfer.gamma2_grid_hz", [-1e5], 0, ">= 0"),
            ("experiments.cphase.speed_ratios", [5.0, 10.0, 0.0], 2, "> 0"),
            ("experiments.detector.gamma_over_kappa", [-10.0, 100.0], 0, "> 0"),
        ],
    )
    def test_out_of_range_grid_item_named(self, path, grid, bad, bound):
        _, section, key = path.split(".")
        with pytest.raises(ConfigError, match=f"must be {bound}, got {grid[bad]}") as err:
            load_config({"experiments": {section: {key: grid}}})
        assert err.value.path == f"{path}[{bad}]"

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="kappa_grid_hz"):
            load_config({"experiments": {"transfer": {"kappa_grid_hz": []}}})

    def test_scalar_section_rejected(self):
        with pytest.raises(ConfigError, match="device"):
            load_config({"device": 3.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_rejected_with_path(self, value):
        with pytest.raises(ConfigError, match="finite") as err:
            load_config({"experiments": {"transfer": {"detuning_hz": value}}})
        assert err.value.path == "experiments.transfer.detuning_hz"
        with pytest.raises(ConfigError, match="finite") as err:
            load_config({"noise": {"samples": value}})
        assert err.value.path == "noise.samples"

    def test_non_finite_list_item_rejected_with_path(self):
        with pytest.raises(ConfigError, match="finite") as err:
            load_config({"experiments": {"cphase": {"speed_ratios": [5.0, math.nan]}}})
        assert err.value.path == "experiments.cphase.speed_ratios[1]"

    def test_integer_past_float_range_rejected(self):
        with pytest.raises(ConfigError, match="range") as err:
            load_config({"noise": {"seed": 10**400}})
        assert err.value.path == "noise.seed"
        with pytest.raises(ConfigError, match="range") as err:
            load_config({"experiments": {"detector": {"gamma_over_kappa": [10**400]}}})
        assert err.value.path == "experiments.detector.gamma_over_kappa[0]"


class TestSources:
    def test_file_source(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"noise": {"seed": 9}}))
        assert load_config(path)["noise"]["seed"] == 9
        assert load_config(str(path))["noise"]["seed"] == 9

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(path)


class TestCanonicalForm:
    def test_round_trip_reproduces_bytes(self):
        config = load_config({"device": {"cbjj": {"dephasing_rate_hz": 2.5e6}}})
        text = canonical_json(config)
        again = load_config(json.loads(text))
        assert canonical_json(again) == text
        assert config_hash(again) == config_hash(config)

    def test_hash_tracks_content(self):
        assert config_hash(load_config({"noise": {"seed": 1}})) != DEFAULT_HASH

    def test_canonical_json_is_sorted_and_compact(self):
        text = canonical_json(load_config())
        assert ": " not in text and ", " not in text
        assert text.index('"device"') < text.index('"experiments"')


class TestParamBridges:
    def test_tlr_params_converts_rates(self):
        params = tlr_params(load_config())
        assert params.inductance == 5.0e-10
        assert params.mode_index == 2

    def test_fjs_params(self):
        params = fjs_params(load_config())
        assert params.junction_critical_current == 5.0e-5
        assert params.mutual_inductance_d is None

    def test_detector_params(self):
        params = detector_params(load_config())
        assert params.escape_rate == pytest.approx(TWO_PI * 2.0e7, rel=1e-12)
        assert params.coupling == pytest.approx(TWO_PI * 1.0e8, rel=1e-12)


# ------------------------------------------------------ ingestion property

_NUMBERS = st.one_of(
    st.integers(),
    st.integers(min_value=10**300, max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
)
_VALUES = st.one_of(
    _NUMBERS,
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.sampled_from(["expm", "rk4", "ideal", "simulated"]),
    st.lists(st.one_of(_NUMBERS, st.none(), st.booleans(), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=3), _NUMBERS, max_size=1),
)


def _paths(schema: dict, prefix: tuple = ()):
    """Key path of every section and leaf of ``schema``."""
    for key, default in schema.items():
        yield prefix + (key,)
        if isinstance(default, dict):
            yield from _paths(default, prefix + (key,))


def _lookup(tree: dict, path: tuple):
    for key in path:
        tree = tree[key]
    return tree


_KNOWN_PATHS = sorted(_paths(DEFAULT_CONFIG))
_SECTIONS = [()] + [p for p in _KNOWN_PATHS if isinstance(_lookup(DEFAULT_CONFIG, p), dict)]
_UNKNOWN_PATHS = st.tuples(st.sampled_from(_SECTIONS), st.text(max_size=4)).map(
    lambda pair: pair[0] + (pair[1],)
)


@st.composite
def _overrides(draw):
    """A few known or unknown key paths of the schema, each set to any value."""
    out: dict = {}
    paths = st.one_of(st.sampled_from(_KNOWN_PATHS), _UNKNOWN_PATHS)
    for path in draw(st.lists(paths, max_size=3)):
        node = out
        for key in path[:-1]:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        node[path[-1]] = draw(_VALUES)
    return out


@settings(max_examples=300, deadline=None)
@given(_overrides())
def test_load_config_raises_only_config_error(overrides):
    try:
        config = load_config(overrides)
    except ConfigError:
        return
    # whatever is accepted serializes canonically (no NaN or infinity)
    canonical_json(config)
