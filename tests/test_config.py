"""Property tests of the config loader: whatever mapping it is given, it
either builds a config whose track resolves or raises ConfigError."""

import dataclasses
import math
import typing

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gateracer.cli import main
from gateracer.config import (_BLOCKS, MAX_GATES, ConfigError, RunConfig,
                              resolve_track, run_config_from_dict)
from gateracer.domains import Domain

# integers reach past MAX_GATES, which is refused before any track is built
_numbers = st.integers(-10**9, 10**9) | st.floats()
_scalars = st.none() | st.booleans() | _numbers | st.text(max_size=8)
_values = st.recursive(
    _scalars | st.tuples(_numbers, _numbers).map(list),
    lambda inner: (st.lists(inner, max_size=8)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=10)
_keys = st.text(max_size=8) | st.integers(-5, 5) | st.none()


def _block(cls):
    """Mappings of the block's own keys to arbitrary values."""
    names = [f.name for f in dataclasses.fields(cls)]
    return st.dictionaries(st.sampled_from(names), _values, max_size=4)


# blocks holding known keys, so the values reach the type and range checks
_known_keys = st.fixed_dictionaries(
    {}, optional={name: _block(cls) for name, cls in _BLOCKS.items()})
# arbitrary structure: unknown blocks and keys, non-mapping blocks
_anything = st.dictionaries(
    st.sampled_from(list(_BLOCKS)) | _keys,
    st.dictionaries(_keys, _values, max_size=3) | _values,
    max_size=4) | _values


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=_known_keys | _anything)
@example(data={"track": {"spacing": [0.1, 0.2]}})
@example(data={"track": {"spacing": [1.0, float("inf")]}})
@example(data={"track": {"seed": -1}})
@example(data={"track": {"file": "a\x00b"}})
@example(data={"train": {1: 0, "x": 0}})
@example(data={1: {}, "x": {}})
@example(data={"track": {"n_gates": MAX_GATES + 1}})
def test_config_loader_raises_only_config_error(data):
    try:
        resolve_track(run_config_from_dict(data))
    except ConfigError:
        pass


def test_n_gates_is_capped():
    cfg = run_config_from_dict({"track": {"n_gates": MAX_GATES}})
    assert resolve_track(cfg).n_gates == MAX_GATES
    with pytest.raises(ConfigError, match="n_gates must be in"):
        run_config_from_dict({"track": {"n_gates": MAX_GATES + 1}})


@pytest.mark.parametrize("block", [None, {}])
def test_null_or_empty_block_takes_the_defaults(block):
    assert run_config_from_dict({"train": block}) == RunConfig()


@pytest.mark.parametrize("block", [0, False, "", [], [1]])
def test_falsy_non_mapping_block_is_rejected(block):
    with pytest.raises(ConfigError, match="block 'train' must be a mapping"):
        run_config_from_dict({"train": block})


_BAD_ENTRIES = [
    ("track", "n_gates", 0),
    ("track", "spacing", [5.0, 1.0]),
    ("reward", "time_limit", -1.0),
    ("train", "minibatch_size", "many"),
    ("dynamics", "imu_noise_std", [0.1, None]),
    ("harness", "drone_radius", float("nan")),
    ("harness", "metrics_queue_size", 0),
    ("reward", "collision_limit", 0),
    ("dynamics", "v_max", -1.0),
    ("dynamics", "command_scale", float("nan")),
    ("reward", "pass_reward", float("nan")),
    ("reward", "timer_multiplier", float("nan")),
    ("reward", "collision_penalty", float("nan")),
    ("reward", "stuck_penalty", float("nan")),
    ("reward", "max_divergence", 0.0),
    ("opponent", "cruise_speed", float("inf")),
    ("opponent", "approach_offset", -1.0),
    ("no_such_block", "key", 1),
    ("dynamics", "yaw_rate_max", float("nan")),
    ("dynamics", "yaw_rate_max", -1),
    ("dynamics", "tau", float("inf")),
    ("dynamics", "dt", float("inf")),
    ("dynamics", "gps_noise_std", float("inf")),
    ("dynamics", "imu_noise_std", [0.0] * 6 + [float("inf")]),
    ("reward", "progress_coef", float("nan")),
    ("reward", "proximity_bonus", float("nan")),
    ("reward", "max_divergence", float("inf")),
    ("train", "entropy_coef", float("nan")),
    ("train", "total_steps", -5),
    ("train", "value_coef", float("inf")),
    ("train", "target_kl", float("inf")),
    ("dynamics", "tau", 10**400),
]


@settings(derandomize=True, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_known_keys, bad=st.sampled_from(_BAD_ENTRIES))
def test_inspect_rejects_a_generated_bad_config(tmp_path, capsys, data, bad):
    block, key, value = bad
    data = {**data, block: {**data.get(block, {}), key: value}}
    path = tmp_path / "generated.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["inspect", "--config", str(path)]) == 1
    assert "error: " in capsys.readouterr().err


def test_every_config_field_declares_a_domain():
    """Each field of each block declares one Domain, and the domain of an
    int, float or number-tuple field takes numbers of the field's type."""
    for name, cls in _BLOCKS.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            domain = f.metadata.get("domain")
            assert isinstance(domain, Domain), f"{name}.{f.name}"
            # Optional[X] is X or null
            tp = hints[f.name]
            tp = next((a for a in typing.get_args(tp) if a is not type(None)),
                      tp)
            assert domain.kind is (float if tp is tuple else tp), \
                f"{name}.{f.name}"
            assert domain.nullable == (f.default is None), f"{name}.{f.name}"


# each numeric field with each edge value, an int too large for a float
# among them, or its default ("default"), and, in a tuple field, at each
# element in turn
_EDGE_CASES = [
    (name, f, value, i)
    for name, cls in _BLOCKS.items() for f in dataclasses.fields(cls)
    if f.metadata["domain"].kind in (int, float)
    for value in (math.nan, math.inf, -math.inf, 0, -1, 1e300, 10**400,
                  "default")
    for i in range(len(f.default) if isinstance(f.default, tuple) else 1)]


@settings(derandomize=True, deadline=None, max_examples=2 * len(_EDGE_CASES))
@given(case=st.sampled_from(_EDGE_CASES))
def test_a_numeric_field_takes_only_its_declared_domain(case):
    """One field at a time, set to an edge value or its default (in a
    tuple field, one element): the load either refuses it, naming the
    block and the key, or keeps a value that is finite and in the field's
    declared domain."""
    block, f, value, i = case
    domain = f.metadata["domain"]
    if isinstance(f.default, tuple):
        element = f.default[i] if value == "default" else value
        value = list(f.default)
        value[i] = element
    elif value == "default":
        value = f.default
    try:
        cfg = run_config_from_dict({block: {f.name: value}})
    except ConfigError as exc:
        assert str(exc).startswith(f"invalid '{block}' block: ")
        assert f.name in str(exc)
        return
    got = getattr(getattr(cfg, block), f.name)
    assert got == (tuple(value) if isinstance(value, list) else value)
    for x in got if isinstance(got, tuple) else [got]:
        if x is None:
            assert domain.nullable, (block, f.name)
            continue
        # every numeric domain is finite; an int is exact at any size
        finite = type(x) is int if domain.kind is int else math.isfinite(x)
        assert finite and domain.test(x), (block, f.name, x)


@pytest.mark.parametrize("text", ["track: [", "train: {a: 1", "- 1\n- 2",
                                  "track:\n\t- x", "42", "0", "[]",
                                  "train: 0"])
def test_inspect_rejects_malformed_yaml(tmp_path, capsys, text):
    """Malformed YAML, or YAML that is not a mapping of mappings."""
    path = tmp_path / "malformed.yaml"
    path.write_text(text)
    assert main(["inspect", "--config", str(path)]) == 1
    assert "error: " in capsys.readouterr().err
