"""SimConfig canonical serialization and cache-key stability."""

import dataclasses
import json

import pytest

from repro.sim import SimConfig


def _perturbed_value(config, field):
    current = getattr(config, field.name)
    if isinstance(current, bool):
        return not current
    if isinstance(current, frozenset):
        return frozenset({12345})
    if isinstance(current, dict):
        return {"perturbed": 1}
    if isinstance(current, int):
        return (current or 0) + 7
    if isinstance(current, str):
        return current + "_x"
    if current is None:
        return 17
    raise AssertionError(f"unhandled field type for {field.name}")


def test_equal_configs_share_cache_key():
    assert (SimConfig.msp(16).cache_key()
            == SimConfig.msp(16).cache_key())
    assert (SimConfig.baseline().cache_key()
            == SimConfig.baseline().cache_key())


@pytest.mark.parametrize(
    "field", dataclasses.fields(SimConfig), ids=lambda f: f.name)
def test_every_field_perturbs_cache_key(field):
    base = SimConfig.msp(16)
    changed = base.with_(**{field.name: _perturbed_value(base, field)})
    if field.name == "label_override":
        # label_override is presentation-only: the same machine under a
        # different display label must share cache entries.
        assert changed.cache_key() == base.cache_key()
    else:
        assert changed.cache_key() != base.cache_key()


def test_to_dict_roundtrip():
    config = SimConfig.cpr(registers=256).with_(
        exception_ordinals=frozenset({10, 70}),
        predictor_kwargs={"bits": 12})
    clone = SimConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert clone == config
    assert clone.cache_key() == config.cache_key()
    assert isinstance(clone.exception_ordinals, frozenset)


def test_from_dict_ignores_unknown_keys():
    data = SimConfig.baseline().to_dict()
    data["from_the_future"] = 1
    assert SimConfig.from_dict(data) == SimConfig.baseline()


@pytest.mark.parametrize("codegen", [True, False])
def test_from_dict_drops_removed_codegen_key(codegen):
    """Result caches and store payloads written while ``SimConfig``
    still had a ``codegen`` field carry it, true or false.  They must
    load equal to a fresh config and land on the same cache key — so
    old checkpoint/profile store entries stay addressable."""
    fresh = SimConfig.baseline(predictor="tage")
    old = json.loads(json.dumps(fresh.to_dict()))
    old["codegen"] = codegen
    loaded = SimConfig.from_dict(old)
    assert loaded == fresh
    assert loaded.cache_key() == fresh.cache_key()


def test_key_is_order_independent():
    a = SimConfig.baseline().with_(
        exception_ordinals=frozenset({3, 1, 2}))
    b = SimConfig.baseline().with_(
        exception_ordinals=frozenset({2, 3, 1}))
    assert a.cache_key() == b.cache_key()
