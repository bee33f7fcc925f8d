"""Content-addressed cache: canonical keys, LRU front, disk store."""

from __future__ import annotations

import json

import pytest

from repro.io import write_blif
from repro.perf import counters
from repro.service.cache import ResultCache, canonical_request, request_key

BLIF = """\
.model and2
.inputs a b
.outputs f
.names a b f
11 1
.end
"""

BLIF_NOISY = """\
# a comment the canonical form must not see
.model and2
.inputs  a   b
.outputs f

.names a b f
11 1
.end
"""


# -- key derivation ----------------------------------------------------------------

def test_expression_formatting_does_not_change_the_key():
    keys = {
        request_key("synth", {"expr": expr})
        for expr in ("a&b", "a & b", "(a) & (b)", "  a &b ")
    }
    assert len(keys) == 1


def test_circuit_text_is_canonicalised_before_hashing():
    key_clean = request_key("synth", {"circuit": {"format": "blif", "text": BLIF}})
    key_noisy = request_key("synth", {"circuit": {"format": "blif", "text": BLIF_NOISY}})
    assert key_clean == key_noisy


def test_omitted_knobs_hash_like_their_defaults():
    implicit = request_key("synth", {"expr": "a & b"})
    explicit = request_key("synth", {
        "expr": "a & b", "gamma": 0.5, "method": "auto",
        "time_limit": 60.0, "validate": True, "order": None,
    })
    assert implicit == explicit


def test_null_knobs_hash_like_the_job_they_run():
    # The job executor reads a null knob as its default, so the key must too.
    from repro.service.jobs import execute

    implicit = {"expr": "a & b"}
    nulls = {"expr": "a & b", "gamma": None, "time_limit": None}
    assert request_key("synth", nulls) == request_key("synth", implicit)
    designs = [
        execute("synth", params)["result"]["design_json"] for params in (implicit, nulls)
    ]
    assert designs[0] == designs[1]


def test_different_knobs_and_functions_get_different_keys():
    base = request_key("synth", {"expr": "a & b"})
    assert request_key("synth", {"expr": "a & b", "gamma": 0.9}) != base
    assert request_key("synth", {"expr": "a | b"}) != base
    assert request_key("synth", {"expr": "a & b", "order": ["b", "a"]}) != base


def test_uncacheable_inputs_raise_value_error():
    with pytest.raises(ValueError):
        canonical_request("ping", {})
    with pytest.raises(ValueError):
        canonical_request("synth", {})  # neither expr nor circuit
    with pytest.raises(ValueError):
        canonical_request("synth", {"circuit": {"format": "cobol", "text": ""}})


def test_map_key_covers_design_fault_map_and_knobs(c17_netlist):
    from repro.core import Compact
    from repro.crossbar import design_to_json, fault_map_to_json, random_fault_map

    design = Compact().synthesize_netlist(c17_netlist).design
    fault_map = random_fault_map(16, 16, p_stuck_off=0.05, seed=3)
    params = {
        "circuit": {"format": "blif", "text": write_blif(c17_netlist)},
        "design_json": design_to_json(design),
        "fault_map": fault_map_to_json(fault_map),
    }
    base = request_key("map", params)
    assert request_key("map", dict(params, seed=0)) == base  # explicit default
    assert request_key("map", dict(params, seed=1)) != base
    other_map = fault_map_to_json(random_fault_map(16, 16, p_stuck_off=0.05, seed=4))
    assert request_key("map", dict(params, fault_map=other_map)) != base


# -- storage -----------------------------------------------------------------------

def test_lru_eviction_and_counters():
    counters.reset()
    cache = ResultCache(capacity=2)
    cache.put("k1", {"n": 1})
    cache.put("k2", {"n": 2})
    assert cache.get("k1") == {"n": 1}  # refreshes k1; k2 is now LRU
    cache.put("k3", {"n": 3})
    assert cache.get("k2") is None      # evicted (memory-only cache)
    assert cache.get("k1") == {"n": 1}
    assert cache.get("k3") == {"n": 3}
    stats = cache.stats()
    assert stats["evictions"] == 1
    assert stats["stores"] == 3
    assert stats["hits"] == 3 and stats["misses"] == 1
    assert counters.get("service_cache_evictions") == 1
    assert counters.get("service_cache_hits") == 3
    assert counters.get("service_cache_misses") == 1
    assert counters.get("service_cache_stores") == 3


def test_get_hands_back_a_fresh_object():
    cache = ResultCache(capacity=4)
    cache.put("k", {"inner": {"x": 1}})
    first = cache.get("k")
    first["inner"]["x"] = 99
    assert cache.get("k") == {"inner": {"x": 1}}


def test_disk_store_survives_a_new_cache_instance(tmp_path):
    cache = ResultCache(capacity=4, directory=tmp_path)
    cache.put("deadbeef", {"answer": 42})
    reborn = ResultCache(capacity=4, directory=tmp_path)
    assert reborn.get("deadbeef") == {"answer": 42}
    assert reborn.stats()["hits"] == 1
    assert reborn.stats()["entries_disk"] == 1


def test_memory_eviction_keeps_the_disk_copy(tmp_path):
    cache = ResultCache(capacity=1, directory=tmp_path)
    cache.put("k1", {"n": 1})
    cache.put("k2", {"n": 2})  # evicts k1 from memory
    assert cache.stats()["evictions"] == 1
    assert cache.get("k1") == {"n": 1}  # reloaded from disk


def test_corrupted_disk_entry_is_a_miss_and_gets_deleted(tmp_path):
    cache = ResultCache(capacity=4, directory=tmp_path)
    cache.put("k1", {"n": 1})
    cache.clear()
    path = tmp_path / "k1.json"
    path.write_text("{ not json")
    assert cache.get("k1") is None
    assert not path.exists()
    # Wrong-schema entries are equally untrusted.
    path.write_text(json.dumps({"schema": "other/9", "result": {"n": 1}}))
    assert cache.get("k1") is None
    assert not path.exists()


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        ResultCache(capacity=0)


def test_retired_solver_jobs_param_is_ignored_by_the_key():
    # The labeling solve has one thread and HiGHS solves every stage, so
    # a request that still sends solver_jobs or backend means the same
    # job as one without them.
    from repro.service.cache import CACHE_KEY_SCHEMA
    from repro.service.jobs import execute

    assert CACHE_KEY_SCHEMA == "repro-service-key/9"
    plain = {"expr": "(a & b) | c"}
    for legacy in (dict(plain, solver_jobs=4), dict(plain, backend="bnb")):
        assert request_key("synth", legacy) == request_key("synth", plain)
        designs = [execute("synth", p)["result"]["design_json"] for p in (plain, legacy)]
        assert designs[0] == designs[1]


def test_synth_key_distinguishes_layer_counts():
    base = request_key("synth", {"expr": "a & b"})
    explicit = request_key("synth", {"expr": "a & b", "layers": 1})
    layered = request_key("synth", {"expr": "a & b", "layers": 2})
    assert base == explicit  # layers=1 is the default, not a new key
    assert layered != base


def test_expression_name_is_in_the_key():
    # The name names the design and its output, so two names are two
    # different answers; omitted or null means "f".
    from repro.service.jobs import execute

    x = {"expr": "a & b", "name": "x"}
    y = {"expr": "a & b", "name": "y"}
    assert request_key("synth", x) != request_key("synth", y)
    default = request_key("synth", {"expr": "a & b"})
    assert request_key("synth", {"expr": "a & b", "name": "f"}) == default
    assert request_key("synth", {"expr": "a & b", "name": None}) == default
    for params, name in ((x, "x"), (y, "y"), ({"expr": "a & b", "name": None}, "f")):
        result = execute("synth", params)["result"]
        assert result["design_name"] == name
        assert result["validation"]["ok"] is True


def test_expression_name_is_in_every_expression_key():
    # validate and validate_batch check the design against the output
    # the name names, so the name is part of what they answer.
    from repro.core import Compact
    from repro.crossbar import design_to_json
    from repro.expr import parse

    design_json = design_to_json(Compact().synthesize_expr(parse("a & b")).design)
    design = {"expr": "a & b", "design_json": design_json}
    fault_maps = [{"format": "repro.faults/1", "rows": 1, "cols": 1, "faults": []}]
    for method, extra in (("validate", {}), ("validate_batch", {"fault_maps": fault_maps})):
        plain = dict(design, **extra)
        named = dict(plain, name="x")
        assert request_key(method, named) != request_key(method, plain)
        assert request_key(method, dict(plain, name="f")) == request_key(method, plain)
