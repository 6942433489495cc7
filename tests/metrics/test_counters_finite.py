"""Parse-boundary hardening: non-finite counters are rejected, reserved
metadata keys are skipped."""

import math

import pytest

from repro.metrics.counters import (
    COUNTER_FIELDS,
    counters_from_dict,
    counters_to_dict,
)


def _payload(**over) -> dict:
    rec = {f: 0.0 for f in COUNTER_FIELDS}
    rec.update(cycles_total=100.0, cycles_vector=40.0, instr_scalar=10.0,
               instr_scalar_mem=4.0, instr_vector_arith=2.0, vl_sum=16.0,
               flops=8.0)
    rec["vl_hist"] = {"8": 2}
    rec.update(over)
    return {"1": rec}


def test_clean_payload_roundtrips():
    run = counters_from_dict(_payload())
    assert counters_to_dict(run) == {
        "1": {**_payload()["1"], "vl_hist": {"8": 2}}}


def test_nan_counter_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        counters_from_dict(_payload(cycles_total=float("nan")))


def test_inf_counter_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        counters_from_dict(_payload(flops=float("inf")))


def test_json_infinity_literal_rejected():
    # json.loads happily decodes bare Infinity -- the parse boundary
    # must not let it through to the artifact generators.
    import json

    text = json.dumps(_payload()).replace('"flops": 8.0', '"flops": Infinity')
    assert "Infinity" in text
    with pytest.raises(ValueError, match="non-finite"):
        counters_from_dict(json.loads(text))


def test_non_numeric_counter_rejected():
    with pytest.raises(TypeError, match="expected a number"):
        counters_from_dict(_payload(cycles_total="fast"))


def test_bool_counter_rejected():
    with pytest.raises(TypeError, match="expected a number"):
        counters_from_dict(_payload(cycles_total=True))


def test_nan_histogram_count_rejected():
    with pytest.raises(ValueError, match="vl_hist"):
        counters_from_dict(_payload(vl_hist={"8": float("nan")}))


def test_missing_field_raises_keyerror():
    payload = _payload()
    del payload["1"]["flops"]
    with pytest.raises(KeyError):
        counters_from_dict(payload)


def test_reserved_metadata_keys_are_skipped():
    payload = _payload()
    payload["__digest__"] = "abc123"
    payload["__validation__"] = {"ok": True}
    run = counters_from_dict(payload)
    assert run.phase_ids() == [1]
    assert math.isclose(run.phases[1].cycles_total, 100.0)
