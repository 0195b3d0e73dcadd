"""Round-trip tests of the sentinel encoding (the PR-5 corruption fix).

``decode_nonfinite(encode_nonfinite(x)) == x`` must hold for *every*
JSON-able value -- including records whose genuine string values are
spelled ``"NaN"``/``"Infinity"``/``"-Infinity"``, which the pre-fix
decoder silently converted to floats.  The escape rule must also leave
the canonical bytes (and therefore every committed hash) of artifacts
without colliding strings untouched, and keep old artifacts decoding
identically.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sweep.result import (
    canonical_dumps,
    canonical_json_with_hash,
    canonical_sha256_of,
    decode_nonfinite,
    encode_nonfinite,
    escape_sentinel,
    unescape_sentinel,
)

pytestmark = pytest.mark.sweep

SENTINELS = ("NaN", "Infinity", "-Infinity")


def _eq(a, b) -> bool:
    """Structural equality where nan == nan and -0.0 keeps its sign."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1, a) == math.copysign(1, b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_eq(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        # encode_nonfinite canonicalises tuples to lists; compare content.
        return len(a) == len(b) and all(_eq(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


class TestSentinelCollidingStrings:
    """The confirmed bug: genuine sentinel-spelled strings must survive."""

    @pytest.mark.parametrize("value", SENTINELS)
    def test_issue_repro(self, value):
        # Before the fix: decode(encode({"s": "NaN"})) == {"s": nan}.
        assert decode_nonfinite(encode_nonfinite({"s": value})) == {"s": value}

    @pytest.mark.parametrize(
        "value", [s for base in SENTINELS for s in (base, "~" + base, "~~" + base)]
    )
    def test_escaped_forms_round_trip(self, value):
        assert decode_nonfinite(encode_nonfinite(value)) == value

    @pytest.mark.parametrize(
        "value", ["nan", "inf", " NaN", "NaN ", "Infinity!", "~", "~x", "-infinity"]
    )
    def test_near_misses_pass_through_unescaped(self, value):
        assert encode_nonfinite(value) == value
        assert decode_nonfinite(value) == value

    def test_escape_unescape_helpers(self):
        assert escape_sentinel("NaN") == "~NaN"
        assert unescape_sentinel("~NaN") == "NaN"
        assert unescape_sentinel("NaN") == "NaN"  # string-typed fields
        assert unescape_sentinel("plain") == "plain"


class TestFloats:
    def test_nonfinite_floats_encode_to_bare_sentinels(self):
        assert encode_nonfinite(float("inf")) == "Infinity"
        assert encode_nonfinite(float("-inf")) == "-Infinity"
        assert encode_nonfinite(float("nan")) == "NaN"

    def test_nonfinite_floats_round_trip(self):
        out = decode_nonfinite(encode_nonfinite([math.nan, math.inf, -math.inf]))
        assert math.isnan(out[0])
        assert out[1] == math.inf
        assert out[2] == -math.inf

    def test_negative_zero_preserved(self):
        out = decode_nonfinite(encode_nonfinite({"k": -0.0}))
        assert out["k"] == 0.0
        assert math.copysign(1, out["k"]) == -1.0

    def test_encoded_form_is_json_safe(self):
        payload = {"a": math.nan, "b": ["Infinity", math.inf], "c": ("NaN",)}
        text = json.dumps(encode_nonfinite(payload), allow_nan=False)
        assert _eq(decode_nonfinite(json.loads(text)), {
            "a": math.nan, "b": ["Infinity", math.inf], "c": ["NaN"],
        })


class TestMixedRecords:
    def test_nested_tuples_lists_and_colliding_strings(self):
        record = {
            "name": "NaN",
            "values": [math.inf, "Infinity", ("-Infinity", [math.nan])],
            "meta": {"Infinity": "~NaN", "n": -0.0},
        }
        out = decode_nonfinite(encode_nonfinite(record))
        assert out["name"] == "NaN"
        assert out["values"][0] == math.inf
        assert out["values"][1] == "Infinity"
        assert out["values"][2][0] == "-Infinity"
        assert math.isnan(out["values"][2][1][0])
        # Dict *keys* are never encoded (they are schema, not data).
        assert out["meta"]["Infinity"] == "~NaN"

    def test_old_artifacts_decode_identically(self):
        # An artifact written before the escape rule: every sentinel in
        # it came from a float, and must still decode to that float.
        old = {"slack": "-Infinity", "cost": "Infinity", "margin": "NaN"}
        out = decode_nonfinite(old)
        assert out["slack"] == -math.inf
        assert out["cost"] == math.inf
        assert math.isnan(out["margin"])

    def test_hashes_stable_without_colliding_strings(self):
        # The rule must not move canonical bytes of ordinary records.
        record = {"name": "census-4", "slack": 0.25, "worst": math.inf, "ok": True}
        assert json.dumps(encode_nonfinite(record), sort_keys=True) == json.dumps(
            {"name": "census-4", "slack": 0.25, "worst": "Infinity", "ok": True},
            sort_keys=True,
        )


# -- property-style coverage -------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=20),
    st.sampled_from([s for b in SENTINELS for s in (b, "~" + b, "~~~" + b)]),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


@given(_values)
def test_encode_decode_round_trips(value):
    encoded = encode_nonfinite(value)
    # Encoded form must be strict-JSON serialisable as-is.
    json.dumps(encoded, allow_nan=False)
    assert _eq(decode_nonfinite(encoded), value)


@given(_values)
def test_encode_decode_round_trips_through_json(value):
    rewound = json.loads(json.dumps(encode_nonfinite(value), allow_nan=False))
    assert _eq(decode_nonfinite(rewound), value)


# -- canonical_json_with_hash: one dump, hash spliced in ---------------------


@pytest.mark.parametrize("key", ["a", "c", "e", "z", "d"])
def test_json_with_hash_splices_the_hash_at_its_sorted_position(key):
    # Payload keys b, d, f: the hash key sorts before, between, after
    # them, or replaces one (whose value the hash still covers).
    payload = {"f": [math.inf, "NaN"], "b": {"y": -0.0, "x": None}, "d": "~NaN"}
    text, sha = canonical_json_with_hash(payload, key=key)
    assert sha == canonical_sha256_of(payload)
    assert text == canonical_dumps({**payload, key: sha})


@given(
    st.dictionaries(st.text(max_size=6), _values, max_size=5),
    st.one_of(st.text(max_size=6), st.just("canonical_sha256")),
)
def test_json_with_hash_matches_a_second_dump(payload, key):
    text, sha = canonical_json_with_hash(payload, key=key)
    assert sha == canonical_sha256_of(payload)
    assert text == canonical_dumps({**payload, key: sha})
