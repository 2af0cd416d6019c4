"""Unit tests for the canonical content digests (repro.serialize.digest)."""

import json

from repro.concrete import ConcreteInstance, concrete_fact
from repro.temporal import Interval
from repro.serialize import (
    chase_request_digest,
    instance_digest,
    setting_digest,
)
from repro.serialize.digest import canonical_json_bytes
from repro.workloads import (
    employment_setting,
    employment_source_concrete,
    exchange_setting_org,
)


def _fact(relation, data, start, end):
    return concrete_fact(relation, *data, interval=Interval(start, end))


class TestCanonicalJson:
    def test_key_order_does_not_matter(self):
        assert canonical_json_bytes({"b": 1, "a": 2}) == canonical_json_bytes(
            {"a": 2, "b": 1}
        )

    def test_compact_separators(self):
        assert canonical_json_bytes({"a": [1, 2]}) == b'{"a":[1,2]}'

    def test_round_trips_as_json(self):
        payload = {"x": ["y", 3], "z": None}
        assert json.loads(canonical_json_bytes(payload)) == payload


class TestInstanceDigest:
    def test_insertion_order_insensitive(self):
        facts = [
            _fact("R", ("a",), 0, 5),
            _fact("R", ("b",), 2, 7),
            _fact("S", ("a", "b"), 1, 3),
        ]
        forward = ConcreteInstance()
        backward = ConcreteInstance()
        for item in facts:
            forward.add(item)
        for item in reversed(facts):
            backward.add(item)
        assert instance_digest(forward) == instance_digest(backward)

    def test_content_sensitive(self):
        one = ConcreteInstance()
        one.add(_fact("R", ("a",), 0, 5))
        two = ConcreteInstance()
        two.add(_fact("R", ("a",), 0, 6))
        assert instance_digest(one) != instance_digest(two)

    def test_stable_hex_sha256(self):
        instance = ConcreteInstance()
        instance.add(_fact("R", ("a",), 0, 5))
        digest = instance_digest(instance)
        assert len(digest) == 64
        assert digest == instance_digest(instance)


class TestSettingDigest:
    def test_distinguishes_settings(self):
        assert setting_digest(employment_setting()) != setting_digest(
            exchange_setting_org()
        )

    def test_stable_across_instances(self):
        assert setting_digest(exchange_setting_org()) == setting_digest(
            exchange_setting_org()
        )


class TestChaseRequestDigest:
    def test_same_inputs_same_digest(self):
        setting = employment_setting()
        source = employment_source_concrete()
        assert chase_request_digest(setting, source) == chase_request_digest(
            setting, source
        )

    def test_parameters_participate(self):
        setting = employment_setting()
        source = employment_source_concrete()
        base = chase_request_digest(setting, source)
        assert base != chase_request_digest(setting, source, variant="oblivious")
        assert base != chase_request_digest(setting, source, normalization="naive")

    def test_source_participates(self):
        setting = employment_setting()
        source = employment_source_concrete()
        grown = source.copy()
        grown.add(_fact("Works", ("zoe", "q", 1), 2012, 2013))
        assert chase_request_digest(setting, source) != chase_request_digest(
            setting, grown
        )
