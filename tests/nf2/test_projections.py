"""Projections on the stored bytes against decode-based oracles.

The direct models answer navigation and root updates without building
tuples: :meth:`NF2Serializer.walk_ints` / ``walk_list_ints`` collect the
``OidConnection`` links under ``Platform/Connection`` by stepping over
sub-trees with each tuple header's ``total_len``, and
:meth:`NF2Serializer.repack_flat` rewrites root atoms in a copy of the
stored bytes.  Both must agree exactly with decoding: the walk with
walking the decoded tuple, the re-pack with
``encode(decode(blob).replace_atoms(**changes))`` — bytes and error
types alike.  The cases cover every Station of a seeded extension in
both stored forms (the nested heap record and the long-object
sections), several storage formats, empty ``Platform`` and
``Connection`` lists, a ``Sightseeing``-only object, a followed
sub-relation stored after another one, and truncated buffers.
"""

from __future__ import annotations

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import generate_stations
from repro.benchmark.schema import (
    CONNECTION_SCHEMA,
    PLATFORM_SCHEMA,
    SIGHTSEEING_SCHEMA,
    STATION_SCHEMA,
)
from repro.errors import SchemaError, SerializationError
from repro.nf2.schema import RelationSchema, int_attr, link_attr, str_attr
from repro.nf2.serializer import DASDBS_FORMAT, NF2Serializer, StorageFormat
from repro.nf2.values import NestedTuple

FORMATS = (
    DASDBS_FORMAT,
    StorageFormat(tuple_header=8, attr_overhead=2, subrel_overhead=4),
    StorageFormat(tuple_header=40, attr_overhead=6, subrel_overhead=12),
)

PATH = ("Platform", "Connection")

CHANGE_SETS = (
    {},
    {"Name": "renamed"},
    {"NoSeeing": -7, "Key": 2**31 - 1},
    {"Name": "", "NoPlatform": 0, "NoSeeing": -(2**31), "Key": 0},
    {"Name": "x" * 100},
    {"Name": "é" * 50},
)

#: Invalid change sets; ``replace_atoms`` decides the expected error.
BAD_CHANGE_SETS = (
    {"Missing": 1},
    {"Platform": []},
    {"Key": "1"},
    {"Key": True},
    {"Key": 2**31},
    {"NoSeeing": -(2**31) - 1},
    {"Name": 5},
    {"Name": "y" * 101},
    {"Name": "é" * 51},
    {"Key": "bad", "Missing": 1},
    {"Missing": 1, "Key": "bad"},
)


def links(station: NestedTuple) -> list[int]:
    return [
        connection["OidConnection"]
        for platform in station.subtuples("Platform")
        for connection in platform.subtuples("Connection")
    ]


def connection(oid: int) -> NestedTuple:
    return NestedTuple(
        CONNECTION_SCHEMA,
        {"LineNr": 1, "KeyConnection": -oid // 2, "OidConnection": oid, "DepartureTimes": "t"},
    )


def platform(nr: int, connections) -> NestedTuple:
    return NestedTuple(
        PLATFORM_SCHEMA,
        {"PlatformNr": nr, "NoLine": len(connections), "TicketCode": 3, "Information": "i"},
        {"Connection": list(connections)},
    )


def sight(nr: int) -> NestedTuple:
    atoms = {"SeeingNr": nr, "Description": "d", "Location": "l", "History": "h", "Remarks": ""}
    return NestedTuple(SIGHTSEEING_SCHEMA, atoms)


def station(platforms=(), sights=(), key: int = 10_000) -> NestedTuple:
    return NestedTuple(
        STATION_SCHEMA,
        {"Key": key, "NoPlatform": len(platforms), "NoSeeing": len(sights), "Name": "s"},
        {"Platform": list(platforms), "Sightseeing": list(sights)},
    )


EDGE_STATIONS = {
    "empty": station(),
    "sightseeing-only": station(sights=[sight(1), sight(2), sight(3)]),
    "empty-connection-lists": station(platforms=[platform(1, []), platform(2, [])]),
    "mixed": station(
        platforms=[platform(1, []), platform(2, [connection(5), connection(-3)])],
        sights=[sight(9)],
    ),
    "connections-after-empty": station(
        platforms=[platform(1, [connection(2**31 - 1)]), platform(2, []), platform(3, [connection(0)])]
    ),
}


def extension() -> list[NestedTuple]:
    return generate_stations(BenchmarkConfig(n_objects=120, seed=7))


def stations() -> list[NestedTuple]:
    return extension() + list(EDGE_STATIONS.values())


def test_extension_has_the_edge_shapes():
    """The seeded extension itself reaches the empty-list cases."""
    seeded = extension()
    assert any(not s.subtuples("Platform") for s in seeded)
    assert any(
        p.subtuples("Connection") == [] for s in seeded for p in s.subtuples("Platform")
    )
    assert any(not s.subtuples("Sightseeing") for s in seeded)


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f"hdr{f.tuple_header}")
class TestLinkWalk:
    def test_nested_record_walk_matches_decode(self, fmt):
        ser = NF2Serializer(fmt)
        for value in stations():
            blob = ser.encode_nested(value)
            decoded = ser.decode_nested(STATION_SCHEMA, blob)
            assert ser.walk_ints(STATION_SCHEMA, blob, PATH, "OidConnection") == links(decoded)

    def test_platform_section_walk_matches_decode(self, fmt):
        ser = NF2Serializer(fmt)
        for value in stations():
            blob = ser.encode_subtuple_list(PLATFORM_SCHEMA, value.subtuples("Platform"))
            decoded = ser.decode_subtuple_list(PLATFORM_SCHEMA, blob)
            got = ser.walk_list_ints(PLATFORM_SCHEMA, blob, PATH[1:], "OidConnection")
            want = [c["OidConnection"] for p in decoded for c in p.subtuples("Connection")]
            assert got == want == links(value)

    def test_walk_at_an_offset_inside_a_page(self, fmt):
        ser = NF2Serializer(fmt)
        value = EDGE_STATIONS["mixed"]
        frame = bytearray(b"\xff" * 13) + ser.encode_nested(value) + b"\xff" * 9
        got = ser.walk_ints(STATION_SCHEMA, memoryview(frame), PATH, "OidConnection", 13)
        assert got == [5, -3]

    def test_empty_path_over_a_list_reads_the_listed_tuples(self, fmt):
        ser = NF2Serializer(fmt)
        platforms = EDGE_STATIONS["connections-after-empty"].subtuples("Platform")
        blob = ser.encode_subtuple_list(PLATFORM_SCHEMA, platforms)
        assert ser.walk_list_ints(PLATFORM_SCHEMA, blob, (), "PlatformNr") == [1, 2, 3]

    def test_followed_subrelation_after_another_is_skipped_to(self, fmt):
        """Sub-relations are stored in schema order; earlier ones are
        stepped over by their tuples' ``total_len``."""
        leaf = RelationSchema.flat("Leaf", int_attr("n"), link_attr("ref"))
        mid = RelationSchema("Mid", (str_attr("m", 7),), (leaf,))
        root = RelationSchema("Root", (int_attr("k"),), (SIGHTSEEING_SCHEMA, mid, leaf))
        ser = NF2Serializer(fmt)

        def mids(refs_per_mid):
            return [
                NestedTuple(
                    mid,
                    {"m": "m"},
                    {"Leaf": [NestedTuple(leaf, {"n": 0, "ref": r}) for r in refs]},
                )
                for refs in refs_per_mid
            ]

        value = NestedTuple(
            root,
            {"k": 1},
            {
                "Sightseeing": [sight(1), sight(2)],
                "Mid": mids([[4, 5], [], [6]]),
                "Leaf": [NestedTuple(leaf, {"n": 1, "ref": 99})],
            },
        )
        blob = ser.encode_nested(value)
        assert ser.walk_ints(root, blob, ("Mid", "Leaf"), "ref") == [4, 5, 6]
        assert ser.walk_ints(root, blob, ("Leaf",), "ref") == [99]


class TestLinkWalkErrors:
    ser = NF2Serializer()

    def test_unknown_path_or_attribute_is_refused(self):
        blob = self.ser.encode_nested(EDGE_STATIONS["mixed"])
        with pytest.raises(SerializationError, match="sub-relation"):
            self.ser.walk_ints(STATION_SCHEMA, blob, ("Platform", "Nope"), "OidConnection")
        with pytest.raises(SerializationError, match="integer attribute"):
            self.ser.walk_ints(STATION_SCHEMA, blob, PATH, "DepartureTimes")
        with pytest.raises(SerializationError, match="at least one"):
            self.ser.walk_ints(STATION_SCHEMA, blob, (), "Key")

    @pytest.mark.parametrize("name", sorted(EDGE_STATIONS))
    def test_every_truncation_raises_serialization_error(self, name):
        value = EDGE_STATIONS[name]
        nested = self.ser.encode_nested(value)
        listed = self.ser.encode_subtuple_list(PLATFORM_SCHEMA, value.subtuples("Platform"))
        for cut in range(len(nested)):
            with pytest.raises(SerializationError):
                self.ser.walk_ints(STATION_SCHEMA, nested[:cut], PATH, "OidConnection")
        for cut in range(len(listed)):
            with pytest.raises(SerializationError):
                self.ser.walk_list_ints(PLATFORM_SCHEMA, listed[:cut], PATH[1:], "OidConnection")

    def test_corrupt_total_len_raises_serialization_error(self):
        ser = self.ser
        blob = bytearray(
            ser.encode_subtuple_list(PLATFORM_SCHEMA, EDGE_STATIONS["mixed"].subtuples("Platform"))
        )
        # The first Platform's total_len, just after the list counter.
        blob[DASDBS_FORMAT.subrel_overhead : DASDBS_FORMAT.subrel_overhead + 4] = bytes(4)
        with pytest.raises(SerializationError, match="total_len 0"):
            ser.walk_list_ints(PLATFORM_SCHEMA, bytes(blob), PATH[1:], "OidConnection")


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f"hdr{f.tuple_header}")
class TestRepack:
    def test_nested_record_repack_matches_decode_replace_encode(self, fmt):
        ser = NF2Serializer(fmt)
        for value in stations():
            blob = ser.encode_nested(value)
            decoded = ser.decode_nested(STATION_SCHEMA, blob)
            for changes in CHANGE_SETS:
                want = ser.encode_nested(decoded.replace_atoms(**changes))
                assert ser.repack_flat(STATION_SCHEMA, blob, changes) == want

    def test_root_section_repack_matches_decode_replace_encode(self, fmt):
        ser = NF2Serializer(fmt)
        for value in stations():
            section = ser.encode_flat(value)
            decoded = ser.decode_flat(STATION_SCHEMA, section)
            for changes in CHANGE_SETS:
                want = ser.encode_flat(decoded.replace_atoms(**changes))
                got = ser.repack_flat(STATION_SCHEMA, memoryview(section), changes)
                assert type(got) is bytes
                assert got == want

    def test_repack_leaves_its_input_alone(self, fmt):
        ser = NF2Serializer(fmt)
        blob = bytearray(ser.encode_nested(EDGE_STATIONS["mixed"]))
        before = bytes(blob)
        ser.repack_flat(STATION_SCHEMA, blob, {"Name": "other"})
        assert blob == before


class TestRepackErrors:
    ser = NF2Serializer()

    @pytest.mark.parametrize("changes", BAD_CHANGE_SETS, ids=repr)
    def test_same_error_type_as_replace_atoms(self, changes):
        value = EDGE_STATIONS["mixed"]
        with pytest.raises((SchemaError, SerializationError)) as expected:
            value.replace_atoms(**changes)
        for blob in (self.ser.encode_nested(value), self.ser.encode_flat(value)):
            with pytest.raises(expected.type):
                self.ser.repack_flat(STATION_SCHEMA, blob, changes)

    @pytest.mark.parametrize("nested", (False, True), ids=("flat", "nested"))
    def test_every_truncation_raises_serialization_error(self, nested):
        value = EDGE_STATIONS["mixed"]
        blob = self.ser.encode_nested(value) if nested else self.ser.encode_flat(value)
        for cut in range(len(blob)):
            with pytest.raises(SerializationError):
                self.ser.repack_flat(STATION_SCHEMA, blob[:cut], {"Key": 1})


class TestDecodeSubtupleListTruncation:
    ser = NF2Serializer()

    @pytest.mark.parametrize("blob", (b"", b"\x01", b"\x01\x00\x00"))
    def test_short_counter_raises_serialization_error(self, blob):
        with pytest.raises(SerializationError):
            self.ser.decode_subtuple_list(PLATFORM_SCHEMA, blob)

    def test_every_truncation_raises_serialization_error(self):
        platforms = EDGE_STATIONS["mixed"].subtuples("Platform")
        blob = self.ser.encode_subtuple_list(PLATFORM_SCHEMA, platforms)
        for cut in range(len(blob)):
            with pytest.raises(SerializationError):
                self.ser.decode_subtuple_list(PLATFORM_SCHEMA, blob[:cut])
