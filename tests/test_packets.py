"""``Packet.copy()``: written out field by field for speed, so checked
field by field here — through ``dataclasses.fields``, so a field added
to ``Packet`` or to a header later cannot be silently dropped."""

import dataclasses

import pytest

from repro.packets.packet import (
    EcnCodepoint, LgAckHeader, LgDataHeader, Packet, PacketKind, RdmaHeader,
    TcpHeader,
)

HEADERS = {"tcp": TcpHeader, "rdma": RdmaHeader, "lg": LgDataHeader,
           "lg_ack": LgAckHeader}


def _other(value):
    """A value of the same type that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 41
    if isinstance(value, tuple):
        return value + ((1, 2),)
    raise AssertionError(f"no sample for a {type(value).__name__} field")


def _filled(cls):
    """An instance with every field off its default."""
    return cls(**{f.name: _other(f.default)
                  for f in dataclasses.fields(cls)})


def _full_packet():
    return Packet(
        size=1_521, kind=PacketKind.LG_RETX, src="h4", dst="h8", flow_id=7,
        priority=2, ecn=EcnCodepoint.CE, created_at=123_456,
        meta={"lg_protect": True, "lg_missing": [(0, 5)]},
        **{name: _filled(cls) for name, cls in HEADERS.items()})


def test_the_sample_packet_exercises_every_field():
    packet = _full_packet()
    blank = Packet(size=0)
    for field in dataclasses.fields(Packet):
        if field.name != "uid":
            assert getattr(packet, field.name) != getattr(blank, field.name), \
                field.name


def test_copy_carries_every_field_and_shares_nothing_mutable():
    packet = _full_packet()
    dup = packet.copy()
    assert dup.uid != packet.uid
    assert packet.copy().uid > dup.uid            # fresh each time
    for field in dataclasses.fields(Packet):
        if field.name == "uid":
            continue
        mine, theirs = getattr(packet, field.name), getattr(dup, field.name)
        assert mine == theirs, field.name
        if field.name in HEADERS or field.name == "meta":
            assert mine is not theirs, field.name
    # Every header field arrived (equality above) and none is shared:
    # mutating each field of the copy leaves the original untouched.
    before = dataclasses.asdict(packet)
    for name, cls in HEADERS.items():
        header = getattr(dup, name)
        for field in dataclasses.fields(cls):
            setattr(header, field.name, _other(getattr(header, field.name)))
    dup.meta["lg_protect"] = False
    dup.meta["new"] = 1
    dup.size += 3
    dup.kind = PacketKind.DATA
    assert dataclasses.asdict(packet) == before


@pytest.mark.parametrize("name", sorted(HEADERS))
def test_header_copy_is_complete(name):
    header = _filled(HEADERS[name])
    dup = header.copy()
    assert dup == header and dup is not header
    assert type(dup) is HEADERS[name]


def test_copy_of_a_bare_packet_keeps_absent_headers_absent():
    dup = Packet(size=64).copy()
    assert (dup.tcp, dup.rdma, dup.lg, dup.lg_ack, dup.meta) == (
        None, None, None, None, {})
