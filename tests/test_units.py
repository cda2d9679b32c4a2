"""Unit tests for unit conversions and wire-format constants."""

from repro import units


def test_mtu_wire_size_matches_paper():
    # The paper counts a standard MTU frame as 1538 octets on the wire.
    assert units.wire_bytes(units.MTU_FRAME) == 1538
    assert units.MTU_WIRE == 1538


def test_unit_scales():
    assert units.US == 1_000 * units.NS and units.SEC == 1_000 * units.MS
    assert units.MB == 1_000 * units.KB


def test_mtu_frame_carries_the_ip_mtu():
    # 14 B Ethernet header + 4 B FCS around the 1500 B IP MTU.
    assert units.MTU_FRAME - units.MTU_PAYLOAD == 18


def test_min_frame_padding():
    # Even a tiny control frame occupies 64 + 20 bytes of wire time.
    assert units.wire_bytes(1) == 84
    assert units.wire_bytes(64) == 84


def test_serialization_100g_mtu():
    # 1538 B * 8 / 100G = 123.04 ns -> 124 with ceil rounding.
    delay = units.serialization_ns(units.MTU_FRAME, units.gbps(100))
    assert delay == 124


def test_serialization_25g_mtu():
    delay = units.serialization_ns(units.MTU_FRAME, units.gbps(25))
    assert 492 <= delay <= 493


def test_serialization_rounds_up():
    # Never return 0: every frame occupies at least 1 ns.
    assert units.serialization_ns(1, units.gbps(1000)) >= 1


def test_bytes_in_time_roundtrip():
    rate = units.gbps(100)
    duration = units.US
    assert units.bytes_in_time(duration, rate) == 12_500


def test_gbps_helper():
    assert units.gbps(25) == 25_000_000_000
    assert units.gbps(0.5) == 500_000_000
