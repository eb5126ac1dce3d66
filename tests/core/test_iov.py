"""Gather writes: every byte out, in order, IOV_MAX buffers a call."""

import os

from repro.core.iov import IOV_MAX, pwrite_gathered, write_gathered


def test_short_writes_resume_mid_buffer():
    parts = [b"ab", b"", b"cdefg", memoryview(b"hij")] + \
        [b"k"] * (IOV_MAX + 5)
    out = bytearray()
    calls = []

    def write(buffers):
        calls.append(len(buffers))
        taken = b"".join(bytes(buffer) for buffer in buffers)[:3]
        out.extend(taken)
        return len(taken)

    write_gathered(write, list(parts))
    assert bytes(out) == b"".join(bytes(part) for part in parts)
    assert max(calls) == IOV_MAX


def test_positioned_writes_land_at_their_offset(tmp_path):
    path = tmp_path / "slots"
    path.write_bytes(bytes(16))
    fd = os.open(path, os.O_RDWR)
    try:
        pwrite_gathered(fd, [b"page", memoryview(b"crc!")], 4)
    finally:
        os.close(fd)
    assert path.read_bytes() == bytes(4) + b"pagecrc!" + bytes(4)
