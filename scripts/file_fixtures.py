#!/usr/bin/env python3
"""Writes the checked-file fixtures and the file fuzz corpus derived from them.

  file_fixtures.py           rewrite every file below
  file_fixtures.py --check   exit 1 unless every file matches, byte for byte

A second implementation of the index layout (QBSIDX04,
src/core/serialization.h), the graph cache layout (QBSGRF04,
src/graph/dataset_io.h) and Checksum64 (src/util/binary_io.h), sharing no
code with the C++ writer. So the committed files pin all three: the C++
writer must reproduce the fixtures byte for byte (the
WriterReproducesFixtureBytes tests) and the loaders must accept them.

Each fixture's body, everything between its 8-byte magic and its 8-byte
trailer, is read from the committed file whatever the magic's version
digit, parsed by its layout, and written under today's magic and digest.
The seeds in tests/fuzz/file_corpus/ are derived from the two fixtures:
cuts at every field boundary, header fields overwritten, and body errors
behind a recomputed trailer (see that directory's README.md).
"""

import os
import struct
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INDEX_FIXTURE = os.path.join("tests", "data", "ba200_r6_v4.qbsidx")
CACHE_FIXTURE = os.path.join("tests", "data", "tiny_edges.qbsgrf")
CORPUS = os.path.join("tests", "fuzz", "file_corpus")

INDEX_FAMILY = b"QBSIDX0"
CACHE_FAMILY = b"QBSGRF0"
VERSION = b"4"

MASK = (1 << 64) - 1
# Checksum64's lane seeds: the first four 64-bit words of pi's fraction.
SEEDS = (0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0,
         0x082EFA98EC4E6C89)


def step(h, w):
    h = ((h << 29) | (h >> 35)) & MASK
    return ((h ^ w) * 0x9E3779B97F4A7C15) & MASK


def checksum64(data):
    """Checksum64 of `data`: word i (8 bytes, little-endian, the last one
    zero-padded) goes to lane i mod 4; the lanes are folded into one word
    with the same step, then the length and murmur3's fmix64."""
    padded = data + bytes(-len(data) % 8)
    lanes = list(SEEDS)
    for i, (w,) in enumerate(struct.iter_unpack("<Q", padded)):
        lanes[i % 4] = step(lanes[i % 4], w)
    h = lanes[0]
    for lane in lanes[1:]:
        h = step(h, lane)
    h ^= len(data)
    h = ((h ^ (h >> 33)) * 0xFF51AFD7ED558CCD) & MASK
    h = ((h ^ (h >> 33)) * 0xC4CEB9FE1A85EC53) & MASK
    return h ^ (h >> 33)


def with_trailer(body):
    """`body` followed by its checksum, as BinaryWriter::Commit writes it."""
    return body + struct.pack("<Q", checksum64(body))


def resum(data):
    """`data` with its last 8 bytes replaced by the checksum of the rest."""
    return with_trailer(data[:-8])


class Layout:
    """Walks a checked file's fields, recording each one's byte span."""

    def __init__(self, data):
        self.data = data
        self.at = 0
        self.spans = {}

    def take(self, name, size):
        if self.at + size > len(self.data) - 8:
            raise ValueError("field %s runs into the trailer" % name)
        self.spans[name] = (self.at, self.at + size)
        self.at += size

    def scalar(self, name, fmt):
        self.take(name, struct.calcsize(fmt))
        return struct.unpack_from("<" + fmt, self.data, self.spans[name][0])[0]

    def end(self):
        if self.at != len(self.data) - 8:
            raise ValueError("%d bytes between the body and the trailer"
                             % (len(self.data) - 8 - self.at))
        return self.spans


def index_layout(data):
    """The fields of an index file: serialization.h's layout."""
    f = Layout(data)
    f.take("magic", 8)
    n = f.scalar("vertices", "I")
    k = f.scalar("landmark_count", "I")
    f.take("landmarks", 4 * k)
    f.take("labels", 2 * n * k)
    edges = f.scalar("meta_edge_count", "Q")
    f.take("meta_edges", 12 * edges)  # (u32 a, u32 b, u32 weight) each
    return f.end()


def cache_layout(data):
    """The fields of a graph cache file: dataset_io.h's layout."""
    f = Layout(data)
    f.take("magic", 8)
    n = f.scalar("vertices", "I")
    m = f.scalar("edges", "Q")
    f.scalar("largest_cc", "B")
    for name in ("raw_vertices", "raw_edges", "raw_file_bytes"):
        f.scalar(name, "Q")
    f.take("offsets", 8 * (n + 1))
    f.take("adjacency", 4 * 2 * m)
    return f.end()


def cache_file(n, m, largest_cc, raw, offsets, adjacency):
    """A graph cache file with the given header, raw counts and CSR."""
    body = CACHE_FAMILY + VERSION + struct.pack("<IQB3Q", n, m, largest_cc,
                                                *raw)
    body += struct.pack("<%dQ" % len(offsets), *offsets)
    body += struct.pack("<%dI" % len(adjacency), *adjacency)
    return with_trailer(body)


def get(data, spans, field, fmt, i=0):
    at = spans[field][0] + i * struct.calcsize(fmt)
    return struct.unpack_from("<" + fmt, data, at)[0]


def put(data, spans, field, fmt, value, i=0):
    """`data` with element i of `field` overwritten by `value`."""
    at = spans[field][0] + i * struct.calcsize(fmt)
    out = bytearray(data)
    struct.pack_into("<" + fmt, out, at, value)
    return bytes(out)


def with_version(data, digit):
    return data[:7] + digit + data[8:]


def cuts(prefix, ext, data, spans):
    """The file cut to its first N bytes at every field boundary."""
    ends = sorted({end for _, end in spans.values()})
    return {"%s_cut_%d.%s" % (prefix, end, ext): data[:end] for end in ends}


def index_seeds(index):
    spans = index_layout(index)
    seeds = {"index_full.qbsidx": index}
    seeds.update(cuts("index", "qbsidx", index, spans))
    for digit in (b"2", b"3"):
        seeds["index_flip_magic_v%s.qbsidx" % digit.decode()] = \
            with_version(index, digit)
    seeds["index_flip_huge_vertices.qbsidx"] = \
        put(index, spans, "vertices", "I", 1 << 31)
    seeds["index_flip_huge_landmarks.qbsidx"] = \
        put(index, spans, "landmark_count", "I", 0xFFFFFFFF)
    seeds["index_flip_huge_meta_edges.qbsidx"] = \
        put(index, spans, "meta_edge_count", "Q", 1 << 60)
    # The second landmark := the first.
    first = get(index, spans, "landmarks", "I", 0)
    seeds["index_dup_landmark_rechecksummed.qbsidx"] = \
        resum(put(index, spans, "landmarks", "I", first, 1))
    # The first meta-edge's b := its a.
    a = get(index, spans, "meta_edges", "I", 0)
    seeds["index_self_meta_edge_rechecksummed.qbsidx"] = \
        resum(put(index, spans, "meta_edges", "I", a, 1))
    return seeds


def cache_seeds(cache):
    spans = cache_layout(cache)
    seeds = {"cache_full.qbsgrf": cache}
    seeds.update(cuts("cache", "qbsgrf", cache, spans))
    for digit in (b"1", b"2", b"3"):
        seeds["cache_flip_magic_v%s.qbsgrf" % digit.decode()] = \
            with_version(cache, digit)
    seeds["cache_flip_huge_vertices.qbsgrf"] = \
        put(cache, spans, "vertices", "I", 0xFFFFFFFF)
    seeds["cache_flip_huge_edges.qbsgrf"] = \
        put(cache, spans, "edges", "Q", 1 << 63)
    seeds["cache_flip_cc_flag.qbsgrf"] = \
        put(cache, spans, "largest_cc", "B", 2)
    # The last adjacency entry := n, one past the last vertex.
    n = get(cache, spans, "vertices", "I")
    last = (spans["adjacency"][1] - spans["adjacency"][0]) // 4 - 1
    seeds["cache_bad_csr_rechecksummed.qbsgrf"] = \
        resum(put(cache, spans, "adjacency", "I", n, last))
    # Offsets that overshoot the adjacency and then drop back: a check
    # that reads a list before it has seen every offset walks off the end.
    seeds["cache_offsets_overrun_rechecksummed.qbsgrf"] = cache_file(
        10, 1, 0, (10, 1, 0), [0, 100] + [2] * 9, [1, 2])
    return seeds


def rewritten(path, family, layout):
    """The committed fixture's body under today's magic and digest."""
    with open(os.path.join(ROOT, path), "rb") as f:
        data = f.read()
    if data[:7] != family:
        raise ValueError("%s: not a %s* file" % (path, family.decode()))
    layout(data)
    return with_trailer(family + VERSION + data[8:-8])


def main(argv):
    if argv not in ([], ["--check"]):
        sys.stderr.write(__doc__)
        return 2
    index = rewritten(INDEX_FIXTURE, INDEX_FAMILY, index_layout)
    cache = rewritten(CACHE_FIXTURE, CACHE_FAMILY, cache_layout)
    files = {INDEX_FIXTURE: index, CACHE_FIXTURE: cache}
    for name, data in {**index_seeds(index), **cache_seeds(cache)}.items():
        files[os.path.join(CORPUS, name)] = data

    if not argv:
        for path, data in sorted(files.items()):
            with open(os.path.join(ROOT, path), "wb") as f:
                f.write(data)
        print("file_fixtures: wrote %d files" % len(files))
        return 0

    bad = 0
    for path, data in sorted(files.items()):
        try:
            with open(os.path.join(ROOT, path), "rb") as f:
                committed = f.read()
        except OSError:
            committed = None
        if committed != data:
            print("file_fixtures: %s differs from its derivation" % path)
            bad += 1
    for name in sorted(os.listdir(os.path.join(ROOT, CORPUS))):
        path = os.path.join(CORPUS, name)
        if name.endswith((".qbsidx", ".qbsgrf")) and path not in files:
            print("file_fixtures: note: %s is not derived here" % path)
    print("file_fixtures: %d of %d files match" % (len(files) - bad,
                                                    len(files)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
