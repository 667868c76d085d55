"""Hostile input to every reader of an outside file: whatever the bytes,
only a TrifuseError subclass may escape, and a huge claimed NPY shape is
refused before anything is allocated."""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from trifuse.data import load_manifest, parse_labels, read_npy, write_npy
from trifuse.errors import FormatError, TrifuseError
from trifuse.events import EventStream, read_event_file
from trifuse.metrics import read_detections_jsonl, read_ground_truth_jsonl

# derandomized so that the suite is a deterministic gate; tmp_path is shared
# by the examples of one test, each of which rewrites the same file
FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

READERS = {
    "read_npy": read_npy,
    "parse_labels": parse_labels,
    "read_event_file": read_event_file,
    "read_detections_jsonl": read_detections_jsonl,
    "read_ground_truth_jsonl": read_ground_truth_jsonl,
    "load_manifest": lambda p: load_manifest(p, check_files=False),
}

# tokens the readers give meaning to, so that examples get past the first check
TOKENS = ["0", "1", "-1", "0.5", "1e309", "nan", "-inf", "abc", "#", " ", "\t",
          "{", "}", "[", "]", ":", ",", '"', '"image_id"', '"bbox"', '"score"', '"class"',
          '"image"', '"labels"', '"day_night"', '"day"', "true", "null", "NaN", "Infinity"]
text_files = st.lists(
    st.lists(st.sampled_from(TOKENS), max_size=12).map("".join), max_size=6,
).map(lambda lines: "\n".join(lines).encode())
non_utf8 = st.tuples(text_files, st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80abc"]),
                     st.integers(0, 200)).map(lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:])
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 2**70), st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(["image_id", "bbox", "score", "class",
                                                             "image", "labels", "day_night"]),
                                            inner, max_size=4)),
    max_leaves=10,
)
json_files = st.lists(json_values, max_size=4).map(
    lambda recs: "\n".join(json.dumps(r) for r in recs).encode())
any_bytes = st.one_of(st.binary(max_size=300), text_files, non_utf8, json_files,
                      json_values.map(lambda v: json.dumps(v).encode()))


def only_trifuse_errors(reader, path):
    try:
        reader(path)
    except TrifuseError:
        pass


@pytest.mark.parametrize("name", sorted(READERS))
@FUZZ
@given(data=any_bytes)
def test_arbitrary_bytes_raise_only_trifuse_errors(tmp_path, name, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    only_trifuse_errors(READERS[name], path)


# event lines of four integer fields, some beyond int64, now and then a comment
event_files = st.lists(
    st.one_of(st.lists(st.one_of(st.integers(-2, 6), st.integers(-2**70, 2**70)), min_size=4, max_size=4)
              .map(lambda fields: " ".join(map(str, fields))), st.just("# t x y p")),
    max_size=6,
).map(lambda lines: "\n".join(lines).encode())


@FUZZ
@given(data=st.one_of(event_files, text_files))
def test_event_file_into_event_stream_raises_only_trifuse_errors(tmp_path, data):
    path = tmp_path / "events.txt"
    path.write_bytes(data)
    only_trifuse_errors(lambda p: EventStream(*read_event_file(p), sensor_size=(4, 5)), path)


# ---------------------------------------------------------------------------
# NPY headers with one field mutated


def npy_bytes(header, data=b""):
    """A v1.0 file with ``header`` written verbatim (any dict repr or text)."""
    text = (header if isinstance(header, str) else repr(header)).encode("latin1", "replace")
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text)) + text + data


VALID = {"descr": "<f4", "fortran_order": False, "shape": (2, 3)}
header_values = st.one_of(
    st.integers(-2**40, 2**70), st.floats(), st.booleans(), st.none(), st.text(max_size=6),
    st.sampled_from(["<f4", ">f8", "|u1", "<c8", "O", "<U3", "V4", "f", "", "<f2", "?"]),
    st.lists(st.one_of(st.integers(-5, 10**12), st.floats(), st.text(max_size=2)),
             max_size=4).map(tuple),
    st.lists(st.tuples(st.text(max_size=2), st.sampled_from(["<f4", "x", ""])), max_size=2),
)
mutations = st.one_of(
    st.tuples(st.sampled_from(sorted(VALID)), header_values).map(lambda kv: {**VALID, kv[0]: kv[1]}),
    st.sampled_from(sorted(VALID)).map(lambda k: {f: v for f, v in VALID.items() if f != k}),
    st.sampled_from(["[1, 2]", "'descr'", "{[1]: 2}", "{", "{'shape': (", "{'shape': 10**9}"]),
)


@FUZZ
@given(header=mutations, n_data=st.integers(0, 30))
def test_mutated_npy_header_raises_only_trifuse_errors(tmp_path, header, n_data):
    path = tmp_path / "x.npy"
    path.write_bytes(npy_bytes(header, bytes(n_data)))
    only_trifuse_errors(read_npy, path)


@FUZZ
@given(cut=st.integers(0, 10**6))
def test_truncated_npy_raises_format_error(tmp_path, cut):
    path = tmp_path / "x.npy"
    write_npy(path, np.arange(6, dtype=np.float32).reshape(2, 3))
    data = path.read_bytes()
    path.write_bytes(data[:cut % len(data)])
    with pytest.raises(FormatError):
        read_npy(path)


# ---------------------------------------------------------------------------
# the failures reproduced against the earlier readers


def raises_at(reader, path, where=None):
    """The reader raises FormatError whose message starts with ``path`` or
    with ``where``."""
    with pytest.raises(FormatError) as info:
        reader(path)
    assert str(info.value).startswith(f"{where or path}"), str(info.value)


@pytest.mark.parametrize("header", [
    {**VALID, "shape": (100000, 100000, 5)},
    {**VALID, "shape": (-1, 3)},
    {**VALID, "shape": (2.5, 3)},
    {**VALID, "shape": (True, 3)},
    {"descr": "<f4", "shape": (2, 3)},
    {**VALID, "fortran_order": 1},
    {**VALID, "descr": ("<f4",)},
    "[2, 3]",
    "{",
], ids=["huge", "negative", "float", "bool", "no-fortran_order", "int-fortran_order",
        "short-descr-tuple", "non-dict", "unclosed"])
def test_hostile_npy_header(tmp_path, header):
    # more data than a (2, 3) float32 array needs, so that only the header is wrong
    path = tmp_path / "x.npy"
    path.write_bytes(npy_bytes(header, bytes(64)))
    raises_at(read_npy, path)


def test_huge_shape_refused_before_allocating(tmp_path):
    # the header claims 40 MB of float64 that the file does not hold
    path = tmp_path / "x.npy"
    path.write_bytes(npy_bytes({**VALID, "descr": "<f8", "shape": (1000, 1000, 5)}, bytes(16)))
    tracemalloc.start()
    try:
        raises_at(read_npy, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


FIRST_LINES = {
    "parse_labels": "0 0.5 0.5 0.2 0.1",
    "read_event_file": "100 2 1 1",
    "read_detections_jsonl": '{"image_id": "a", "bbox": [0, 0, 5, 5], "score": 0.5}',
    "read_ground_truth_jsonl": '{"image_id": "a", "bbox": [0, 0, 5, 5]}',
    "load_manifest": "[",
}


@pytest.mark.parametrize("name", sorted(FIRST_LINES))
def test_non_utf8_byte_names_its_line(tmp_path, name):
    path = tmp_path / "input"
    path.write_bytes(FIRST_LINES[name].encode() + b"\n\xff\n")
    raises_at(READERS[name], path, f"{path}:2: not UTF-8")


@pytest.mark.parametrize("field", [0, 3])
@pytest.mark.parametrize("value", [2**63, -2**63 - 1])
def test_event_field_beyond_int64_names_its_line(tmp_path, field, value):
    fields = [100, 2, 1, 1]
    fields[field] = value
    path = tmp_path / "events.txt"
    path.write_text("100 2 1 1\n" + " ".join(map(str, fields)) + "\n")
    raises_at(read_event_file, path, f"{path}:2: ")


@pytest.mark.parametrize("name", ["read_detections_jsonl", "read_ground_truth_jsonl", "load_manifest"])
def test_deeply_nested_json(tmp_path, name):
    path = tmp_path / "input"
    path.write_text("[" * 100000 + "\n")
    raises_at(READERS[name], path)


def test_malformed_manifest_names_its_line(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('[\n{"image": "a.npy",\n')
    raises_at(READERS["load_manifest"], path, f"{path}:3: malformed JSON")
