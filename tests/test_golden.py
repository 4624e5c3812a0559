"""The pinned outputs of tests/golden.json, recomputed: every float within
1e-12 of its recorded value, and every file byte for byte where the numpy
version and machine are the ones that wrote it (another BLAS may round a
matmul differently). Regenerate with tests/make_golden.py."""

import json
import math

import numpy as np
import pytest

from tests.make_golden import GOLDEN, decode, outputs, platform_key

TOL = 1e-12


def parsed(name, blob):
    """A file's content as a tree of floats and strings."""
    if name.endswith(".json"):
        return json.loads(blob)
    if name.endswith(".csv"):
        return [[_cell(c) for c in line.split(",")] for line in blob.decode().splitlines()]
    # a checkpoint: its header, then its f64 parameters
    n_layers = int.from_bytes(blob[4:8], "little")
    offset = 8 + 4 * n_layers
    return [blob[:offset].hex(), *np.frombuffer(blob, "<f8", offset=offset).tolist()]


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def assert_close(got, want, where):
    if isinstance(want, float) and isinstance(got, float):
        close = abs(got - want) <= TOL * max(1.0, abs(want))
        assert close or (math.isnan(got) and math.isnan(want)), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}/{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def golden_and_fresh(tmp_path_factory):
    golden = json.loads(GOLDEN.read_text())
    fresh = outputs(tmp_path_factory.mktemp("golden"))
    return golden, fresh


def test_same_outputs_as_recorded(golden_and_fresh):
    golden, fresh = golden_and_fresh
    assert sorted(fresh) == sorted(golden["files"])
    for name, text in golden["files"].items():
        assert_close(parsed(name, fresh[name]), parsed(name, decode(name, text)), name)


def test_same_bytes_on_the_recording_platform(golden_and_fresh):
    golden, fresh = golden_and_fresh
    if {key: golden[key] for key in platform_key()} != platform_key():
        pytest.skip("recorded under another numpy version or machine")
    for name, text in golden["files"].items():
        assert fresh[name] == decode(name, text), name
