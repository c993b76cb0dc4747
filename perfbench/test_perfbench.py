"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
import workloads

HERE = Path(__file__).resolve().parent


def _digest(name, seed):
    return hashlib.sha256(workloads.canonical_inputs(name, seed, rounds=3)).hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    code = (
        "import workloads, hashlib\n"
        f"print(hashlib.sha256(workloads.canonical_inputs({name!r}, 7, rounds=3)).hexdigest())\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    child = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                           capture_output=True, text=True, timeout=60, check=True)
    assert child.stdout.strip() == _digest(name, 7) == _digest(name, 7)
    assert _digest(name, 8) != _digest(name, 7)


def test_self_time_of_nested_spans():
    # root [0, 10] has children a [1, 4], b [5, 9] and c [9.5, 11], which
    # runs past its parent; b's children overlap each other.
    spans = [
        (0, -1, 0, 0.0, 10.0),  # 0 root
        (1, 0, 0, 1.0, 4.0),  # 1 a
        (2, 1, 0, 2.0, 3.0),  # 2 a1
        (3, 0, 0, 5.0, 9.0),  # 3 b
        (4, 3, 0, 5.0, 6.0),  # 4 b1
        (4, 3, 0, 5.5, 7.0),  # 5 b2
        (5, 0, 0, 9.5, 11.0),  # 6 c
    ]
    got = tracer.self_times(spans)
    assert got == pytest.approx([10.0 - 7.5, 2.0, 1.0, 2.0, 1.0, 1.5, 1.5])

    rec = tracer.Tracer()
    rec.names = ["root", "a", "a1", "b", "b_child", "c"]
    rec.spans = spans
    agg = rec.aggregate()
    assert agg["b_child"][0] == 2
    assert agg["b_child"][1] == pytest.approx(2.5)
    assert agg["root"][1] == pytest.approx(2.5)
    assert sum(v[1] for v in agg.values()) == pytest.approx(10.0 - 7.5 + 2 + 1 + 2 + 2.5 + 1.5)


def test_wrapped_calls_nest_under_their_caller():
    rec = tracer.Tracer()

    def inner(x):
        return x + 1

    traced_inner = rec.wrap("inner", inner)

    def outer(x):
        return traced_inner(x) * 2

    traced_outer = rec.wrap("outer", outer)
    with rec.span("item"):
        assert traced_outer(1) == 4
    by_name = {rec.names[s[0]]: (i, s) for i, s in enumerate(rec.spans)}
    item_idx, item = by_name["item"]
    outer_idx, outer_span = by_name["outer"]
    _, inner_span = by_name["inner"]
    assert item[1] == -1 and outer_span[1] == item_idx and inner_span[1] == outer_idx
    assert item[3] <= outer_span[3] <= inner_span[3] <= inner_span[4] <= outer_span[4] <= item[4]
