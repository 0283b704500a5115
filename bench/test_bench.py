"""Self-tests of the benchmark's own arithmetic and input generation.

    python3 -m pytest bench/test_bench.py
"""

import json

from run import tail_latency
from spans import self_times
from workloads import session


def test_self_times_of_a_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, "r"],
        ["a", 1.0, 4.0, 0, "r"],
        ["a1", 2.0, 3.0, 1, "r"],
        ["b", 5.0, 9.0, 0, "r"],
        ["a", 9.0, 9.5, 0, "r"],
    ]
    st = self_times(spans)
    assert st == {"root": 2.5, "a": 2.5, "a1": 1.0, "b": 4.0}
    assert sum(st.values()) == 10.0
    assert self_times(spans, lambda run_id: 2.0)["b"] == 8.0


def test_self_times_subtract_overlapping_children_once():
    spans = [["root", 0.0, 10.0, -1, "r"],
             ["a", 1.0, 4.0, 0, "r"],
             ["b", 3.0, 6.0, 0, "r"],
             ["c", 8.0, 12.0, 0, "r"]]   # clipped to the parent's interval
    assert self_times(spans)["root"] == 10.0 - 5.0 - 2.0


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, pct = tail_latency([float(x) for x in range(100, 0, -1)])
    assert value == 90.0 and pct == 90.0
    assert tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_same_seed_same_session():
    calls, files = session(7)
    again, again_files = session(7)
    assert [c["argv"] for c in calls] == [c["argv"] for c in again]
    assert files == again_files


def test_other_seed_other_session():
    calls, files = session(7)
    other, other_files = session(8)
    assert [c["argv"] for c in calls] != [c["argv"] for c in other]
    assert files != other_files


def test_session_is_checkable():
    calls, files = session(3)
    outs = [c["argv"][-1] for c in calls]
    assert len(set(outs)) == len(calls)
    first = {}
    for call in calls:
        if "--cache-dir" in call["argv"]:
            item = tuple(call["argv"][:call["argv"].index("--format")])
            first.setdefault(item, call["argv"][call["argv"].index("--format") + 1])
    assert len(first) == 13 and set(first.values()) == {"json"}
    for i, call in enumerate(calls):
        if "same_as" in call:
            saved = outs.index(call["argv"][2])
            assert saved < i and outs[saved].endswith(".json")
            assert outs[call["same_as"]].rsplit(".", 1)[1] == outs[i].rsplit(".", 1)[1]
        if "profile" in call:
            module = json.loads(files[call["argv"][2]])
            assert sum(int(k) * v for k, v in call["profile"].items()) == module["dim"]
