"""Smoke test of the benchmark itself: every workload once on a tiny grid.

    python3 -m pytest perfbench -q

It checks the benchmark's plumbing, not the pipeline's accuracy: tiny grids
are too coarse to meet the acceptance bounds, so `correct` is not asserted.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (also puts the checkout's src/ on sys.path)
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# every end-to-end metric the benchmark prints, by workload
PRINTED = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio",
           "residual_margin_log10": "log10"}
PRINTED_BY_WORKLOAD = {
    "surface": {"nodes_per_s": "1/s", "H_spread": "ratio"},
    "verify": {"checks_per_s": "1/s"},
    "generate": {"nodes_per_s": "1/s", "H_spread": "ratio"},
}


def _run(capsys, workload: str, trace: int):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, tiny=True) == 0
    lines = capsys.readouterr().out.splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return printed, json.loads(lines[-1])


def _assert_result(printed: dict, result: dict, spec: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, m in result["metrics"].items():
        assert printed[name] == (m["value"], m["unit"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_smoke(workload, capsys, monkeypatch):
    originals = spans.originals()
    wrapped_at_call = []
    wl = workloads.WORKLOADS[workload]

    def probe(*args):
        wrapped_at_call.append(spans.originals() != originals)
        return wl.call(*args)

    monkeypatch.setitem(workloads.WORKLOADS, workload, dataclasses.replace(wl, call=probe))

    printed, result = _run(capsys, workload, 0)
    for name, unit in {**PRINTED, **PRINTED_BY_WORKLOAD[workload]}.items():
        assert printed[name][1] == unit, name
    _assert_result(printed, result, BENCH["end_to_end"])
    assert not any(wrapped_at_call)          # untraced: nothing wrapped, ever

    wrapped_at_call.clear()
    traced = [_run(capsys, workload, 1) for _ in range(2)]
    for printed, result in traced:
        _assert_result(printed, result, BENCH["per_layer"])
    # warm-up, then untraced and traced halves of each pair
    assert wrapped_at_call[:3] == [False, False, True]
    for name in run.FIRST_OP:
        assert traced[0][0][name] == traced[1][0][name], name
    assert spans.originals() == originals    # every original restored
