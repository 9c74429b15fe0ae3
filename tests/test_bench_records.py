"""Every checked-in BENCH_<n>.json must keep the schema of the benchmark
trail: each workload's parent and change medians carry exactly the
end-to-end metrics that BENCHMARK.json declares, over at least 5 runs a
side. BENCHMARK.json is only read."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_schema(path):
    record = json.loads(path.read_text())
    assert {"schema", "parent", "change", "workloads"} <= set(record)
    assert record["workloads"]
    for name, w in record["workloads"].items():
        for side in ("parent", "change"):
            assert set(w[side]) == END_TO_END, f"{name} {side}"
            assert len(w[f"{side}_runs"]) >= 5, f"{name} {side}_runs"
