"""Monitor records pinned by digest, so a change to ``run_cell`` can be
checked for identical output: the records are the monitor's contract, and
every planner, checkpoint and restore downstream reads them.

``data/pinned_records.json`` holds one line per trace: its name, its
``GenParams`` fields, its generator seed and the sha256 of its record
sequence, each record as t, sorted accessed snapshots, sorted written,
created and deleted names, and failed_at. The first three are the first
trace of each benchmark shape (``bench/workloads.py``) at generator seed
100; the rest are random draws whose unhashable, nondeterministic and
delete rates are all above 0, with a bad op put into about a tenth of their
cells, so some cells fail part-way. A change that means to alter records
rewrites the file with

    PYTHONPATH=src python tests/test_pinned_records.py
"""

import hashlib
import json
import random
from pathlib import Path

from statecut.gen import GenParams, generate_trace
from statecut.trace import run_trace

from sessions import with_failing_cells
from test_pinned_traces import BENCH_SEED, BENCH_SHAPES

PINNED = Path(__file__).parent / "data" / "pinned_records.json"
DRAWS = range(40)
FAIL_RATE = 0.1


def drawn_params(draw: int) -> dict:
    """The ``GenParams`` fields of draw ``draw``, from ``random.Random(draw)``."""
    rng = random.Random(draw)
    return dict(
        cells=rng.randint(1, 200),
        variables=round(2 * 150 ** rng.random()),  # 2 to 300, log-uniform
        alias_density=rng.uniform(0.0, 1.0),
        unserializable_rate=rng.uniform(0.0, 0.3),
        unhashable_rate=rng.uniform(0.01, 0.5),
        never_rerun_rate=rng.uniform(0.0, 0.3),
        nondet_rate=rng.uniform(0.01, 0.5),
        delete_rate=rng.uniform(0.01, 0.5),
    )


def pinned_cases() -> list[tuple[str, dict, int]]:
    """Every pinned trace as (name, ``GenParams`` fields, generator seed)."""
    cases = [(name, params, BENCH_SEED) for name, params in BENCH_SHAPES.items()]
    cases += [(f"draw-{draw}", drawn_params(draw), draw) for draw in DRAWS]
    return cases


def records_digest(name: str, params: dict, seed: int) -> str:
    """The sha256 of the records ``run_trace`` makes for the generated
    trace, failing cells put in for a random draw."""
    trace = generate_trace(GenParams(**params), seed)
    if name.startswith("draw-"):
        trace = with_failing_cells(trace, random.Random(seed), FAIL_RATE)
    _, records = run_trace(trace)
    rows = [
        [rec.t, sorted(rec.accessed), sorted(rec.written), sorted(rec.created), sorted(rec.deleted),
         rec.failed_at]
        for rec in records
    ]
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def pinned_digests() -> list[str]:
    return [records_digest(*case) for case in pinned_cases()]


def test_cases_match_the_pinned_file():
    pinned = json.loads(PINNED.read_text())
    assert [(p["name"], p["params"], p["seed"]) for p in pinned] == pinned_cases()
    draws = [p for p in pinned if p["name"].startswith("draw-")]
    assert len(draws) >= 40
    for p in draws:
        assert min(p["params"][rate] for rate in ("unhashable_rate", "nondet_rate", "delete_rate")) > 0


def test_records_match_the_pinned_digests():
    pinned = json.loads(PINNED.read_text())
    for want, got in zip(pinned, pinned_digests(), strict=True):
        assert got == want["sha256"], want["name"]


if __name__ == "__main__":
    lines = [
        json.dumps({"name": name, "params": params, "seed": seed, "sha256": digest}, separators=(",", ":"))
        for (name, params, seed), digest in zip(pinned_cases(), pinned_digests())
    ]
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text("[\n" + ",\n".join(lines) + "\n]\n")
