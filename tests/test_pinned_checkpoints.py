"""Checkpoints pinned by digest, so a change to the planner, the checkpoint
writer, the reader or the restorer can be checked for identical output.

``data/pinned_checkpoints.json`` holds one line per session: its name, its
``GenParams`` fields, its generator seed, the share of its cells made to
fail (``sessions.with_failing_cells``, seeded by the generator seed) and
what the pipeline gave for it: the sha256 of the plan's JSON, of the bytes
``write_checkpoint`` writes and of the ``verify`` report of the restored
heap against the original, the variables the restore recomputed after they
failed to load, and the failed cells and tombstones the checkpoint's
lineage holds. The first three sessions are the first trace of each
benchmark shape at generator seed 100, as ``test_pinned_traces`` pins them,
restored as the benchmark restores them; the rest are random draws with
failed cells, deletions and undeserializable objects, restored with a load
fault injected for every name whose characters' code points sum to a
multiple of 3. A change that means to alter checkpoints rewrites the file with

    PYTHONPATH=src python tests/test_pinned_checkpoints.py
"""

import hashlib
import json
import random
import tempfile
from pathlib import Path

from statecut.errors import Infeasible, Unreconstructable
from statecut.gen import GenParams, generate_trace
from statecut.planner import plan_session
from statecut.replicator import read_checkpoint, restore, verify, write_checkpoint
from statecut.trace import run_trace

from sessions import with_failing_cells
from test_pinned_traces import BENCH_SEED, BENCH_SHAPES

PINNED = Path(__file__).parent / "data" / "pinned_checkpoints.json"
DRAWS = range(40)


def drawn_params(draw: int) -> tuple[dict, float]:
    """The ``GenParams`` fields and the failing share of draw ``draw``, from
    ``random.Random(draw)``."""
    rng = random.Random(draw)
    params = dict(
        cells=rng.randint(10, 120),
        variables=rng.randint(2, 40),
        alias_density=rng.uniform(0.0, 1.0),
        unserializable_rate=rng.uniform(0.0, 0.2),
        undeserializable_rate=rng.uniform(0.05, 0.5),
        never_rerun_rate=rng.uniform(0.0, 0.05),
        delete_rate=rng.uniform(0.05, 0.3),
        bandwidth_bytes_per_s=10 ** rng.uniform(4.0, 9.0),
        alpha=rng.uniform(0.0, 1.0),
    )
    return params, rng.uniform(0.05, 0.3)


def pinned_cases() -> list[tuple[str, dict, int, float]]:
    """Every pinned session as (name, ``GenParams`` fields, generator seed,
    failing share)."""
    cases = [(name, params, BENCH_SEED, 0.0) for name, params in BENCH_SHAPES.items()]
    for draw in DRAWS:
        params, fail_rate = drawn_params(draw)
        cases.append((f"draw-{draw}", params, draw, fail_rate))
    return cases


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def injected_fault(name: str) -> bool:
    return sum(map(ord, name)) % 3 == 0


def outcome(params: dict, seed: int, fail_rate: float) -> dict:
    """What planning, checkpointing and restoring the session give; a
    session with failing cells is restored with ``injected_fault``."""
    trace = generate_trace(GenParams(**params), seed)
    if fail_rate:
        trace = with_failing_cells(trace, random.Random(seed), fail_rate)
    session, _ = run_trace(trace)
    try:
        plan = plan_session(session)
    except Infeasible as err:
        return {"infeasible": err.variables}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.ckpt"
        write_checkpoint(session, plan, path)
        checkpoint_sha = hashlib.sha256(path.read_bytes()).hexdigest()
        checkpoint = read_checkpoint(path)
    history = checkpoint.history
    found = {
        "plan": _digest(plan.to_json()),
        "checkpoint": checkpoint_sha,
        "failed_cells": sum(cell.failed for cell in history.cells.values()),
        "tombstones": len(history.deleted),
    }
    try:
        fault = injected_fault if fail_rate else None
        result = restore(checkpoint, trace.programs(), deserialization_fault=fault)
    except Unreconstructable as err:
        return {**found, "unreconstructable": str(err)}
    report = verify(session.heap, result.session.heap)
    return {**found, "verify": _digest(report.to_json()), "fallbacks": result.fallback_recomputed}


def pinned_outcomes() -> list[dict]:
    return [outcome(params, seed, fail_rate) for _, params, seed, fail_rate in pinned_cases()]


def test_cases_match_the_pinned_file():
    pinned = json.loads(PINNED.read_text())
    assert [(p["name"], p["params"], p["seed"], p["fail_rate"]) for p in pinned] == pinned_cases()
    draws = [p["outcome"] for p in pinned if p["name"].startswith("draw-")]
    restored = [o for o in draws if "verify" in o]
    assert len(restored) >= 30
    assert sum(o["failed_cells"] > 0 and o["tombstones"] > 0 for o in restored) >= 20
    assert sum(bool(o["fallbacks"]) for o in restored) >= 15


def test_checkpoints_match_the_pinned_outcomes():
    pinned = json.loads(PINNED.read_text())
    for want, got in zip(pinned, pinned_outcomes(), strict=True):
        assert got == want["outcome"], want["name"]


if __name__ == "__main__":
    lines = [
        json.dumps({"name": name, "params": params, "seed": seed, "fail_rate": fail_rate, "outcome": found},
                   separators=(",", ":"))
        for (name, params, seed, fail_rate), found in zip(pinned_cases(), pinned_outcomes())
    ]
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text("[\n" + ",\n".join(lines) + "\n]\n")
