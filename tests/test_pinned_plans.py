"""Plans pinned on random sessions, so a change to the solver can be checked
for identical output: the migrate set, the rerun list, the exact cost, and
the names of an infeasible plan.

``data/pinned_plans.json`` holds one line per plan: 300 generated sessions
(seeds 0-299) of varied shape with random ``always_copy`` and
``always_recompute`` annotations, each planned at bandwidths 1, 1e4 and 1e9.
A change that means to alter plans rewrites the file with

    PYTHONPATH=src python tests/test_pinned_plans.py
"""

import json
import random
from pathlib import Path

from statecut.errors import Infeasible
from statecut.gen import GenParams, generate_trace
from statecut.planner import plan_session
from statecut.trace import run_trace

PINNED = Path(__file__).parent / "data" / "pinned_plans.json"
SEEDS = range(300)
BANDWIDTHS = (1.0, 1e4, 1e9)


def pinned_session(seed: int):
    """Session ``seed``: its shape and annotations drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    params = GenParams(
        cells=rng.randint(5, 60),
        variables=rng.randint(2, 15),
        alias_density=rng.uniform(0.0, 0.9),
        unserializable_rate=rng.uniform(0.0, 0.3),
        never_rerun_rate=rng.uniform(0.0, 0.2),
        nondet_rate=rng.uniform(0.0, 0.1),
        delete_rate=rng.uniform(0.0, 0.2),
    )
    session, _ = run_trace(generate_trace(params, seed))
    for name in sorted(session.history.active_snapshots()):
        draw = rng.random()
        if draw < 0.1:
            session.annotations[name] = "always_copy"
        elif draw < 0.2:
            session.annotations[name] = "always_recompute"
    return session


def plan_outcomes() -> list[dict]:
    """Every pinned plan as one JSON-ready record, in seed then bandwidth order."""
    outcomes = []
    for seed in SEEDS:
        session = pinned_session(seed)
        for bandwidth in BANDWIDTHS:
            record = {"seed": seed, "bandwidth": bandwidth}
            try:
                plan = plan_session(session, bandwidth=bandwidth)
            except Infeasible as err:
                record["infeasible"] = list(err.variables)
            else:
                record.update(migrate=sorted(plan.migrate), rerun=plan.rerun, cost_s=float.hex(plan.cost_s))
            outcomes.append(record)
    return outcomes


def test_plans_match_the_pinned_ones():
    pinned = json.loads(PINNED.read_text())
    assert len(pinned) == len(SEEDS) * len(BANDWIDTHS)
    for want, got in zip(pinned, plan_outcomes()):
        assert got == want


if __name__ == "__main__":
    lines = [json.dumps(record, separators=(",", ":")) for record in plan_outcomes()]
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text("[\n" + ",\n".join(lines) + "\n]\n")
