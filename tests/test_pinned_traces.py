"""Generated traces pinned by digest, so a change to the generator can be
checked for byte-identical output: the random stream and the order of every
list the generator draws from are its contract.

``data/pinned_traces.json`` holds one line per trace: its name, its
``GenParams`` fields, its generator seed and the sha256 of the bytes
``save_trace`` writes for it. The first three are the first trace of each
benchmark shape (``bench/workloads.py``) at generator seed 100; the rest
are random draws with pools of 2 to 1000 names whose nondeterministic,
never-rerun and delete rates are all above 0, which no benchmark shape's
are. A change that means to alter traces rewrites the file with

    PYTHONPATH=src python tests/test_pinned_traces.py
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import statecut
from statecut.gen import GenParams, generate_trace
from statecut.trace import save_trace

PINNED = Path(__file__).parent / "data" / "pinned_traces.json"
DRAWS = range(60)
BENCH_SEED = 100
BENCH_SHAPES = {
    "long": dict(cells=8000, variables=20, alias_density=0.2,
                 unserializable_rate=0.05, delete_rate=0.02),
    "wide": dict(cells=400, variables=1000, alias_density=0.3,
                 unserializable_rate=0.05, undeserializable_rate=0.25,
                 delete_rate=0.02, bandwidth_bytes_per_s=1e8),
    "recompute": dict(cells=500, variables=60, alias_density=0.8,
                      unserializable_rate=0.05, delete_rate=0.02,
                      bandwidth_bytes_per_s=1e4, alpha=0.05),
}


def drawn_params(draw: int) -> dict:
    """The ``GenParams`` fields of draw ``draw``, from ``random.Random(draw)``."""
    rng = random.Random(draw)
    return dict(
        cells=rng.randint(1, 300),
        variables=round(2 * 500 ** rng.random()),  # 2 to 1000, log-uniform
        alias_density=rng.uniform(0.0, 1.0),
        unserializable_rate=rng.uniform(0.0, 0.5),
        undeserializable_rate=rng.uniform(0.0, 0.5),
        unhashable_rate=rng.uniform(0.0, 0.5),
        never_rerun_rate=rng.uniform(0.01, 0.5),
        nondet_rate=rng.uniform(0.01, 0.5),
        delete_rate=rng.uniform(0.01, 0.5),
        bandwidth_bytes_per_s=10 ** rng.uniform(0.0, 9.0),
        latency_s=rng.uniform(0.0, 0.01),
        alpha=rng.uniform(0.0, 1.0),
    )


def pinned_cases() -> list[tuple[str, dict, int]]:
    """Every pinned trace as (name, ``GenParams`` fields, generator seed)."""
    cases = [(name, params, BENCH_SEED) for name, params in BENCH_SHAPES.items()]
    cases += [(f"draw-{draw}", drawn_params(draw), draw) for draw in DRAWS]
    return cases


def trace_digest(params: dict, seed: int) -> str:
    """The sha256 of the bytes ``save_trace`` writes for the generated trace."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.json"
        save_trace(generate_trace(GenParams(**params), seed), path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def pinned_digests() -> list[str]:
    return [trace_digest(params, seed) for _, params, seed in pinned_cases()]


def test_cases_match_the_pinned_file():
    pinned = json.loads(PINNED.read_text())
    assert [(p["name"], p["params"], p["seed"]) for p in pinned] == pinned_cases()
    nondet = [p for p in pinned if p["name"].startswith("draw-")]
    assert len(nondet) >= 50
    assert min(p["params"]["variables"] for p in nondet) == 2
    assert max(p["params"]["variables"] for p in nondet) > 500
    for p in nondet:
        assert min(p["params"][rate] for rate in ("nondet_rate", "never_rerun_rate", "delete_rate")) > 0


def test_traces_match_the_pinned_digests():
    pinned = json.loads(PINNED.read_text())
    for want, got in zip(pinned, pinned_digests(), strict=True):
        assert got == want["sha256"], want["name"]


def test_digests_do_not_depend_on_the_hash_seed():
    src = str(Path(statecut.__file__).resolve().parents[1])
    env_path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from test_pinned_traces import pinned_digests\n"
        "print(' '.join(pinned_digests()))\n"
    )
    want = [p["sha256"] for p in json.loads(PINNED.read_text())]
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=env_path)
        run = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent)],
                             env=env, capture_output=True, text=True, timeout=120, check=True)
        assert run.stdout.split() == want, hash_seed


if __name__ == "__main__":
    lines = [
        json.dumps({"name": name, "params": params, "seed": seed, "sha256": digest}, separators=(",", ":"))
        for (name, params, seed), digest in zip(pinned_cases(), pinned_digests())
    ]
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text("[\n" + ",\n".join(lines) + "\n]\n")
