"""The benchmark's workloads: generator shapes and how much of each phase
one round repeats. Run ``k`` of a workload's traces uses generator seed
``seed * 100 + k``, so the same ``--seed`` always gives the same inputs."""

from __future__ import annotations

from dataclasses import dataclass

RESTORES = 2  # read_checkpoint + restore repetitions per round


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict  # GenParams fields
    traces: int  # distinct traces per run, each set up and monitored once
    checkpoints: int  # plan_session + write_checkpoint repetitions per round


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="long",
            params=dict(cells=8000, variables=20, alias_density=0.2,
                        unserializable_rate=0.05, delete_rate=0.02),
            traces=3, checkpoints=2,
        ),
        Workload(
            name="wide",
            params=dict(cells=400, variables=1000, alias_density=0.3,
                        unserializable_rate=0.05, undeserializable_rate=0.25,
                        delete_rate=0.02, bandwidth_bytes_per_s=1e8),
            traces=16, checkpoints=2,
        ),
        Workload(
            name="recompute",
            params=dict(cells=500, variables=60, alias_density=0.8,
                        unserializable_rate=0.05, delete_rate=0.02,
                        bandwidth_bytes_per_s=1e4, alpha=0.05),
            traces=10, checkpoints=1,
        ),
    )
}


def trace_seed(seed: int, k: int) -> int:
    return seed * 100 + k
