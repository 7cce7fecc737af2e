"""A max-flow certificate for a plan (Ford & Fulkerson, 1956).

A feasible flow whose value equals the capacity of a cut proves that both
are optimal, and the source side that the flow's residual network reaches
is the least of the minimum cuts: the rerun set it names is the plan's. The
checks take O(V + E) steps, which they count, so they reach sessions far
past what the brute-force oracle and the networkx closure network can.
"""

import math
from dataclasses import replace

from statecut.planner import SINK, SRC, min_cut_plan

INF = math.inf
REL = 1e-9


def solve_with_residual(fg):
    """``min_cut_plan(fg)`` and the residual capacities its solve ends with:
    the solve works on ``fg.cap.copy()``, which this hands it and keeps."""
    copies = []

    class Recorded(list):
        def copy(self):
            copies.append(list(self))
            return copies[-1]

    plan = min_cut_plan(replace(fg, cap=Recorded(fg.cap)))
    assert len(copies) == 1
    return plan, copies[0]


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL * max(scale, abs(a), abs(b)) + 1e-12


def certificate_errors(fg, residual, plan) -> tuple[list[str], int]:
    """What keeps ``residual`` from certifying ``plan`` as the minimum cut
    of ``fg``, and the number of steps the checks took.

    The flow on an arc pair is capacity minus residual, read on an arc of
    the pair whose capacity is finite. A tie, infinite both ways, keeps no
    trace of its flow in the residual, but it carries any flow; so
    conservation is checked on each group of tied nodes as a whole, which
    holds exactly when some flow on the ties balances every node of it.
    """
    n, to, cap = len(fg.out), fg.to, fg.cap
    errors: list[str] = []
    steps = 0

    # the tie groups, each named by its first node
    group = [-1] * n
    for root in range(n):
        steps += 1
        if group[root] >= 0:
            continue
        group[root] = root
        stack = [root]
        while stack:
            u = stack.pop()
            for e in fg.out[u]:
                steps += 1
                if cap[e] == INF and cap[e ^ 1] == INF and group[to[e]] < 0:
                    group[to[e]] = root
                    stack.append(to[e])

    excess = [0.0] * n  # inflow minus outflow, summed over each tie group
    carried = [0.0] * n  # the flow through each tie group, to scale its rounding
    value = 0.0
    for e in range(0, len(to), 2):
        steps += 1
        u, v, forward, back = to[e ^ 1], to[e], cap[e], cap[e ^ 1]
        if forward == INF and back == INF:
            continue
        flow = forward - residual[e] if forward < INF else residual[e ^ 1] - back
        if forward < INF and back < INF and not _close(flow, residual[e ^ 1] - back, flow):
            errors.append(f"arc {u}->{v}: its two residuals give flows {flow} and {residual[e ^ 1] - back}")
        if not (-back * (1 + REL) - 1e-12 <= flow <= forward * (1 + REL) + 1e-12):
            errors.append(f"arc {u}->{v}: flow {flow} outside [-{back}, {forward}]")
        excess[group[v]] += flow
        excess[group[u]] -= flow
        carried[group[v]] += abs(flow)
        carried[group[u]] += abs(flow)
        if u == SRC:  # no arc runs into the source
            value += flow
    for u in range(n):
        steps += 1
        if group[u] == u and u not in (SRC, SINK) and not _close(excess[u], 0.0, carried[u]):
            errors.append(f"tie group of node {u}: {excess[u]} more flow in than out")
    if not _close(value, plan.cost_s, 0.0):
        errors.append(f"flow value {value} != plan cost {plan.cost_s}")

    # the source side: what the residual network reaches from the source
    reached = [False] * n
    reached[SRC] = True
    stack = [SRC]
    while stack:
        u = stack.pop()
        for e in fg.out[u]:
            steps += 1
            if residual[e] > 0 and not reached[to[e]]:
                reached[to[e]] = True
                stack.append(to[e])
    if reached[SINK]:
        errors.append("the residual network still reaches the sink")
    cut = 0.0
    for e in range(len(to)):
        steps += 1
        if reached[to[e ^ 1]] and not reached[to[e]]:
            if cap[e] == INF:
                errors.append(f"infinite arc {to[e ^ 1]}->{to[e]} crosses the cut")
            cut += cap[e]
    if not _close(cut, plan.cost_s, 0.0):
        errors.append(f"cut capacity {cut} != plan cost {plan.cost_s}")
    rerun = sorted(t for t, u in fg.ce_nodes.items() if reached[u])
    if rerun != plan.rerun:
        errors.append(f"the residual network reaches cells {rerun[:5]}..., the plan reruns {plan.rerun[:5]}...")
    migrate = {name for name, u in fg.vs_nodes.items() if not reached[u]}
    if migrate != plan.migrate:
        errors.append(f"the residual network leaves {sorted(migrate ^ plan.migrate)[:5]} on the other side")
    return errors, steps
