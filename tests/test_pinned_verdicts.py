"""Reader verdicts pinned by digest, so a change to how the trace and
checkpoint readers check their fields can be checked for the same verdict,
and the same message, on every document of a fixed corpus.

Each case is a small generated trace, with some cells made to fail
(``sessions.with_failing_cells``), and the checkpoint written from its
session under the planner's plan. The corpus holds the trace document and
the checkpoint's manifest, each as written and with one corruption: every
scalar leaf replaced by each of ``documents.WRONG_VALUES``, every field of
every object dropped, and one unknown field added to every object. A
document's verdict is ``ok`` when ``trace_from_json`` or ``read_checkpoint``
reads it, else the FormatError message, with the checkpoint's path written
as ``<checkpoint>``. ``data/pinned_verdicts.json`` holds one line per case:
its name, its ``GenParams`` fields, its generator seed, how many documents
it checks and rejects, and the sha256 of its verdicts in order. A change
that means to alter verdicts rewrites the file with

    PYTHONPATH=src python tests/test_pinned_verdicts.py
"""

import hashlib
import json
import random
import tempfile
from pathlib import Path

from statecut.errors import FormatError
from statecut.gen import GenParams, generate_trace
from statecut.planner import plan_session
from statecut.replicator import read_checkpoint, write_checkpoint
from statecut.trace import run_trace, trace_from_json, trace_to_json

from documents import WRONG_VALUES, leaf_paths, read_manifest, with_leaf, write_manifest
from sessions import with_failing_cells

PINNED = Path(__file__).parent / "data" / "pinned_verdicts.json"
CASES = [
    ("small", dict(cells=6, variables=3), 1),
    ("deletes", dict(cells=8, variables=4, delete_rate=0.3, nondet_rate=0.2), 2),
    ("aliased", dict(cells=8, variables=3, alias_density=0.8, never_rerun_rate=0.2), 3),
]
FAIL_RATE = 0.3


def object_paths(node, path=()):
    """The path to every object (dict) of a decoded JSON document."""
    if isinstance(node, dict):
        yield path
        for key, child in node.items():
            yield from object_paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from object_paths(child, path + (i,))


def corruptions(document):
    """``document`` as it is, then with each one-leaf change, each dropped
    field and one unknown field per object, in that order."""
    yield document
    for path in leaf_paths(document):
        for value in WRONG_VALUES:
            yield with_leaf(document, path, value)
    for path in object_paths(document):
        node = document
        for key in path:
            node = node[key]
        for name in node:
            dropped = {key: value for key, value in node.items() if key != name}
            yield with_leaf(document, path, dropped) if path else dropped
        extended = {**node, "unknown_field": 0}
        yield with_leaf(document, path, extended) if path else extended


def trace_verdict(document) -> str:
    try:
        trace_from_json(document)
    except FormatError as err:
        return str(err)
    return "ok"


def checkpoint_verdict(path: Path, manifest) -> str:
    write_manifest(path, manifest)
    try:
        read_checkpoint(path)
    except FormatError as err:
        return str(err).replace(str(path), "<checkpoint>")
    return "ok"


def verdicts(params: dict, seed: int) -> list[str]:
    """The verdict of every document of the case's corpus, in order."""
    trace = with_failing_cells(generate_trace(GenParams(**params), seed), random.Random(seed), FAIL_RATE)
    document = json.loads(json.dumps(trace_to_json(trace)))
    found = [trace_verdict(doc) for doc in corruptions(document)]
    session, _ = run_trace(trace)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.ckpt"
        write_checkpoint(session, plan_session(session), path)
        found += [checkpoint_verdict(path, doc) for doc in corruptions(read_manifest(path))]
    return found


def summary(params: dict, seed: int) -> dict:
    found = verdicts(params, seed)
    return {
        "documents": len(found),
        "rejected": sum(verdict != "ok" for verdict in found),
        "sha256": hashlib.sha256("\n".join(found).encode()).hexdigest(),
    }


def test_cases_match_the_pinned_file():
    pinned = json.loads(PINNED.read_text())
    assert [(p["name"], p["params"], p["seed"]) for p in pinned] == CASES
    for p in pinned:
        # most corruptions are rejected, and some are not: a changed value
        # of a field of kind "any" or a dropped optional field reads
        assert 0 < p["verdicts"]["documents"] - p["verdicts"]["rejected"] < p["verdicts"]["rejected"]


def test_verdicts_match_the_pinned_digests():
    pinned = json.loads(PINNED.read_text())
    for want, (name, params, seed) in zip(pinned, CASES, strict=True):
        assert summary(params, seed) == want["verdicts"], name


if __name__ == "__main__":
    lines = [
        json.dumps({"name": name, "params": params, "seed": seed, "verdicts": summary(params, seed)},
                   separators=(",", ":"))
        for name, params, seed in CASES
    ]
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text("[\n" + ",\n".join(lines) + "\n]\n")
