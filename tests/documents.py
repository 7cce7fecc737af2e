"""Helpers that edit decoded JSON documents (traces, checkpoint manifests)."""

import copy
import hashlib
import json
import struct

from statecut import replicator


def leaf_paths(node, path=()):
    """The path to every scalar leaf of a decoded JSON document."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from leaf_paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from leaf_paths(child, path + (i,))
    else:
        yield path


def with_leaf(document, path, value):
    """A copy of ``document`` with the leaf at ``path`` replaced by ``value``."""
    edited = copy.deepcopy(document)
    node = edited
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return edited


# wrong-typed values a single damaged leaf may hold
WRONG_VALUES = ("x", -1, 10**6, None, [], {}, 1.5, True)


def read_manifest(path) -> dict:
    raw = path.read_bytes()
    (manifest_len,) = struct.unpack_from("<Q", raw, 12)
    return json.loads(raw[20:20 + manifest_len])


def seal(path, body: bytes) -> None:
    """Write ``body`` (a checkpoint without its digest) with a matching digest."""
    path.write_bytes(body + hashlib.sha256(body).digest())


def write_manifest(path, manifest) -> None:
    """Swap a checkpoint's manifest section, keeping a correct header and digest."""
    raw = path.read_bytes()
    (manifest_len,) = struct.unpack_from("<Q", raw, 12)
    edited = json.dumps(manifest).encode()
    seal(path, raw[:12] + struct.pack("<Q", len(edited)) + edited
         + raw[20 + manifest_len:-replicator.DIGEST_BYTES])
