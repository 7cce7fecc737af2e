"""Helpers that edit decoded JSON documents (traces, checkpoint manifests)."""

import copy


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
