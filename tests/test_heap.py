import json
import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecut.errors import InvalidHeapOp, RootMismatch, UnknownObject, UnknownVariable
from statecut.heap import (
    HeapObject,
    HeapOp,
    SimHeap,
    _canon,
    build_id_graph,
    id_graph_changed,
    id_graphs_overlap,
    same_canon,
    value_hash,
)

from heaps import make_object, random_heap


def nested_list_heap() -> SimHeap:
    """inner list shared by l1 and (nested inside) big2d."""
    heap = SimHeap()
    make_object(heap, 1, "container")
    make_object(heap, 2, "scalar", value=3)
    make_object(heap, 3, "scalar", value=4)
    make_object(heap, 4, "container")
    heap.apply([
        HeapOp(op="set_slot", parent_id=1, slot="0", child_id=2),
        HeapOp(op="set_slot", parent_id=1, slot="1", child_id=3),
        HeapOp(op="bind", name="l1", id=1),
        HeapOp(op="set_slot", parent_id=4, slot="0", child_id=1),
        HeapOp(op="bind", name="big2d", id=4),
    ])
    return heap


class TestReachable:
    def test_single_node(self):
        heap = SimHeap()
        make_object(heap, 1)
        heap.bind("a", 1)
        assert heap.reachable("a") == {1}

    def test_nested_list_superset(self):
        heap = nested_list_heap()
        assert heap.reachable("big2d") >= heap.reachable("l1")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            SimHeap().reachable("ghost")

    def test_matches_bfs_oracle_on_random_dags(self, rng):
        for _ in range(20):
            heap = random_heap(rng, n_objects=50)
            graph = nx.DiGraph()
            graph.add_nodes_from(heap.objects)
            for oid, obj in heap.objects.items():
                for child in obj.slots.values():
                    graph.add_edge(oid, child)
            for name, root in heap.namespace.items():
                oracle = {root} | nx.descendants(graph, root)
                assert heap.reachable(name) == oracle

    def test_cycle_terminates(self):
        heap = SimHeap()
        make_object(heap, 1, "container")
        make_object(heap, 2, "container")
        heap.apply([
            HeapOp(op="set_slot", parent_id=1, slot="x", child_id=2),
            HeapOp(op="set_slot", parent_id=2, slot="y", child_id=1),
            HeapOp(op="bind", name="a", id=1),
        ])
        assert heap.reachable("a") == {1, 2}


class TestIdGraph:
    def test_equal_values_distinct_objects_differ(self):
        # two value-identical singleton lists are different references
        heap = SimHeap()
        for oid, name in ((1, "a"), (2, "b")):
            make_object(heap, oid, "container")
            make_object(heap, oid + 10, "scalar", value=1)
            heap.apply([
                HeapOp(op="set_slot", parent_id=oid, slot="0", child_id=oid + 10),
                HeapOp(op="bind", name=name, id=oid),
            ])
        assert build_id_graph(heap, "a") != build_id_graph(heap, "b")
        assert value_hash(heap, "a") == value_hash(heap, "b")

    def test_alias_shares_nodes(self):
        heap = SimHeap()
        make_object(heap, 1, "container")
        heap.bind("x", 1)
        heap.bind("y", 1)
        assert build_id_graph(heap, "x").nodes == build_id_graph(heap, "y").nodes

    def test_nodes_equal_reachable(self, rng):
        heap = random_heap(rng, n_objects=50)
        for name in heap.namespace:
            assert set(build_id_graph(heap, name).nodes) == heap.reachable(name)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            build_id_graph(SimHeap(), "ghost")


class TestOverlap:
    def test_nested_share(self):
        heap = nested_list_heap()
        assert id_graphs_overlap(build_id_graph(heap, "l1"), build_id_graph(heap, "big2d"))

    def test_disjoint_scalars(self):
        heap = SimHeap()
        make_object(heap, 1)
        make_object(heap, 2)
        heap.bind("a", 1)
        heap.bind("b", 2)
        assert not id_graphs_overlap(build_id_graph(heap, "a"), build_id_graph(heap, "b"))

    def test_matches_set_oracle_and_symmetry(self, rng):
        for _ in range(10):
            heap = random_heap(rng)
            graphs = {n: build_id_graph(heap, n) for n in heap.namespace}
            for a in graphs:
                for b in graphs:
                    expected = bool(heap.reachable(a) & heap.reachable(b))
                    assert id_graphs_overlap(graphs[a], graphs[b]) == expected
                    assert id_graphs_overlap(graphs[a], graphs[b]) == id_graphs_overlap(
                        graphs[b], graphs[a]
                    )


class TestStructuralDiff:
    def test_reference_swap_detected(self):
        heap = nested_list_heap()
        before = build_id_graph(heap, "big2d")
        # replace the nested list with a fresh, value-equal one
        make_object(heap, 5, "container")
        make_object(heap, 6, "scalar", value=3)
        make_object(heap, 7, "scalar", value=4)
        pre_hash = value_hash(heap, "big2d")
        heap.apply([
            HeapOp(op="set_slot", parent_id=5, slot="0", child_id=6),
            HeapOp(op="set_slot", parent_id=5, slot="1", child_id=7),
            HeapOp(op="set_slot", parent_id=4, slot="0", child_id=5),
        ])
        after = build_id_graph(heap, "big2d")
        assert id_graph_changed(before, after)
        assert value_hash(heap, "big2d") == pre_hash  # value untouched

    def test_identity(self, rng):
        heap = random_heap(rng)
        for name in heap.namespace:
            g = build_id_graph(heap, name)
            assert not id_graph_changed(g, g)

    def test_value_only_mutations_invisible(self):
        # every possible set_value on a small heap leaves the graph unchanged
        heap = nested_list_heap()
        before = {n: build_id_graph(heap, n) for n in heap.namespace}
        for oid, obj in heap.objects.items():
            if obj.kind != "scalar":
                continue
            heap.apply([HeapOp(op="set_value", id=oid, value=999)])
            for name in heap.namespace:
                assert not id_graph_changed(before[name], build_id_graph(heap, name))

    def test_root_mismatch(self):
        heap = nested_list_heap()
        with pytest.raises(RootMismatch):
            id_graph_changed(build_id_graph(heap, "l1"), build_id_graph(heap, "big2d"))


class TestValueHash:
    def test_identity_blind_on_relabel(self, rng):
        # rebuild the same logical heap under shifted object ids
        for shift in (100, 1000):
            h1 = random_heap(rng, n_objects=30)
            h2 = SimHeap()
            for oid in sorted(h1.objects):
                src = h1.objects[oid]
                h2.add_object(HeapObject(
                    id=oid + shift, kind=src.kind, value=src.value,
                    slots={k: v + shift for k, v in src.slots.items()},
                    size_bytes=src.size_bytes,
                ))
            for name, root in h1.namespace.items():
                h2.bind(name, root + shift)
            for name in h1.namespace:
                assert value_hash(h1, name) == value_hash(h2, name)

    def test_scalar_mutation_changes_hash(self):
        heap = nested_list_heap()
        before = value_hash(heap, "l1")
        heap.apply([HeapOp(op="set_value", id=2, value=42)])
        assert value_hash(heap, "l1") != before
        # recompute oracle: hashing twice is stable
        assert value_hash(heap, "l1") == value_hash(heap, "l1")

    def test_unhashable_propagates(self):
        heap = SimHeap()
        make_object(heap, 1, "container")
        make_object(heap, 2, "opaque", size=100, hashable=False)
        heap.apply([
            HeapOp(op="set_slot", parent_id=1, slot="h", child_id=2),
            HeapOp(op="bind", name="model", id=1),
        ])
        assert value_hash(heap, "model") is None

    def test_cycle_stable(self):
        def cyclic(ids):
            heap = SimHeap()
            a, b = ids
            make_object(heap, a, "container")
            make_object(heap, b, "container")
            heap.apply([
                HeapOp(op="set_slot", parent_id=a, slot="next", child_id=b),
                HeapOp(op="set_slot", parent_id=b, slot="next", child_id=a),
                HeapOp(op="bind", name="ring", id=a),
            ])
            return heap

        assert value_hash(cyclic((1, 2)), "ring") == value_hash(cyclic((7, 5)), "ring")

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_hash_is_deterministic(self, value, oid):
        h1, h2 = SimHeap(), SimHeap()
        for heap in (h1, h2):
            make_object(heap, oid, value=value)
            heap.bind("x", oid)
        assert value_hash(h1, "x") == value_hash(h2, "x")


def dumps_canon(value) -> bytes:
    """``_canon``'s slow oracle: ``json.dumps``, which builds an encoder per call."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


class TestCanon:
    """``_canon`` reuses one encoder; its bytes are those of ``json.dumps``."""

    @given(json_values)
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_json_dumps(self, value):
        assert _canon(value) == dumps_canon(value)

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, -0.0, 0.0, True, 1, False, 0, None,
        "naïve ☃ 𝄞", {"é": 1, "a": "ü"},
        {"b": {"z": 1, "a": [3, {"y": 2, "x": -0.0}]}, "a": [math.nan, -math.inf]},
    ])
    def test_edge_values(self, value):
        assert _canon(value) == dumps_canon(value)

    def test_tells_true_from_one_and_sorts_nested_keys(self):
        assert _canon(True) == b"true" and _canon(1) == b"1"
        assert _canon(-0.0) == b"-0.0" and _canon(math.nan) == b"NaN"
        assert _canon({"b": {"d": 1, "c": 2}, "a": 0}) == b'{"a":0,"b":{"c":2,"d":1}}'
        assert _canon("é") == b'"\\u00e9"'


# scalars where equality under == and equal canonical forms part, or that
# the fast path for exact ints and strs must leave to the encoding
CORNER_SCALARS = (
    None, True, False, 0, 1, 1.0, 0.0, -0.0, math.nan, math.inf, -math.inf, "1", "true", "",
    2**64, 2**64 + 1, -(2**70), float(2**64), "naïve ☃ 𝄞", 'tab\tquote"back\\slash\n', "\\u00e9",
)
canon_leaves = (
    st.sampled_from(CORNER_SCALARS) | st.none() | st.booleans()
    | st.integers() | st.integers(min_value=2**64, max_value=2**80).map(lambda n: n * (-1) ** (n % 2))
    | st.floats() | st.text()
)
canon_values = st.recursive(
    canon_leaves,
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.integers(-3, 3), inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)
                   | st.dictionaries(st.booleans(), inner, max_size=2)),
    max_leaves=8,
)


@st.composite
def canon_pairs(draw):
    """A value and one that often has its canonical form: itself, its
    round trip through JSON (tuples turn lists, int and bool keys turn
    strs, NaN a fresh NaN), a corner scalar, or any other value."""
    a = draw(canon_values)
    b = draw(st.sampled_from(("same", "round_trip", "corner", "other")))
    if b == "same":
        return a, a
    if b == "round_trip":
        return a, json.loads(_canon(a))
    if b == "corner":
        return a, draw(st.sampled_from(CORNER_SCALARS))
    return a, draw(canon_values)


class TestSameCanon:
    """``same_canon`` says what comparing ``_canon`` bytes says."""

    @given(canon_pairs())
    @settings(max_examples=400, deadline=None)
    def test_matches_canonical_bytes(self, pair):
        a, b = pair
        assert same_canon(a, b) == (_canon(a) == _canon(b))
        assert same_canon(b, a) == same_canon(a, b)

    @pytest.mark.parametrize("a, b, same", [
        (1, 1.0, False), (1, True, False), (1.0, True, False), (0, False, False), ("1", 1, False),
        (math.nan, float("nan"), True), (-0.0, 0.0, False), (math.inf, math.inf, True),
        (2**64 + 1, 2**64 + 1, True), (2**64, 2**64 + 1, False), (float(2**64), 2**64, False),
        ([1, "a"], (1, "a"), True), ({1: "x"}, {"1": "x"}, True), ({True: 0}, {"true": 0}, True),
        (None, None, True), (None, "null", False), ("é", "\\u00e9", False), ("é", "é", True),
    ])
    def test_corner_pairs(self, a, b, same):
        assert same_canon(a, b) is same
        assert (_canon(a) == _canon(b)) is same


class TestApplyOps:
    def test_create_bind(self):
        heap = SimHeap()
        record = heap.apply([
            HeapOp(op="create", id=1, kind="scalar", value=1, size_bytes=8),
            HeapOp(op="bind", name="x", id=1),
        ])
        assert record.old_roots == {"x": None}
        assert record.created == {1}
        assert "x" in heap.namespace

    def test_rebind_recorded(self):
        heap = SimHeap()
        make_object(heap, 1)
        make_object(heap, 2)
        heap.bind("x", 1)
        record = heap.apply([HeapOp(op="bind", name="x", id=2)])
        assert record.old_roots == {"x": 1}

    def test_cycle_assignment_permitted(self):
        heap = SimHeap()
        make_object(heap, 1, "container")
        make_object(heap, 2, "container")
        heap.apply([
            HeapOp(op="bind", name="a", id=1),
            HeapOp(op="set_slot", parent_id=1, slot="f", child_id=2),
            HeapOp(op="set_slot", parent_id=2, slot="b", child_id=1),
        ])
        assert heap.reachable("a") == {1, 2}

    def test_unknown_object(self):
        with pytest.raises(UnknownObject):
            SimHeap().apply([HeapOp(op="bind", name="x", id=99)])

    def test_partial_record_on_failure(self):
        heap = SimHeap()
        try:
            heap.apply([
                HeapOp(op="create", id=1, kind="scalar", value=0, size_bytes=8),
                HeapOp(op="bind", name="x", id=1),
                HeapOp(op="bind", name="y", id=404),
            ])
        except UnknownObject as err:
            assert err.partial.old_roots == {"x": None}
            assert err.partial.created == {1}
        else:
            pytest.fail("expected UnknownObject")

    def test_failing_op_position_reported(self):
        heap = SimHeap()
        make_object(heap, 1, "container")
        with pytest.raises(InvalidHeapOp) as exc:
            heap.apply([
                HeapOp(op="bind", name="x", id=1),
                HeapOp(op="set_value", id=1, value=3),
                HeapOp(op="bind", name="y", id=1),
            ])
        assert exc.value.op_index == 1
        assert exc.value.partial.old_roots == {"x": None}

    def test_ops_of_another_heap_go_through_the_id_map(self):
        heap = SimHeap()
        make_object(heap, 1, "container")
        make_object(heap, 5, "scalar")  # a stored copy holding a recorded id
        ids = {70: 1}
        record = heap.apply([
            HeapOp(op="create", id=3, kind="scalar", value=2, size_bytes=8),
            HeapOp(op="create", id=5, kind="scalar", value=3, size_bytes=8),
            HeapOp(op="create", id=6, kind="scalar", value=4, size_bytes=8),
            HeapOp(op="set_slot", parent_id=70, slot="s", child_id=5),
            HeapOp(op="bind", name="x", id=70),
        ], ids)
        # a create keeps its recorded id while it is free, and takes the
        # next id below zero when a live object holds it
        assert ids == {70: 1, 3: 3, 5: -1, 6: 6}
        assert record.created == {3, -1, 6} and record.touched == {1}
        assert heap.objects[1].slots == {"s": -1} and heap.namespace == {"x": 1}
        assert heap.objects[5].value == 0 and heap.objects[-1].value == 3
        heap.apply([HeapOp(op="create", id=6, kind="scalar", value=5, size_bytes=8)], ids)
        assert ids[6] == -2 and heap.objects[6].value == 4
        # an id the map lacks is unknown, even when this heap has an object
        # of that number; the partial record keeps what ran before it
        with pytest.raises(UnknownObject) as exc:
            heap.apply([
                HeapOp(op="set_value", id=5, value=4),
                HeapOp(op="bind", name="y", id=-1),
            ], ids)
        assert exc.value.partial.touched == {-1} and exc.value.op_index == 1
        assert heap.objects[-1].value == 4 and "y" not in heap.namespace
        # the kind checks hold through the map
        with pytest.raises(InvalidHeapOp):
            heap.apply([HeapOp(op="set_value", id=70, value=1)], ids)
        with pytest.raises(InvalidHeapOp):
            heap.apply([HeapOp(op="set_slot", parent_id=5, slot="t", child_id=70)], ids)
        assert heap.objects[-1].slots == {} and heap.objects[1].value is None

    def test_determinism(self, rng):
        ops = []
        for i in range(1, 11):
            ops.append(HeapOp(op="create", id=i, kind="container" if i % 2 else "scalar",
                              value=i, size_bytes=i))
        ops += [
            HeapOp(op="set_slot", parent_id=1, slot="a", child_id=2),
            HeapOp(op="set_slot", parent_id=3, slot="b", child_id=1),
            HeapOp(op="bind", name="x", id=3),
        ]
        h1, h2 = SimHeap(), SimHeap()
        h1.apply(list(ops))
        h2.apply(list(ops))
        assert value_hash(h1, "x") == value_hash(h2, "x")
        assert build_id_graph(h1, "x") == build_id_graph(h2, "x")

    def test_slots_only_on_containers(self):
        heap = SimHeap()
        make_object(heap, 1, "scalar")
        make_object(heap, 2, "scalar")
        with pytest.raises(InvalidHeapOp):
            heap.apply([HeapOp(op="set_slot", parent_id=1, slot="s", child_id=2)])

    def test_undeserializable_must_be_serializable(self):
        with pytest.raises(InvalidHeapOp):
            HeapObject(id=1, kind="opaque", serializable=False, deserializable=True)


class TestGarbageCollection:
    def test_unreachable_swept(self):
        heap = SimHeap()
        make_object(heap, 1)
        make_object(heap, 2)
        heap.bind("keep", 1)
        assert heap.collect_garbage() == {2}
        assert set(heap.objects) == {1}

    def test_reachability_after_unbind(self):
        heap = nested_list_heap()
        heap.unbind("big2d")
        heap.collect_garbage()
        assert set(heap.objects) == heap.reachable("l1")
