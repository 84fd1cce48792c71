"""Differential test of the `Graph` constructor's attribute memo.

The constructor normalizes each raw attribute value of the common shape
(one str key with a list, tuple, set or frozenset of one str) once per
call and hands every equal value the same dict; any other value is
normalized on its own. `reference_kernels.graph_per_element` keeps the
constructor that normalized every attributed node and edge. Random graphs
with hostile attribute values (`1`, `True`, `"1"` and `1.0`, scalars,
every container, empty lists, several keys, subclasses of str and dict,
values that are no attribute value at all) must give equal graphs, or the
same exception with the same message, and the same `graph_to_json`,
`dumps_canonical` and `_hierarchy_text` output, by both constructors.
"""

from collections import Counter
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from sqpo import Graph, GraphElementError, Hierarchy, graph_to_json
from sqpo.graphs import _memo_key, dumps_canonical
from sqpo.hierarchy import _hierarchy_text


class Text(str):
    pass


class Attrs(dict):
    pass


NODES = [f"n{i}" for i in range(6)]
KEYS = st.sampled_from(["k", "kind", Text("k"), 1])
ELEMENTS = st.one_of(
    st.sampled_from(["x", "y", "x"]),  # mostly the common shape
    st.sampled_from([1, True, "1", 1.0, 0, False, Text("x"), None, ["x"]]),
)
HASHABLE = st.sampled_from(["x", "y", 1, True, "1", 1.0, Text("x")])
VALUES = st.one_of(
    st.lists(ELEMENTS, max_size=3),
    st.lists(ELEMENTS, max_size=3).map(tuple),
    st.sets(HASHABLE, max_size=2),
    st.frozensets(HASHABLE, max_size=2),
    ELEMENTS,  # a scalar, or a value that is none
)
RAW = st.one_of(
    st.dictionaries(KEYS, VALUES, max_size=3),
    st.dictionaries(KEYS, VALUES, max_size=2).map(Attrs),
    st.sampled_from([{"k": ["x"]}, {"k": frozenset({"x"})}, {"k": ("y",)}, {"k": []}, {}, None]),
)


@st.composite
def constructor_args(draw):
    nodes = draw(st.lists(st.sampled_from(NODES), max_size=6, unique=True))
    edges = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), unique=True)) if nodes else []
    node_attrs = draw(st.dictionaries(st.sampled_from(nodes), RAW)) if nodes else {}
    edge_attrs = draw(st.dictionaries(st.sampled_from(edges), RAW)) if edges else {}
    return nodes, edges, node_attrs, edge_attrs


def _built(make, args):
    try:
        return make(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _texts(g: Graph):
    tree = graph_to_json(g)
    return tree, dumps_canonical(tree), _hierarchy_text(Hierarchy({"g": g}))


def test_memo_constructor_builds_what_per_element_normalization_builds():
    seen: Counter = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(constructor_args())
    def check(args):
        got, want = _built(Graph, args), _built(ref.graph_per_element, args)
        if isinstance(want, tuple):
            assert got == want
            seen[want[0].__name__] += 1
            return
        assert isinstance(got, Graph)
        assert got == want
        assert got.node_attrs == want.node_attrs and got.edge_attrs == want.edge_attrs
        assert list(got.node_attrs) == list(want.node_attrs)
        assert list(got.edge_attrs) == list(want.edge_attrs)
        assert _texts(got) == _texts(want)
        # equal common-shape values share one dict, nodes and edges alike
        _, _, node_attrs, edge_attrs = args
        held = {**{n: got.node_attrs.get(n) for n in node_attrs}, **{e: got.edge_attrs.get(e) for e in edge_attrs}}
        by_key: dict = {}
        for element, raw in {**node_attrs, **edge_attrs}.items():
            if (key := _memo_key(raw)) is not None:
                if key in by_key:
                    seen["shared"] += 1
                assert by_key.setdefault(key, held[element]) is held[element]
        seen["built"] += 1

    check()
    for key in ("built", "shared", "GraphElementError", "TypeError"):
        assert seen[key], (key, seen)


@pytest.mark.parametrize("raw", [
    {"k": ["x"]}, {"k": ("x",)}, {"k": {"x"}}, {"k": frozenset({"x"})},
])
def test_common_shape_keys(raw):
    assert _memo_key(raw) == ("k", "x")


@pytest.mark.parametrize("raw", [
    {"k": "x"}, {"k": [1]}, {"k": [True]}, {"k": ["x", "y"]}, {"k": []}, {"k": [Text("x")]},
    {Text("k"): ["x"]}, Attrs(k=["x"]), {"k": ["x"], "j": ["x"]}, {}, None, {1: ["x"]},
])
def test_other_values_have_no_key(raw):
    assert _memo_key(raw) is None


def test_int_bool_and_str_values_never_share_a_dict():
    g = Graph(["a", "b", "c"], [], {"a": {"k": [1]}, "b": {"k": [True]}, "c": {"k": ["1"]}})
    a, b, c = (g.node_attrs[n] for n in "abc")
    assert a is not b and b is not c and a is not c
    assert [type(next(iter(x["k"]))) for x in (a, b, c)] == [int, bool, str]


class _Fresh(Mapping):
    """A mapping that builds a new raw value on every read, so that ids
    are reused between reads."""

    def __init__(self, values: dict):
        self._values = values

    def __getitem__(self, key):
        return {"k": [self._values[key]]}

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)


def test_values_built_on_the_fly_are_keyed_by_value():
    values = {f"n{i}": "xy"[i % 2] for i in range(40)}
    g = Graph(list(values), [], _Fresh(values))
    assert g == ref.graph_per_element(list(values), [], _Fresh(values))
    assert len({id(a) for a in g.node_attrs.values()}) == 2


def test_the_first_bad_value_raises_as_before():
    attrs = {"a": {"k": ["x"]}, "b": {"k": [1.5]}, "c": {"k": [None]}}
    with pytest.raises(GraphElementError, match="got float"):
        Graph(["a", "b", "c"], [], attrs)
