"""Model validation, neighborhood queries, and file round trips."""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colored_ssc import graph
from colored_ssc.corpus import GRAPH_IDS, load as load_fig
from colored_ssc.graph import (
    BadLeaderError,
    ColoredDigraph,
    ColorOutOfRangeError,
    DuplicateColorError,
    DuplicateEdgeError,
    EmptyColorError,
    GraphFormatError,
    SelfLoopError,
    dumps,
    induced_bipartite,
    serialize,
    to_dot,
    validate,
    vset,
    vset_labels,
    white_out_neighbors,
)

from conftest import MALFORMED_FIELDS, labels, members1


class TestValidate:
    def test_fig2_shape(self):
        g = load_fig("fig2")
        assert (g.n, len(g.edges), len(g.colors)) == (6, 8, 3)
        assert g.leaders == (0, 1, 2)

    def test_fig5_shape(self):
        g = load_fig("fig5")
        assert (g.n, len(g.edges)) == (5, 8)
        assert g.leaders == (0, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            validate({"n": 2, "colors": ["c1"], "edges": [[1, 1, 1]]})

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            validate({"n": 2, "colors": ["c1"], "edges": [[1, 2, 1], [1, 2, 1]]})

    def test_duplicate_color_rejected(self):
        # realizations and the stage memo key colors by name, so two colors
        # of one name would be given one value; refused before the
        # unused-color check, which a repeated unused name would meet
        doc = {"n": 4, "colors": ["a", "a"], "edges": [[1, 2, 1], [2, 3, 1], [2, 4, 2]]}
        with pytest.raises(DuplicateColorError, match="'a'"):
            validate(doc)
        with pytest.raises(DuplicateColorError):
            validate({**doc, "colors": ["a", "b", "a"]})

    def test_color_out_of_range(self):
        with pytest.raises(ColorOutOfRangeError):
            validate({"n": 2, "colors": ["c1"], "edges": [[1, 2, 2]]})

    def test_unused_color_rejected(self):
        with pytest.raises(EmptyColorError):
            validate({"n": 2, "colors": ["c1", "c2"], "edges": [[1, 2, 1]]})

    def test_bad_leader(self):
        with pytest.raises(BadLeaderError):
            validate({"n": 2, "colors": ["c1"], "edges": [[1, 2, 1]], "leaders": [3]})
        with pytest.raises(BadLeaderError):
            validate({"n": 2, "colors": ["c1"], "edges": [[1, 2, 1]], "leaders": []})

    def test_missing_field(self):
        with pytest.raises(GraphFormatError):
            validate({"n": 2, "edges": []})
        for fields in MALFORMED_FIELDS:
            (name,) = fields
            with pytest.raises(GraphFormatError, match=f"field '{name}'"):
                validate({"n": 2, "colors": ["c1"], "edges": [[1, 2, 1]], **fields})

    def test_deep_nesting_refused(self):
        with pytest.raises(GraphFormatError, match="nested too deeply"):
            validate("[" * 200_000 + "]" * 200_000)

    def test_integral_labels_still_accepted(self):
        loose = {"n": 2.0, "colors": ["c1"], "edges": [[1.0, "2", 1]], "leaders": ["1"]}
        strict = {"n": 2, "colors": ["c1"], "edges": [[1, 2, 1]], "leaders": [1]}
        assert validate(loose) == validate(strict)

    @pytest.mark.parametrize(
        "entry",
        [[1, 2, True], [1.0, 2, 1], ["1", 2, 1], [1.5, 2, 1], [1, 2], [1, 2, "x"], [1, None, 1]],
    )
    def test_edge_entry_matches_per_field_parse(self, monkeypatch, entry):
        # plain-int entries skip the per-field check; every other entry must
        # give the graph or the error text the checked parse gives
        def checked_edge(entry):
            if len(entry) != 3:
                raise GraphFormatError(f"edge entry {entry!r} is not [tail, head, color]")
            tail, head, color = (graph._integer(x) for x in entry)
            return tail - 1, head - 1, color - 1

        def outcome():
            try:
                return validate({"n": 2, "colors": ["c1"], "edges": [entry]})
            except GraphFormatError as exc:
                return type(exc), str(exc)

        fast = outcome()
        monkeypatch.setattr(graph, "_edge", checked_edge)
        assert fast == outcome()

    def test_size_bound(self):
        with pytest.raises(GraphFormatError):
            ColoredDigraph(n=63, edges=((0, 1, 0),), colors=("c1",))


class TestQueries:
    def test_out_neighbors_fig5(self):
        assert members1(load_fig("fig5").out_masks[1]) == (3, 4, 5)

    def test_out_neighbors_isolated(self):
        g = ColoredDigraph(n=3, edges=((0, 1, 0),), colors=("c1",))
        assert g.out_masks[2] == 0

    def test_out_neighbors_fig4(self):
        assert members1(load_fig("fig4").out_masks[0]) == (3, 4, 5, 6)

    def test_white_out_neighbors_fig4(self):
        g = load_fig("fig4")
        assert members1(white_out_neighbors(g, labels(1, 2, 3), labels(1, 2, 3))) == (4, 5, 6)

    def test_white_out_neighbors_empty_source(self):
        assert white_out_neighbors(load_fig("fig4"), 0, labels(1, 2)) == 0

    def test_white_out_neighbors_fig7(self):
        g = load_fig("fig7a")
        got = white_out_neighbors(g, labels(7), labels(1, 2, 5, 6, 7))
        assert members1(got) == (3, 12)

    def test_source_outside_black_raises(self):
        with pytest.raises(ValueError):
            white_out_neighbors(load_fig("fig4"), labels(4), labels(1, 2, 3))


class TestInducedBipartite:
    def test_fig4_slice_matches_fig3(self):
        g4 = load_fig("fig4")
        g3 = load_fig("fig3")
        b4 = induced_bipartite(g4, labels(1, 2, 3), labels(1, 2, 3))
        b3 = induced_bipartite(g3, labels(1, 2, 3), labels(1, 2, 3))
        assert b4 == b3
        assert b4.x_vertices == (0, 1, 2)
        assert b4.y_vertices == (3, 4, 5)
        assert len(b4.edges) == 7

    def test_empty_y_side(self):
        g = ColoredDigraph(n=3, edges=((0, 1, 0),), colors=("c1",))
        b = induced_bipartite(g, labels(1, 2), labels(1, 2))
        assert b.y_vertices == () and b.edges == ()

    def test_fig8_slice(self):
        g = load_fig("fig8")
        b = induced_bipartite(g, labels(1, 2, 3, 4), labels(1, 2, 3, 4, 5))
        assert b.y_vertices == tuple(v - 1 for v in (6, 7, 8, 9))
        assert len(b.edges) == 11

    def test_y_side_never_black(self):
        g = load_fig("fig7a")
        black = labels(1, 2, 5, 6, 7)
        for source in (labels(1), labels(2, 7), labels(1, 2, 5, 6, 7)):
            b = induced_bipartite(g, source, black)
            assert not vset(b.y_vertices) & black


@st.composite
def graph_and_subsets(draw):
    n = draw(st.integers(2, 8))
    pairs = [(t, h) for t in range(n) for h in range(n) if t != h]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    k = draw(st.integers(1, 3))
    edges = [(t, h, draw(st.integers(0, k - 1))) for t, h in chosen]
    used = sorted({c for _, _, c in edges})
    remap = {c: i for i, c in enumerate(used)}
    g = ColoredDigraph(
        n=n,
        edges=tuple((t, h, remap[c]) for t, h, c in edges),
        colors=tuple(f"c{i + 1}" for i in range(len(used))),
    )
    black = draw(st.integers(1, g.full_mask))
    sub_a = black & draw(st.integers(0, g.full_mask))
    sub_b = black & draw(st.integers(0, g.full_mask))
    return g, black, sub_a, sub_b


@settings(max_examples=100, deadline=None)
@given(graph_and_subsets())
def test_white_out_neighbors_distributes_over_union(case):
    g, black, sub_a, sub_b = case
    merged = white_out_neighbors(g, sub_a | sub_b, black)
    split = white_out_neighbors(g, sub_a, black) | white_out_neighbors(g, sub_b, black)
    assert merged == split


class TestSerialization:
    @pytest.mark.parametrize("graph_id", GRAPH_IDS)
    def test_round_trip(self, graph_id):
        g = load_fig(graph_id)
        assert validate(serialize(g)) == g

    def test_canonical_fixpoint(self):
        # scrambled edge order normalizes once and then stays put
        raw = {
            "n": 3,
            "colors": ["c1"],
            "edges": [[2, 3, 1], [1, 2, 1]],
            "leaders": [1],
        }
        once = serialize(validate(raw))
        assert once["edges"] == [[1, 2, 1], [2, 3, 1]]
        assert serialize(validate(once)) == once

    def test_dumps_parses(self):
        g = load_fig("fig2")
        assert validate(json.loads(dumps(g))) == g


# Values of every type a report holds.  Strings mix quotes, backslashes,
# control and non-ASCII characters; ints pass 64 bits; rows of ints come
# equally long (the writer's template path), ragged, or with bools inside.
_AWKWARD = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n\t", "\u00e9", "\u2028", "\U0001f600", "\ud800"])
_TEXT = st.lists(_AWKWARD | st.text(max_size=3), max_size=4).map("".join)
_INTS = st.integers(min_value=-(2**70), max_value=2**70)
_SCALARS = st.none() | st.booleans() | _INTS | st.floats() | _TEXT
_ROWS = st.integers(0, 4).flatmap(
    lambda width: st.lists(st.lists(_INTS | st.booleans(), min_size=width, max_size=width))
)
_VALUES = st.recursive(
    _SCALARS | st.lists(_INTS) | _ROWS | st.lists(st.lists(_INTS)),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, inner, max_size=4)
    ),
    max_leaves=20,
)


class TestJsonText:
    @settings(max_examples=150, deadline=None)
    @given(_VALUES)
    @example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300])
    @example([[1, 2], [3, False]])
    @example([1, True, 2])
    def test_matches_indent_2(self, value):
        assert graph.json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value",
        [
            {1: "int key"},
            {"a": {(1, 2): 0}},
            {1, 2},
            b"bytes",
            object(),
            [1, 2, 1j],
            [[1, 2], [3, {4}]],
            {"a": [range(3)]},
        ],
    )
    def test_unsupported_type_raises(self, value):
        with pytest.raises(TypeError):
            graph.json_text(value)


class TestDot:
    def test_fig2_dot(self):
        g = load_fig("fig2")
        dot = to_dot(g)
        assert dot.count("->") == 8
        assert dot.count("fillcolor") == 3  # leaders drawn filled
        assert to_dot(g) == dot  # deterministic

    def test_no_leaders_no_fill(self):
        g = ColoredDigraph(n=2, edges=((0, 1, 0),), colors=("c1",))
        assert "fillcolor" not in to_dot(g)

    def test_labels_carry_color_names(self):
        dot = to_dot(load_fig("fig8"))
        for name in ("c1", "c2", "c3", "c4", "c5"):
            assert f'label="{name}"' in dot

    def test_label_quote_and_backslash_escaped(self):
        g = ColoredDigraph(n=2, edges=((0, 1, 0),), colors=('a"b\\',))
        assert '  1 -> 2 [label="a\\"b\\\\" color=' in to_dot(g)


def test_vset_helpers_round_trip():
    mask = labels(1, 5, 9)
    assert vset_labels(mask) == (1, 5, 9)
    assert vset(v - 1 for v in (1, 5, 9)) == mask
