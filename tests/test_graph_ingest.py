"""Bulk TSV ingest and bulk writing against the row-at-a-time references.

``load_tag_graph`` parses rows into columns and builds the graph with
:func:`graph_from_columns`; ``save_tag_graph`` writes every row after
one sort. The references below are the row loops they replaced: the
loader feeds each row to :meth:`TagGraphBuilder.add`, the writer walks
edge ids and each edge's tags. Every loaded graph must equal the
reference's bit for bit (edge ids, tag order, per-tag arrays and
probability bits), every written file byte for byte, and every
malformed file must raise the reference's exception and message,
line number included, for the first bad row in file order.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphConstructionError
from repro.graphs import (
    TagGraph,
    TagGraphBuilder,
    graph_from_columns,
    graph_from_quadruples,
    load_tag_graph,
    save_tag_graph,
)
from repro.graphs.mutable import EdgeRemove, MutableTagGraph

# ----------------------------------------------------------------------
# Reference implementations: the row loops
# ----------------------------------------------------------------------


def reference_save(graph: TagGraph, path: Path) -> None:
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"# nodes={graph.num_nodes}\n")
        src = graph.src
        dst = graph.dst
        for eid in range(graph.num_edges):
            for tag, prob in sorted(graph.edge_tag_map(eid).items()):
                handle.write(
                    f"{src[eid]}\t{dst[eid]}\t{tag}\t{prob:.17g}\n"
                )


def reference_load(path: Path) -> TagGraph:
    with path.open("r", encoding="utf-8") as handle:
        header = handle.readline().strip()
        if not header.startswith("# nodes="):
            raise GraphConstructionError(
                f"{path}: missing '# nodes=<n>' header, got {header!r}"
            )
        try:
            num_nodes = int(header.split("=", 1)[1])
        except ValueError as exc:
            raise GraphConstructionError(
                f"{path}: unparsable node count in header {header!r}"
            ) from exc
        builder = TagGraphBuilder(num_nodes)
        for lineno, line in enumerate(handle, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise GraphConstructionError(
                    f"{path}:{lineno}: expected 4 tab-separated fields, "
                    f"got {len(parts)}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
                prob = float(parts[3])
            except ValueError as exc:
                raise GraphConstructionError(
                    f"{path}:{lineno}: unparsable edge row {line!r}"
                ) from exc
            builder.add(u, v, parts[2], prob)
    return builder.build()


def reference_quadruples(num_nodes: int, rows) -> TagGraph:
    builder = TagGraphBuilder(num_nodes)
    for u, v, tag, prob in rows:
        builder.add(u, v, tag, prob)
    return builder.build()


def assert_bit_identical(got: TagGraph, want: TagGraph) -> None:
    assert got.num_nodes == want.num_nodes
    for name in ("src", "dst"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.tolist() == w.tolist()
    assert got.tags == want.tags
    for tag in want.tags:
        g_ids, g_ps = got.tag_edges(tag)
        w_ids, w_ps = want.tag_edges(tag)
        assert g_ids.dtype == w_ids.dtype and g_ids.tolist() == w_ids.tolist()
        assert g_ps.dtype == w_ps.dtype and g_ps.tobytes() == w_ps.tobytes()
    for name in ("forward_csr", "reverse_csr"):
        for g, w in zip(getattr(got, name)(), getattr(want, name)()):
            assert g.tolist() == w.tolist()


def raised(fn, *args) -> tuple[type, str] | None:
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared type and message
        return type(exc), str(exc)
    return None


# ----------------------------------------------------------------------
# Generated files
# ----------------------------------------------------------------------

TAGS = ("a", "b c", " lead", "trail ", "x#y", "é", "")
#: Renderings of probabilities the loader must parse as ``float`` does.
PROBS = st.one_of(
    st.sampled_from(["0.5", "1", "1.0", "0.25", "5e-1", " 0.75", "1_0e-1"]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True).map(
        lambda p: f"{p:.17g}"
    ),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True).map(repr),
)


@st.composite
def tsv_rows(draw):
    """``(num_nodes, rows)``: valid rows of repeated (u, v) pairs."""
    n = draw(st.integers(2, 7))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=1,
            max_size=6,
        )
    )
    rows = draw(
        st.lists(
            st.tuples(st.sampled_from(pairs), st.sampled_from(TAGS), PROBS),
            max_size=30,
            unique_by=lambda r: (r[0], r[1]),
        )
    )
    node_text = st.sampled_from(["{}", "{}", "+{}", " {}", "0{}"])
    lines = [
        f"{draw(node_text).format(u)}\t{v}\t{tag}\t{prob}"
        for (u, v), tag, prob in rows
    ]
    return n, lines


def render(n: int, lines: list[str], data) -> str:
    """Join rows with blank lines, comments and mixed line endings."""
    out = [f"# nodes={n}"]
    for line in lines:
        out.extend(data.draw(st.lists(
            st.sampled_from(["", "# comment", "#\tc\tx", "   "]), max_size=1
        )))
        out.append(line)
    ends = data.draw(st.lists(
        st.sampled_from(["\n", "\r\n", "\r"]),
        min_size=len(out),
        max_size=len(out),
    ))
    return "".join(line + end for line, end in zip(out, ends))


def write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@SETTINGS
@given(file=tsv_rows(), data=st.data())
def test_load_matches_reference_bit_for_bit(tmp_path, file, data):
    n, lines = file
    path = write(tmp_path, "g.tsv", render(n, lines, data))
    assert_bit_identical(load_tag_graph(path), reference_load(path))


@SETTINGS
@given(file=tsv_rows(), data=st.data())
def test_save_matches_reference_byte_for_byte(tmp_path, file, data):
    n, lines = file
    graph = reference_load(write(tmp_path, "g.tsv", render(n, lines, data)))
    save_tag_graph(graph, tmp_path / "new.tsv")
    reference_save(graph, tmp_path / "ref.tsv")
    assert (tmp_path / "new.tsv").read_bytes() == (
        tmp_path / "ref.tsv"
    ).read_bytes()
    # A round trip keeps ids and values; tags come back in edge id order.
    assert load_tag_graph(tmp_path / "new.tsv") == graph


@SETTINGS
@given(file=tsv_rows())
def test_quadruples_match_reference(file):
    n, lines = file
    rows = [
        (int(u), int(v), tag, float(p))
        for u, v, tag, p in (line.split("\t") for line in lines)
    ]
    assert_bit_identical(
        graph_from_quadruples(n, rows), reference_quadruples(n, rows)
    )


def test_chunked_read_spans_many_chunks(tmp_path):
    """A file much larger than one parse chunk loads like the reference."""
    rng = np.random.default_rng(5)
    n = 400
    lines = []
    for i in range(30000):
        u, v = (int(x) for x in rng.choice(n, 2, replace=False))
        lines.append(f"{u}\t{v}\ttag-{i % 97}\t{rng.uniform(0.01, 1):.17g}")
    lines = list(dict.fromkeys(lines))  # exact repeats would be duplicates
    keyed = {}
    for line in lines:
        u, v, tag, _ = line.split("\t")
        keyed.setdefault((u, v, tag), line)
    path = write(
        tmp_path, "big.tsv", f"# nodes={n}\n" + "\n".join(keyed.values())
    )
    assert_bit_identical(load_tag_graph(path), reference_load(path))


# ----------------------------------------------------------------------
# Malformed files: the reference's message for the first bad row
# ----------------------------------------------------------------------

#: One bad row per malformed-file class; ``{n}`` is the node count.
FAULTS = {
    "too-few-fields": "0\t1\ta",
    "too-many-fields": "0\t1\ta\t0.5\t9",
    "unparsable-int": "zero\t1\ta\t0.5",
    "unparsable-float": "0\t1\ta\tnope",
    "float-node": "0.0\t1\ta\t0.5",
    "node-out-of-range": "0\t{n}\ta\t0.5",
    "negative-node": "-1\t1\ta\t0.5",
    "huge-node": "0\t99999999999999999999999\ta\t0.5",
    "self-loop": "1\t1\ta\t0.5",
    "prob-zero": "0\t1\ta\t0",
    "prob-above-one": "0\t1\ta\t1.5",
    "prob-nan": "0\t1\ta\tnan",
    "prob-negative": "0\t1\ta\t-0.5",
    "prob-inf": "0\t1\ta\tinf",
}


def fault_line(kind: str, n: int, lines: list[str], index: int) -> str:
    if kind == "duplicate":
        if not lines:
            return "0\t1\ta\t0.5\n0\t1\ta\t0.25"
        u, v, tag, _ = lines[index % len(lines)].split("\t")
        return f"{u}\t{v}\t{tag}\t0.125"
    return FAULTS[kind].format(n=n)


KINDS = sorted(FAULTS) + ["duplicate"]


@pytest.mark.parametrize("kind", KINDS)
def test_each_malformed_class_raises_reference_error(tmp_path, kind):
    lines = ["0\t1\ta\t0.5", "# c", "1\t2\tb\t0.25", "2\t0\ta\t1"]
    bad = fault_line(kind, 3, lines, 0)
    path = write(tmp_path, "bad.tsv", "# nodes=3\n" + "\n".join(
        lines[:3] + [bad] + lines[3:]
    ) + "\n")
    want = raised(reference_load, path)
    assert want is not None and want[0] is GraphConstructionError
    assert raised(load_tag_graph, path) == want


@SETTINGS
@given(
    file=tsv_rows(),
    faults=st.lists(
        st.tuples(st.sampled_from(KINDS), st.integers(0, 40)),
        min_size=1,
        max_size=2,
    ),
    data=st.data(),
)
def test_first_fault_in_file_order_wins(tmp_path, file, faults, data):
    n, valid = file
    lines = list(valid)
    for kind, at in faults:
        lines.insert(at % (len(lines) + 1), fault_line(kind, n, valid, at))
    path = write(tmp_path, "bad.tsv", render(n, lines, data))
    want = raised(reference_load, path)
    assert want is not None
    assert raised(load_tag_graph, path) == want


@pytest.mark.parametrize("header", [
    "0\t1\ta\t0.5", "# nodes=abc", "# nodes=-2", "", "# nodes=1_0",
])
def test_header_errors_match_reference(tmp_path, header):
    path = write(tmp_path, "h.tsv", header + "\n0\t1\ta\t0.5\n")
    assert raised(load_tag_graph, path) == raised(reference_load, path)


def test_negative_node_count_wins_over_a_bad_row(tmp_path):
    path = write(tmp_path, "h.tsv", "# nodes=-1\n0\t1\n")
    want = raised(reference_load, path)
    assert want == (GraphConstructionError, "num_nodes must be >= 0, got -1")
    assert raised(load_tag_graph, path) == want


@pytest.mark.parametrize("kind", KINDS)
def test_quadruple_errors_match_reference(kind):
    line = fault_line(kind, 3, ["1\t2\tb\t0.25"], 0)
    rows = [(0, 1, "a", 0.5), (1, 2, "b", 0.25)]
    for bad in line.split("\n"):
        parts = bad.split("\t")
        if len(parts) != 4:
            rows.append(tuple(parts))
            continue
        try:
            rows.append((int(parts[0]), int(parts[1]), parts[2],
                         float(parts[3])))
        except ValueError:
            rows.append(tuple(parts))
    want = raised(reference_quadruples, 3, rows)
    assert want is not None
    assert raised(graph_from_quadruples, 3, rows) == want


def test_quadruples_accept_numpy_scalars_like_the_builder():
    rows = [
        (np.int64(0), np.int32(1), "a", np.float64(0.5)),
        (1, 2, np.str_("b"), 1),
        (0, 1, "b", np.float32(0.25)),
    ]
    assert_bit_identical(
        graph_from_quadruples(3, rows), reference_quadruples(3, rows)
    )
    bad = rows + [(1, 1, "a", np.float64(0.5))]
    assert raised(graph_from_quadruples, 3, bad) == raised(
        reference_quadruples, 3, bad
    )


# ----------------------------------------------------------------------
# graph_from_columns
# ----------------------------------------------------------------------


def test_columns_assign_ids_by_first_appearance():
    # Sorted (u, v) keys would number (0, 2) before (1, 0) and (2, 1).
    g = graph_from_columns(
        3, [2, 1, 0, 2], [1, 0, 2, 1], [0, 1, 0, 1], [0.1, 0.2, 0.3, 0.4],
        ["x", "y"],
    )
    assert g.src.tolist() == [2, 1, 0]
    assert g.dst.tolist() == [1, 0, 2]
    assert g.tag_edges("x")[0].tolist() == [0, 2]
    assert g.tag_edges("y")[0].tolist() == [1, 0]


def test_columns_replay_names_first_bad_row():
    with pytest.raises(GraphConstructionError) as exc:
        graph_from_columns(
            3, [0, 1, 1, 0], [1, 1, 2, 1], [0, 0, 0, 0],
            [0.5, 0.5, 2.0, 0.5], ["t"],
        )
    assert str(exc.value) == "self-loop (1, 1) not allowed"


@pytest.mark.parametrize("columns, message", [
    (([0], [1], [1], [0.5]), r"tag_ids must be integers in \[0, 1\)"),
    (([0], [1], [-1], [0.5]), r"tag_ids must be integers in \[0, 1\)"),
    (([0], [1], [0.0], [0.5]), r"tag_ids must be integers in \[0, 1\)"),
    (([0, 1], [1], [0], [0.5]), "1-D and of equal length"),
])
def test_columns_reject_malformed_columns(columns, message):
    with pytest.raises(GraphConstructionError, match=message):
        graph_from_columns(3, *columns, ["t"])


def test_columns_with_no_rows_and_repeated_names():
    empty = graph_from_columns(4, [], [], [], [], [])
    assert (empty.num_nodes, empty.num_edges, empty.tags) == (4, 0, ())
    # A name listed twice is one tag: the builder merges its rows.
    g = graph_from_columns(3, [0, 1], [1, 2], [0, 1], [0.5, 0.25], ["t", "t"])
    assert g.tags == ("t",) and g.tag_edges("t")[0].tolist() == [0, 1]


# ----------------------------------------------------------------------
# The writer
# ----------------------------------------------------------------------


@pytest.mark.parametrize("tag", ["a\tb", "a\nb", "a\rb", "\r\n"])
def test_writer_refuses_unreadable_tags_before_writing(tmp_path, tag):
    graph = TagGraph(2, [0], [1], {"fine": ([0], [0.5]), tag: ([0], [0.5])})
    path = tmp_path / "out.tsv"
    with pytest.raises(GraphConstructionError) as exc:
        save_tag_graph(graph, path)
    assert repr(tag) in str(exc.value)
    assert not path.exists()


def test_writer_keeps_a_tag_without_rows_out_of_the_check(tmp_path):
    # A tag with no entries writes no row, so its name cannot break a line.
    empty = np.empty(0, dtype=np.int64)
    graph = TagGraph(2, [0], [1], {"a\tb": (empty, empty.astype(float)),
                                   "fine": ([0], [0.5])})
    save_tag_graph(graph, tmp_path / "new.tsv")
    reference_save(graph, tmp_path / "ref.tsv")
    assert (tmp_path / "new.tsv").read_bytes() == (
        tmp_path / "ref.tsv"
    ).read_bytes()


def test_writer_builds_no_per_edge_maps(tmp_path):
    graph = graph_from_quadruples(3, [(0, 1, "a", 0.5), (1, 2, "b", 0.25)])
    save_tag_graph(graph, tmp_path / "g.tsv")
    assert graph._edge_tag_maps is None


def test_writer_keeps_extreme_probabilities_exact(tmp_path):
    probs = [5e-324, 1.0, math.nextafter(1.0, 0.0), 0.1, 1 / 3]
    graph = TagGraph(2, [0], [1], {
        f"t{i}": ([0], [p]) for i, p in enumerate(probs)
    })
    save_tag_graph(graph, tmp_path / "new.tsv")
    reference_save(graph, tmp_path / "ref.tsv")
    assert (tmp_path / "new.tsv").read_bytes() == (
        tmp_path / "ref.tsv"
    ).read_bytes()
    assert_bit_identical(load_tag_graph(tmp_path / "new.tsv"), graph)


def test_writer_refuses_a_tagless_edge_before_writing(tmp_path):
    """An edge with no tag rows cannot be written: a reload would
    renumber every later edge. ``EdgeRemove`` leaves such an edge, and
    ``compact()`` keeps it (edge ids survive compaction)."""
    base = TagGraph(4, [0, 1, 2], [1, 2, 3], {"a": ([0, 1, 2], [0.5] * 3)})
    mutable = MutableTagGraph(base)
    mutable.apply([EdgeRemove(edge_id=1)])
    mutable.compact()
    path = tmp_path / "out.tsv"
    with pytest.raises(GraphConstructionError, match="edge 1 has no tags"):
        save_tag_graph(mutable.snapshot(), path)
    assert not path.exists()
