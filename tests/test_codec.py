"""The value-table codec: ``util.table_text`` against ``csv.writer``, the
report tables against the writer they replaced, and both table readers."""

import csv
import dataclasses
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_graph
from mmgraph import InputError, doubling_ratios, poincare_constant, quasiconvexity_constant
from mmgraph.analysis import DoublingRow, PoincareRow, QCRow
from mmgraph.cli import read_scalar_csv, read_vector_csv
from mmgraph.util import table_text

FORMATS = Path(__file__).resolve().parents[1] / "FORMATS.md"

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def csv_table(header, rows):
    """The report-table writer ``table_text`` replaced, kept as the oracle:
    ints as ``csv.writer`` writes them, anything else as ``repr(float(x))``."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([x if isinstance(x, int) else repr(float(x)) for x in row])
    return buf.getvalue()


INT64 = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), 2**63 - 1, 0, -1])
FLOATS = st.floats() | st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324])


@st.composite
def tables(draw):
    """A header and int or float columns, as lists or numpy arrays, of a
    length around the 4096-row blocks; each column repeats a drawn pattern."""
    n = draw(st.sampled_from([0, 1, 4095, 4096, 4097]) | st.integers(0, 12))
    header, columns = [], []
    for k, is_int in enumerate(draw(st.lists(st.booleans(), min_size=1, max_size=4))):
        pattern = draw(st.lists(INT64 if is_int else FLOATS, min_size=1, max_size=6))
        values = (pattern * (n // len(pattern) + 1))[:n]
        if draw(st.booleans()):
            values = np.array(values, dtype=np.int64 if is_int else np.float64)
        header.append(f"c{k}")
        columns.append(values)
    return header, columns


@SETTINGS
@given(tables())
def test_table_text_writes_the_csv_writer_bytes(table):
    header, columns = table
    lists = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    assert table_text(header, columns) == csv_table(header, zip(*lists))


def test_report_headers_are_the_documented_ones():
    section = FORMATS.read_text().split("## Report CSV tables")[1].split("\n## ")[0]
    documented = re.findall(r"`(\w+(?:,\w+)+)`", section)
    assert documented == [
        ",".join(f.name for f in dataclasses.fields(row)) for row in (QCRow, DoublingRow, PoincareRow)
    ]


@st.composite
def placed_graphs(draw, max_n=8):
    """Distinct positions, shuffled ids, zero-measure vertices and edges,
    maybe disconnected."""
    n = draw(st.integers(1, max_n))
    ids = draw(st.lists(st.integers(-20, 1000), min_size=n, max_size=n, unique=True))
    pts = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                        min_size=n, max_size=n, unique=True))
    vertices = [(v, draw(st.sampled_from([0.0, 0.5, 1.0])), p) for v, p in zip(ids, pts)]
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    lengths = st.sampled_from([1e-300, 1.0, 1e300]) | st.floats(0.01, 10.0)
    edges = [(a, b, draw(lengths), draw(st.sampled_from([0.0, 1.0]))) for a, b in chosen]
    return make_graph(vertices, edges)


@SETTINGS
@given(placed_graphs(), st.data())
def test_report_tables_match_the_writer_they_replaced(G, data):
    ids = G.vertex_ids.tolist()
    qc = quasiconvexity_constant(G, R=data.draw(st.sampled_from([math.inf, 2.0])),
                                 metric_choice=data.draw(st.sampled_from(["graph", "essential"])))
    assert qc.to_csv() == csv_table(
        ("source", "target", "ambient", "chosen", "ratio"),
        [(r.source, r.target, r.ambient, r.chosen, r.ratio) for r in qc.rows],
    )
    centers = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))
    scales = data.draw(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=3))
    db = doubling_ratios(G, centers, scales)
    assert db.to_csv() == csv_table(
        ("center", "r", "inner_measure", "outer_measure", "ratio"),
        [(r.center, r.r, r.inner_measure, r.outer_measure, r.ratio) for r in db.rows],
    )
    assert db.to_dict()["rows"] == [
        {"center": r.center, "r": r.r, "inner_measure": r.inner_measure,
         "outer_measure": r.outer_measure, "ratio": r.ratio} for r in db.rows
    ]
    u = {v: data.draw(st.floats(-5, 5)) for v in ids}
    rho = {v: data.draw(st.sampled_from([0.0, 0.5, math.inf])) for v in ids}
    pi = poincare_constant(G, u, rho, lam=data.draw(st.sampled_from([1.0, 2.0])), r=2.0,
                           exhaustive_radii=data.draw(st.booleans()))
    assert pi.to_csv() == csv_table(
        ("center", "radius", "measure", "oscillation", "sup_rho", "diameter", "C"),
        [(r.center, r.radius, r.measure, r.oscillation, r.sup_rho, r.diameter, r.C)
         for r in pi.rows],
    )


#: (table text, what the scalar reader reads, what the vector reader
#: reads): a dict, or the message after the path.
READ_CASES = {
    "header": ("vertex_id,value\n3,1.5\n4,-2.5\n", {3: 1.5, 4: -2.5}, {3: (1.5,), 4: (-2.5,)}),
    "no header": ("3,1.5\n4,-2.5\n", {3: 1.5, 4: -2.5}, {3: (1.5,), 4: (-2.5,)}),
    "blank rows": ("\n3,1.5\n\n , \n4,-2.5\n", {3: 1.5, 4: -2.5}, {3: (1.5,), 4: (-2.5,)}),
    "vector rows": (
        "vertex_id,v0,v1\n3,1.5,0\n", "expected 2 columns, got 3", {3: (1.5, 0.0)},
    ),
    "one column": ("vertex_id,value\n3\n", "expected 2 columns, got 1", "expected 2 columns, got 1"),
    "wide row": ("3,1.5\n4,1,2\n", "expected 2 columns, got 3", "expected 2 columns, got 3"),
    "ragged": ("vertex_id,v0,v1\n3,1,2\n4,1\n", "expected 2 columns, got 3", "expected 3 columns, got 2"),
    "duplicate id": ("3,1.5\n3,2.5\n", "duplicate vertex id 3", "duplicate vertex id 3"),
    "bad number": (
        "3,1.5\n4,x\n",
        "bad row ['4', 'x']: could not convert string to float: 'x'",
        "bad row ['4', 'x']: could not convert string to float: 'x'",
    ),
    "bad id": (
        "3,1.5\n4.0,1\n",
        "bad row ['4.0', '1']: invalid literal for int() with base 10: '4.0'",
        "bad row ['4.0', '1']: invalid literal for int() with base 10: '4.0'",
    ),
    "empty file": ("", "empty table", "empty table"),
    "newline": ("\n", "empty table", "empty table"),
    "blank file": ("\n \n", "empty table", "empty table"),
    "header only": ("vertex_id,value\n", {}, {}),
}


@pytest.mark.parametrize("reader", [read_scalar_csv, read_vector_csv])
@pytest.mark.parametrize("case", READ_CASES, ids=list(READ_CASES))
def test_readers(reader, case, tmp_path):
    text, scalar, vector = READ_CASES[case]
    want = scalar if reader is read_scalar_csv else vector
    path = tmp_path / "t.csv"
    path.write_text(text)
    if isinstance(want, dict):
        assert reader(path) == want
    else:
        with pytest.raises(InputError, match=f"^{re.escape(f'{path}: {want}')}$"):
            reader(path)
