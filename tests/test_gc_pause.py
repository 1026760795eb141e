"""The file readers run with the cyclic garbage collector paused
(``util.gc_paused``): the collector's state comes back as it was, no
collection runs inside them, and what they read is unchanged."""

import contextlib
import gc
import inspect
import sys

import pytest

from mmgraph import InputError, MeshSpec, gen_grid, load_graph, save_graph
from mmgraph.util import gc_paused, read_table

#: The mesh ladder of the benchmark's cli workload.
LADDER = {
    "grid32": {"kind": "grid", "h": 1 / 32, "rect": [0, 0, 1, 1]},
    "grid64": {"kind": "grid", "h": 1 / 64, "rect": [0, 0, 1, 1]},
    "grid128": {"kind": "grid", "h": 1 / 128, "rect": [0, 0, 1, 1]},
    "cusp": {"kind": "cusp", "psi": "exp", "h": 1 / 16},
    "carpet": {"kind": "carpet", "level": 4, "negligible_mode": "all"},
    "collapsed": {"kind": "collapsed", "h": 1 / 64, "e": [[0.31, 0.62], [0.55, 0.27]],
                  "box": [0, 0, 1, 1]},
}

#: The seven columns a graph is built from.
COLUMNS = ("_ids", "_mu", "_pos", "_edge_ia", "_edge_ib", "_edge_len", "_edge_mu")


@contextlib.contextmanager
def collector(enabled):
    """Run the body with the collector on or off, then put it back."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


def collections_in(fn, *args):
    """Call ``fn`` with the collector on and count the collections that
    start while its body runs, that is, while a frame of its own code (not
    of a decorator around it) is on the stack.  A collection that starts
    as the pause ends, which the young objects ``fn`` returns may set off,
    is not counted: it would run anyway, at the caller's next allocation."""
    code = inspect.unwrap(fn).__code__
    counts = [0, 0, 0]

    def count(phase, info):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not code:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            counts[info["generation"]] += 1

    gc.callbacks.append(count)
    try:
        with collector(True):
            result = fn(*args)
    finally:
        gc.callbacks.remove(count)
    return result, counts


@pytest.fixture(scope="module")
def grid64_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pause") / "grid64.json"
    save_graph(gen_grid(1 / 64, (0.0, 0.0, 1.0, 1.0)), path)
    return path


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pause") / "table.csv"
    path.write_text("vertex_id,v0,v1\n" + "".join(f"{i},{i / 7!r},-1.5\n" for i in range(2000)))
    return path


@pytest.mark.parametrize("enabled", [True, False])
class TestState:
    def test_gc_paused_restores_the_state(self, enabled):
        with collector(enabled):
            with gc_paused():
                assert not gc.isenabled()
            assert gc.isenabled() is enabled
            with pytest.raises(KeyError):
                with gc_paused():
                    raise KeyError("x")
            assert gc.isenabled() is enabled

    def test_load_graph_restores_the_state(self, enabled, grid64_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [{"id": 0.5, "mu": 1.0}], "edges": []}')
        with collector(enabled):
            load_graph(grid64_file)
            assert gc.isenabled() is enabled
            with pytest.raises(InputError, match="^vertex id must be an integer$"):
                load_graph(bad)
            assert gc.isenabled() is enabled

    def test_read_table_restores_the_state(self, enabled, table_file, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("3,1.5\n3,2.5\n")
        with collector(enabled):
            read_table(table_file)
            assert gc.isenabled() is enabled
            with pytest.raises(InputError, match="duplicate vertex id 3$"):
                read_table(bad)
            assert gc.isenabled() is enabled


class TestNoCollections:
    @pytest.mark.parametrize("reader", [load_graph, read_table], ids=["load_graph", "read_table"])
    def test_the_same_read_collects_without_the_pause(self, reader, grid64_file, table_file):
        """So the zero counts below are the pause's doing."""
        path = grid64_file if reader is load_graph else table_file
        _, counts = collections_in(inspect.unwrap(reader), path)
        assert counts[0] > 0

    def test_load_graph(self, grid64_file):
        G, counts = collections_in(load_graph, grid64_file)
        assert G.n_vertices == 65 ** 2
        assert counts == [0, 0, 0]

    def test_read_table(self, table_file):
        rows, counts = collections_in(read_table, table_file)
        assert len(rows) == 2000
        assert counts == [0, 0, 0]


@pytest.mark.parametrize("name", LADDER)
def test_ladder_files_load_to_the_built_arrays(name, tmp_path):
    """Equal values and dtypes, column by column, against the graph the
    file was written from."""
    G = MeshSpec.from_dict(LADDER[name]).build()
    save_graph(G, tmp_path / "g.json")
    H = load_graph(tmp_path / "g.json")
    for col in COLUMNS:
        want, got = getattr(G, col), getattr(H, col)
        if want is None:
            assert got is None
            continue
        assert got.dtype == want.dtype, col
        assert got.shape == want.shape, col
        assert got.tobytes() == want.tobytes(), col
