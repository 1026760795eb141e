"""End-to-end tests for the command-line interface (in-process)."""

import contextlib
import csv
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_graph, path_graph
from mmgraph import (
    MeshSpec, MetricMeasureGraph, components, gen_grid, nagata_cover, save_graph,
    shortest_path,
)
from mmgraph.cli import _scalar_csv, main, read_scalar_csv, read_vector_csv
from mmgraph.util import dump_json, parse_int_list

GRID_SPEC = '{"kind": "grid", "h": 0.25, "rect": [0, 0, 1, 1]}'
L_SPEC = {"kind": "simplicial", "h": 0.25, "points": [[0, 0], [1, 0], [1, 1]],
          "segments": [[0, 1], [1, 2]]}
FAR_SPEC = dict(L_SPEC, points=[[0, 0], [1e308, 0], [-1e308, 0]])
FINE_SPEC = {"kind": "simplicial", "points": [[0, 0], [1, 0]], "segments": [[0, 1]], "h": 1e-9}


def run(*argv):
    return main([str(a) for a in argv])


def write_csv(path, rows, header=("vertex_id", "value")):
    lines = [",".join(map(str, header))] if header else []
    lines += [",".join(map(str, r)) for r in rows]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def grid_path(tmp_path):
    out = tmp_path / "grid.json"
    assert run("gen", "--spec", GRID_SPEC, "--out", out) == 0
    return out


@pytest.fixture
def path11(tmp_path):
    out = tmp_path / "path11.json"
    save_graph(path_graph(11, edge_len=0.1), out)
    return out


class TestGenAuditDist:
    def test_gen_report(self, tmp_path):
        out = tmp_path / "g.json"
        rep = tmp_path / "r.json"
        assert run("gen", "--spec", GRID_SPEC, "--out", out, "--report", rep) == 0
        payload = json.loads(rep.read_text())
        assert payload["command"] == "gen"
        assert payload["kind"] == "grid"
        assert payload["n_vertices"] == 25
        assert payload["n_edges"] == 72
        assert payload["schema_version"] == 1
        assert payload["seed"] == 0

    def test_gen_spec_from_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(GRID_SPEC)
        out = tmp_path / "g.json"
        assert run("gen", "--spec", spec, "--out", out) == 0
        assert json.loads(out.read_text())["vertices"]

    def test_audit(self, grid_path, tmp_path):
        rep = tmp_path / "audit.json"
        assert run("audit", "--graph", grid_path, "--report", rep) == 0
        payload = json.loads(rep.read_text())
        assert payload["n_vertices"] == 25
        assert payload["valid"] is True
        assert payload["components_graph_metric"] == 1
        assert payload["zero_measure_vertices"] == 0

    def test_dist_csv(self, grid_path, tmp_path):
        out = tmp_path / "d.csv"
        assert run("dist", "--graph", grid_path, "--source", 0, "--out", out) == 0
        d = read_scalar_csv(out)
        assert len(d) == 25
        assert d[0] == 0.0
        assert d[24] == pytest.approx(math.sqrt(2))

    def test_dist_target_report(self, grid_path, tmp_path):
        rep = tmp_path / "d.json"
        assert run(
            "dist", "--graph", grid_path, "--source", "0,24", "--target", 4,
            "--report", rep,
        ) == 0
        payload = json.loads(rep.read_text())
        assert payload["distance"] == pytest.approx(1.0)
        assert payload["source"] == 0
        assert payload["path"][0] == 0 and payload["path"][-1] == 4

    @pytest.mark.parametrize("cmd", ["dist", "essdist"])
    @pytest.mark.parametrize("sources, target", [
        ("0,5,17,40,99", 500), ("40,17,17,5", 500), ("16,18", 17), ("18,16", 17),
        ("3,3,7", 7), ("7", 7), ("0,1088", 544), ("5,6", 2000), ("2000,4", 0),
    ])
    def test_dist_target_is_one_search_over_the_sources(
        self, cmd, sources, target, tmp_path, monkeypatch
    ):
        """The report is the first listed source's with the strictly
        smallest distance, its path as ``shortest_path`` gives it, from one
        kernel call for all the sources; 2000 hangs off the grid by a
        zero-measure edge, so the essential metric cannot reach it."""
        G = gen_grid(1 / 32, (0.0, 0.0, 1.0, 1.0))
        H = MetricMeasureGraph.from_arrays(
            np.append(G.vertex_ids, 2000), np.append(G.mu, 1.0),
            np.vstack([G.pos, [[2.0, 2.0]]]),
            np.append(G.vertex_ids[G._edge_ia], 2000), np.append(G.vertex_ids[G._edge_ib], 0),
            np.append(G.edge_lengths, 0.5), np.append(G.edge_measures, 0.0),
        )
        gp, rep = tmp_path / "g.json", tmp_path / "d.json"
        save_graph(H, gp)
        metric = "graph" if cmd == "dist" else "essential"
        best = None
        for s in parse_int_list(sources):
            res = shortest_path(H, s, target, edge_filter=metric)
            if best is None or res.length < best[1].length:
                best = (s, res)
        calls = []
        orig = MetricMeasureGraph.distances_from
        monkeypatch.setattr(MetricMeasureGraph, "distances_from",
                            lambda self, *a, **k: calls.append(1) or orig(self, *a, **k))
        assert run(cmd, "--graph", gp, "--source", sources, "--target", target,
                   "--report", rep) == 0
        assert len(calls) == 1
        payload = json.loads(rep.read_text())
        assert payload["source"] == best[0]
        assert payload["distance"] == best[1].length
        assert payload["path"] == list(best[1].vertex_sequence)

    def test_essdist_skips_negligible_edges(self, tmp_path):
        # triangle with a zero-measure direct edge forcing the detour
        G = make_graph(
            [(0, 1.0), (1, 1.0), (2, 1.0)],
            [(0, 1, 1.0, 0.0), (0, 2, 3.0), (2, 1, 3.0)],
        )
        gp = tmp_path / "tri.json"
        save_graph(G, gp)
        rep = tmp_path / "e.json"
        assert run(
            "essdist", "--graph", gp, "--source", 0, "--target", 1, "--report", rep
        ) == 0
        payload = json.loads(rep.read_text())
        assert payload["distance"] == pytest.approx(6.0)
        assert payload["metric"] == "essential"
        rep2 = tmp_path / "g.json"
        assert run(
            "dist", "--graph", gp, "--source", 0, "--target", 1, "--report", rep2
        ) == 0
        assert json.loads(rep2.read_text())["distance"] == pytest.approx(1.0)


def csv_writer_scalar_csv(values):
    """The scalar table as ``csv.writer`` writes it: the oracle for the
    template-rendered ``cli._scalar_csv``."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["vertex_id", "value"])
    for vid in sorted(values):
        w.writerow([vid, repr(float(values[vid]))])
    return buf.getvalue()


def lines(text):
    """Rows with their line ends: equal exactly when the texts are, and a
    failure reports the first differing row instead of diffing long texts."""
    return text.splitlines(keepends=True)


FLOATS = st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300]) | st.floats()


class TestScalarTables:
    @settings(max_examples=200, deadline=None)
    @given(values=st.dictionaries(st.integers(-(2**63), 2**63 - 1), FLOATS, max_size=30))
    def test_scalar_csv_writes_the_csv_writer_bytes(self, values):
        assert _scalar_csv(values) == csv_writer_scalar_csv(values)

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8193])
    def test_block_boundaries(self, n):
        values = {3 * k - 7: k / 3 for k in range(n)}
        assert lines(_scalar_csv(values)) == lines(csv_writer_scalar_csv(values))

    def test_dist_and_essdist_out_on_a_disconnected_graph(self, tmp_path):
        """A path longer than one block, a negligible edge in it and two
        isolated vertices: rows of ``inf`` in both metrics."""
        n = 4200
        G = make_graph(
            [(k, 1.0) for k in range(n + 2)],
            [(k, k + 1, 0.5, 0.0 if k == 3000 else 1.0) for k in range(n - 1)],
        )
        gp = tmp_path / "g.json"
        save_graph(G, gp)
        for command, metric in (("dist", "graph"), ("essdist", "essential")):
            out = tmp_path / f"{command}.csv"
            assert run(command, "--graph", gp, "--source", "2,10", "--out", out) == 0
            d = G.distances_from([2, 10], mask=metric, min_only=True)
            want = csv_writer_scalar_csv(dict(zip(G.vertex_ids.tolist(), d.tolist())))
            assert lines(out.read_text()) == lines(want)
            assert f"{n + 1},inf\n" in want
        assert "3500,inf\n" in (tmp_path / "essdist.csv").read_text()

    def test_extend_and_amle_out(self, grid_path, tmp_path):
        bd = tmp_path / "bd.csv"
        write_csv(bd, [(0, 0.0), (4, 1.0), (20, -0.5), (24, 2.0), (12, 0.25)])
        for argv in (
            ("extend", "--truncate"),
            ("extend",),
            ("amle", "--whole-boundary", "--tol", "1e-12"),
        ):
            out = tmp_path / "out.csv"
            assert run(*argv, "--graph", grid_path, "--boundary", bd, "--out", out) == 0
            text = out.read_text()
            assert len(text.splitlines()) == 26
            assert text == csv_writer_scalar_csv(read_scalar_csv(out))


class TestAuditComponentCounts:
    def audit(self, G, tmp_path):
        gp, rep = tmp_path / "g.json", tmp_path / "a.json"
        save_graph(G, gp)
        assert run("audit", "--graph", gp, "--report", rep) == 0
        payload = json.loads(rep.read_text())
        return payload["components_graph_metric"], payload["components_essential_metric"]

    def counts(self, G):
        return len(components(G)), len(components(G, edge_filter="positive"))

    def test_empty_graph(self, tmp_path):
        G = make_graph([], [])
        assert self.audit(G, tmp_path) == self.counts(G) == (0, 0)

    def test_isolated_vertices(self, tmp_path):
        G = make_graph([(k, 1.0) for k in (3, 8, 9, 40)], [(8, 9, 1.0, 0.0)])
        assert self.audit(G, tmp_path) == self.counts(G) == (3, 4)

    def test_wall_of_negligible_edges_splits_the_essential_metric(self, tmp_path):
        G = gen_grid(1 / 8, rect=(0, 0, 1, 1))
        x = dict(zip(G.vertex_ids.tolist(), G.pos[:, 0].tolist()))
        crosses = lambda e: min(x[e.a], x[e.b]) < 0.45 < max(x[e.a], x[e.b])
        W = make_graph(
            [(int(v), float(m)) for v, m in zip(G.vertex_ids, G.mu)],
            [(e.a, e.b, e.length, 0.0 if crosses(e) else 1.0) for e in G.edges()],
        )
        assert self.audit(W, tmp_path) == self.counts(W) == (1, 2)


class TestAnalysisCommands:
    def test_qc_report(self, grid_path, tmp_path):
        rep = tmp_path / "qc.json"
        assert run(
            "qc", "--graph", grid_path, "--R", "inf", "--seed", 7, "--report", rep
        ) == 0
        payload = json.loads(rep.read_text())
        assert payload["command"] == "qc"
        assert payload["seed"] == 7
        assert payload["C"] >= 1.0
        assert len(payload["worst_pair"]) == 2

    def test_doubling_report(self, grid_path, tmp_path):
        rep = tmp_path / "db.json"
        assert run(
            "doubling", "--graph", grid_path, "--centers", "12", "--scales",
            "0.3,0.6", "--report", rep,
        ) == 0
        payload = json.loads(rep.read_text())
        assert payload["command"] == "doubling"
        assert len(payload["rows"]) >= 1
        assert all(r["ratio"] >= 1.0 for r in payload["rows"])

    def test_pi_check(self, path11, tmp_path):
        u_csv = tmp_path / "u.csv"
        rho_csv = tmp_path / "rho.csv"
        write_csv(u_csv, [(i, i * 0.1) for i in range(11)])
        write_csv(rho_csv, [(i, 1.0) for i in range(11)])
        rep = tmp_path / "pi.json"
        assert run(
            "pi-check", "--graph", path11, "--u", u_csv, "--rho", rho_csv,
            "--lam", 1.0, "--r", 2.0, "--report", rep,
        ) == 0
        payload = json.loads(rep.read_text())
        assert payload["command"] == "pi-check"
        assert np.isfinite(payload["best_C"])

    def test_csv_row_output(self, grid_path, path11, tmp_path):
        qc_csv = tmp_path / "qc.csv"
        assert run(
            "qc", "--graph", grid_path, "--R", "inf",
            "--report", tmp_path / "qc.json", "--csv", qc_csv,
        ) == 0
        lines = qc_csv.read_text().strip().split("\n")
        assert lines[0] == "source,target,ambient,chosen,ratio"
        assert len(lines) > 1
        assert all(float(line.split(",")[4]) >= 1.0 for line in lines[1:])

        db_csv = tmp_path / "db.csv"
        assert run(
            "doubling", "--graph", grid_path, "--centers", "12,0", "--scales",
            "0.3,0.6", "--report", tmp_path / "db.json", "--csv", db_csv,
        ) == 0
        lines = db_csv.read_text().strip().split("\n")
        assert lines[0] == "center,r,inner_measure,outer_measure,ratio"
        assert len(lines) == 5

        u_csv, rho_csv = tmp_path / "u.csv", tmp_path / "rho.csv"
        write_csv(u_csv, [(i, i * 0.1) for i in range(11)])
        write_csv(rho_csv, [(i, 1.0) for i in range(11)])
        pi_csv = tmp_path / "pi.csv"
        assert run(
            "pi-check", "--graph", path11, "--u", u_csv, "--rho", rho_csv,
            "--lam", 1.0, "--r", 2.0, "--report", tmp_path / "pi.json",
            "--csv", pi_csv,
        ) == 0
        lines = pi_csv.read_text().strip().split("\n")
        assert lines[0] == "center,radius,measure,oscillation,sup_rho,diameter,C"
        assert len(lines) == 1 + 11 * 4


class TestExtendCommand:
    def test_mcshane_roundtrip(self, path11, tmp_path):
        b_csv = tmp_path / "b.csv"
        write_csv(b_csv, [(0, 0.0), (10, 1.0)])
        out = tmp_path / "ext.csv"
        rep = tmp_path / "ext.json"
        assert run(
            "extend", "--graph", path11, "--boundary", b_csv, "--out", out,
            "--report", rep, "--certify",
        ) == 0
        ext = read_scalar_csv(out)
        assert ext[0] == 0.0 and ext[10] == 1.0
        payload = json.loads(rep.read_text())
        assert payload["certified"] is True
        assert payload["lip_extension"] <= payload["lip_boundary"] + 1e-9
        assert payload["unreachable"] == []

    def test_truncate_caps_sup_norm(self, path11, tmp_path):
        b_csv = tmp_path / "b.csv"
        write_csv(b_csv, [(0, 0.0), (1, 0.1)])
        out = tmp_path / "t.csv"
        rep = tmp_path / "t.json"
        assert run(
            "extend", "--graph", path11, "--boundary", b_csv, "--truncate",
            "--out", out, "--report", rep,
        ) == 0
        ext = read_scalar_csv(out)
        assert max(abs(v) for v in ext.values()) == pytest.approx(0.1)
        assert json.loads(rep.read_text())["sup_norm"] == pytest.approx(0.1)

    @pytest.mark.parametrize("truncate", [False, True])
    def test_unreachable_means_infinite_distance(self, truncate, tmp_path, capsys):
        """L * d overflows at vertex 2, which is reachable; vertex 3 is not."""
        graph = tmp_path / "g.json"
        save_graph(
            make_graph(
                [(v, 1.0) for v in range(4)], [(0, 1, 1e-300), (1, 2, 1e300)]
            ),
            graph,
        )
        b_csv = tmp_path / "b.csv"
        write_csv(b_csv, [(0, 0.0), (1, 1.0)])
        argv = ["extend", "--graph", graph, "--boundary", b_csv,
                "--out", tmp_path / "e.csv", "--report", tmp_path / "e.json"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv, *(["--truncate"] if truncate else [])) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((tmp_path / "e.json").read_text())["unreachable"] == [3]
        ext = read_scalar_csv(tmp_path / "e.csv")
        assert ext[2] == (1.0 if truncate else math.inf)

    def test_certify_failure_exits_3(self, path11, tmp_path, monkeypatch):
        import mmgraph.extension as ext_mod

        def corrupt(G, omega, data, metric_choice="graph"):
            return {int(v): 0.5 for v in G.vertex_ids}

        monkeypatch.setattr(ext_mod, "mcshane_extend", corrupt)
        b_csv = tmp_path / "b.csv"
        write_csv(b_csv, [(0, 0.0), (10, 1.0)])
        assert run(
            "extend", "--graph", path11, "--boundary", b_csv, "--certify"
        ) == 3


class TestWhitneyCommand:
    def test_cover_only(self, grid_path, tmp_path):
        rep = tmp_path / "w.json"
        assert run(
            "whitney", "--graph", grid_path, "--omega", "0,1,5", "--certify",
            "--report", rep,
        ) == 0
        payload = json.loads(rep.read_text())
        assert payload["certified"] is True
        assert payload["multiplicity"] >= 1
        assert len(payload["blocks"]) >= 1

    def test_vector_extension(self, grid_path, tmp_path):
        b_csv = tmp_path / "f.csv"
        write_csv(
            b_csv,
            [(0, 1.0, 2.0), (1, 0.5, 1.5), (5, -1.0, 0.0)],
            header=("vertex_id", "v0", "v1"),
        )
        out = tmp_path / "F.csv"
        rep = tmp_path / "w.json"
        assert run(
            "whitney", "--graph", grid_path, "--boundary", b_csv, "--out", out,
            "--report", rep, "--certify",
        ) == 0
        F = read_vector_csv(out)
        assert F[0] == (1.0, 2.0)
        assert F[5] == (-1.0, 0.0)
        payload = json.loads(rep.read_text())
        assert payload["sup_norm_extension"] <= payload["sup_norm_data"] + 1e-12

    def test_non_finite_vector_data_exits_2(self, grid_path, tmp_path, capsys):
        b_csv = tmp_path / "v.csv"
        write_csv(b_csv, [(0, 0.0, 1.0), (4, "inf", 0.0)], header=None)
        assert run("whitney", "--graph", grid_path, "--boundary", b_csv) == 2
        assert capsys.readouterr().err == "error: boundary data not finite at vertex 4\n"

    def test_tampered_weight_fails_certification_with_exit_3(
        self, grid_path, monkeypatch, capsys
    ):
        import dataclasses

        import mmgraph.extension as ext_mod

        real = ext_mod.whitney_cover

        def tampered(*args, **kwargs):
            cover = real(*args, **kwargs)
            vid = max(cover.sigma)
            (bi, w), *rest = cover.sigma[vid]
            sigma = {**cover.sigma, vid: ((bi, w + 1.0), *rest)}
            return dataclasses.replace(cover, sigma=sigma)

        monkeypatch.setattr(ext_mod, "whitney_cover", tampered)
        assert run("whitney", "--graph", grid_path, "--omega", "0,1,5", "--certify") == 3
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"certification failure: bump \d+ jumps by \S+ over an edge of length 0\.25\n", err
        )


class TestAmleCommand:
    def test_whole_boundary_path_solution(self, path11, tmp_path):
        b_csv = tmp_path / "b.csv"
        write_csv(b_csv, [(0, 0.0), (10, 1.0)])
        out = tmp_path / "u.csv"
        rep = tmp_path / "u.json"
        assert run(
            "amle", "--graph", path11, "--boundary", b_csv, "--whole-boundary",
            "--out", out, "--report", rep, "--certify",
        ) == 0
        u = read_scalar_csv(out)
        for k in range(11):
            assert u[k] == pytest.approx(k / 10, abs=1e-8)
        payload = json.loads(rep.read_text())
        assert payload["converged"] is True
        assert payload["certified"] is True
        assert payload["metric"] == "graph"

    def test_interface_mode(self, path11, tmp_path):
        # CSV covers the complement; the unknown region is extended across
        b_csv = tmp_path / "b.csv"
        write_csv(b_csv, [(0, 0.0), (10, 1.0)])
        out = tmp_path / "u.csv"
        rep = tmp_path / "u.json"
        assert run(
            "amle", "--graph", path11, "--boundary", b_csv, "--metric",
            "essential", "--out", out, "--report", rep,
        ) == 0
        u = read_scalar_csv(out)
        assert u[5] == pytest.approx(0.5, abs=1e-8)
        assert json.loads(rep.read_text())["metric"] == "essential"

    def test_graph_metric_needs_whole_boundary(self, path11, tmp_path):
        b_csv = tmp_path / "b.csv"
        write_csv(b_csv, [(0, 0.0), (10, 1.0)])
        assert run(
            "amle", "--graph", path11, "--boundary", b_csv, "--metric", "graph"
        ) == 2

    @pytest.mark.parametrize("whole", [False, True])
    def test_unknown_boundary_id_exits_2(self, grid_path, tmp_path, capsys, whole):
        b_csv = tmp_path / "b.csv"
        write_csv(b_csv, [(0, 0.0), (8, 1.0), (999, 2.0)])
        flags = ["--whole-boundary"] if whole else []
        assert run("amle", "--graph", grid_path, "--boundary", b_csv, *flags) == 2
        assert capsys.readouterr().err == "error: unknown vertex id 999\n"

    def test_nonconvergence_exits_4(self, path11, tmp_path):
        b_csv = tmp_path / "b.csv"
        write_csv(b_csv, [(0, 0.0), (10, 1.0)])
        rep = tmp_path / "u.json"
        assert run(
            "amle", "--graph", path11, "--boundary", b_csv, "--whole-boundary",
            "--init", "min", "--max-iter", 0, "--report", rep,
        ) == 4
        payload = json.loads(rep.read_text())
        assert payload["converged"] is False
        assert payload["iterations"] == 0


class TestReportKeys:
    """Each report has the keys that FORMATS.md "Report JSON" lists for its
    command, plus the envelope; a body read off a result type's fields
    must neither gain nor lose one."""

    ENVELOPE = {"schema_version", "command", "seed"}
    BALL = {"center", "radius", "members", "measure"}
    PI = {"lambda", "r", "best_C", "witness_ball", "radii", "exhaustive_radii",
          "balls_checked", "skipped_zero_measure"}
    COVER = {"blocks", "anchors", "base_dists", "alpha", "beta", "delta",
             "multiplicity", "excluded"}
    VECTOR = {"sup_norm_data", "sup_norm_extension", "lip_data", "lip_extension",
              "expansion_factor"}
    AMLE = {"metric", "tol", "residual", "iterations", "converged", "degenerate_vertices"}

    def report(self, tmp_path, *argv):
        rep = tmp_path / "r.json"
        assert run(*argv, "--report", rep) == 0
        return json.loads(rep.read_text())

    def test_qc_and_doubling(self, grid_path, tmp_path):
        qc = self.report(tmp_path, "qc", "--graph", grid_path, "--R", "0.6")
        assert set(qc) == self.ENVELOPE | {
            "C", "R", "worst_pair", "samples", "exhaustive", "metric_choice"}
        db = self.report(tmp_path, "doubling", "--graph", grid_path,
                         "--centers", "12,0,12", "--scales", "0.3,0.6")
        assert set(db) == self.ENVELOPE | {"rows"}
        assert len(db["rows"]) == 6
        for row in db["rows"]:
            assert set(row) == {"center", "r", "inner_measure", "outer_measure", "ratio"}

    @pytest.mark.parametrize("u", [lambda i: i * 0.1, lambda i: 2.0], ids=["witness", "none"])
    def test_pi_check(self, path11, tmp_path, u):
        u_csv, rho_csv = tmp_path / "u.csv", tmp_path / "rho.csv"
        write_csv(u_csv, [(i, u(i)) for i in range(11)])
        write_csv(rho_csv, [(i, 1.0) for i in range(11)])
        pi = self.report(tmp_path, "pi-check", "--graph", path11, "--u", u_csv,
                         "--rho", rho_csv, "--lam", 1.0, "--r", 0.3)
        assert set(pi) == self.ENVELOPE | self.PI
        if u(1) == 2.0:
            assert pi["witness_ball"] is None
        else:
            assert set(pi["witness_ball"]) == self.BALL

    def test_whitney(self, grid_path, tmp_path):
        cover = self.report(tmp_path, "whitney", "--graph", grid_path, "--omega", "0,1,5")
        assert set(cover) == self.ENVELOPE | self.COVER
        b_csv = tmp_path / "f.csv"
        write_csv(b_csv, [(0, 1.0, 2.0), (1, 0.5, 1.5), (5, -1.0, 0.0)],
                  header=("vertex_id", "v0", "v1"))
        full = self.report(tmp_path, "whitney", "--graph", grid_path, "--boundary", b_csv,
                           "--out", tmp_path / "F.csv", "--certify")
        assert set(full) == self.ENVELOPE | self.COVER | self.VECTOR | {"certified"}

    @pytest.mark.parametrize("certify", [False, True])
    def test_amle(self, path11, tmp_path, certify):
        b_csv = tmp_path / "b.csv"
        write_csv(b_csv, [(0, 0.0), (10, 1.0)])
        rep = self.report(tmp_path, "amle", "--graph", path11, "--boundary", b_csv,
                          "--whole-boundary", "--out", tmp_path / "u.csv",
                          *(["--certify"] if certify else []))
        extra = {"certified", "local_residual"} if certify else set()
        assert set(rep) == self.ENVELOPE | self.AMLE | extra

    def test_nagata_cover(self):
        cover = nagata_cover(gen_grid(0.25, (0.0, 0.0, 1.0, 1.0)), 0.5)
        assert set(cover.to_dict()) == {"sets", "s", "c", "n", "probe_stats", "exceeded_target"}


class TestErrorPaths:
    def test_missing_graph_file(self, tmp_path):
        assert run("audit", "--graph", tmp_path / "nope.json") == 2

    def test_bad_spec_json(self, tmp_path):
        assert run("gen", "--spec", "{not json", "--out", tmp_path / "g.json") == 2

    def test_bad_metric_name(self, path11, tmp_path):
        b_csv = tmp_path / "b.csv"
        write_csv(b_csv, [(0, 0.0), (10, 1.0)])
        assert run(
            "extend", "--graph", path11, "--boundary", b_csv, "--metric", "fancy"
        ) == 2

    def test_duplicate_csv_id(self, path11, tmp_path):
        b_csv = tmp_path / "b.csv"
        write_csv(b_csv, [(0, 0.0), (0, 1.0)])
        assert run("extend", "--graph", path11, "--boundary", b_csv) == 2

    @pytest.mark.parametrize(
        "spec", [{"kind": "grid", "h": 1e-05, "rect": [0, 0, 1, 1]}, FINE_SPEC, FAR_SPEC],
        ids=["grid", "simplicial-fine", "simplicial-far"],
    )
    def test_oversized_gen(self, spec, tmp_path):
        assert run("gen", "--spec", json.dumps(spec), "--out", tmp_path / "g.json") == 2

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

    def test_whitney_needs_omega_or_boundary(self, grid_path):
        assert run("whitney", "--graph", grid_path) == 2

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("gen", {"kind": "collapsed", "h": 0.1}),
            ("gen", {"kind": "collapsed", "h": 0.1, "e": [[0.5, 0.5]]}),
            ("gen", {"kind": "collapsed", "h": 0.1, "e": "x", "box": [0, 0, 1, 1]}),
            ("gen", {"kind": "grid", "h": "abc", "rect": [0, 0, 1, 1]}),
            ("gen", {"kind": "grid", "h": True, "rect": [0, 0, 1, 1]}),
            ("gen", {"kind": "grid", "h": 0.1, "rect": [0, 0, 1]}),
            ("gen", {"kind": "grid", "h": 0.1, "disc": "abc"}),
            ("gen", {"kind": "carpet"}),
            ("gen", {"kind": "carpet", "level": "2"}),
            ("gen", {"kind": "carpet", "level": 2.5}),
            ("gen", {"kind": "carpet", "level": True}),
            ("gen", dict(L_SPEC, segments=[[0, "a"]])),
            ("gen", dict(L_SPEC, segments=5)),
            ("gen", dict(L_SPEC, segments=None)),
            ("gen", dict(L_SPEC, segments=[[0.7, 1]])),
            ("gen", dict(L_SPEC, segments=[["0", "1"]])),
            ("gen", dict(L_SPEC, atoms=[[0]])),
            ("gen", dict(L_SPEC, atoms={"x": 1})),
            ("gen", dict(L_SPEC, atoms=5)),
            ("gen", dict(L_SPEC, atoms=[[0, "x"]])),
            ("gen", dict(L_SPEC, atoms=[[True, 1]])),
            ("gen", FAR_SPEC),
            ("gen", dict(L_SPEC, points=[[0, 0], ["1", 0], [1, 1]])),
            ("gen", {"kind": "collapsed", "h": 0.25, "e": [["0.5", 0.5]], "box": [0, 0, 1, 1]}),
            ("gen", {"kind": "cusp", "h": 0.25, "psi_samples": [[0.5]]}),
            ("gen", {"kind": "cusp", "h": 0.25, "psi_samples": [["a", 1]]}),
            ("gen", {"kind": "cusp", "h": 0.25, "psi_samples": 5}),
            ("gen", {"kind": "cusp", "h": 0.25, "psi_samples": [["0.5", 0.25], [1, 1]]}),
            ("gen", {"kind": "cusp", "h": 0.25, "psi": 5}),
            ("gen", {"kind": "multi_collapse", "h": 0.25, "e_list": 5, "box": [0, 0, 1, 1]}),
            ("gen", {"kind": "grid", "h": 1e-320, "rect": [0, 0, 1, 1]}),
            ("gen", {"kind": "grid", "h": 0.25, "rect": [-1e308, 0, 1e308, 1]}),
            ("gen", {"kind": "grid", "h": 0.25, "disc": [0, 0, 1e308]}),
            ("gen", {"kind": "cusp", "h": 1e-320, "psi": "exp"}),
            ("gen", dict(L_SPEC, points=[[0], [1], [2]], triangles=[[0, 1, 2]])),
            ("audit", {"vertices": [{"id": True, "mu": 1.0}], "edges": []}),
            ("audit", {"vertices": [[0, 1.0]], "edges": []}),
            ("audit", {"vertices": {"id": 0}, "edges": []}),
            (
                "audit",
                {
                    "vertices": [{"id": 0, "mu": 1.0}, {"id": 1, "mu": 1.0}],
                    "edges": [{"a": 0, "b": True, "len": 1.0, "mu_edge": 1.0}],
                },
            ),
            ("audit", {"vertices": [{"id": 0, "mu": "2"}], "edges": []}),
            ("audit", {"vertices": [{"id": 0, "mu": 1.0, "pos": [0.0, "1"]}], "edges": []}),
            (
                "audit",
                {
                    "vertices": [{"id": 0, "mu": 1.0}, {"id": 1, "mu": 1.0}],
                    "edges": [{"a": 0, "b": 1, "len": "1e0", "mu_edge": 1.0}],
                },
            ),
            (
                "audit",
                {
                    "vertices": [{"id": 0, "mu": 1.0}, {"id": 1, "mu": 1.0}],
                    "edges": [{"a": 0, "b": 1, "len": 1.0, "mu_edge": True}],
                },
            ),
            ("audit", {"vertices": [{"id": 0, "mu": 1e308}, {"id": 1, "mu": 1e308}], "edges": []}),
            # more than 2000 vertices: the sampled scan
            ("qc --max-pairs -3", gen_grid(0.02, (0.0, 0.0, 1.0, 1.0)).to_dict()),
            ("qc --max-pairs 0", gen_grid(0.02, (0.0, 0.0, 1.0, 1.0)).to_dict()),
        ],
        ids=[
            "collapsed-no-e", "collapsed-no-box", "collapsed-bad-e", "h-string",
            "h-bool", "rect-short", "disc-string", "carpet-no-level",
            "carpet-level-string", "carpet-level-float", "carpet-level-bool",
            "segment-string", "segments-number", "segments-null", "segment-float",
            "segment-strings", "atom-short", "atoms-object", "atoms-number",
            "atom-mass-string", "atom-bool", "points-far", "point-string", "e-string",
            "psi-sample-short", "psi-sample-string", "psi-samples-number",
            "psi-sample-t-string", "psi-number", "e-list-number", "h-subnormal",
            "rect-past-floats", "disc-past-floats", "cusp-h-subnormal", "triangle-1d",
            "vertex-id-bool", "vertex-not-object", "vertices-not-list",
            "edge-end-bool", "mu-string", "pos-string", "len-string",
            "mu-edge-bool", "mu-sum-overflow", "qc-max-pairs-negative",
            "qc-max-pairs-zero",
        ],
    )
    def test_malformed_input_exits_2_with_one_line(
        self, command, payload, tmp_path, capsys
    ):
        text = json.dumps(payload)
        if command == "gen":
            argv = ("gen", "--spec", text, "--out", tmp_path / "g.json")
        else:
            graph = tmp_path / "bad.json"
            graph.write_text(text)
            argv = (*command.split(), "--graph", graph)
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


    @pytest.mark.parametrize(
        "part, key, value",
        [
            ("edges", "len", [1.0]),
            ("edges", "mu_edge", [0.0]),
            ("vertices", "mu", [1.0]),
            ("vertices", "mu", [[1.0]]),
        ],
    )
    @pytest.mark.parametrize("n", [2, 3])
    def test_list_on_every_record_exits_2_with_one_line(
        self, n, part, key, value, tmp_path, capsys
    ):
        data = path_graph(n).to_dict()
        for record in data[part]:
            record[key] = value
        graph = tmp_path / "bad.json"
        graph.write_text(json.dumps(data))
        assert run("audit", "--graph", graph) == 2
        what = {"edges": "edge", "vertices": "vertex"}[part]
        assert capsys.readouterr().err == f"error: {what} {key} must be one number per record\n"

    @pytest.mark.parametrize("case", ["graph", "spec-file", "spec-inline"])
    def test_json_nested_past_the_recursion_limit_exits_2_with_one_line(
        self, case, tmp_path, capsys
    ):
        nested = "[" * 100_000 + "]" * 100_000
        path = tmp_path / "deep.json"
        if case == "graph":
            path.write_text(nested)
            argv, message = ("audit", "--graph", path), "error: malformed graph JSON: "
        else:
            spec = '{"kind": ' + nested + "}"
            path.write_text(spec)
            argv = ("gen", "--spec", path if case == "spec-file" else spec,
                    "--out", tmp_path / "g.json")
            message = "error: bad mesh spec JSON: "
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1

    def test_csv_field_past_the_size_limit_exits_2_with_one_line(self, path11, tmp_path, capsys):
        boundary = tmp_path / "b.csv"
        boundary.write_text("vertex_id,value\n0," + "1" * (csv.field_size_limit() + 1) + "\n")
        assert run("extend", "--graph", path11, "--boundary", boundary) == 2
        limit = csv.field_size_limit()
        assert capsys.readouterr().err == (
            f"error: {boundary}: field larger than field limit ({limit})\n"
        )

    def test_id_beyond_int64_exits_2_with_one_line(self, tmp_path, capsys):
        graph = tmp_path / "big.json"
        graph.write_text(json.dumps({"vertices": [{"id": 10**30, "mu": 1.0}], "edges": []}))
        assert run("audit", "--graph", graph) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed vertex or edge record")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("case", ["graph-not-utf8", "csv-not-utf8", "graph-is-dir"])
    def test_unreadable_file_exits_2_with_one_line(
        self, case, path11, tmp_path, capsys
    ):
        graph, csv = path11, tmp_path / "b.csv"
        write_csv(csv, [(0, 0.0), (10, 1.0)])
        if case == "graph-not-utf8":
            graph = tmp_path / "bad.json"
            graph.write_bytes(b'\xff\xfe{"vertices": [], "edges": []}')
        elif case == "csv-not-utf8":
            csv.write_bytes(b"vertex_id,value\n0,0.0\n\xff,1.0\n")
        else:
            graph = tmp_path / "dir.json"
            graph.mkdir()
        assert run("extend", "--graph", graph, "--boundary", csv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_non_numeric_R_is_a_usage_error(self, path11, capsys):
        with pytest.raises(SystemExit) as exc:
            run("qc", "--graph", path11, "--R", "abc")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "mmgraph qc: error: argument --R: invalid float value: 'abc'"
        ]


FORMATS = Path(__file__).resolve().parents[1] / "FORMATS.md"

#: One valid spec per mesh kind; ``test_every_documented_kind_and_mode_builds``
#: also sets each enumerated option the FORMATS.md table lists.
KIND_SPECS = {
    "grid": {"kind": "grid", "h": 0.25, "rect": [0, 0, 1, 1]},
    "cusp": {"kind": "cusp", "h": 0.25, "psi": "exp"},
    "collapsed": {"kind": "collapsed", "h": 0.25, "e": [[0.5, 0.5]], "box": [0, 0, 1, 1]},
    "multi_collapse": {
        "kind": "multi_collapse", "h": 0.25, "e_list": [[[0.25, 0.25]], [[0.75, 0.75]]],
        "box": [0, 0, 1, 1],
    },
    "simplicial": {
        "kind": "simplicial", "h": 0.5, "points": [[0, 0, 0], [1, 0, 0], [0, 1, 1]],
        "segments": [[0, 1]], "triangles": [[0, 1, 2]], "atoms": [[2, 0.5]],
    },
    "carpet": {"kind": "carpet", "level": 1},
}


def _documented_specs():
    """(id, spec) for each kind row of the FORMATS.md mesh spec table and
    each quoted option of its fields (``name: "x" \\| "y"``)."""
    section = FORMATS.read_text().split("## Mesh spec JSON")[1].split("\n## ")[0]
    out = []
    for kind, fields in re.findall(r"^\| `(\w+)` +\|(.*)\|$", section, re.M):
        base = KIND_SPECS.get(kind, {"kind": kind})
        out.append((kind, base))
        for span in re.findall(r"`(\w+: \"[^`]*)`", fields):
            name = span.split(":")[0]
            out += [(f"{kind}-{name}-{v}", dict(base, **{name: v}))
                    for v in re.findall(r'"(\w+)"', span)]
    return out


class TestDocumentedMeshSpecs:
    def test_table_lists_every_kind(self):
        assert {k for k, _ in _documented_specs() if "-" not in k} == set(KIND_SPECS)

    @pytest.mark.parametrize(
        "spec", [s for _, s in _documented_specs()], ids=[i for i, _ in _documented_specs()]
    )
    def test_every_documented_kind_and_mode_builds(self, spec, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert run("gen", "--spec", json.dumps(spec), "--out", out) == 0, capsys.readouterr().err
        assert run("audit", "--graph", out, "--report", tmp_path / "a.json") == 0

    @pytest.mark.parametrize(
        "spec",
        [s for _, s in _documented_specs()] + [
            {"kind": "grid", "h": 0.25, "disc": [0.5, 0.5, 0.5]},
            {"kind": "cusp", "h": 0.25, "psi_samples": [[0.5, 0.25], [1, 1]]},
        ],
        ids=[i for i, _ in _documented_specs()] + ["grid-disc", "cusp-psi_samples"],
    )
    def test_gen_writes_the_dump_json_bytes(self, spec, tmp_path, capsys):
        """A finer mesh of each kind, whose columns repeat: ``save_graph``
        renders them once per distinct value, ``dump_json`` per entry."""
        spec = dict(spec, **({"h": spec["h"] / 4} if "h" in spec else {"level": 3}))
        out = tmp_path / "g.json"
        assert run("gen", "--spec", json.dumps(spec), "--out", out) == 0, capsys.readouterr().err
        dump_json(MeshSpec.from_dict(spec).build().to_dict(), tmp_path / "old.json")
        assert out.read_bytes() == (tmp_path / "old.json").read_bytes()


class TestCsvReaders:
    def test_header_optional(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("3,1.5\n4,2.5\n")
        assert read_scalar_csv(p) == {3: 1.5, 4: 2.5}

    def test_vector_ragged_rejected(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("vertex_id,v0,v1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(Exception):
            read_vector_csv(p)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("\n")
        from mmgraph import InputError

        with pytest.raises(InputError):
            read_scalar_csv(p)


class TestDeterminism:
    COMMANDS = (
        lambda g, t: ("qc", "--graph", g, "--R", "2.0", "--seed", "3",
                      "--report", t / "qc.json"),
        lambda g, t: ("doubling", "--graph", g, "--centers", "0,7,12",
                      "--scales", "0.3,0.6,0.9", "--report", t / "db.json"),
        lambda g, t: ("whitney", "--graph", g, "--omega", "0,1,2,3,4",
                      "--certify", "--report", t / "w.json"),
        lambda g, t: ("audit", "--graph", g, "--report", t / "a.json"),
    )

    def test_reports_byte_identical_across_threads(
        self, grid_path, tmp_path, monkeypatch
    ):
        outputs = {}
        for threads in ("1", "4"):
            monkeypatch.setenv("MMGRAPH_THREADS", threads)
            tdir = tmp_path / f"t{threads}"
            tdir.mkdir()
            blobs = []
            for mk in self.COMMANDS:
                argv = mk(grid_path, tdir)
                assert run(*argv) == 0
                blobs.append((argv[-1]).read_bytes())
            outputs[threads] = blobs
        assert outputs["1"] == outputs["4"]

    def test_repeated_runs_identical(self, grid_path, tmp_path):
        reps = []
        for k in range(2):
            rep = tmp_path / f"qc{k}.json"
            assert run(
                "qc", "--graph", grid_path, "--R", "inf", "--seed", "11",
                "--report", rep,
            ) == 0
            reps.append(rep.read_bytes())
        assert reps[0] == reps[1]


def _junk():
    """JSON values that are wrong almost anywhere in a graph file."""
    return st.sampled_from(
        [None, "x", "1", True, [], {}, -1, 0, 1.5, 1e308, -1e-300, 10**30,
         math.nan, math.inf, [0.0], [0.0, "y"], {"id": 0}]
    )


@st.composite
def mutated_graphs(draw):
    """JSON text of a small valid graph after a few random mutations."""
    data = {
        "vertices": [{"id": i, "mu": 1.0, "pos": [float(i), 0.0]} for i in range(5)],
        "edges": [
            {"a": i, "b": i + 1, "len": 1.0, "mu_edge": float(i != 2)}
            for i in range(4)
        ],
    }
    for _ in range(draw(st.integers(0, 3))):
        part = draw(st.sampled_from(["vertices", "edges", "top", "every"]))
        if part == "top":
            data[draw(st.sampled_from(["vertices", "edges"]))] = draw(_junk())
            continue
        if part == "every":
            # one value on every record: a list gives a 2-D column, not
            # the ragged one a single-record mutation gives
            items = data[draw(st.sampled_from(["vertices", "edges"]))]
            key = draw(st.sampled_from(["id", "mu", "pos", "a", "b", "len", "mu_edge"]))
            value = draw(_junk())
            if isinstance(items, list):
                for i, record in enumerate(items):
                    if isinstance(record, dict):
                        items[i] = dict(record, **{key: value})
            continue
        items = data[part]
        if not isinstance(items, list) or not items:
            continue
        k = draw(st.integers(0, len(items) - 1))
        action = draw(st.sampled_from(["set", "drop", "copy", "replace"]))
        if action == "copy":
            items.append(items[k])
        elif action == "replace":
            items[k] = draw(_junk())
        elif isinstance(items[k], dict):
            key = draw(st.sampled_from(["id", "mu", "pos", "a", "b", "len", "mu_edge"]))
            if action == "set":
                items[k] = dict(items[k], **{key: draw(_junk())})
            else:
                items[k] = {a: b for a, b in items[k].items() if a != key}
    text = json.dumps(data)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    if draw(st.integers(0, 4)) == 0:
        text = repr(draw(_junk()))
    return text


CSV_CELLS = st.sampled_from(
    ["0", "4", "2", "-1", "99", "1.5", "0.25", "nan", "inf", "-inf", "1e308",
     "x", "", "vertex_id", "value", "1e999", "99999999999999999999"]
)
CSV_TEXT = st.lists(
    st.lists(CSV_CELLS, min_size=0, max_size=3).map(",".join), max_size=5
).map(lambda rows: "\n".join(rows) + "\n")

FUZZ_COMMANDS = {
    "audit": [],
    "dist": ["--source", "0"],
    "essdist": ["--source", "0,4", "--target", "4"],
    "qc": [],
    "doubling": ["--centers", "0,2", "--scales", "0.5,2"],
    "pi-check": ["--u", "{csv}", "--rho", "{csv}", "--lam", "2", "--r", "2"],
    "extend": ["--boundary", "{csv}", "--truncate"],
    "whitney": ["--boundary", "{csv}"],
    "amle": ["--boundary", "{csv}", "--whole-boundary", "--max-iter", "50"],
}


class TestFuzz:
    @settings(
        max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(
        command=st.sampled_from(sorted(FUZZ_COMMANDS)),
        graph=st.one_of(st.none(), mutated_graphs()),
        table=st.one_of(st.none(), CSV_TEXT),
    )
    def test_mutated_inputs_end_in_a_documented_exit_code(
        self, command, graph, table, tmp_path
    ):
        """Malformed graph JSON and CSV end in 0, 2, 3 or 4, never a traceback."""
        gpath, cpath = tmp_path / "g.json", tmp_path / "t.csv"
        save_graph(path_graph(5), gpath)
        write_csv(cpath, [(0, 0.0), (4, 1.0)])
        if graph is not None:
            gpath.write_text(graph)
        if table is not None:
            cpath.write_text(table)
        argv = [command, "--graph", gpath, "--report", tmp_path / "r.json"]
        argv += [str(cpath) if a == "{csv}" else a for a in FUZZ_COMMANDS[command]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(*argv)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
