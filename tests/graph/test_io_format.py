"""Hardened edge-list / degree-file parsing: malformed input diagnostics.

Satellite of the durability PR: a malformed line must produce an
:class:`~repro.graph.edgelist.EdgeListFormatError` naming the file and
1-based line number instead of a bare numpy ``ValueError``, and benign
noise (comments, blank lines, CRLF endings) must be tolerated.
"""

import numpy as np
import pytest

from repro.directed.io import load_arc_list, load_bidegree_distribution
from repro.graph.edgelist import EdgeListFormatError
from repro.graph.io import (
    load_degree_distribution,
    load_edge_list,
    load_metis,
    parse_edge_list_text,
)


def _load_file(loader):
    def load(text, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(text)
        return loader(path)

    return load


LOADERS = {
    "load_edge_list": _load_file(load_edge_list),
    "load_arc_list": _load_file(load_arc_list),
    "parse_edge_list_text": lambda text, tmp_path: parse_edge_list_text(text),
}


class TestEdgeListTolerance:
    def test_comments_blank_lines_and_crlf(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(
            b"# a full-line comment\r\n"
            b"\r\n"
            b"0 1  # trailing comment\r\n"
            b"   \n"
            b"1 2\r\n"
        )
        g = load_edge_list(path)
        np.testing.assert_array_equal(g.u, [0, 1])
        np.testing.assert_array_equal(g.v, [1, 2])

    def test_header_n_survives_crlf(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"# n=9\r\n0 1\r\n")
        assert load_edge_list(path).n == 9

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    @pytest.mark.parametrize(
        "header", ["# run=7 n=4 m=2", "# gen=cl n=4"], ids=["run", "gen"]
    )
    def test_header_n_is_a_whole_token(self, tmp_path, loader, header):
        """Only the ``n=`` token sets the vertex count: ``run=7`` must not
        read as ``n=7``, nor ``gen=cl`` as a malformed ``n=cl``."""
        g = LOADERS[loader](f"{header}\n0 1\n2 3\n", tmp_path)
        assert g.n == 4
        np.testing.assert_array_equal(g.u, [0, 2])

    def test_tabs_and_extra_spaces(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\t1\n 1   2 \n")
        g = load_edge_list(path)
        np.testing.assert_array_equal(g.u, [0, 1])


class TestEdgeListErrors:
    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2 3\n")
        with pytest.raises(EdgeListFormatError) as exc:
            load_edge_list(path)
        assert exc.value.line == 2
        assert str(path) in str(exc.value)

    def test_non_integer_token_names_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n\n2 x\n")
        with pytest.raises(EdgeListFormatError) as exc:
            load_edge_list(path)
        assert exc.value.line == 3
        assert "'x'" in str(exc.value)

    def test_bad_header_n(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# n=banana\n0 1\n")
        with pytest.raises(EdgeListFormatError) as exc:
            load_edge_list(path)
        assert exc.value.line == 1

    def test_error_carries_path_attribute(self, tmp_path):
        path = tmp_path / "weird.txt"
        path.write_text("a b\n")
        with pytest.raises(EdgeListFormatError) as exc:
            load_edge_list(path)
        assert str(exc.value.path) == str(path)


class TestDegreeDistributionErrors:
    def test_tolerates_comments(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("# degree count\n1 4\n\n2 2\n")
        dist = load_degree_distribution(path)
        np.testing.assert_array_equal(dist.degrees, [1, 2])

    def test_wrong_columns_names_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 4\n2\n")
        with pytest.raises(EdgeListFormatError) as exc:
            load_degree_distribution(path)
        assert exc.value.line == 2


class TestMetisErrors:
    def test_bad_header(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("3\n1 2\n")
        with pytest.raises(EdgeListFormatError) as exc:
            load_metis(path)
        assert exc.value.line == 1

    def test_non_integer_neighbor_names_line(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("3 2\n2 3\n1\nq\n")
        with pytest.raises(EdgeListFormatError) as exc:
            load_metis(path)
        assert exc.value.line == 4


class TestDirectedMirrors:
    def test_arc_list_tolerates_noise(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes(b"# n=5\r\n\r\n0 1 # arc\r\n2 3\r\n")
        g = load_arc_list(path)
        assert g.n == 5
        np.testing.assert_array_equal(g.u, [0, 2])

    def test_arc_list_error_names_line(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("0 1\n1 2 3\n")
        with pytest.raises(EdgeListFormatError) as exc:
            load_arc_list(path)
        assert exc.value.line == 2

    def test_bidegree_error_names_line(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1 1 2\n2 oops 1\n")
        with pytest.raises(EdgeListFormatError) as exc:
            load_bidegree_distribution(path)
        assert exc.value.line == 2
        assert "'oops'" in str(exc.value)
