import json
import math
import random
import struct

import pytest

from starlap import (
    build_graph,
    detect_stars,
    emit_dot,
    graph_summary,
    parse_graph_file,
    plant_ldependent_graph,
    plant_star_graph,
    reduce_all,
    sign_bipartition,
    to_json,
    write_graph_file,
)
from starlap.errors import NonPositiveWeightError, ParseError

from conftest import reduce_one


class TestParse:
    def test_single_edge(self):
        g = parse_graph_file("n 2\n0 1 1.0\n")
        assert g.n == 2 and g.edges == ((0, 1, 1.0),)

    def test_comments_and_blanks(self):
        text = "# header comment\n\nn 3\n# edge below\n0 1 2.5\n"
        g = parse_graph_file(text)
        assert g.edges == ((0, 1, 2.5),)

    def test_mass_lines(self):
        g = parse_graph_file("n 2\n0 1 1\nm 0 1.5\n")
        assert g.mass == (1.5, 1.0)

    def test_negative_weight_propagates(self):
        with pytest.raises(NonPositiveWeightError):
            parse_graph_file("n 2\n0 1 -1\n")

    def test_missing_header(self):
        with pytest.raises(ParseError) as err:
            parse_graph_file("0 1 1.0\n")
        assert err.value.line_number == 1

    def test_bad_edge_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_graph_file("n 2\n0 1\n")
        assert err.value.line_number == 2

    def test_mass_out_of_range(self):
        with pytest.raises(ParseError):
            parse_graph_file("n 2\n0 1 1\nm 7 2.0\n")

    def test_empty_graph(self):
        g = parse_graph_file("n 3\n")
        assert g.n == 3 and g.edges == ()


class TestWrite:
    def test_single_edge_canonical(self):
        g = build_graph(2, [(0, 1, 1.0)])
        assert write_graph_file(g) == "n 2\n0 1 1\n"

    def test_empty(self):
        assert write_graph_file(build_graph(3, [])) == "n 3\n"

    def test_reduced_masses_serialized(self, f1):
        r = reduce_one(f1, detect_stars(f1)[0], 1)
        text = write_graph_file(r.reduced)
        assert "m 0 1.5" in text and "m 1 1.5" in text

    def test_round_trip(self, f1, f2, f3, f4):
        for g in (f1, f2, f3, f4):
            assert parse_graph_file(write_graph_file(g)) == g

    def test_round_trip_with_masses(self, f1):
        r = reduce_one(f1, detect_stars(f1)[0], 2)
        assert parse_graph_file(write_graph_file(r.reduced)) == r.reduced

    def test_twelve_digit_weights(self):
        g = build_graph(2, [(0, 1, 0.123456789012)])
        assert parse_graph_file(write_graph_file(g)) == g

    @staticmethod
    def _line_by_line(g):
        """The writer that formatted one f-string per line."""
        lines = [f"n {g.n}"]
        lines.extend(f"{u} {v} {w:.12g}" for u, v, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))
        lines.extend(f"m {v} {m:.12g}" for v, m in enumerate(g.mass) if m != 1.0)
        return "\n".join(lines) + "\n"

    def test_chunks_write_the_lines_byte_for_byte(self, f1):
        dense = plant_ldependent_graph(1, (10, 400, 90), 6.0)   # 40 000 edges, ten chunks
        planted = plant_star_graph(2, 300, [(4, 3, 2.0), (3, 2, 1.0 / 3.0)], background_p=0.3)
        odd = build_graph(5, [(0, 1, 1e-320), (1, 2, 1.7976931348623157e308), (2, 3, 0.1),
                              (3, 4, 123456789012345.0), (0, 4, 2.0 / 3.0)])
        for g in (dense, planted, reduce_all(planted).reduced, odd, f1, build_graph(0, [])):
            assert write_graph_file(g) == self._line_by_line(g)

    def test_percent_g_is_the_format_spec_for_every_float(self):
        rng = random.Random(20)
        xs = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, 1e-5, 1e-4, 1e11, 1e12, 999999999999.5, 0.1]
        xs += [struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0] for _ in range(20_000)]
        assert "%.12g," * len(xs) % tuple(xs) == "".join(f"{x:.12g}," for x in xs)


class TestDot:
    def test_edge_labels(self):
        g = build_graph(2, [(0, 1, 1.0)])
        assert '0 -- 1 [label="1"]' in emit_dot(g)

    def test_partition_colors(self, f4):
        dot = emit_dot(f4, sign_bipartition(f4))
        assert "0 [fillcolor=1];" in dot and "1 [fillcolor=1];" in dot
        assert "2 [fillcolor=2];" in dot and "3 [fillcolor=2];" in dot

    def test_no_partition_uncolored(self, f4):
        dot = emit_dot(f4)
        assert "fillcolor" not in dot
        assert "  2;" in dot


class TestJson:
    def test_round_trip_and_stability(self, f1):
        payload = {"summary": graph_summary(f1), "zeta": 1, "alpha": [3, 2]}
        first = to_json(payload)
        second = to_json(json.loads(first))
        assert first == second
        assert json.loads(first)["summary"]["vertices"] == 5

    def test_summary_reads_the_analysis_cache(self, f2, monkeypatch):
        from starlap import stars

        ctx = stars.analyze(f2)
        expected = graph_summary(f2)
        ctx.strengths, ctx.components  # filled once

        def recomputed(_):
            raise AssertionError("graph_summary recomputed a cached value")

        monkeypatch.setattr(stars, "strengths", recomputed)
        monkeypatch.setattr(stars, "connected_components", recomputed)
        assert graph_summary(ctx) == expected

    def test_sorted_keys(self):
        text = to_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
