"""Report rendering: tables, ASCII traces, the graph of graphs."""

import pytest

from repro.paper.cluster.runner import SpeedSample, SpeedTrace
from repro.paper.perf import ascii_traces, format_table, graph_of_graphs


def make_trace(ranks: int, rate: float) -> SpeedTrace:
    tr = SpeedTrace(platform="test", scene="synthetic", ranks=ranks)
    t = 0.5
    photons = 0
    for i in range(8):
        t *= 2.0
        photons += int(rate)
        tr.samples.append(SpeedSample(time=t, rate=rate * (1 + 0.01 * i), cumulative_photons=photons))
    return tr


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bbb"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].endswith("bbb")
        assert set(lines[1]) <= {"-", " "}

    def test_values_present(self):
        out = format_table(["x"], [["hello"]])
        assert "hello" in out


class TestAsciiTraces:
    def test_contains_glyphs(self):
        out = ascii_traces({1: make_trace(1, 100.0), 2: make_trace(2, 180.0)})
        assert "1" in out
        assert "2" in out
        assert "time (log)" in out

    def test_title(self):
        out = ascii_traces({1: make_trace(1, 100.0)}, title="Figure 5.6")
        assert out.splitlines()[0] == "Figure 5.6"

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ascii_traces({1: SpeedTrace("p", "s", 1)})

    def test_dimensions(self):
        out = ascii_traces({1: make_trace(1, 100.0)}, width=40, height=8)
        body = [l for l in out.splitlines() if l.startswith("|")]
        assert len(body) == 8
        assert all(len(l) <= 41 for l in body)


class TestGraphOfGraphs:
    def test_layout(self):
        families = {
            "Onyx": {"cornell": {1: make_trace(1, 100.0), 8: make_trace(8, 500.0)}},
            "SP-2": {"cornell": {1: make_trace(1, 80.0)}},
        }
        out = graph_of_graphs(families)
        assert "Onyx" in out
        assert "SP-2" in out
        assert "cornell" in out
        assert "complexity" in out

    def test_missing_cell_blank(self):
        families = {
            "Onyx": {"a": {1: make_trace(1, 10.0)}},
            "SP-2": {"b": {1: make_trace(1, 10.0)}},
        }
        out = graph_of_graphs(families)  # must not raise
        assert "a" in out and "b" in out
