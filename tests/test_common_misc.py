"""Table formatting."""

from repro.common.tables import format_count, format_series, format_table


class TestTables:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["long-cell", 3]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]
        assert "2.500" in lines[2]

    def test_format_count_paper_style(self):
        assert format_count(550_000) == "550K"
        assert format_count(1_200_000) == "1.2M"
        assert format_count(42) == "42"
        assert format_count(3_000_000_000) == "3.0B"

    def test_format_series(self):
        out = format_series("promotions", [1, 2], [10.0, 20.0], unit="pages")
        assert "promotions" in out
        assert out.count("\n") == 2
