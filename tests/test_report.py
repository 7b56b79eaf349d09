"""Report emission: turning-point readout, aggregates.csv, SVG charts
and the markdown summary."""

import csv
import hashlib
from xml.etree import ElementTree
from xml.sax.saxutils import escape as xml_escape

import pytest

from turnpoint.harness import METRIC_FIELDS, AggregateRow
from turnpoint.report import (
    AGGREGATES_CSV_COLUMNS,
    PLOT_METRICS,
    TURNING_THRESHOLD,
    _write_aggregates_csv,
    emit_report,
    turning_point,
)
from turnpoint.svgchart import escape, line_chart


def agg_row(x, ta2=1.0, mode="step_switch", category="General", setting=None,
            n=3, **overrides):
    stats = {m: (0.7, 0.05) for m in METRIC_FIELDS}
    stats["ta2"] = (ta2, 0.02)
    stats.update(overrides)
    return AggregateRow(mode=mode, category=category, x=x, setting=setting,
                        n=n, stats=stats)


# ---------------------------------------------------------------------------
# turning point


class TestTurningPoint:
    def test_plateau_then_drop(self):
        pts = [(0.0, 1.0), (0.1, 1.0), (0.2, 0.98), (0.3, 0.95), (0.4, 0.2),
               (0.5, 0.1)]
        assert turning_point(pts) == 0.3

    def test_reference_is_smallest_ratio(self):
        # unsorted input; reference taken at x=0.0, not at list head
        pts = [(0.4, 0.1), (0.0, 1.0), (0.2, 0.95)]
        assert turning_point(pts) == 0.2

    def test_rebound_counts(self):
        # "largest ratio within threshold", even after an earlier dip
        pts = [(0.0, 1.0), (0.2, 0.5), (0.4, 0.95)]
        assert turning_point(pts) == 0.4

    def test_immediate_drop_returns_smallest(self):
        pts = [(0.0, 1.0), (0.5, 0.1), (1.0, 0.0)]
        assert turning_point(pts) == 0.0

    def test_threshold_parameter(self):
        assert TURNING_THRESHOLD == 0.9
        pts = [(0.0, 1.0), (0.5, 0.6), (1.0, 0.1)]
        assert turning_point(pts) == 0.0

    def test_too_few_points(self):
        assert turning_point([]) is None
        assert turning_point([(0.0, 1.0)]) is None


# ---------------------------------------------------------------------------
# emit_report


@pytest.fixture
def populated(tmp_path):
    rows = [
        agg_row(0.0, ta2=1.0),
        agg_row(0.5, ta2=0.97),
        agg_row(1.0, ta2=0.2),
    ]
    emit_report(rows, str(tmp_path))
    return tmp_path


class TestEmitReport:
    def test_aggregates_csv_schema(self, populated):
        with open(populated / "aggregates.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(AGGREGATES_CSV_COLUMNS)
        assert len(rows[0]) == 5 + 2 * len(METRIC_FIELDS)
        assert rows[1][:5] == ["step_switch", "General", "0.0", "", "3"]
        ta2_col = rows[0].index("ta2_mean")
        assert rows[1][ta2_col] == "1.0"

    def test_svg_per_plot_metric(self, populated):
        for metric in PLOT_METRICS:
            path = populated / f"{metric}_step_switch.svg"
            assert path.exists(), metric
            root = ElementTree.fromstring(path.read_text())
            assert root.tag.endswith("svg")
        assert not (populated / "turning_frame_step_switch.svg").exists()

    def test_svg_carries_series_label(self, populated):
        text = (populated / "ta2_step_switch.svg").read_text()
        assert "General" in text
        assert "split ratio" in text

    def test_summary_table(self, populated):
        text = (populated / "summary.md").read_text()
        assert text.startswith("# Sweep summary")
        assert "## Mode: step_switch" in text
        assert "| category | setting | runs | turning point (ta2) |" in text
        assert "| General | - | 9 | 0.5 |" in text

    def test_empty_aggregates(self, tmp_path):
        emit_report([], str(tmp_path))
        assert "No data" in (tmp_path / "summary.md").read_text()
        with open(tmp_path / "aggregates.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 1  # header only
        assert not list(tmp_path.glob("*.svg"))

    def test_setting_column_and_label(self, tmp_path):
        rows = [
            agg_row(0.0, mode="qualitative", setting=2),
            agg_row(1.0, ta2=0.1, mode="qualitative", setting=2),
        ]
        emit_report(rows, str(tmp_path))
        with open(tmp_path / "aggregates.csv", newline="") as fh:
            body = list(csv.reader(fh))[1]
        assert body[3] == "2"
        text = (tmp_path / "ta2_qualitative.svg").read_text()
        assert "General / setting 2" in text
        # turning points are %g-formatted, so 0.0 prints as "0"
        assert "| General | 2 | 6 | 0 |" in (tmp_path / "summary.md").read_text()

    def test_none_stats_leave_cells_empty_and_skip_plot(self, tmp_path):
        rows = [
            agg_row(0.0, ic=None),
            agg_row(1.0, ta2=0.1, ic=None),
        ]
        emit_report(rows, str(tmp_path))
        with open(tmp_path / "aggregates.csv", newline="") as fh:
            header, body, _ = list(csv.reader(fh))
        ic_col = header.index("ic_mean")
        assert body[ic_col] == "" and body[ic_col + 1] == ""
        assert not (tmp_path / "ic_step_switch.svg").exists()
        assert (tmp_path / "ta2_step_switch.svg").exists()

    def test_threshold_forwarded(self, tmp_path):
        # the summary states the threshold that its turning points use
        rows = [agg_row(0.0, ta2=1.0), agg_row(0.6, ta2=0.9), agg_row(1.0, ta2=0.6)]
        emit_report(rows, str(tmp_path))
        text = (tmp_path / "summary.md").read_text()
        assert "stays within 90% of its value" in text
        assert "| General | - | 9 | 0.6 |" in text

    def test_two_modes_interleaved(self, tmp_path):
        rows = [
            agg_row(0.0),
            agg_row(1.0, ta2=0.1),
            agg_row(0.0, mode="qualitative", setting=1),
            agg_row(1.0, ta2=0.3, mode="qualitative", setting=1),
        ]
        emit_report(rows, str(tmp_path))
        text = (tmp_path / "summary.md").read_text()
        assert "## Mode: qualitative" in text and "## Mode: step_switch" in text
        assert (tmp_path / "ta1_qualitative.svg").exists()
        assert (tmp_path / "ta1_step_switch.svg").exists()


def test_aggregates_csv_bytes_equal_csv_writer(tmp_path):
    awkward = ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", " leading", "plain"]
    floats = [1e-05, 1e16, -0.0, 0.1 + 0.2]
    rows = []
    for i in range(12):
        stats = {m: (floats[i % 4], floats[(i + j) % 4]) for j, m in enumerate(METRIC_FIELDS)}
        stats["turning_frame"] = None if i % 2 else (7.5, 0.5)
        rows.append(AggregateRow(
            mode=awkward[i % 6], category=awkward[(i + 1) % 6], x=floats[i % 4],
            setting=None if i % 5 == 0 else 1 + i % 4, n=2**64 - i, stats=stats,
        ))
    _write_aggregates_csv(rows, str(tmp_path / "aggregates.csv"))
    with open(tmp_path / "reference.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGGREGATES_CSV_COLUMNS)
        for row in rows:
            pairs = [row.stats[m] or (None, None) for m in METRIC_FIELDS]
            writer.writerow([
                row.mode, row.category, row.x, row.setting, row.n,
                *(value for pair in pairs for value in pair),
            ])
    written = (tmp_path / "aggregates.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()


def curve_rows():
    """Three points on each of six curves over two modes, with one metric
    missing at the middle ratio, in mode, category, setting, x order."""
    rows = []
    for mode, settings in (("qualitative", (2, 1)), ("step_switch", (None,))):
        for category in ("General", "EgoExo"):
            for setting in settings:
                for i, x in enumerate((0.0, 0.5, 1.0)):
                    rows.append(agg_row(
                        x, ta2=1.0 - 0.3 * i * (setting or 3) / 3, mode=mode,
                        category=category, setting=setting, n=2 + i,
                        ic=None if x == 0.5 else (0.25 * (i + 1), 0.125),
                    ))
    return rows


def report_bytes(rows, out_dir) -> dict:
    emit_report(rows, str(out_dir))
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


class TestCurves:
    def test_charts_and_summary_do_not_depend_on_row_order(self, tmp_path):
        rows = curve_rows()
        written = report_bytes(rows, tmp_path / "sorted")
        for name, order in (("reversed", rows[::-1]), ("interleaved", rows[1::2] + rows[::2])):
            shuffled = report_bytes(order, tmp_path / name)
            assert written.keys() == shuffled.keys()
            for file in written:
                if file != "aggregates.csv":  # written in the order given
                    assert shuffled[file] == written[file], (name, file)

    def test_report_bytes_are_pinned(self, tmp_path):
        # recorded when every chart and summary row still filtered the
        # mode's rows on its own; grouping them into curves once must
        # not move a byte
        digests = {
            name: hashlib.sha256(data).hexdigest()[:16]
            for name, data in report_bytes(curve_rows(), tmp_path).items()
        }
        assert digests == {
            "aggregates.csv": "96c2afa6fff40152",
            "bc_qualitative.svg": "b9460ed609e4cd6a",
            "bc_step_switch.svg": "b6d7df6892f40933",
            "ic_qualitative.svg": "feb3a19c0d5b3625",
            "ic_step_switch.svg": "85c837317caf9a6b",
            "occupancy2_qualitative.svg": "910938c8e269c783",
            "occupancy2_step_switch.svg": "0f356cd0eca858f3",
            "summary.md": "69b8502f2a478c5d",
            "ta1_qualitative.svg": "48c74cbfd03e8c0a",
            "ta1_step_switch.svg": "1bdf9b3571ab2694",
            "ta2_qualitative.svg": "0969421dadf2ea78",
            "ta2_step_switch.svg": "2576cf74eb9fedb0",
            "ta_mean_qualitative.svg": "28c60663b6bb33c2",
            "ta_mean_step_switch.svg": "93cd8d0385ccbf74",
        }


# ---------------------------------------------------------------------------
# svg chart primitive


class TestLineChart:
    def test_well_formed_and_labelled(self):
        svg = line_chart(
            "demo <chart>",
            [("curve & one", [(0.0, 0.1), (1.0, 0.9)])],
            x_label="ratio",
            y_label="score",
            y_range=(0.0, 1.0),
        )
        root = ElementTree.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "curve &amp; one" in svg  # labels are escaped
        assert "demo &lt;chart&gt;" in svg

    @pytest.mark.parametrize(
        "text", ["", "plain", "a & b", "<tag>", "&amp;", "x > 0 & y < 1", "it's \"so\"",
                 "&&<<>>", "&lt;"],
    )
    def test_escape_equals_the_standard_library(self, text):
        assert escape(text) == xml_escape(text)

    def test_markup_in_every_label_parses(self):
        title, x_label, y_label, label = "t < 1 & \"q\"", "x > 0", "y's & z", "<a>&'b'"
        svg = line_chart(title, [(label, [(0.0, 0.1), (1.0, 0.9)])],
                         x_label=x_label, y_label=y_label, y_range=(0.0, 1.0))
        texts = [el.text for el in ElementTree.fromstring(svg).iter() if el.text]
        for text in (title, x_label, y_label, label):
            assert f">{xml_escape(text)}</text>" in svg
            assert text in texts

    def test_y_range_override(self):
        # the axis spans y_range, not the data
        svg = line_chart("r", [("s", [(0.0, 0.5)])], "x", "y", y_range=(0.0, 2.0))
        root = ElementTree.fromstring(svg)
        ticks = [el.text for el in root.iter() if el.get("text-anchor") == "end"]
        assert ticks == ["0.00", "0.50", "1.00", "1.50", "2.00"]
