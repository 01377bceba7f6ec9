"""Trace consistency checks and deterministic CSV output."""

import csv
import io
import re
import sys
import tracemalloc

import numpy as np
import pytest

from declangevin import Trace, write_csv


def build_trace(**overrides):
    fields = dict(alphas=np.array([0.1, 0.05, 0.025]),
                  states=np.zeros((3, 2, 1)),
                  consensus=np.zeros((3, 2)),
                  record_dev=np.zeros((3, 2)),
                  worst_cum_dev=np.zeros(3),
                  max_pert=0.0,
                  num_iters=4, stride=2)
    fields.update(overrides)
    return Trace(**fields)


class TestTrace:
    def test_shape_properties(self):
        trace = build_trace()
        assert trace.num_agents == 2
        assert trace.dim == 1

    def test_record_count_must_match_the_stride_grid(self):
        # two rows each, where iterations 0, 2 and 4 are recorded
        with pytest.raises(ValueError):
            build_trace(alphas=np.zeros(2), states=np.zeros((2, 2, 1)),
                        consensus=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            build_trace(alphas=np.zeros(2))
        with pytest.raises(ValueError):
            build_trace(record_dev=np.zeros((2, 2)))

    def test_snapshots_must_match_the_record_grid(self):
        with pytest.raises(ValueError):
            build_trace(states=np.zeros((2, 2, 1)))

    def test_per_step_series_must_cover_every_iteration(self):
        # one worst-agent prefix sum per prefix length 1 .. num_iters-1
        with pytest.raises(ValueError):
            build_trace(worst_cum_dev=np.zeros(4))
        with pytest.raises(ValueError):
            build_trace(worst_cum_dev=np.zeros((3, 2)))

    def test_a_zero_stride_is_refused_by_name(self):
        with pytest.raises(ValueError, match="stride"):
            build_trace(stride=0)


class TestWriteCsv:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, {"a": 1, "b": 2.5, "c": True, "d": "x"},
                  ["t", "v"], [[0, 0.1], [1, float("nan")]])
        expected = (b"# a=1\r\n# b=2.5\r\n# c=true\r\n# d=x\r\n"
                    b"t,v\r\n0,0.1\r\n1,nan\r\n")
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("metadata, key", [
        ({"true_w": "1.0,\n-1.0"}, "true_w"), ({"a": 1, "dataset": "x\ry"}, "dataset"),
        ({"a\nb": 1}, "a\nb")])
    def test_a_line_break_in_metadata_raises_before_the_file_is_opened(
            self, metadata, key, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            write_csv(path, metadata, ["t"], [[0]])
        assert not path.exists()

    def test_floats_round_trip_through_repr(self, tmp_path):
        values = [1.0 / 3.0, 1e-300, 0.1 + 0.2, -7.5e17]
        path = tmp_path / "floats.csv"
        write_csv(path, {}, ["v"], [[v] for v in values])
        lines = path.read_text().strip().splitlines()[1:]
        assert [float(s) for s in lines] == values

    def test_metadata_keeps_insertion_order(self, tmp_path):
        path = tmp_path / "meta.csv"
        write_csv(path, {"zeta": 1, "alpha": 2}, ["v"], [])
        lines = path.read_text().splitlines()
        assert lines[0] == "# zeta=1"
        assert lines[1] == "# alpha=2"

    def test_existing_file_is_overwritten(self, tmp_path):
        path = tmp_path / "twice.csv"
        write_csv(path, {}, ["v"], [[1], [2], [3]])
        write_csv(path, {}, ["v"], [[9]])
        assert path.read_bytes() == b"v\r\n9\r\n"

    def test_numpy_scalars_format_like_python_ones(self, tmp_path):
        path = tmp_path / "np.csv"
        write_csv(path, {"n": np.int64(3), "f": np.float64(0.5),
                         "b": np.bool_(False)}, ["v"],
                  [[np.float64(2.0), np.int64(7)]])
        assert path.read_bytes() == \
            b"# n=3\r\n# f=0.5\r\n# b=false\r\nv\r\n2.0,7\r\n"

    def test_number_rows_have_the_csv_writer_bytes(self, tmp_path):
        rows = [[float("nan"), float("inf"), -float("inf"), -0.0, 0.0],
                [5e-324, 1e308, -1e308, 2.5e-7, 1 / 3],
                [0, -1, 2 ** 63, -(2 ** 70), 10 ** 40],
                [7, 0.1, float("nan"), 12345678901234567890, -5e-324],
                [], [1.0]]
        path = tmp_path / "n.csv"
        write_csv(path, {}, ["a", "b", "c", "d", "e"], rows)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["a", "b", "c", "d", "e"])
        writer.writerows(rows)
        assert path.read_bytes() == expected.getvalue().encode()

    def test_number_rows_stream_past_no_csv_writer_buffer(self, tmp_path):
        # a csv.writer keeps a 128 KiB buffer once it has written a row;
        # the header's writer is gone by the time the rows stream
        def rows():
            tracemalloc.reset_peak()
            yield from ([t, t / 7.0] for t in range(1000))

        tracemalloc.start()
        try:
            write_csv(tmp_path / "n.csv", {}, ["t", "v"], rows())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    def test_other_rows_between_number_rows_go_through_the_writer(
            self, tmp_path):
        rows = [[0, 0.5], ["a,b", np.float64(1.5)], [1, 2.5], [True, 'q"']]
        write_csv(tmp_path / "mixed.csv", {}, ["x", "y"], rows)
        assert (tmp_path / "mixed.csv").read_bytes() == (
            b'x,y\r\n0,0.5\r\n"a,b",1.5\r\n1,2.5\r\ntrue,"q"""\r\n')

    def test_rows_stream_from_a_generator(self, tmp_path):
        def rows():
            for t in range(100_000):
                yield [t, t / 7.0 if t % 9 else float("nan")]

        listed, streamed = tmp_path / "list.csv", tmp_path / "gen.csv"
        table = list(rows())
        held = sys.getsizeof(table) + sum(
            sys.getsizeof(row) + sum(map(sys.getsizeof, row)) for row in table)
        write_csv(listed, {"n": 100_000}, ["t", "v"], table)
        del table
        tracemalloc.start()
        try:
            write_csv(streamed, {"n": 100_000}, ["t", "v"], rows())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert streamed.read_bytes() == listed.read_bytes()
        # the list holds about 14 MB; streaming holds a row and the
        # writer's buffers, under 0.2 MB
        assert peak < held / 20
