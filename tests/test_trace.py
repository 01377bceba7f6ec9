"""Trace consistency checks and deterministic CSV output."""

import csv
import io
import re
import tracemalloc

import numpy as np
import pytest

from declangevin import Trace, write_csv
from declangevin import trace as trace_module


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


def reference_bytes(header, ts, *columns):
    """The table's bytes built row by row: csv.writer's line of t and every
    column's values at t, as plain ints and floats."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for k, t in enumerate(ts.tolist()):
        writer.writerow([t] + [v for c in columns for v in np.ravel(c[k]).tolist()])
    return buf.getvalue().encode()


class TestWriteCsv:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, {"a": 1, "b": 2.5, "c": True, "d": "x"},
                  ["t", "v"], np.array([0, 1]), np.array([0.1, np.nan]))
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
            write_csv(path, metadata, ["t"], np.array([0]))
        assert not path.exists()

    @pytest.mark.parametrize("name", ["a,b", 'q"', "x\ry", "x\ny"])
    def test_a_column_name_that_needs_quoting_raises_before_the_file_is_opened(
            self, name, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            write_csv(path, {}, ["t", name], np.array([0]), np.array([0.5]))
        assert not path.exists()

    @pytest.mark.parametrize("ts, column", [
        (np.array([0, 1]), np.array(["a", "b"])),
        (np.array([0, 1]), np.array([0.5, "b"], dtype=object)),
        (np.array([0, 1]), np.array([True, False])),
        (np.array([0.0, 1.0]), np.array([0.5, 1.5])),
        (np.array(["0", "1"]), np.array([0.5, 1.5]))])
    def test_a_column_of_no_numbers_raises_before_the_file_is_opened(
            self, ts, column, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(TypeError):
            write_csv(path, {}, ["t", "v"], ts, column)
        assert not path.exists()

    @pytest.mark.parametrize("header, columns", [
        (["t", "v"], [np.zeros(3)]),
        (["t", "v"], [np.zeros(2), np.zeros(2)]),
        (["t", "a", "b"], [np.zeros((2, 3))]),
        (["t", "v"], [np.zeros((2, 1, 1))])])
    def test_a_table_the_header_does_not_fit_raises_before_the_file_is_opened(
            self, header, columns, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="names"):
            write_csv(path, {}, header, np.array([0, 1]), *columns)
        assert not path.exists()

    def test_a_table_of_ts_alone(self, tmp_path):
        path = tmp_path / "ts.csv"
        write_csv(path, {"n": 3}, ["t"], np.arange(0, 9, 4))
        assert path.read_bytes() == b"# n=3\r\nt\r\n0\r\n4\r\n8\r\n"
        write_csv(path, {}, ["t"], np.arange(0))
        assert path.read_bytes() == b"t\r\n"

    def test_floats_round_trip_through_repr(self, tmp_path):
        values = [1.0 / 3.0, 1e-300, 0.1 + 0.2, -7.5e17]
        path = tmp_path / "floats.csv"
        write_csv(path, {}, ["t", "v"], np.arange(4), np.array(values))
        lines = path.read_text().strip().splitlines()[1:]
        assert [float(s.split(",")[1]) for s in lines] == values

    def test_metadata_keeps_insertion_order(self, tmp_path):
        path = tmp_path / "meta.csv"
        write_csv(path, {"zeta": 1, "alpha": 2}, ["t"], np.arange(0))
        lines = path.read_text().splitlines()
        assert lines[0] == "# zeta=1"
        assert lines[1] == "# alpha=2"

    def test_existing_file_is_overwritten(self, tmp_path):
        path = tmp_path / "twice.csv"
        write_csv(path, {}, ["t", "v"], np.arange(3), np.array([1.0, 2.0, 3.0]))
        write_csv(path, {}, ["t", "v"], np.arange(1), np.array([9.0]))
        assert path.read_bytes() == b"t,v\r\n0,9.0\r\n"

    def test_numpy_scalars_format_like_python_ones(self, tmp_path):
        path = tmp_path / "np.csv"
        write_csv(path, {"n": np.int64(3), "f": np.float64(0.5),
                         "b": np.bool_(False), "g": np.float32(0.1)}, ["t"],
                  np.array([7]))
        assert path.read_bytes() == (b"# n=3\r\n# f=0.5\r\n# b=false\r\n"
                                     b"# g=" + repr(float(np.float32(0.1))).encode()
                                     + b"\r\nt\r\n7\r\n")

    def test_number_rows_have_the_csv_writer_bytes(self, tmp_path):
        # integer columns among float ones are stacked as floats
        ts = np.array([0, 7, -3, 2 ** 62])
        floats = np.array([[np.nan, np.inf, -np.inf, -0.0, 0.0],
                           [5e-324, 1e308, -1e308, 2.5e-7, 1 / 3],
                           [0.1, np.nan, -5e-324, 1e22, 123456789.0],
                           [1.0, -2.0, 1e-5, 1e16, 0.5]])
        counts = np.array([0, -1, 2 ** 53, 3])
        header = ["t", "a", "b", "c", "d", "e", "n"]
        path = tmp_path / "n.csv"
        write_csv(path, {}, header, ts, floats, counts)
        assert path.read_bytes() == reference_bytes(
            header, ts, floats, counts.astype(float))

    # the columns of a default mixture table (alpha, theta1, theta2,
    # consensus error at m = 4, the thetas as strided views) and of a
    # single column
    LAYOUTS = {"mixture": (1, 4, 4, 4), "one column": (1,)}

    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
    @pytest.mark.parametrize("where", ["1", "chunk-1", "chunk", "chunk+1",
                                      "3 chunks+tail"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chunks_write_the_bytes_of_the_whole_table(self, layout, where,
                                                       seed, tmp_path):
        chunk = trace_module._CHUNK_BYTES // (8 * sum(layout))
        n = {"1": 1, "chunk-1": chunk - 1, "chunk": chunk,
             "chunk+1": chunk + 1, "3 chunks+tail": 3 * chunk + 17}[where]
        rng = np.random.default_rng(seed)
        cells = rng.standard_normal((n, sum(layout))) * 10.0 ** rng.integers(
            -300, 300, (n, sum(layout)))
        # special values in about one cell in eight
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
        mask = rng.random(cells.shape) < 0.125
        cells[mask] = rng.choice(special, mask.sum())
        # 2-D columns as strided views, like the mixture's states[:, :, j]
        bounds = np.cumsum((0,) + layout)
        columns = [cells[:, lo] if hi - lo == 1 else cells[:, lo:hi]
                   for lo, hi in zip(bounds[:-1], bounds[1:])]
        ts = np.arange(0, 3 * n, 3)
        header = ["t"] + [f"c{j}" for j in range(sum(layout))]
        write_csv(tmp_path / "chunked.csv", {}, header, ts, *columns)
        assert (tmp_path / "chunked.csv").read_bytes() == \
            reference_bytes(header, ts, *columns)

    def test_a_long_table_is_written_in_bounded_memory(self, tmp_path):
        n = 100_000
        ts = np.arange(n)
        v = np.where(ts % 9, ts / 7.0, np.nan)
        tracemalloc.start()
        try:
            write_csv(tmp_path / "long.csv", {"n": n}, ["t", "v"], ts, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "long.csv").read_bytes() == b"# n=100000\r\n" + \
            reference_bytes(["t", "v"], ts, v)
        # a chunk of 8192 rows holds about 0.45 MB, whatever the length: a
        # stacked copy of the table would hold its arrays' 1.6 MB, and its
        # values as Python objects several times that
        assert peak < (ts.nbytes + v.nbytes) / 2
