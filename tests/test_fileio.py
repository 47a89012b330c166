import numpy as np
import pytest

from difftf.fileio import read_csv, read_dataset, write_csv, write_dataset


class TestCsvRoundTrip:
    def test_float_columns_lossless(self, rng, tmp_path):
        path = tmp_path / "x.csv"
        t = np.arange(50)
        u = rng.normal(0.0, 1.0, 50)
        write_csv(path, ["t", "u"], [t, u])
        cols = read_csv(path)
        assert np.array_equal(cols["u"], u)
        assert np.array_equal(cols["t"], t.astype(float))

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="same length"):
            write_csv(path, ["t", "u"], [np.arange(3), np.zeros(2)])
        assert not path.exists()

    def test_column_writer_bytes_equal_per_cell_formatting(self, rng, tmp_path):
        def format_cell(v):
            if isinstance(v, (np.integer, int)):
                return str(int(v))
            return repr(float(v))

        n = 5000  # more rows than one formatting block
        columns = [
            rng.integers(-5, 5, n),
            rng.normal(0.0, 1.0, n),
            rng.normal(0.0, 1.0, n).astype(np.float32),
            rng.random(n) < 0.5,
            np.where(rng.random(n) < 0.5, -0.0, np.inf),
        ]
        header = ["i", "f64", "f32", "bool", "negzero"]
        expected = ",".join(header) + "\n" + "".join(
            ",".join(format_cell(c[k]) for c in columns) + "\n" for k in range(n)
        )
        path = tmp_path / "x.csv"
        write_csv(path, header, columns)
        assert path.read_bytes() == expected.encode()
        assert "-0.0" in expected and "1.0" in expected
        write_csv(path, header, [c[:0] for c in columns])
        assert path.read_bytes() == (",".join(header) + "\n").encode()

    def test_writer_bytes_equal_column_block_formatter(self, rng, tmp_path):
        def column_block_text(header, columns, block=4096):
            # the writer's earlier formatter: one str/repr map per column and block
            n = len(columns[0])
            out = [",".join(header) + "\n"]
            for lo in range(0, n, block):
                cells = [map(str, c[lo : lo + block].tolist())
                         if np.issubdtype(c.dtype, np.integer)
                         else map(repr, c[lo : lo + block].astype(float).tolist())
                         for c in columns]
                out.append("\n".join(map(",".join, zip(*cells))) + "\n")
            return "".join(out)

        n = 2 * 4096 + 123  # not a multiple of the formatting block
        special = np.array([-0.0, 0.0, 1e16, -1e16, 1e-5, 5e-324, -5e-324,
                            np.inf, -np.inf, np.nan, 0.1, 1.0 / 3.0])
        floats = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-20, 20, n)
        floats[rng.choice(n, 400, replace=False)] = np.resize(special, 400)
        floats[:special.size] = special
        ints = rng.integers(-(2**40), 2**40, n)
        ints[:3] = [0, -1, np.iinfo(np.int64).max]
        # a time index, then integer columns whose values repeat (table lookup)
        repeating = [np.arange(n) // 3, rng.integers(-3, 9, n).astype(np.int8),
                     np.arange(n, dtype=np.uint64) % 7 + np.uint64(2**63)]
        columns = [np.arange(n), ints, floats, np.flip(floats), *repeating]
        header = ["t", "i", "f", "g", "seq", "z", "big"]
        path = tmp_path / "x.csv"
        write_csv(path, header, columns)
        assert path.read_bytes() == column_block_text(header, columns).encode()
        cols = read_csv(path)
        assert np.array_equal(cols["f"], floats, equal_nan=True)
        assert np.array_equal(np.signbit(cols["f"]), np.signbit(floats))
        assert np.array_equal(cols["g"], np.flip(floats), equal_nan=True)
        # read_csv parses floats: integers above 2**53 come back rounded
        assert np.array_equal(cols["i"][3:], ints[3:])
        assert cols["i"][2] == float(ints[2])
        assert np.array_equal(cols["t"], np.arange(n))
        assert np.array_equal(cols["z"], repeating[1])

    def test_single_sequence_dataset(self, rng, tmp_path):
        path = tmp_path / "d.csv"
        u = rng.normal(0.0, 1.0, 30)
        y = rng.normal(0.0, 1.0, 30)
        write_dataset(path, u, y=y)
        u2, y2, kind = read_dataset(path)
        assert kind == "y"
        assert u2.shape == (1, 30)
        assert np.array_equal(u2[0], u)
        assert np.array_equal(y2[0], y)

    def test_batched_quantized_dataset(self, rng, tmp_path):
        path = tmp_path / "d.csv"
        u = rng.normal(0.0, 1.0, (3, 20))
        z = rng.integers(0, 12, (3, 20))
        write_dataset(path, u, z=z)
        u2, z2, kind = read_dataset(path)
        assert kind == "z"
        assert np.array_equal(u2, u)
        assert np.array_equal(z2, z)
        assert z2.dtype == np.int64

    def test_header_mismatch_detected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,u,y\n0,1.0\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_missing_output_column_detected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,u\n0,1.0\n")
        with pytest.raises(ValueError, match="y or z"):
            read_dataset(path)

    @pytest.mark.parametrize("header", ["t,u,y", "seq,t,u,z"])
    def test_header_only_dataset_detected(self, tmp_path, header):
        # read_csv takes a header-only file (a zero-iteration trace is one)
        path = tmp_path / "empty.csv"
        path.write_text(header + "\n")
        assert all(col.size == 0 for col in read_csv(path).values())
        with pytest.raises(ValueError, match="no data rows"):
            read_dataset(path)

    def test_non_integer_z_detected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,u,z\n0,1.0,0.5\n")
        with pytest.raises(ValueError, match="integer"):
            read_dataset(path)

    @pytest.mark.parametrize("column", ["u", "y"])
    def test_non_finite_values_detected(self, tmp_path, column):
        path = tmp_path / "bad.csv"
        rows = {"u": "0,nan,1.0", "y": "0,1.0,inf"}[column]
        path.write_text(f"t,u,y\n0,1.0,1.0\n{rows}\n")
        with pytest.raises(ValueError, match=f"non-finite value in the {column} column"):
            read_dataset(path)

    def test_malformed_seq_detected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("seq,t,u,y\n0,0,1.0,1.0\n2,0,1.0,1.0\n")
        with pytest.raises(ValueError, match="seq"):
            read_dataset(path)

    def test_non_integer_seq_detected(self, tmp_path):
        # 0.5 would be truncated to 0 and read as two sequences of two rows
        path = tmp_path / "bad.csv"
        path.write_text("seq,t,u,y\n0,0,1.0,1.0\n0.5,1,1.0,1.0\n1,0,1.0,1.0\n1,1,1.0,1.0\n")
        with pytest.raises(ValueError, match="malformed seq column"):
            read_dataset(path)
