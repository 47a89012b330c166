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
