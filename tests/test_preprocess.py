"""Count-matrix preprocessing and delimited-text round trips."""

import numpy as np
import pytest

from fdr2d import io, preprocess


def _counts(seed=0, n=12, m=8):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 40, size=(n, m)).astype(float)


class TestPrevalenceFilter:
    def test_rare_feature_dropped(self):
        counts = np.ones((60, 2))
        counts[5:, 1] = 0.0  # present in 5/60 rows < 10%
        out, kept = preprocess.preprocess_counts(counts, prevalence_min=0.1)
        np.testing.assert_array_equal(kept, [0])
        assert out.shape == (60, 1)

    def test_boundary_inclusive(self):
        counts = np.zeros((10, 1))
        counts[:3, 0] = 2.0  # present in exactly 30%
        _, kept = preprocess.preprocess_counts(counts, prevalence_min=0.3)
        np.testing.assert_array_equal(kept, [0])

    def test_zero_threshold_keeps_all(self):
        counts = _counts()
        out, kept = preprocess.preprocess_counts(counts)
        np.testing.assert_array_equal(out, counts)
        np.testing.assert_array_equal(kept, np.arange(8))


class TestRarefaction:
    def test_rows_share_minimum_total(self):
        counts = _counts(1)
        min_total = counts.sum(axis=1).min()
        out, _ = preprocess.preprocess_counts(counts, rarefy=True, seed=7)
        np.testing.assert_array_equal(out.sum(axis=1), min_total)

    def test_subsample_never_exceeds_original(self):
        counts = _counts(2)
        out, _ = preprocess.preprocess_counts(counts, rarefy=True, seed=7)
        assert np.all(out <= counts)
        assert np.all(out >= 0)

    def test_seeded_and_deterministic(self):
        counts = _counts(3)
        a, _ = preprocess.preprocess_counts(counts, rarefy=True, seed=11)
        b, _ = preprocess.preprocess_counts(counts, rarefy=True, seed=11)
        c, _ = preprocess.preprocess_counts(counts, rarefy=True, seed=12)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_zero_total_row_rejected(self):
        counts = _counts(4)
        counts[3] = 0.0
        with pytest.raises(ValueError, match="row 3"):
            preprocess.preprocess_counts(counts, rarefy=True)

    def test_row_already_at_minimum_unchanged(self):
        counts = np.array([[5.0, 0.0], [10.0, 10.0]])
        out, _ = preprocess.preprocess_counts(counts, rarefy=True, seed=0)
        np.testing.assert_array_equal(out[0], counts[0])


class TestClr:
    def test_rows_sum_to_zero(self):
        out, _ = preprocess.preprocess_counts(_counts(5), clr=True)
        np.testing.assert_allclose(out.sum(axis=1), 0.0, atol=1e-10)

    def test_hand_example(self):
        # counts [1, 3]: shifted [1.5, 3.5], g = sqrt(5.25)
        out, _ = preprocess.preprocess_counts(np.array([[1.0, 3.0]]), clr=True)
        g = np.sqrt(1.5 * 3.5)
        np.testing.assert_allclose(
            out, [[np.log(1.5 / g), np.log(3.5 / g)]], rtol=1e-12
        )

    def test_clr_and_binarize_exclusive(self):
        with pytest.raises(ValueError, match="binarize"):
            preprocess.preprocess_counts(_counts(), clr=True, binarize=True)


class TestBinarize:
    def test_presence_absence(self):
        counts = np.array([[0.0, 2.0], [5.0, 0.0]])
        out, _ = preprocess.preprocess_counts(counts, binarize=True)
        np.testing.assert_array_equal(out, [[0.0, 1.0], [1.0, 0.0]])


class TestValidation:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            preprocess.preprocess_counts(np.array([[1.0, -2.0]]))

    def test_fractional_counts_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            preprocess.preprocess_counts(np.array([[1.5, 2.0]]))


class TestIo:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        values = rng.standard_normal((9, 4)) * 10.0 ** rng.integers(-8, 8, (9, 4))
        path = tmp_path / "m.tsv"
        io.save_matrix(path, values, [f"c{i}" for i in range(4)])
        back, names = io.load_matrix(path)
        np.testing.assert_array_equal(back, values)
        assert names == [f"c{i}" for i in range(4)]

    def test_round_trip_keeps_every_bit(self, tmp_path):
        # signed zeros, infinities, NaN, subnormals and the extremes come
        # back with the bits they were saved with
        rng = np.random.default_rng(7)
        values = rng.standard_normal((30, 7)) * 10.0 ** rng.integers(-300, 300, (30, 7))
        values[0] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, np.finfo(float).max]
        path = tmp_path / "m.tsv"
        io.save_matrix(path, values, [f"c{i}" for i in range(7)])
        back, _ = io.load_matrix(path)
        assert back.dtype == np.float64 and back.shape == values.shape
        np.testing.assert_array_equal(back.view(np.uint64), values.view(np.uint64))

    def test_cells_may_carry_whitespace(self, tmp_path):
        p = tmp_path / "padded.csv"
        p.write_text("u, v\n 1.5 ,2\n3, -4e-3\n")
        values, names = io.load_matrix(p)
        np.testing.assert_array_equal(values, [[1.5, 2.0], [3.0, -4e-3]])
        assert names == ["u", "v"]

    def test_error_texts(self, tmp_path):
        # the first non-numeric cell of a row is named, stripped; a ragged
        # row is refused before its cells are read
        p = tmp_path / "bad.csv"
        p.write_text("u,v,w\n1,2,3\n4, oops ,x\n")
        with pytest.raises(ValueError) as err:
            io.load_matrix(p)
        assert str(err.value) == f"{p}: row 2, column 'v': non-numeric cell 'oops'"
        p.write_text("u,v,w\n1,2,3\n4,x\n")
        with pytest.raises(ValueError) as err:
            io.load_matrix(p)
        assert str(err.value) == f"{p}: row 2 has 2 cells, header has 3"

    def test_comma_and_tab_sniffed(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p1.write_text("u,v\n1,2\n3,4\n")
        v1, n1 = io.load_matrix(p1)
        p2 = tmp_path / "b.tsv"
        p2.write_text("u\tv\n1\t2\n3\t4\n")
        v2, n2 = io.load_matrix(p2)
        np.testing.assert_array_equal(v1, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(v1, v2)
        assert n1 == n2 == ["u", "v"]

    def test_bad_cell_named(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("u,v\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match=r"row 2.*column 'v'"):
            io.load_matrix(p)

    def test_header_only_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("u,v\n")
        with pytest.raises(ValueError, match="empty data"):
            io.load_matrix(p)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("u,v\n1,2\n3\n")
        with pytest.raises(ValueError, match="row 2"):
            io.load_matrix(p)

    def test_load_dataset_shapes_and_names(self, tmp_path):
        rng = np.random.default_rng(7)
        x = rng.integers(0, 2, size=(20, 1)).astype(float)
        y = rng.standard_normal((20, 3))
        z = rng.standard_normal((20, 2))
        io.save_matrix(tmp_path / "x.tsv", x, ["smoke"])
        io.save_matrix(tmp_path / "y.tsv", y, ["otu1", "otu2", "otu3"])
        io.save_matrix(tmp_path / "z.tsv", z, ["age", "bmi"])
        ds = io.load_dataset(
            tmp_path / "x.tsv", tmp_path / "y.tsv", tmp_path / "z.tsv"
        )
        assert ds.n == 20 and ds.m == 3 and ds.d == 2
        assert ds.feature_names == ("otu1", "otu2", "otu3")
        assert ds.x_kind == "binary"
        assert ds.y_kind == "continuous"

    def test_load_dataset_row_mismatch(self, tmp_path):
        io.save_matrix(tmp_path / "x.tsv", np.zeros((5, 1)), ["x"])
        io.save_matrix(tmp_path / "y.tsv", np.zeros((6, 2)), ["a", "b"])
        io.save_matrix(tmp_path / "z.tsv", np.zeros((5, 1)), ["z"])
        with pytest.raises(ValueError, match=r"5.*6|6.*5"):
            io.load_dataset(
                tmp_path / "x.tsv", tmp_path / "y.tsv", tmp_path / "z.tsv"
            )

    def test_count_kind_detected(self, tmp_path):
        rng = np.random.default_rng(8)
        io.save_matrix(tmp_path / "x.tsv", rng.standard_normal((15, 1)), ["x"])
        io.save_matrix(
            tmp_path / "y.tsv", rng.integers(0, 30, (15, 2)).astype(float), ["a", "b"]
        )
        io.save_matrix(tmp_path / "z.tsv", rng.standard_normal((15, 1)), ["z"])
        ds = io.load_dataset(
            tmp_path / "x.tsv", tmp_path / "y.tsv", tmp_path / "z.tsv"
        )
        assert ds.y_kind == "count"
        assert ds.x_kind == "continuous"
