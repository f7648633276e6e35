import re

import numpy as np
import pytest

from supersetlabel import (
    DataFormatError,
    Dataset,
    load_manifest,
    make_synthetic,
    plan_splits,
)
from supersetlabel.dataset import (
    load_dataset,
    normalize_unit_length,
    save_dataset,
)


def write_files(tmp_path, features, candidates, truth=None):
    fp = tmp_path / "features.tsv"
    fp.write_text("\n".join("\t".join(str(v) for v in row) for row in features)
                  + "\n")
    cp = tmp_path / "candidates.txt"
    cp.write_text("\n".join(candidates) + "\n")
    tp = None
    if truth is not None:
        tp = tmp_path / "truth.txt"
        tp.write_text("\n".join(str(y) for y in truth) + "\n")
    return fp, cp, tp


class TestLoad:
    def test_infers_class_count(self, tmp_path):
        fp, cp, _ = write_files(tmp_path, [[0, 1], [2, 3], [4, 5]],
                                ["1,2", "2", "1,3"])
        ds = load_dataset(fp, cp)
        assert (ds.n, ds.d, ds.c) == (3, 2, 3)
        assert ds.candidates == ((1, 2), (2,), (1, 3))
        assert ds.truth is None

    def test_truth_outside_candidates_names_row(self, tmp_path):
        fp, cp, tp = write_files(tmp_path, [[0.0], [1.0]], ["1,2", "1,3"],
                                 truth=[1, 2])
        with pytest.raises(DataFormatError, match="row 2"):
            load_dataset(fp, cp, tp)

    def test_empty_truth_file_named(self, tmp_path):
        fp, cp, tp = write_files(tmp_path, [[0.0], [1.0]], ["1", "2"],
                                 truth=[])
        with pytest.raises(DataFormatError,
                           match=r"truth\.txt: 2 feature rows but 0 truth"):
            load_dataset(fp, cp, tp)

    def test_bad_truth_token_names_file_and_line(self, tmp_path):
        fp, cp, _ = write_files(tmp_path, [[0.0], [1.0], [2.0]],
                                ["1", "2", "1"])
        tp = tmp_path / "truth.txt"
        tp.write_text("1\n\nx\n1\n")
        with pytest.raises(DataFormatError,
                           match=r"truth\.txt: bad truth label on line 3: 'x'"):
            load_dataset(fp, cp, tp)

    @pytest.mark.parametrize("label", ["0", "-2"])
    def test_truth_label_below_one_names_file_and_line(self, tmp_path, label):
        # it used to reach Dataset's membership check, which names neither
        fp, cp, _ = write_files(tmp_path, [[0.0], [1.0]], ["1", "2"])
        tp = tmp_path / "truth.txt"
        tp.write_text(f"1\n{label}\n")
        with pytest.raises(DataFormatError, match=(
                rf"^{re.escape(str(tp))}: bad truth label on line 2: "
                rf"'{label}'$")):
            load_dataset(fp, cp, tp)

    def test_non_numeric_token(self, tmp_path):
        fp, cp, _ = write_files(tmp_path, [[0, 1], ["x", 3]], ["1", "2"])
        with pytest.raises(DataFormatError, match="non-numeric"):
            load_dataset(fp, cp)

    def test_row_count_mismatch(self, tmp_path):
        fp, cp, _ = write_files(tmp_path, [[0, 1], [2, 3]], ["1"])
        with pytest.raises(DataFormatError,
                           match=r"candidates\.txt: 2 feature rows but 1 "
                                 r"candidate lines"):
            load_dataset(fp, cp)

    def test_ragged_features(self, tmp_path):
        fp = tmp_path / "f.tsv"
        fp.write_text("1\t2\n3\n")
        cp = tmp_path / "c.txt"
        cp.write_text("1\n2\n")
        with pytest.raises(DataFormatError, match="inconsistent"):
            load_dataset(fp, cp)

    def test_blank_lines_skipped(self, tmp_path):
        fp = tmp_path / "f.tsv"
        fp.write_text("\n1\t2\n  \n\t\n3\t4\n\n")
        cp = tmp_path / "c.txt"
        cp.write_text("1\n2\n")
        np.testing.assert_array_equal(load_dataset(fp, cp).features,
                                      [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("bad, match", [
        ("x\t3", "non-numeric feature token 'x' on line 4"),
        ("3", "inconsistent row lengths: 1 values on line 4"),
        # Python's float reads these, np.loadtxt does not
        ("1_000\t3", "non-numeric feature token '1_000' on line 4"),
        ("\u0661\t3", "non-numeric feature token '\u0661' on line 4"),
        ("1\t\t3", "non-numeric feature token '' on line 4"),
    ], ids=["token", "ragged", "underscore", "arabic_digit", "empty"])
    def test_bad_line_named_after_blank_lines(self, tmp_path, bad, match):
        fp = tmp_path / "f.tsv"
        fp.write_text(f"1\t2\n\n\n{bad}\n")
        cp = tmp_path / "c.txt"
        cp.write_text("1\n2\n")
        with pytest.raises(DataFormatError, match=match):
            load_dataset(fp, cp)

    def test_declared_c_too_small(self, tmp_path):
        fp, cp, _ = write_files(tmp_path, [[0.0], [1.0]], ["1", "3"])
        with pytest.raises(DataFormatError, match="declared"):
            load_dataset(fp, cp, c=2)

    def test_declared_c_extends_range(self, tmp_path):
        fp, cp, _ = write_files(tmp_path, [[0.0], [1.0]], ["1", "2"])
        assert load_dataset(fp, cp, c=5).c == 5

    @pytest.mark.parametrize("lines, line_no", [
        (["0", "0", "-1"], 1), (["1", "0", "2"], 2)], ids=["all", "one"])
    def test_label_below_one_names_file_and_line(self, tmp_path, lines,
                                                 line_no):
        fp, cp, _ = write_files(tmp_path, [[0.0], [1.0], [2.0]], lines)
        with pytest.raises(DataFormatError, match=(
                rf"^{re.escape(str(cp))}: bad candidate list on line "
                rf"{line_no}: '{lines[line_no - 1]}'$")):
            load_dataset(fp, cp)

    def test_candidates_tolerate_spaces(self, tmp_path):
        fp, cp, _ = write_files(tmp_path, [[0.0], [1.0]], ["1, 2", "2"])
        assert load_dataset(fp, cp).candidates == ((1, 2), (2,))

    def test_manifest_dimension_mismatch(self, tmp_path):
        ds = make_synthetic(n=8, c=2, d=2, sep=2.0, p_coocc=0.0, r_extra=0,
                            seed=1)
        paths = save_dataset(ds, tmp_path)
        manifest = paths["manifest"].read_text().replace("n=8", "n=9")
        paths["manifest"].write_text(manifest)
        with pytest.raises(DataFormatError,
                           match="declared n=9 but data has 8$"):
            load_manifest(paths["manifest"])

    def test_manifest_line_without_equals(self, tmp_path):
        ds = make_synthetic(n=8, c=2, d=2, sep=2.0, p_coocc=0.0, r_extra=0,
                            seed=1)
        paths = save_dataset(ds, tmp_path)
        with paths["manifest"].open("a") as f:
            f.write("# a comment\n\nstray\n")
        with pytest.raises(DataFormatError, match="expected key=value"):
            load_manifest(paths["manifest"])

    def test_round_trip(self, tmp_path):
        ds = make_synthetic(n=23, c=4, d=3, sep=3.0, p_coocc=0.5, r_extra=2,
                            seed=5)
        paths = save_dataset(ds, tmp_path / "out")
        back = load_manifest(paths["manifest"])
        assert back.candidates == ds.candidates
        assert back.truth == ds.truth
        assert back.c == ds.c
        np.testing.assert_array_equal(back.features, ds.features)


class TestInvariants:
    def test_empty_candidate_set(self):
        with pytest.raises(DataFormatError, match="empty candidate"):
            Dataset(features=np.zeros((1, 2)), candidates=((),), c=2)

    def test_candidate_out_of_range(self):
        with pytest.raises(DataFormatError, match="out of range"):
            Dataset(features=np.zeros((1, 2)), candidates=((3,),), c=2)

    def test_nan_features(self):
        with pytest.raises(DataFormatError,
                           match="^non-finite feature value in row 2$"):
            Dataset(features=np.array([[0.0, 0.0], [np.nan, 0.0]]),
                    candidates=((1,), (1,)), c=1)

    @pytest.mark.parametrize("c, message", [
        (2.5, "^c must be an integer, got 2.5$"),
        (True, "^c must be an integer, got True$"),
        (0, "^c must be at least 1, got 0$"),
    ], ids=["float", "bool", "zero"])
    def test_c_is_a_count(self, c, message):
        with pytest.raises(ValueError, match=message):
            Dataset(features=np.zeros((1, 2)), candidates=((1,),), c=c)

    def test_truth_must_be_candidate(self):
        with pytest.raises(DataFormatError, match="row 1"):
            Dataset(features=np.zeros((1, 2)), candidates=((1, 2),), c=3,
                    truth=(3,))

    def test_subset_keeps_c(self):
        ds = make_synthetic(n=10, c=3, d=2, sep=2.0, p_coocc=1.0, r_extra=1,
                            seed=0)
        sub = ds.subset([0, 4, 7])
        assert sub.n == 3 and sub.c == ds.c
        assert sub.candidates == tuple(ds.candidates[i] for i in (0, 4, 7))


class TestNormalize:
    def test_three_four_five(self):
        out = normalize_unit_length(np.array([[3.0, 4.0]]), "x.tsv")
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_idempotent(self, rng):
        once = normalize_unit_length(rng.normal(size=(6, 3)), "x.tsv")
        twice = normalize_unit_length(once, "x.tsv")
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_all_rows_unit_norm(self, rng):
        norms = np.linalg.norm(
            normalize_unit_length(rng.normal(size=(5, 3)), "x.tsv"), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_zero_row_identified(self):
        with pytest.raises(DataFormatError,
                           match="^x.tsv: zero-norm feature row 2$"):
            normalize_unit_length(np.array([[1.0, 0.0], [0.0, 0.0]]), "x.tsv")


class TestSynthetic:
    def test_no_corruption(self):
        ds = make_synthetic(n=50, c=3, d=2, sep=2.0, p_coocc=0.0, r_extra=2,
                            seed=1)
        assert all(len(s) == 1 for s in ds.candidates)
        assert all(s == (y,) for s, y in zip(ds.candidates, ds.truth))

    def test_full_corruption(self):
        ds = make_synthetic(n=50, c=3, d=2, sep=2.0, p_coocc=1.0, r_extra=1,
                            seed=1)
        assert all(len(s) == 2 for s in ds.candidates)

    def test_average_candidate_count(self):
        # E|S| = 1 + p * r = 1 + 0.6 * 2 = 2.2
        ds = make_synthetic(n=1000, c=5, d=2, sep=2.0, p_coocc=0.6, r_extra=2,
                            seed=3)
        avg = np.mean([len(s) for s in ds.candidates])
        assert abs(avg - 2.2) < 0.1

    def test_truth_always_in_candidates(self):
        ds = make_synthetic(n=200, c=4, d=3, sep=1.0, p_coocc=0.8, r_extra=3,
                            seed=9)
        assert all(y in s for y, s in zip(ds.truth, ds.candidates))

    @pytest.mark.parametrize("size, message", [
        (dict(n=60.0), "^n must be an integer, got 60.0$"),
        (dict(c=3.0), "^c must be an integer, got 3.0$"),
        (dict(d=2.5), "^d must be an integer, got 2.5$"),
        (dict(n=True), "^n must be an integer, got True$"),
        (dict(d=0), "^d must be at least 1, got 0$"),
        (dict(c=1, r_extra=0), "^c must be at least 2, got 1$"),
    ], ids=["n-float", "c-float", "d-float", "n-bool", "d-zero", "c-one"])
    def test_sizes_are_counts(self, size, message):
        with pytest.raises(ValueError, match=message):
            make_synthetic(**{**dict(n=60, c=3, d=2, sep=2.0, p_coocc=0.5,
                                     r_extra=1, seed=0), **size})

    def test_r_extra_too_large(self):
        with pytest.raises(ValueError, match="r_extra"):
            make_synthetic(n=10, c=3, d=2, sep=1.0, p_coocc=0.5, r_extra=3,
                           seed=0)

    def test_reproducible(self):
        a = make_synthetic(n=40, c=3, d=2, sep=2.0, p_coocc=0.5, r_extra=1,
                           seed=11)
        b = make_synthetic(n=40, c=3, d=2, sep=2.0, p_coocc=0.5, r_extra=1,
                           seed=11)
        np.testing.assert_array_equal(a.features, b.features)
        assert a.candidates == b.candidates and a.truth == b.truth

    def test_class_separation(self):
        # empirical class means inherit the >= sep spacing, up to sampling noise
        sep = 6.0
        ds = make_synthetic(n=3000, c=3, d=2, sep=sep, p_coocc=0.0, r_extra=0,
                            seed=2)
        truth = np.asarray(ds.truth)
        means = np.stack([ds.features[truth == k].mean(axis=0)
                          for k in (1, 2, 3)])
        for i in range(3):
            for k in range(i + 1, 3):
                assert np.linalg.norm(means[i] - means[k]) > sep - 0.5


class TestSplits:
    def test_balanced_two_classes(self):
        ds = make_synthetic(n=10, c=2, d=2, sep=2.0, p_coocc=0.0, r_extra=0,
                            seed=4)
        plan = plan_splits(ds, seed=0)
        truth = np.asarray(ds.truth)
        for fold in range(1, 6):
            te = plan.test_indices(fold)
            assert len(te) == 2
            assert sorted(truth[te]) == [1, 2]

    def test_deterministic(self):
        ds = make_synthetic(n=37, c=3, d=2, sep=2.0, p_coocc=0.3, r_extra=1,
                            seed=6)
        a = plan_splits(ds, seed=123)
        b = plan_splits(ds, seed=123)
        np.testing.assert_array_equal(a.folds, b.folds)

    def test_partition(self):
        ds = make_synthetic(n=53, c=4, d=2, sep=2.0, p_coocc=0.3, r_extra=1,
                            seed=6)
        plan = plan_splits(ds, seed=7)
        seen = np.concatenate([plan.test_indices(f) for f in range(1, 6)])
        assert sorted(seen) == list(range(ds.n))

    def test_proportional_class_counts(self):
        ds = make_synthetic(n=103, c=3, d=2, sep=2.0, p_coocc=0.0, r_extra=0,
                            seed=8)
        plan = plan_splits(ds, seed=1)
        truth = np.asarray(ds.truth)
        for cls in (1, 2, 3):
            n_cls = int(np.sum(truth == cls))
            for fold in range(1, 6):
                count = int(np.sum(truth[plan.test_indices(fold)] == cls))
                assert abs(count - n_cls / 5) <= 1

    def test_small_class_warns(self):
        ds = Dataset(
            features=np.arange(14, dtype=float).reshape(7, 2),
            candidates=((1,), (1,), (1,), (1,), (1,), (2,), (2,)),
            c=2,
            truth=(1, 1, 1, 1, 1, 2, 2),
        )
        with pytest.warns(UserWarning, match="class 2"):
            plan_splits(ds, seed=0)

    def test_requires_truth(self):
        ds = Dataset(features=np.zeros((4, 1)), candidates=((1,),) * 4, c=1)
        with pytest.raises(DataFormatError, match="truth"):
            plan_splits(ds, seed=0)
