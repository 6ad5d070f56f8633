import numpy as np
import pytest

from obliquerules.core import Task
from obliquerules.datasets import (
    SYNTHETIC_GENERATORS,
    DataError,
    Dataset,
    load_csv,
    load_rows,
    make_oblique,
    make_rotated_box,
    make_staircase,
    write_csv,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def test_loads_basic_classification_csv(tmp_path):
    p = write(tmp_path, "a,b,label\n1,2,yes\n3,4,no\n5,6,yes\n")
    d = load_csv(p, "label", Task.CLASSIFICATION)
    assert d.feature_names == ("a", "b")
    assert d.X.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    # labels map to {0, 1} by sorted order: no -> 0, yes -> 1
    assert d.label_names == ("no", "yes")
    assert d.y.tolist() == [1.0, 0.0, 1.0]
    assert d.task is Task.CLASSIFICATION
    assert d.n_skipped_rows == 0


def test_loads_regression_csv(tmp_path):
    p = write(tmp_path, "x,target\n1.5,2.25\n-0.5,0.25\n")
    d = load_csv(p, "target", Task.REGRESSION)
    assert d.y.tolist() == [2.25, 0.25]
    assert d.task is Task.REGRESSION
    assert d.label_names == ()


def test_rows_with_missing_cells_are_skipped_and_counted(tmp_path):
    p = write(tmp_path, "a,b,y\n1,2,no\n,3,yes\n4,,no\n5,6,yes\n7,8,\n")
    d = load_csv(p, "y", Task.CLASSIFICATION)
    assert d.n_rows == 2
    assert d.n_skipped_rows == 3
    assert d.X.tolist() == [[1.0, 2.0], [5.0, 6.0]]


def test_blank_lines_are_no_rows_and_keep_the_line_numbers(tmp_path):
    # csv.reader yields [] for a blank line; a line of only commas is a row of empty cells
    p = write(tmp_path, "a,b,y\n1,2,no\n\n3,4,yes\n,,\n5,6,no\n\n")
    d = load_csv(p, "y", Task.CLASSIFICATION)
    assert d.X.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    assert d.n_skipped_rows == 1
    X, y = load_rows(write(tmp_path, "a,b,y\n1,2,no\n\n3,4,yes\n\n", "rows.csv"),
                     ["a", "b"], "y", Task.CLASSIFICATION)
    assert X.tolist() == [[1.0, 2.0], [3.0, 4.0]] and y.tolist() == [0.0, 1.0]
    with pytest.raises(DataError, match=r"data\.csv:5: missing cell"):
        load_rows(p, ["a", "b"])
    with pytest.raises(DataError, match=r"bad\.csv:4: non-numeric value 'x'"):
        load_csv(write(tmp_path, "a,b,y\n1,2,no\n\nx,4,yes\n", "bad.csv"), "y",
                 Task.CLASSIFICATION)


def test_feature_rows_follow_the_requested_column_order(tmp_path):
    p = write(tmp_path, "a,b,note\n1,2,\n3,4,x\n")
    X, y = load_rows(p, ("b", "a"))
    assert X.tolist() == [[2.0, 1.0], [4.0, 3.0]] and y is None
    with pytest.raises(DataError, match=r":3: missing cell"):
        load_rows(write(tmp_path, "a,b\n1,2\n,4\n", "holed.csv"), ("a", "b"))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_feature_rows_reject_non_finite_cells_with_line_number(tmp_path, cell):
    p = write(tmp_path, f"a,b\n1,2\n3,{cell}\n")
    with pytest.raises(DataError, match=rf":3: non-finite value '{cell}' in column 'b'"):
        load_rows(p, ("a", "b"))
    # a non-finite cell in an ignored column does not matter
    assert load_rows(p, ("a",))[0].tolist() == [[1.0], [3.0]]


def test_byte_order_mark_does_not_rename_the_first_column(tmp_path):
    text = "a,b,y\n1,2,no\n3,4,yes\n"
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    data = load_csv(p, "y", Task.CLASSIFICATION)
    assert data.feature_names == ("a", "b")
    assert data.X.tolist() == load_csv(write(tmp_path, text), "y", Task.CLASSIFICATION).X.tolist()
    assert load_rows(p, ("a",))[0].tolist() == [[1.0], [3.0]]


def test_target_only_csv_is_a_data_error(tmp_path):
    p = write(tmp_path, "y\nno\nyes\nno\n")
    with pytest.raises(DataError, match="no feature columns"):
        load_csv(p, "y", Task.CLASSIFICATION)


def test_undecodable_csv_is_a_data_error(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"a,y\n\xe9,1\n2,0\n")
    with pytest.raises(DataError):
        load_csv(p, "y", Task.CLASSIFICATION)
    with pytest.raises(DataError):
        load_rows(p, ("a",))


def test_non_numeric_feature_cell_raises_with_line_number(tmp_path):
    p = write(tmp_path, "a,b,y\n1,2,no\n3,oops,yes\n")
    with pytest.raises(DataError, match=r":3: .*'oops'.*column 'b'"):
        load_csv(p, "y", Task.CLASSIFICATION)


def test_non_numeric_regression_target_raises(tmp_path):
    p = write(tmp_path, "a,y\n1,2\n3,high\n")
    with pytest.raises(DataError, match=r"data.csv:3: non-numeric target 'high' in column 'y'"):
        load_csv(p, "y", Task.REGRESSION)


def test_wrong_cell_count_raises_with_line_number(tmp_path):
    p = write(tmp_path, "a,b,y\n1,2,no\n1,2,3,no\n")
    with pytest.raises(DataError, match=r":3:"):
        load_csv(p, "y", Task.CLASSIFICATION)


def test_missing_target_column_raises(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(DataError, match="target column"):
        load_csv(p, "y", Task.CLASSIFICATION)


def test_missing_header_raises(tmp_path):
    p = write(tmp_path, "")
    with pytest.raises(DataError):
        load_csv(p, "y", Task.CLASSIFICATION)


def test_fewer_than_two_usable_rows_raises(tmp_path):
    p = write(tmp_path, "a,y\n1,no\n,yes\n")
    with pytest.raises(DataError, match="fewer than two usable rows"):
        load_csv(p, "y", Task.CLASSIFICATION)


def test_classification_needs_exactly_two_labels(tmp_path):
    p = write(tmp_path, "a,y\n1,red\n2,green\n3,blue\n")
    with pytest.raises(DataError, match="exactly 2"):
        load_csv(p, "y", Task.CLASSIFICATION)
    p2 = write(tmp_path, "a,y\n1,same\n2,same\n", name="one.csv")
    with pytest.raises(DataError, match="exactly 2"):
        load_csv(p2, "y", Task.CLASSIFICATION)


def test_targets_map_through_the_given_labels(tmp_path):
    p = write(tmp_path, "a,y\n1,yes\n2,yes\n3,no\n")
    assert load_rows(p, ("a",), "y", Task.CLASSIFICATION, ("no", "yes"))[1].tolist() == [1, 1, 0]
    assert load_rows(p, ("a",), "y", Task.CLASSIFICATION)[1].tolist() == [1, 1, 0]
    with pytest.raises(DataError, match=r"data.csv:4: label 'no' in column 'y' is not one of"):
        load_rows(p, ("a",), "y", Task.CLASSIFICATION, ("maybe", "yes"))
    one = write(tmp_path, "a,y\n1,yes\n2,yes\n", name="one.csv")
    assert load_rows(one, ("a",), "y", Task.CLASSIFICATION, ("no", "yes"))[1].tolist() == [1, 1]
    with pytest.raises(DataError, match="exactly 2"):
        load_rows(one, ("a",), "y", Task.CLASSIFICATION)


@pytest.mark.parametrize("cell", ["nan", "inf", "1e400", ""])
def test_targets_reject_a_missing_or_non_finite_regression_cell(tmp_path, cell):
    p = write(tmp_path, f"a,y\n1,0.5\n2,{cell}\n")
    message = "missing cell" if cell == "" else f"non-finite target '{cell}' in column 'y'"
    with pytest.raises(DataError, match=f"data.csv:3: {message}"):
        load_rows(p, ("a",), "y", Task.REGRESSION)


def test_rows_report_a_feature_fault_before_a_target_fault(tmp_path):
    p = write(tmp_path, "a,y\n1,\n2,0.5\nx,0.5\n")
    with pytest.raises(DataError, match=r"data.csv:4: non-numeric value 'x' in column 'a'"):
        load_rows(p, ("a",), "y", Task.REGRESSION)


@pytest.mark.parametrize("target, task", [("r", Task.REGRESSION), ("c", Task.CLASSIFICATION)])
def test_rows_read_a_complete_csv_as_load_csv_does(tmp_path, target, task):
    # "10" sorts before "9" as a label, and is the larger number as a feature
    rng = np.random.default_rng(3)
    lines = ["a,r,b,c"] + [f"{a!r},{r!r},{b!r},{c}" for a, r, b, c in zip(
        rng.normal(size=30).tolist(), (rng.normal(size=30) * 1e3).tolist(),
        (rng.normal(size=30) / 7).tolist(), rng.choice(["9", "10"], size=30))]
    p = write(tmp_path, "\n".join(lines) + "\n")
    ds = load_csv(p, target, task)
    X, y = load_rows(p, ds.feature_names, target, task, ds.label_names)
    assert X.tobytes() == ds.X.tobytes() and X.shape == ds.X.shape
    assert y.tobytes() == ds.y.tobytes() and y.shape == ds.y.shape


def test_round_trip_preserves_arrays(tmp_path):
    for gen in (make_oblique, make_staircase):
        d = gen(n=40, d=3, noise=0.2, seed=5)
        p = tmp_path / f"{d.name}.csv"
        write_csv(d, p, target_column="label")
        back = load_csv(p, "label", Task.CLASSIFICATION)
        assert np.array_equal(back.X, d.X)
        assert np.array_equal(back.y, d.y)
        assert back.feature_names == d.feature_names


def test_round_trip_regression(tmp_path):
    rng = np.random.default_rng(0)
    d = Dataset(
        name="r",
        feature_names=("u", "v"),
        X=rng.normal(size=(10, 2)),
        y=rng.normal(size=10),
        task=Task.REGRESSION,
    )
    p = tmp_path / "r.csv"
    write_csv(d, p)
    back = load_csv(p, "target", Task.REGRESSION)
    assert np.array_equal(back.X, d.X)
    assert np.array_equal(back.y, d.y)


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------


def test_generator_registry_complete():
    assert set(SYNTHETIC_GENERATORS) == {"oblique", "rotated-box", "staircase"}


@pytest.mark.parametrize("name", sorted(SYNTHETIC_GENERATORS))
def test_generators_shape_determinism_and_labels(name):
    gen = SYNTHETIC_GENERATORS[name]
    a = gen(n=50, d=4, noise=0.1, seed=9)
    b = gen(n=50, d=4, noise=0.1, seed=9)
    c = gen(n=50, d=4, noise=0.1, seed=10)
    assert a.X.shape == (50, 4) and a.y.shape == (50,)
    assert a.task is Task.CLASSIFICATION
    assert set(np.unique(a.y)) <= {0.0, 1.0}
    assert a.feature_names == ("x1", "x2", "x3", "x4")
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.X, c.X)


@pytest.mark.parametrize("name", sorted(SYNTHETIC_GENERATORS))
@pytest.mark.parametrize("spec", [{"noise": 2.0}, {"noise": -0.1}, {"noise": float("nan")},
                                  {"d": 1}])
def test_generators_reject_bad_noise_and_width(name, spec):
    with pytest.raises(ValueError, match="noise" if "noise" in spec else "features"):
        SYNTHETIC_GENERATORS[name](**{"n": 20, "d": 3, **spec})


def test_oblique_labels_match_halfspace_without_noise():
    d = make_oblique(n=200, d=5, noise=0.0, seed=2)
    expect = (d.X[:, 0] + d.X[:, 1] >= 0).astype(float)
    assert np.array_equal(d.y, expect)


def test_rotated_box_labels_match_region_without_noise():
    d = make_rotated_box(n=200, d=4, noise=0.0, seed=3)
    s, t = d.X[:, 0] + d.X[:, 1], d.X[:, 0] - d.X[:, 1]
    expect = ((np.abs(s) <= 1.0) & (np.abs(t) <= 1.0)).astype(float)
    assert np.array_equal(d.y, expect)


def test_staircase_labels_match_steps_without_noise():
    d = make_staircase(n=200, d=3, noise=0.0, seed=4)
    x1, x2 = d.X[:, 0], d.X[:, 1]
    step = np.where(x1 < -0.5, 1.0, np.where(x1 < 0.5, 0.0, -1.0))
    assert np.array_equal(d.y, (x2 >= step).astype(float))


def test_noise_flips_roughly_expected_fraction():
    clean = make_oblique(n=4000, d=3, noise=0.0, seed=11)
    noisy = make_oblique(n=4000, d=3, noise=0.25, seed=11)
    assert np.array_equal(clean.X, noisy.X)
    flipped = float(np.mean(clean.y != noisy.y))
    assert 0.20 < flipped < 0.30


def test_dataset_validates_shapes():
    with pytest.raises(DataError):
        Dataset(
            name="bad",
            feature_names=("a",),
            X=np.zeros((3, 2)),
            y=np.zeros(3),
            task=Task.REGRESSION,
        )
    with pytest.raises(DataError):
        Dataset(
            name="bad",
            feature_names=("a", "b"),
            X=np.zeros((3, 2)),
            y=np.zeros(4),
            task=Task.REGRESSION,
        )
    with pytest.raises(DataError, match="no feature columns"):
        Dataset(
            name="bad",
            feature_names=(),
            X=np.zeros((3, 0)),
            y=np.zeros(3),
            task=Task.REGRESSION,
        )
