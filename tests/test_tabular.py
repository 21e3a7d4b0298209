import builtins
import json
import re
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mambatab import synthetic, tabular
from mambatab.tabular import (
    SchemaConfig, SchemaError, Table,
    fit, infer_column_kinds, load_csv, make_incremental_plan, split, split_rows, transform,
)

from helpers import (
    reference_fit, reference_infer_column_kinds, reference_load_csv, reference_transform,
)


KiB = 1 << 10


def make_table(columns: dict, labels):
    return Table(
        column_names=list(columns),
        columns=[list(v) for v in columns.values()],
        labels=np.asarray(labels, dtype=np.int64),
    )


class TestColumnKinds:
    def test_numeric_with_missing(self):
        t = make_table({"a": ["1.5", "2.0", None]}, [0, 1, 0])
        assert infer_column_kinds(t) == ["numerical"]

    def test_strings_are_categorical(self):
        t = make_table({"a": ["yes", "no", "yes"]}, [0, 1, 0])
        assert infer_column_kinds(t) == ["categorical"]

    def test_numeric_binary_parses_numerical(self):
        t = make_table({"a": ["0", "1", "0"]}, [0, 1, 0])
        assert infer_column_kinds(t) == ["numerical"]

    def test_override_forces_kind(self):
        t = make_table({"a": ["0", "1", "0"]}, [0, 1, 0])
        assert infer_column_kinds(t, {"a": "categorical"}) == ["categorical"]

    def test_all_missing_column_errors(self):
        t = make_table({"a": [None, None]}, [0, 1])
        with pytest.raises(SchemaError):
            infer_column_kinds(t)

    @pytest.mark.parametrize("kind", ["numerical", "categorical"])
    def test_pinned_all_missing_column_errors(self, kind):
        t = make_table({"a": ["1", "2"], "b": [None, None]}, [0, 1])
        with pytest.raises(SchemaError, match="column 'b' has no observed values"):
            infer_column_kinds(t, {"b": kind})


class TestTableChecks:
    def test_short_column_rejected(self):
        with pytest.raises(SchemaError, match="column 'b' has 2 rows, labels have 3"):
            make_table({"a": [1, 2, 3], "b": [1, 2]}, [0, 1, 0])

    @pytest.mark.parametrize("names,columns,counts", [
        (["a", "b"], [[1, 2]], "2 column names for 1 columns"),
        (["a"], [[1, 2], [3, 4]], "1 column names for 2 columns"),
    ])
    def test_names_and_columns_must_pair_up(self, names, columns, counts):
        with pytest.raises(SchemaError, match=counts):
            Table(names, columns, np.array([0, 1]))

    def test_label_outside_zero_one_rejected(self):
        with pytest.raises(SchemaError, match="only 0 and 1"):
            make_table({"a": [1, 2, 3]}, [0, 1, 2])


class TestFit:
    def test_categorical_mode_and_categories(self):
        t = make_table({"a": ["b", "a", "b", None]}, [0, 1, 0, 1])
        pre = fit(t)
        assert pre.categories[0] == ["a", "b"]
        assert pre.modes[0] == "b"

    def test_numerical_mode_min_max(self):
        t = make_table({"a": [2.0, 4.0, None, 4.0]}, [0, 1, 0, 1])
        pre = fit(t)
        assert pre.modes[0] == 4.0
        assert pre.mins[0] == 2.0 and pre.maxs[0] == 4.0

    def test_single_category_column_flagged_degenerate(self):
        t = make_table({"a": ["x", "x", "x"]}, [0, 1, 0])
        pre = fit(t)
        assert pre.mins[0] == pre.maxs[0]

    def test_mode_tie_broken_by_sorted_order(self):
        t = make_table({"a": ["b", "a", "a", "b"]}, [0, 1, 0, 1])
        assert fit(t).modes[0] == "a"


class TestTransform:
    def test_ordinal_then_scale(self):
        train = make_table({"a": ["b", "a", "b", None]}, [0, 1, 0, 1])
        pre = fit(train)
        enc = transform(pre, train)
        assert np.allclose(enc.values[:, 0], [1.0, 0.0, 1.0, 1.0])

    def test_constant_column_scales_to_zero(self):
        train = make_table({"a": [7.0, 7.0, 7.0]}, [0, 1, 0])
        enc = transform(fit(train), train)
        assert np.array_equal(enc.values[:, 0], np.zeros(3))

    def test_midpoint_numeric(self):
        train = make_table({"a": [2.0, 4.0]}, [0, 1])
        test = make_table({"a": [3.0]}, [1])
        enc = transform(fit(train), test)
        assert enc.values[0, 0] == pytest.approx(0.5)

    def test_unseen_category_maps_to_mode_index(self):
        train = make_table({"a": ["b", "a", "b"]}, [0, 1, 0])
        test = make_table({"a": ["zzz"]}, [1])
        enc = transform(fit(train), test)
        assert enc.values[0, 0] == 1.0  # index of mode "b", scaled

    def test_out_of_range_numeric_clipped(self):
        train = make_table({"a": [0.0, 10.0]}, [0, 1])
        test = make_table({"a": [-5.0, 25.0]}, [0, 1])
        enc = transform(fit(train), test)
        assert np.array_equal(enc.values[:, 0], [0.0, 1.0])

    def test_unknown_column_rejected(self):
        train = make_table({"a": [1.0, 2.0]}, [0, 1])
        test = make_table({"b": [1.0, 2.0]}, [0, 1])
        with pytest.raises(SchemaError):
            transform(fit(train), test)

    @pytest.mark.parametrize("columns", [{"b": ["x", "y"]},
                                         {"b": ["x", "y"], "a": [1.0, 2.0]}])
    def test_other_columns_rejected(self, columns):
        pre = fit(make_table({"a": [1.0, 2.0], "b": ["x", "y"]}, [0, 1]))
        names = re.escape(f"table columns {list(columns)} differ from the fitted "
                          f"columns ['a', 'b']")
        with pytest.raises(SchemaError, match=names):
            transform(pre, make_table(columns, [0, 1]))

    def test_cardinality_preserved(self):
        train = make_table({"a": [1.0, 2.0], "b": ["x", "y"], "c": [0.1, 0.9]}, [0, 1])
        enc = transform(fit(train), train)
        assert enc.n_features == train.n_features

    def test_row_order_does_not_change_statistics(self):
        rng = np.random.default_rng(0)
        vals = list(rng.normal(size=30))
        cats = [rng.choice(["p", "q", "r"]) for _ in range(30)]
        t = make_table({"num": vals, "cat": cats}, rng.integers(0, 2, 30))
        shuffled = t.select_rows(rng.permutation(30))
        a, b = fit(t), fit(shuffled)
        assert a.mins == b.mins and a.maxs == b.maxs
        assert a.modes == b.modes and a.categories == b.categories

    @pytest.mark.parametrize("encode", [transform, reference_transform])
    def test_tiny_range_clips_without_overflow_warning(self, encode):
        pre = fit(make_table({"a": ["0", "5e-324"]}, [0, 1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            enc = encode(pre, make_table({"a": ["1"]}, [1]))
        assert enc.values[0, 0] == 1.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.one_of(st.floats(-1e6, 1e6), st.none()), min_size=2, max_size=40)
           .filter(lambda xs: any(x is not None for x in xs)))
    def test_encoded_values_always_in_unit_interval(self, cells):
        m = len(cells)
        train = make_table({"a": cells[: max(2, m // 2)]}, [0] * max(2, m // 2))
        if all(c is None for c in train.columns[0]):
            return
        test = make_table({"a": cells}, [0] * m)
        enc = transform(fit(train), test)
        assert np.all(enc.values >= 0.0) and np.all(enc.values <= 1.0)


class TestNonFiniteCells:
    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "-Infinity", float("nan")])
    def test_inferred_numerical_column_rejected_at_fit(self, cell):
        t = make_table({"a": ["1.5", None, cell, "2"]}, [0, 1, 0, 1])
        with pytest.raises(SchemaError, match=r"column 'a'.*non-finite cell") as err:
            fit(t)
        assert repr(cell) in str(err.value)

    def test_pinned_numerical_column_rejected_at_fit(self):
        t = make_table({"a": ["1", "inf"]}, [0, 1])
        with pytest.raises(SchemaError, match="'inf'"):
            fit(t, {"a": "numerical"})

    def test_rejected_at_transform(self):
        pre = fit(make_table({"a": ["1", "2"]}, [0, 1]))
        with pytest.raises(SchemaError, match=r"column 'a'.*'-inf' at transform time"):
            transform(pre, make_table({"a": ["1", None, "-inf"]}, [0, 1, 0]))

    def test_categorical_column_keeps_nan_as_category(self):
        t = make_table({"a": ["nan", "x", "nan", "inf"]}, [0, 1, 0, 1])
        pre = fit(t)
        assert pre.kinds == ["categorical"]
        assert pre.categories[0] == ["inf", "nan", "x"] and pre.modes[0] == "nan"
        assert np.array_equal(transform(pre, t).values[:, 0], [0.5, 1.0, 0.5, 0.0])


class TestParseOnce:
    """Each observed cell goes through float() once per table, however often it is read."""

    @pytest.fixture
    def float_calls(self, monkeypatch):
        calls = []

        def counting_float(x):
            calls.append(x)
            return builtins.float(x)

        monkeypatch.setattr(tabular, "float", counting_float, raising=False)
        return calls

    def test_fit_then_transform_parses_each_numeric_cell_once(self, float_calls):
        t = make_table({
            "n": ["1.5", None, "2", "-0.0", "1e3"],
            "c": ["3", "4", "x", "5", None],
            "m": [1.0, 2, None, np.float64(3.0), 4.0],
        }, [0, 1, 0, 1, 0])
        pre = fit(t)
        transform(pre, t)
        assert pre.kinds == ["numerical", "categorical", "numerical"]
        # column c stops at its first non-number, "x"
        assert float_calls == ["1.5", "2", "-0.0", "1e3", "3", "4", "x", 1.0, 2, 3.0, 4.0]
        float_calls.clear()
        other = make_table({"n": ["7", None], "c": ["x", "y"], "m": [None, "8"]}, [0, 1])
        transform(pre, other)
        transform(pre, other)
        assert float_calls == ["7", "8"]

    def test_pinned_categorical_column_is_not_parsed(self, float_calls):
        t = make_table({"a": ["1", "2", "3"]}, [0, 1, 0])
        transform(fit(t, {"a": "categorical"}), t)
        assert float_calls == []

    def test_splits_and_seeds_share_the_tables_parse(self, float_calls):
        n = 40
        num = [None if i % 7 == 3 else f"{i}.5" for i in range(n)]
        train0, train1 = (set(split_rows(n, seed)[0].tolist()) for seed in (0, 1))
        # a column whose whole-table parse stops at a held-out "x", before both seeds'
        # training rows reach theirs
        held_out, in_train = min(set(range(n)) - train0), max(train0 & train1)
        assert held_out < in_train
        cat = [str(i) for i in range(n)]
        cat[held_out] = cat[in_train] = "x"
        t = make_table({"num": num, "cat": cat, "pin": [str(i) for i in range(n)]},
                       [i % 2 for i in range(n)])
        for seed in (0, 1):
            parts = split(t, seed)
            pre = fit(parts[0], {"pin": "categorical"})
            for part in parts:
                transform(pre, part)
        assert pre.kinds == ["numerical", "categorical", "categorical"]

        def until_x(cells):
            return cells[:cells.index("x") + 1]

        want = [c for c in num if c is not None] + until_x(cat)
        for seed in (0, 1):
            want += until_x([cat[i] for i in split_rows(n, seed)[0]])
        assert float_calls == want


# Cells for the reference comparison: number text (exponents, signed zeros,
# padded ints), in-memory numbers, missing markers and category strings.
# Non-finite cells come only from HELD_OUT below.
NUMBER_TEXT = st.one_of(
    st.sampled_from(["0", "-0.0", "0.0", "-0", "1e3", "1E-2", "-2.5e+01", "007", " 3 ", "1_0"]),
    st.floats(-1e6, 1e6).map(repr),
    st.integers(-99, 99).map(str),
)
IN_MEMORY = st.one_of(st.floats(-1e6, 1e6), st.integers(-9, 9), st.sampled_from([0.0, -0.0]))
CATEGORY = st.sampled_from(["red", "blue", "yes", "1,5", "", "?"])
CELLS = {
    "numeric": st.one_of(NUMBER_TEXT, IN_MEMORY, st.none()),
    "mixed": st.one_of(NUMBER_TEXT, IN_MEMORY, st.none(), CATEGORY),
}


@st.composite
def train_test_tables(draw):
    n_cols = draw(st.integers(1, 3))
    n_train, n_test = draw(st.integers(1, 8)), draw(st.integers(0, 5))
    names = [f"c{j}" for j in range(n_cols)]
    train, test = {}, {}
    for name in names:
        train_kind, test_kind = draw(st.sampled_from(list(CELLS))), draw(st.sampled_from(list(CELLS)))
        train[name] = draw(st.lists(CELLS[train_kind], min_size=n_train, max_size=n_train))
        test[name] = draw(st.lists(CELLS[test_kind], min_size=n_test, max_size=n_test))
    overrides = draw(st.dictionaries(st.sampled_from(names),
                                     st.sampled_from(["categorical", "numerical"]), max_size=1))
    return train, test, [j % 2 for j in range(n_train)], [j % 2 for j in range(n_test)], overrides


def _ingest(infer, fit_, transform_, train, others, overrides):
    """Kinds, Preprocessor JSON and the encodings of train and ``others``; or the error raised."""
    try:
        kinds = infer(train, overrides)
        pre = fit_(train, overrides)
        return (kinds, json.dumps(asdict(pre), sort_keys=True),
                [transform_(pre, t) for t in (train, *others)])
    except Exception as e:   # the reference decides which failures are expected
        return type(e), str(e)


def _assert_same_ingest(got, want):
    if isinstance(want[0], type):
        assert got == want
        return
    assert not isinstance(got[0], type), f"raised {got}, reference did not"
    assert got[:2] == want[:2]
    for g, w in zip(got[2], want[2], strict=True):
        assert g.values.tobytes() == w.values.tobytes()
        assert np.array_equal(np.signbit(g.values), np.signbit(w.values))
        assert np.array_equal(g.labels, w.labels) and g.split == w.split


class TestMatchesPerCellReference:
    @settings(max_examples=300, deadline=None)
    @given(train_test_tables())
    # Signed zeros compare equal, so mode, min and max keep the first-seen one:
    # a mode tie that goes to the zeros, where np.unique's pick is -0.0, and a
    # min and a max where np.min / np.max would return the later zero's sign.
    @example(case=({"c0": ["2", "2", "0", "-0.0", None]}, {"c0": [None, "1", "-0.0"]},
                   [0, 1, 0, 1, 0], [0, 1, 0], {}))
    @example(case=({"c0": ["0", "-0.0", "3"]}, {"c0": ["-0.0", None]}, [0, 1, 0], [0, 1], {}))
    @example(case=({"c0": ["-1", "0", "-0.0"], "c1": [0.0, -0.0, 0.0]}, {"c0": ["0"], "c1": [None]},
                   [0, 1, 0], [1], {}))
    def test_same_preprocessor_and_encodings(self, case):
        train_cols, test_cols, train_labels, test_labels, overrides = case

        def tables():
            return make_table(train_cols, train_labels), [make_table(test_cols, test_labels)]

        got = _ingest(infer_column_kinds, fit, transform, *tables(), overrides)
        want = _ingest(reference_infer_column_kinds, reference_fit, reference_transform,
                       *tables(), overrides)
        _assert_same_ingest(got, want)


# Cells that only the validation and test rows of a column may hold: text,
# which leaves the column numerical on its training rows, and non-finite numbers.
HELD_OUT = {
    "text held out": CATEGORY,
    "non-finite held out": st.sampled_from(["inf", "-inf", "nan", " NaN ", "-Infinity",
                                            float("nan"), float("-inf")]),
}


@st.composite
def split_tables(draw):
    """Columns, labels, a split seed and pinned kinds; some cells go to held-out rows only."""
    n_rows, seed = draw(st.integers(tabular.MIN_ROWS, 30)), draw(st.integers(0, 2**16))
    train = set(split_rows(n_rows, seed)[0].tolist())
    held_out = [i for i in range(n_rows) if i not in train]
    names = [f"c{j}" for j in range(draw(st.integers(1, 4)))]
    columns = []
    for _ in names:
        kind = draw(st.sampled_from([*CELLS, *HELD_OUT]))
        col = draw(st.lists(CELLS.get(kind, CELLS["numeric"]), min_size=n_rows, max_size=n_rows))
        if kind in HELD_OUT:
            for i in draw(st.lists(st.sampled_from(held_out), min_size=1, max_size=3)):
                col[i] = draw(HELD_OUT[kind])
        columns.append(col)
    overrides = draw(st.dictionaries(st.sampled_from(names),
                                     st.sampled_from(["categorical", "numerical"]), max_size=2))
    labels = draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows))
    return names, columns, labels, seed, overrides


class TestSplitViewsMatchCopies:
    """fit and transform on ``split``'s row views agree with the per-cell reference on copies."""

    @settings(max_examples=300, deadline=None)
    @given(split_tables())
    @example(case=(["c0", "c1"], [["0", "-0.0", None, "3", "0", "-0", "7", "0.0", "x", "inf", "1"],
                                  ["a", "?", "", None, "a", "b", 1.0, -0.0, 0.0, "b", "a"]],
                   [0, 1] * 5 + [0], 0, {"c1": "categorical"}))
    def test_views_encode_as_per_cell_copies(self, case):
        names, columns, labels, seed, overrides = case
        table = make_table(dict(zip(names, columns)), labels)
        for s in (seed, seed + 1):   # the second seed's split reuses the table's reads
            copies = [Table(names, [[col[i] for i in rows] for col in columns],
                            np.asarray(labels, dtype=np.int64)[rows], part)
                      for rows, part in zip(split_rows(len(labels), s), ("train", "val", "test"))]
            views = split(table, s)
            got = _ingest(infer_column_kinds, fit, transform, views[0], views[1:], overrides)
            want = _ingest(reference_infer_column_kinds, reference_fit, reference_transform,
                           copies[0], copies[1:], overrides)
            _assert_same_ingest(got, want)
            assert [v.columns[j] for v in views for j in range(len(names))] == \
                [c.columns[j] for c in copies for j in range(len(names))]


    def test_writing_a_view_gathers_each_column_once(self, tmp_path, monkeypatch):
        view = split(synthetic.logistic_table(60, 2, 1, seed=0), seed=0)[0]
        copy = Table(view.column_names, [view.columns[j] for j in range(3)], view.labels)
        synthetic.write_csv(copy, tmp_path / "copy.csv")
        gathered, gather = [], tabular._RowColumns.__getitem__

        def counting_gather(columns, j):
            col = gather(columns, j)
            gathered.append(j)
            return col

        monkeypatch.setattr(tabular._RowColumns, "__getitem__", counting_gather)
        synthetic.write_csv(view, tmp_path / "view.csv")
        assert gathered == [0, 1, 2]
        assert (tmp_path / "view.csv").read_bytes() == (tmp_path / "copy.csv").read_bytes()


class TestBlockLoad:
    """load_csv moves rows into columns a block at a time; any row count reads as row by row."""

    B = tabular.LOAD_BLOCK_ROWS

    @staticmethod
    def write(path, n_rows: int, blank_after=(), ragged_at=None) -> list[str]:
        lines = ["a, verdict ,c,d"]
        for i in range(n_rows):
            # d's texts repeat within and across blocks; one-character texts such
            # as c's are shared by CPython already
            cells = [str(i), " yes" if i % 3 else "no ", ["x", "?", "", " y "][i % 4],
                     [" red", "green ", "blue", "", "?"][i % 5]]
            lines.append(",".join(cells[:2] if i == ragged_at else cells))
            if i in blank_after:
                lines.append("")
        path.write_text("\n".join(lines) + "\n")
        return lines

    @pytest.mark.parametrize("n_rows", [B - 1, B, B + 1, 4 * B - 1, 4 * B, 4 * B + 1, 8 * B + 1])
    def test_same_as_row_by_row(self, tmp_path, n_rows):
        path = tmp_path / "d.csv"
        b = self.B
        self.write(path, n_rows, blank_after={0, b - 2, b - 1, b, 2 * b - 1, 2 * b})
        t = load_csv(path, SchemaConfig("verdict", "yes"))
        names, columns, labels = reference_load_csv(path, "verdict", "yes")
        assert t.column_names == names == ["a", "c", "d"]
        assert t.columns == columns and len(columns[0]) == n_rows
        assert t.labels.tolist() == labels
        row_by_row = Table(names, columns, np.asarray(labels, dtype=np.int64))
        _assert_same_ingest(
            _ingest(infer_column_kinds, fit, transform, t, [], {}),
            _ingest(reference_infer_column_kinds, reference_fit, reference_transform,
                    row_by_row, [], {}))

    def test_ragged_row_after_fourth_block_names_its_line(self, tmp_path):
        path = tmp_path / "d.csv"
        ragged = 4 * self.B + 3
        lines = self.write(path, ragged + 7, blank_after={5, self.B, 4 * self.B}, ragged_at=ragged)
        line = next(i for i, text in enumerate(lines, start=1) if text == f"{ragged}, yes")
        with pytest.raises(SchemaError, match=rf"d\.csv:{line}: row with 2 cells, expected 4"):
            load_csv(path, SchemaConfig("verdict", "yes"))

    def test_table_holds_each_block_text_once(self, tmp_path):
        """Equal texts of a column in one block share one object: 8 blocks of four
        red/green/blue/? columns and a float column hold 252 KiB, 563 KiB at one
        object per cell."""
        path, rng = tmp_path / "d.csv", np.random.default_rng(0)
        lines = ["a,b,c,d,x,y"]
        for i in range(8 * self.B):
            texts = rng.choice(["red", "green", "blue", "?"], size=4).tolist()
            lines.append(",".join(texts + [repr(float(rng.standard_normal())), str(i % 2)]))
        path.write_text("\n".join(lines) + "\n")
        schema = SchemaConfig("y", "1")
        load_csv(path, schema)   # warm-up
        tracemalloc.start()
        try:
            table = load_csv(path, schema)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert table.n_rows == 8 * self.B
        assert held < 315 * KiB   # 252 KiB measured


class TestSplit:
    # Row counts must reproduce the published benchmark splits exactly.
    SIZES = {
        1000: (700, 100, 200),
        690: (483, 69, 138),
        500: (350, 50, 100),
        48842: (34189, 4884, 9769),
        540: (378, 54, 108),
        7043: (4930, 704, 1409),
        5822: (4075, 582, 1165),
        32561: (22792, 3256, 6513),
    }

    @pytest.mark.parametrize("m,expected", sorted(SIZES.items()))
    def test_published_sizes(self, m, expected):
        t = make_table({"a": [float(i) for i in range(m)]}, [i % 2 for i in range(m)])
        tr, va, te = split(t, seed=0)
        assert (tr.n_rows, va.n_rows, te.n_rows) == expected

    def test_disjoint_and_exhaustive(self):
        t = make_table({"a": [float(i) for i in range(100)]}, [i % 2 for i in range(100)])
        tr, va, te = split(t, seed=3)
        seen = [c for part in (tr, va, te) for c in part.columns[0]]
        assert sorted(seen) == [float(i) for i in range(100)]

    def test_deterministic(self):
        t = make_table({"a": [float(i) for i in range(50)]}, [i % 2 for i in range(50)])
        a = split(t, seed=9)
        b = split(t, seed=9)
        for x, y in zip(a, b):
            assert x.columns[0] == y.columns[0]

    def test_view_columns_take_an_int_index_only(self):
        t = make_table({"a": ["1", "2", "3"], "b": ["x", "y", "z"]}, [0, 1, 0])
        view = t.select_rows([2, 0])
        assert view.columns[np.int64(1)] == view.columns[-1] == ["z", "x"]
        assert list(view.columns) == [["3", "1"], ["z", "x"]]
        with pytest.raises(TypeError):
            view.columns[0:1]

    def test_too_small_rejected(self):
        t = make_table({"a": [1.0] * 5}, [0, 1, 0, 1, 0])
        with pytest.raises(ValueError):
            split(t, seed=0)


class TestIncrementalPlan:
    def test_equal_split(self):
        plan = make_incremental_plan(9, seed=0)
        assert len(plan.s1) == len(plan.s2) == len(plan.s3) == 3

    def test_remainder_to_earliest(self):
        plan = make_incremental_plan(10, seed=0)
        assert (len(plan.s1), len(plan.s2), len(plan.s3)) == (4, 3, 3)

    def test_cumulative_structure(self):
        plan = make_incremental_plan(11, seed=4)
        set1, set2, set3 = plan.cumulative()
        assert set(set1) < set(set2) < set(set3)
        assert set3 == list(range(11))
        assert not (set(plan.s1) & set(plan.s2) or set(plan.s2) & set(plan.s3)
                    or set(plan.s1) & set(plan.s3))

    def test_too_few_features(self):
        with pytest.raises(ValueError):
            make_incremental_plan(2, seed=0)


class TestCsvAndSchema:
    def test_round_trip(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text(
            "age,color,outcome\n"
            "34,red,good\n"
            "?,blue,bad\n"
            "51,,good\n"
        )
        schema = SchemaConfig(label_column="outcome", positive_label="good")
        t = load_csv(csv_path, schema)
        assert t.column_names == ["age", "color"]
        assert t.columns[0] == ["34", None, "51"]
        assert t.columns[1] == ["red", "blue", None]
        assert list(t.labels) == [1, 0, 1]

    def test_label_defaults_to_last_column(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("a,b,verdict\n1,2,yes\n3,4,no\n")
        t = load_csv(csv_path, SchemaConfig(label_column="", positive_label="yes"))
        assert t.column_names == ["a", "b"]
        assert list(t.labels) == [1, 0]

    def test_missing_label_column(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("a,b\n1,2\n")
        with pytest.raises(SchemaError):
            load_csv(csv_path, SchemaConfig("nope", "1"))

    @pytest.mark.parametrize("header,label,repeated", [
        ("f0,f1,f0,label", "label", "['f0']"),
        ("label,c,label", "label", "['label']"),
        ("a,b,a,b,y", "", "['a', 'b']"),
    ])
    def test_repeated_header_names_rejected(self, tmp_path, header, label, repeated):
        csv_path = tmp_path / "d.csv"
        width = header.count(",") + 1
        csv_path.write_text(header + "\n" + "".join(
            ",".join(str(i + j) for j in range(width)) + "\n" for i in range(4)))
        with pytest.raises(SchemaError, match=re.escape(f"repeats the column names {repeated}")):
            load_csv(csv_path, SchemaConfig(label, "1"))

    @pytest.mark.parametrize("body,positive,counts", [
        ("1,2,yes\n3,4,yes\n", "yes", "holds 2 rows .* and 0 other rows"),
        ("1,2,yes\n3,4,no\n", "Yes", "holds 0 rows .* and 2 other rows"),
        ("", "yes", "holds 0 rows .* and 0 other rows"),
    ], ids=["all_positive", "positive_label_typo", "header_only"])
    def test_one_class_label_column_rejected(self, tmp_path, body, positive, counts):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("a,b,verdict\n" + body)
        with pytest.raises(SchemaError) as err:
            load_csv(csv_path, SchemaConfig("verdict", positive))
        assert re.search(f"label_column 'verdict' {counts}", str(err.value))
        assert f"positive_label '{positive}'" in str(err.value)

    def test_missing_label_cell_is_negative(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("a,verdict\n1,yes\n2,\n3,?\n")
        assert list(load_csv(csv_path, SchemaConfig("verdict", "yes")).labels) == [1, 0, 0]

    def test_blank_lines_skipped(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("\n\na,verdict\n\n1,yes\n\n2,no\n\n")
        t = load_csv(csv_path, SchemaConfig("verdict", "yes"))
        assert t.columns == [["1", "2"]] and list(t.labels) == [1, 0]

    @pytest.mark.parametrize("text,match", [
        ("", "empty file"),
        ("\n\r\n\n", "empty file"),
        ("a,b,verdict\n1,2,yes\n3,no\n", r"d\.csv:3: row with 2 cells, expected 3"),
        ("a,verdict\n1,yes\n" + "x" * 200_000 + ",no\n", r"d\.csv:3: field larger than"),
    ], ids=["empty", "blank_lines_only", "ragged_row", "huge_cell"])
    def test_malformed_csv_rejected(self, tmp_path, text, match):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text(text)
        with pytest.raises(SchemaError, match=match):
            load_csv(csv_path, SchemaConfig("verdict", "yes"))

    @pytest.mark.parametrize("text,match", [
        ("positive_label = 1\nkind.zip = ordinal\n", "'ordinal' for kind.zip"),
        ("positive_label = 1\nlabel_column\n", r"schema\.cfg:2: expected 'key = value'"),
    ], ids=["unknown_kind", "line_without_equals"])
    def test_malformed_schema_file_rejected(self, tmp_path, text, match):
        p = tmp_path / "schema.cfg"
        p.write_text(text)
        with pytest.raises(SchemaError, match=match):
            SchemaConfig.from_file(p)

    def test_schema_file(self, tmp_path):
        p = tmp_path / "schema.cfg"
        p.write_text(
            "# dataset schema\n"
            "label_column = outcome\n"
            "positive_label = good\n"
            "kind.zip = categorical\n"
        )
        schema = SchemaConfig.from_file(p)
        assert schema.label_column == "outcome"
        assert schema.positive_label == "good"
        assert schema.kinds == {"zip": "categorical"}

    def test_schema_file_requires_positive_label(self, tmp_path):
        p = tmp_path / "schema.cfg"
        p.write_text("label_column = y\n")
        with pytest.raises(SchemaError):
            SchemaConfig.from_file(p)

    def test_schema_file_label_column_optional(self, tmp_path):
        p = tmp_path / "schema.cfg"
        p.write_text("positive_label = x\n")
        assert SchemaConfig.from_file(p).label_column == ""

    def test_preprocessor_dict_round_trip(self):
        t = make_table({"a": ["x", "y", "x"], "n": [1.0, 3.0, None]}, [0, 1, 0])
        pre = fit(t)
        clone = tabular.Preprocessor.from_dict(asdict(pre))
        assert clone == pre

    @pytest.mark.parametrize("key,value", [
        ("kinds", ["categorical", "weird"]),
        ("mins", [0.0, None]),
        ("maxs", [1.0, float("inf")]),
        ("modes", ["z", 1.0]),                # categorical mode outside its categories
        ("modes", ["x", "1.0"]),              # numerical mode that is not a number
        ("categories", [["x", "y"], ["1"]]),  # numerical column with categories
        ("categories", [None, None]),         # categorical column without them
        ("column_names", ["a", 3]),
        ("maxs", [1.0]),                      # shorter than column_names
        ("maxs", [1.0, 0.5]),                 # numerical max below its min
        ("modes", ["x", 4.0]),                # numerical mode above its max
        ("modes", ["x", 0.5]),                # numerical mode below its min
        ("maxs", [100.0, 3.0]),               # categorical codes 0 and 1, not 0 .. 100
        ("maxs", [0.0, 3.0]),                 # categorical range short of its codes
        ("mins", [-1.0, 1.0]),                # categorical range starting below code 0
        ("categories", [["y", "x"], None]),   # categories out of sorted order
        ("categories", [["x", "x"], None]),   # a category given twice
    ])
    def test_preprocessor_from_dict_names_bad_key(self, key, value):
        t = make_table({"a": ["x", "y", "x"], "n": [1.0, 3.0, None]}, [0, 1, 0])
        d = asdict(fit(t))
        d[key] = value
        with pytest.raises(ValueError, match=f"'{key}'"):
            tabular.Preprocessor.from_dict(d)

    def test_preprocessor_from_dict_rejects_non_object(self):
        with pytest.raises(ValueError, match="preprocessor is not an object"):
            tabular.Preprocessor.from_dict(["a", "numerical"])
