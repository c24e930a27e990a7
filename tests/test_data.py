import numpy as np
import pytest

from trendcomp.data import DataFormatError, DoseGroupData, read_counts_csv


def write(tmp_path, text, name="counts.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestDoseGroupData:
    def test_basic_fields(self, liarozole):
        assert liarozole.labels == ("0", "50", "75", "150")
        assert liarozole.n_groups == 4
        assert liarozole.k == 3
        assert liarozole.n.tolist() == [34, 35, 36, 34]
        assert liarozole.y.tolist() == [2, 6, 4, 13]

    def test_arrays_are_read_only(self, liarozole):
        with pytest.raises(ValueError):
            liarozole.n[0] = 99

    def test_rejects_y_above_n(self):
        with pytest.raises(ValueError, match="0 <= y_i <= n_i"):
            DoseGroupData(labels=("c", "d"), n=[10, 10], y=[3, 11])

    def test_rejects_single_group(self):
        with pytest.raises(ValueError, match="at least two groups"):
            DoseGroupData(labels=("c",), n=[10], y=[3])

    def test_rejects_zero_size_group(self):
        with pytest.raises(ValueError, match=">= 1"):
            DoseGroupData(labels=("c", "d"), n=[0, 10], y=[0, 3])

    def test_rejects_repeated_label(self):
        # two groups labelled 50 gave two "50 - 0" rows with different p-values
        with pytest.raises(ValueError, match="'50'.*more than once"):
            DoseGroupData(labels=("0", "50", "50", "150"), n=[34, 35, 36, 34], y=[2, 6, 4, 13])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            DoseGroupData(labels=("c", "d"), n=[10, 10, 10], y=[1, 2, 3])

    def test_rejects_non_integral_counts(self):
        # sizes and counts used to be truncated: n=[34.9, 20] became [34, 20]
        for n, y, field in (
            ([34.9, 20], [2, 7], "n"),
            ([34, 20], [2.5, 7], "y"),
            ([34, 20], [np.nan, 7], "y"),
            ([True, True], [0, 1], "n"),
        ):
            with pytest.raises(ValueError, match=rf"^{field} must hold integers"):
                DoseGroupData(labels=("a", "b"), n=n, y=y)

    def test_rejects_booleans_among_counts(self):
        # NumPy casts a list holding a bool to int64: n=[True, 20] became [1, 20]
        for n, y, field in (
            ([True, 20], [1, 3], "n"),
            ([20, 20], [True, 3], "y"),
            ([np.True_, 20], [1, 3], "n"),
        ):
            with pytest.raises(ValueError, match=rf"^{field} must hold integers"):
                DoseGroupData(labels=("a", "b"), n=n, y=y)

    def test_integral_floats_and_numpy_integers_accepted(self):
        data = DoseGroupData(
            labels=("a", "b"), n=np.array([34, 20], dtype=np.int32), y=[2.0, 7.0]
        )
        assert data.n.dtype == data.y.dtype == np.int64
        assert data.n.tolist() == [34, 20]
        assert data.y.tolist() == [2, 7]


class TestReadCountsCsv:
    def test_reads_file_in_row_order(self, liarozole_csv):
        data = read_counts_csv(liarozole_csv)
        assert data.labels == ("0", "50", "75", "150")
        assert data.n.tolist() == [34, 35, 36, 34]
        assert data.y.tolist() == [2, 6, 4, 13]

    def test_header_case_and_spacing_ignored(self, tmp_path):
        path = write(tmp_path, " Dose , N , Responders \nctrl,20,3\nlow,20,5\n")
        data = read_counts_csv(path)
        assert data.labels == ("ctrl", "low")
        assert data.y.tolist() == [3, 5]

    def test_labels_never_sorted_lexically(self, tmp_path):
        # "10" sorts before "2" as a string; file order must win
        path = write(tmp_path, "dose,n,responders\n2,10,1\n10,10,2\n")
        assert read_counts_csv(path).labels == ("2", "10")

    def test_order_column_sorts_rows(self, tmp_path):
        path = write(
            tmp_path,
            "dose,n,responders,order\nhigh,10,6,3\ncontrol,10,1,1\nlow,10,2,2\n",
        )
        data = read_counts_csv(path)
        assert data.labels == ("control", "low", "high")
        assert data.y.tolist() == [1, 2, 6]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_order_rejected_with_line(self, tmp_path, value):
        # a nan order sorted dose 150 ahead of the control without an error
        path = write(
            tmp_path,
            f"dose,n,responders,order\n150,34,13,4\n50,35,6,{value}\n0,34,2,1\n75,36,4,3\n",
        )
        with pytest.raises(DataFormatError, match="order value must be finite") as err:
            read_counts_csv(path)
        assert err.value.line == 3

    def test_repeated_label_in_file_rejected(self, tmp_path):
        path = write(tmp_path, "dose,n,responders\n0,34,2\n50,35,6\n50,36,4\n150,34,13\n")
        with pytest.raises(ValueError, match="'50'.*more than once"):
            read_counts_csv(path)

    def test_surplus_fields_rejected_with_line(self, tmp_path):
        # the row used to be read as n=35, y=6, its last two fields dropped
        path = write(tmp_path, "dose,n,responders\n0,34,2\n50,35,6,1,2\n150,34,13\n")
        with pytest.raises(DataFormatError, match="5 fields but the header has 3") as err:
            read_counts_csv(path)
        assert err.value.line == 3

    def test_missing_fields_rejected_with_line(self, tmp_path):
        path = write(tmp_path, "dose,n,responders,order\n0,34,2,1\n50,35,6,2\n150,34,13\n")
        with pytest.raises(DataFormatError, match="3 fields but the header has 4") as err:
            read_counts_csv(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("header", ["dose,n,n,responders", "dose,n,responders, N "])
    def test_repeated_column_reports_line_1(self, tmp_path, header):
        # the last n column used to win, moving the Dunnett p at dose 150 to 0.0115
        path = write(tmp_path, f"{header}\n0,34,34,2\n50,35,35,6\n")
        with pytest.raises(DataFormatError, match="column.* n named more than once") as err:
            read_counts_csv(path)
        assert err.value.line == 1

    def test_trailing_commas_read_as_before(self, tmp_path, liarozole_csv):
        path = write(tmp_path, "dose,n,responders,\n0,34,2,\n50,35,6,\n75,36,4,\n150,34,13,\n")
        data, expected = read_counts_csv(path), read_counts_csv(liarozole_csv)
        assert data.labels == expected.labels
        assert data.n.tolist() == expected.n.tolist()
        assert data.y.tolist() == expected.y.tolist()

    def test_missing_column_reports_line_1(self, tmp_path):
        path = write(tmp_path, "dose,n\nctrl,20\n")
        with pytest.raises(DataFormatError, match="line 1.*responders"):
            read_counts_csv(path)

    def test_bad_count_reports_line_number(self, tmp_path):
        path = write(tmp_path, "dose,n,responders\nctrl,20,3\nlow,20,x\n")
        with pytest.raises(DataFormatError) as err:
            read_counts_csv(path)
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize(
        "row",
        ["50,\u0661\u0662,3", "50,1_0,2", "50,+10,2", "50,10,-0"],
        ids=["arabic-indic-digits", "underscore", "plus-sign", "minus-sign"],
    )
    def test_counts_must_be_ascii_digits(self, tmp_path, row):
        # int() read these as n = 12, 10, 10 and y = 0, and the table was analyzed
        path = write(tmp_path, f"dose,n,responders\n0,12,3\n{row}\n")
        with pytest.raises(DataFormatError, match="digits 0-9") as err:
            read_counts_csv(path)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "value", ["1_0", "\u0662", "\uff12"], ids=["underscore", "arabic-indic-digit", "fullwidth"]
    )
    def test_order_must_be_a_plain_decimal(self, tmp_path, value):
        # float() read these as 10.0, 2.0 and 2.0
        path = write(tmp_path, f"dose,n,responders,order\n0,34,2,1\n50,35,6,{value}\n")
        with pytest.raises(DataFormatError, match="non-numeric order value") as err:
            read_counts_csv(path)
        assert err.value.line == 3

    def test_plain_numbers_keep_reading_with_surrounding_whitespace(self, tmp_path):
        path = write(
            tmp_path,
            "dose,n,responders,order\nhigh, 10 ,6 ,3e1\ncontrol,10,\t1,-1\nlow,010,2, .5 \n",
        )
        data = read_counts_csv(path)
        assert data.labels == ("control", "low", "high")
        assert data.n.tolist() == [10, 10, 10]
        assert data.y.tolist() == [1, 2, 6]

    def test_y_above_n_rejected_with_line(self, tmp_path):
        path = write(tmp_path, "dose,n,responders\nctrl,20,3\nlow,20,21\n")
        with pytest.raises(DataFormatError, match="line 3"):
            read_counts_csv(path)

    def test_empty_dose_label_rejected(self, tmp_path):
        path = write(tmp_path, "dose,n,responders\n,20,3\nlow,20,5\n")
        with pytest.raises(DataFormatError, match="empty dose label"):
            read_counts_csv(path)

    def test_partly_blank_row_keeps_its_error(self, tmp_path, liarozole_csv):
        with open(liarozole_csv) as fh:
            path = write(tmp_path, fh.read() + ",34,2\n")
        with pytest.raises(DataFormatError, match="line 6: empty dose label"):
            read_counts_csv(path)

    def test_single_data_row_rejected(self, tmp_path):
        path = write(tmp_path, "dose,n,responders\nctrl,20,3\n")
        with pytest.raises(DataFormatError, match="at least two data rows"):
            read_counts_csv(path)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataFormatError, match="cannot read"):
            read_counts_csv(tmp_path / "absent.csv")

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DataFormatError, match="empty file"):
            read_counts_csv(path)
