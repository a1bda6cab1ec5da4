import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxcal.analysis import read_decay_csv
from fluxcal.errors import FluxcalError
from fluxcal.fitting import read_anticrossing_csv, read_calibration_csv
from fluxcal.serialize import read_csv_table, write_csv_table, write_json
from fluxcal.signal import read_waveform_csv

# reader, header, one well-formed data row
READERS = {
    "waveform": (read_waveform_csv, "t_ns,amplitude", "0,1"),
    "calibration": (
        lambda path: read_calibration_csv(path, v_step=1.0, regime="short"),
        "t_ns,v_oft",
        "1,0",
    ),
    "decay": (read_decay_csv, "n,fidelity", "0,0.9"),
    "anticrossing": (read_anticrossing_csv, "zpa_c,f_ghz,branch", "0.1,4.5,lower"),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize(
    "bad_row, message",
    [("1", "expected"), ("x,1,upper", "could not convert")],
    ids=["short_row", "non_numeric"],
)
def test_csv_readers_reject_malformed_row(tmp_path, reader, bad_row, message):
    read, header, good_row = READERS[reader]
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n{good_row}\n\n{bad_row}\n{good_row}\n")
    with pytest.raises(ValueError) as info:
        read(path)
    # A plain ValueError, not a FluxcalError: the CLI maps it to exit 1.
    assert not isinstance(info.value, FluxcalError)
    text = str(info.value)
    assert f"{path}, line 4: {message}" in text
    assert "\n" not in text


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("kind", ["wrong_header", "no_data_rows"])
def test_csv_readers_reject_bad_header_and_empty_file(tmp_path, reader, kind):
    read, header, good_row = READERS[reader]
    path = tmp_path / "bad.csv"
    if kind == "wrong_header":
        path.write_text(f"x{header}\n{good_row}\n{good_row}\n")
    else:
        path.write_text(f"{header}\n")
    with pytest.raises(ValueError) as info:
        read(path)
    # A usage error (exit 1), not a numerical FluxcalError (exit 2).
    assert not isinstance(info.value, FluxcalError)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize(
    "field, shown",
    [("nan", "nan"), ("-inf", "-inf"), ("1e999", "inf"), ("infinity", "inf"), ("-Infinity", "-inf")],
)
def test_csv_readers_reject_non_finite_field(tmp_path, reader, end, field, shown):
    read, header, good_row = READERS[reader]
    fields = good_row.split(",")
    fields[1] = field
    path = tmp_path / "bad.csv"
    with open(path, "w", newline="") as fh:
        fh.write(end.join([header, good_row, "", ",".join(fields), good_row, ""]))
    with pytest.raises(ValueError) as info:
        read(path)
    assert not isinstance(info.value, FluxcalError)
    column = header.split(",")[1]
    assert str(info.value) == f"{path}, line 4: {column} must be finite, got {shown}"


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def tables(draw):
    n = draw(st.integers(1, 30))
    fixed = st.lists(finite, min_size=n, max_size=n)
    return (
        np.array(draw(fixed)),
        np.array(draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n))),
        np.array(draw(fixed)),
        draw(st.lists(st.sampled_from(["lower", "upper"]), min_size=n, max_size=n)),
    )


@settings(deadline=None)
@given(tables())
def test_csv_table_roundtrip_is_exact_and_byte_stable(columns):
    header = ("x", "n", "y", "branch")
    converters = (float, float, float, str.strip)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        write_csv_table(first, header, columns)
        back = read_csv_table(first, header, converters)
        for original, parsed in zip(columns[:3], back[:3]):
            np.testing.assert_array_equal(np.array(parsed), original.astype(float))
        assert back[3] == columns[3]
        write_csv_table(second, header, back)
        assert first.read_bytes() == second.read_bytes()


# -- reference codec: csv.writer / csv.reader, one row at a time ----------------


def reference_write(path, header, columns):
    arrays = [np.asarray(values) for values in columns]
    cells = [map("{:.17g}".format if a.dtype.kind == "f" else str, a.tolist()) for a in arrays]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def reference_read(path, header, converters):
    # A row csv.reader rejects (say, a field over its size limit) becomes a
    # one-line ValueError, as in the codec.
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = next(reader, None)
            rows = [(reader.line_num, row) for row in reader if row]
        except csv.Error as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    if names is None or [h.strip() for h in names[: len(header)]] != list(header):
        raise ValueError(f"{path}: expected header '{','.join(header)}'")
    for line, row in rows:
        where = f"{path}, line {line}"
        if len(row) < len(converters):
            raise ValueError(f"{where}: expected {len(converters)} fields, got {len(row)}")
        for convert, field in zip(converters, row):
            try:
                convert(field)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return [[convert(row[i]) for _, row in rows] for i, convert in enumerate(converters)]


def outcome(read, *args):
    """What a reader returns, with floats by repr so that -0.0 and NaN
    compare exactly (a float array as its list of Python floats), or the
    type and message of what it raises."""
    try:
        return [
            [repr(value) for value in (c.tolist() if isinstance(c, np.ndarray) else c)]
            for c in read(*args)
        ]
    except ValueError as exc:
        return type(exc), str(exc)


# -- writer: identical bytes ------------------------------------------------------

special_floats = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e-300, 1.7976931348623157e308,
     0.1, 1 / 3, float("inf"), float("-inf"), float("nan")]
)
# No NUL: csv.writer refuses it before Python 3.11, and no writer in the
# package has text that could hold one.
texts = st.text(alphabet=st.sampled_from(list('ab ,"\r\n\t#é_')), max_size=6)


@st.composite
def mixed_tables(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(["float", "int", "text"]), min_size=1, max_size=4))
    columns = []
    for kind in kinds:
        if kind == "float":
            values = st.one_of(special_floats, st.floats())
            columns.append(np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=float))
        elif kind == "int":
            values = st.integers(-(10**18), 10**18)
            columns.append(np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.int64))
        else:
            columns.append(draw(st.lists(texts, min_size=n, max_size=n)))
    header = tuple(draw(st.lists(texts, min_size=len(kinds), max_size=len(kinds))))
    return header, columns


@settings(deadline=None, max_examples=300)
@given(mixed_tables())
def test_writer_bytes_match_csv_writer(table):
    header, columns = table
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.csv", Path(tmp) / "theirs.csv"
        write_csv_table(ours, header, columns)
        reference_write(theirs, header, columns)
        assert ours.read_bytes() == theirs.read_bytes()


def test_writer_golden_bytes(tmp_path):
    path = tmp_path / "golden.csv"
    write_csv_table(
        path,
        ("t_ns", "v", "n", "branch"),
        (
            np.array([0.0, 0.5, 1e300]),
            np.array([-0.0, 1 / 3, 5e-324]),
            np.array([1, -7, 10**18]),
            ["lower", 'say "hi", twice', "two\nlines"],
        ),
    )
    assert path.read_bytes() == (
        b"t_ns,v,n,branch\r\n"
        b"0,-0,1,lower\r\n"
        b'0.5,0.33333333333333331,-7,"say ""hi"", twice"\r\n'
        b'1.0000000000000001e+300,4.9406564584124654e-324,1000000000000000000,"two\nlines"\r\n'
    )


# -- reader: same values or same error ----------------------------------------------

HEADERS = {
    2: (("t_ns", "amplitude"), (float, float)),
    3: (("zpa_c", "f_ghz", "branch"), (float, float, str.strip)),
}
numbers = st.one_of(
    st.floats(allow_nan=False).map("{:.17g}".format), st.integers(-(10**6), 10**6).map(str)
)
# Fields numpy's tokenizer and ``float`` may read differently: padding
# ``str.strip`` removes (and \x1c-\x1f, which it removes and float does
# not), underscores, non-ASCII digits, spellings of inf.
unquoted_oddities = st.sampled_from(
    ["", " ", " 1 ", "1_0", "_1", "\u0661\u0662", "\u0663", "\uff13", "nan", "-inf", "1e999",
     "infinity", "-Infinity", "+1", ".5", "1.", "0x1", "#", "# note", "x", "lower", "\t2\x0c",
     "\xa01\xa0", "\t1\t", "\x1c1", "1\x1f", "\u20281", "1\x85", "\u30001"]
)
oddities = st.one_of(
    unquoted_oddities, st.sampled_from(['"1"', '"1,5"', '"2', 'a"b', '""', "\x00"])
)
fields = st.one_of(numbers, numbers, numbers, numbers, oddities)
line_ends = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def fuzzed_files(draw):
    width = draw(st.sampled_from(sorted(HEADERS)))
    header, converters = HEADERS[width]
    names = ",".join(header)
    names = draw(
        st.sampled_from(
            [names] * 4 + [names + ",extra", " , ".join(header), '"' + '","'.join(header) + '"',
             ",".join(header[:-1]), names.replace(",", ";"), "", "# " + names]
        )
    )
    # A third of the files hold only numbers and LF or CRLF line ends, and a
    # third add unquoted oddities and blank or whitespace rows: the bodies
    # numpy's tokenizer takes or refuses.  The rest carry quotes, NULs,
    # lone CRs and junk, which go to csv.reader.
    kind = draw(st.sampled_from(["clean", "unquoted", "junk"]))
    cells_of = {"clean": numbers, "unquoted": st.one_of(numbers, unquoted_oddities)}
    junk_rows = {"unquoted": ["", " ", "\t", "#", ","], "junk": ["", " ", "\t", "#", ",", '"', '"a\nb",1']}
    lines = [names]
    for _ in range(draw(st.integers(0, 8))):
        if kind != "clean" and draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(junk_rows[kind])))
        else:
            count = draw(st.sampled_from([width] * 4 + [width - 1, width + 1, width + 2, 1]))
            cells = st.lists(cells_of.get(kind, fields), min_size=count, max_size=count)
            lines.append(",".join(draw(cells)))
    ends = line_ends if kind == "junk" else st.sampled_from(["\n", "\r\n"])
    # one line end for the whole file, or a mix
    end = draw(st.one_of(ends.map(st.just), st.just(ends)))
    text = "".join(line + draw(end) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, header, converters


@settings(deadline=None, max_examples=500)
@given(fuzzed_files())
def test_reader_matches_csv_reader_on_fuzzed_files(case):
    text, header, converters = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        expected = outcome(reference_read, path, header, converters)
        assert outcome(read_csv_table, path, header, converters) == expected


# Bodies free of quotes, NULs and lone CRs reach numpy's tokenizer first.
FLOAT_BODIES = {
    "underscore": "1_0,2\n", "arabic_digit": "\u0663,2\n", "nbsp_padding": "\xa01\xa0,2\n",
    "tab_padding": "\t1\t,\t2\n", "whitespace_row": "1,2\n \n3,4\n", "tab_row": "1,2\n\t\n",
    "trailing_comma": "1,2,\n", "extra_columns": "1,2,3,x\n3,4\n",
    "blank_crlf_rows": "1,2\r\n\r\n\r\n", "inf_spellings": "1e999,infinity\n",
    "empty_field": "1,\n", "short_row": "1\n", "file_separator": "\x1c1,2\n",
    "unit_separator": "1,2\x1f\n", "no_data_rows": "",
    # every field within csv's size limit, the line over it
    "long_line": f"0,1\n{'1' * (csv.field_size_limit() - 5)},{'2' * 10}\n",
}


# No warning may escape, not even numpy's for a table without data.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text",
    [
        "", "t_ns,amplitude", "t_ns,amplitude\r\n", "\nt_ns,amplitude\n1,2\n",
        "t_ns,amplitude\r1,2\r\r3,4",
    ] + ["t_ns,amplitude\n" + body for body in FLOAT_BODIES.values()],
    ids=["empty", "header_only", "header_only_crlf", "blank_first_line", "lone_cr", *FLOAT_BODIES],
)
def test_reader_matches_csv_reader_on_edge_files(tmp_path, text):
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode())
    header, converters = HEADERS[2]
    expected = outcome(reference_read, path, header, converters)
    assert outcome(read_csv_table, path, header, converters) == expected


def test_reader_parses_written_float_tables_with_numpy(tmp_path):
    # The writer's own tables of floats take the tokenizer, not csv.reader.
    path = tmp_path / "wave.csv"
    write_csv_table(path, ("t_ns", "amplitude"), (np.arange(3.0), np.array([5e-324, -0.0, 1 / 3])))
    columns = read_csv_table(path, ("t_ns", "amplitude"))
    assert all(isinstance(column, np.ndarray) for column in columns)
    assert [c.tolist() for c in columns] == [[0.0, 1.0, 2.0], [5e-324, -0.0, 1 / 3]]


def test_reader_rejects_field_over_csv_size_limit_in_one_line(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("t_ns,amplitude\n0,1\n1," + "1" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(ValueError) as info:
        read_csv_table(path, ("t_ns", "amplitude"))
    assert str(info.value).startswith(f"{path}, line 3: field larger than field limit")
    assert "\n" not in str(info.value)


def test_write_json_of_a_non_finite_value_leaves_no_file(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(FluxcalError, match="cannot serialize non-finite value nan"):
        write_json(path, {"x": float("nan")})
    assert not path.exists()
