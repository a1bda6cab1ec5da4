import csv
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxcal.analysis import read_decay_csv
from fluxcal.errors import FluxcalError, InvalidArgumentError
from fluxcal.fitting import read_calibration_csv
from fluxcal.serialize import (
    _BLOCK_ROWS,
    _SCAN_BYTES,
    _float_table,
    _longest_line,
    read_csv_table,
    write_csv_table,
    write_json,
)
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
    # The anti-crossing layout with its branch as a number, read by the
    # codec itself: the one table of three columns, whose checked column is
    # not the last.  The codec leaves a table without rows to its callers.
    "anticrossing": (
        lambda path: read_csv_table(path, ("zpa_c", "f_ghz", "branch")),
        "zpa_c,f_ghz,branch",
        "0.1,4.5,0",
    ),
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
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_csv_readers_name_the_line_of_an_undecodable_byte(tmp_path, reader, end):
    # 0xff decodes in neither UTF-8 nor ASCII: one line naming the file and
    # the line, on numpy's path and on csv.reader's (the lone CR files).
    read, header, good_row = READERS[reader]
    path = tmp_path / "bad.csv"
    rows = [header, good_row, "", good_row]
    path.write_bytes(end.join(rows).encode() + end.encode() + b"\xff" + good_row.encode())
    with pytest.raises(ValueError) as info:
        read(path)
    assert not isinstance(info.value, FluxcalError)
    text = str(info.value)
    assert text.startswith(f"{path}, line 5: ") and "byte 0xff" in text
    assert "\n" not in text


@pytest.mark.parametrize(
    "kind, reader",
    [
        (kind, reader)
        for reader in sorted(READERS)
        for kind in ["wrong_header", "no_data_rows"]
        if (kind, reader) != ("no_data_rows", "anticrossing")
    ],
)
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
    )


@settings(deadline=None)
@given(tables())
def test_csv_table_roundtrip_is_exact_and_byte_stable(columns):
    header = ("x", "n", "y")
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        write_csv_table(first, header, columns)
        back = read_csv_table(first, header)
        for original, parsed in zip(columns, back):
            np.testing.assert_array_equal(parsed, original.astype(float))
        write_csv_table(second, header, back)
        assert first.read_bytes() == second.read_bytes()


# -- reference codec: csv.writer / csv.reader, one row at a time ----------------


def reference_write(path, header, columns):
    cells = [map("{:.17g}".format, np.asarray(values, dtype=float).tolist()) for values in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def reference_read(path, header):
    # A row csv.reader rejects (say, a field over its size limit) becomes a
    # one-line ValueError, as in the codec; so does a nan or inf field, once
    # every row has parsed.
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
        if len(row) < len(header):
            raise ValueError(f"{where}: expected {len(header)} fields, got {len(row)}")
        for field in row[: len(header)]:
            try:
                float(field)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    for line, row in rows:
        for name, field in zip(header, row):
            if not math.isfinite(float(field)):
                raise ValueError(f"{path}, line {line}: {name} must be finite, got {float(field)}")
    return [[float(row[i]) for _, row in rows] for i in range(len(header))]


def outcome(read, *args):
    """What a reader returns, with floats by repr so that -0.0 compares
    exactly (a float array as its list of Python floats), or the type and
    message of what it raises."""
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
names = st.text(alphabet=st.sampled_from(list("abnt_01")), min_size=1, max_size=6)


@st.composite
def float_tables(draw):
    # Columns of doubles, and of integers and Python floats, which the writer
    # turns into doubles first; a header of plain names.
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(["double", "int64", "list"]), min_size=1, max_size=4))
    columns = []
    for kind in kinds:
        if kind == "int64":
            values = st.integers(-(10**18), 10**18)
            columns.append(np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.int64))
        else:
            values = draw(st.lists(st.one_of(special_floats, st.floats()), min_size=n, max_size=n))
            columns.append(np.array(values) if kind == "double" else values)
    header = tuple(draw(st.lists(names, min_size=len(kinds), max_size=len(kinds))))
    return header, columns


@settings(deadline=None, max_examples=300)
@given(float_tables())
def test_writer_bytes_match_csv_writer(table):
    header, columns = table
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.csv", Path(tmp) / "theirs.csv"
        write_csv_table(ours, header, columns)
        reference_write(theirs, header, columns)
        assert ours.read_bytes() == theirs.read_bytes()


def assert_writes_like_csv_writer(tmp_path, header, columns):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    write_csv_table(ours, header, columns)
    reference_write(theirs, header, columns)
    assert ours.read_bytes() == theirs.read_bytes()


@settings(deadline=None, max_examples=20)
@given(
    st.integers(0, 2**32 - 1), st.integers(_BLOCK_ROWS - 1, 2 * _BLOCK_ROWS + 1),
    st.lists(st.integers(0, 2**64 - 1), max_size=20),
)
def test_writer_matches_csv_writer_on_raw_bit_patterns(seed, rows, drawn):
    # Any 64-bit pattern as a double, in a table of one to three blocks:
    # one column of raw patterns (mostly outside the exact band, nan and inf
    # among them) with hypothesis's own draws in front, and one whose
    # exponent field lies in the band's binades, 2**-21 to 2**57.
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 2**64, size=rows, dtype=np.uint64)
    raw[: len(drawn)] = np.array(drawn, dtype=np.uint64)[: rows]
    banded = (raw & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (
        rng.integers(1023 - 21, 1023 + 57, size=rows).astype(np.uint64) << np.uint64(52)
    )
    with tempfile.TemporaryDirectory() as tmp:
        assert_writes_like_csv_writer(
            Path(tmp), ("raw", "banded"), (raw.view(np.float64), banded.view(np.float64))
        )


def test_writer_matches_csv_writer_next_to_powers_of_ten(tmp_path):
    # Each power of ten from 1e-7 to 1e18 and its two neighbours, either
    # sign: the values where the decimal exponent changes, and the band's
    # edges 1e-6 and 1e17 among them.
    powers = np.array([float(f"1e{k}") for k in range(-7, 19)])
    values = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    values = np.concatenate([values, -values])
    assert_writes_like_csv_writer(tmp_path, ("x",), (values,))


def test_writer_rounds_exact_ties_half_to_even(tmp_path):
    # x = q / 2**(k + 1) with q odd and q 5**k in [2e16, 2e17): x 10**k is
    # half an odd integer of 17 digits, so the 17th digit is a tie, for each
    # scale k of the exact band (decimal exponents -6 to 15).
    rng = np.random.default_rng(0)
    ties = []
    for k in range(1, 23):
        low, high = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
        odd = {q | 1 for q in rng.integers(low, high - 1, size=40).tolist()} | {low | 1}
        ties += [(q / 2 ** (k + 1), k) for q in sorted(odd)]
    assert all((Fraction(x) * 10**k).denominator == 2 for x, k in ties)
    values = np.array([x for x, _ in ties])
    assert_writes_like_csv_writer(tmp_path, ("x", "minus_x"), (values, -values))


def test_writer_matches_csv_writer_on_special_values(tmp_path):
    special = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               -1e-310, 1.7976931348623157e308, -1.7976931348623157e308,
               float("nan"), float("-nan"), float("inf"), float("-inf")]
    assert_writes_like_csv_writer(tmp_path, ("x",), (np.array(special),))


def test_writer_matches_csv_writer_on_every_float_width(tmp_path):
    # float16 and float32 widen exactly; a long double rounds as float() does.
    values = np.random.default_rng(1).normal(0.0, 1e3, 50)
    columns = [values.astype(dtype) for dtype in (np.float16, np.float32, np.float64, np.longdouble)]
    assert_writes_like_csv_writer(tmp_path, ("half", "single", "double", "long"), columns)


def test_writer_matches_csv_writer_across_a_block_boundary(tmp_path):
    # int and float columns, and two float columns in different orders
    rows = _BLOCK_ROWS + 5
    rng = np.random.default_rng(2)
    floats = rng.normal(0.0, 1.0, rows) * 10.0 ** rng.integers(-9, 19, rows)
    floats[::7] = 0.0
    ints = rng.integers(-(10**18), 10**18, rows)
    assert_writes_like_csv_writer(tmp_path, ("n", "x"), (ints, floats))
    assert_writes_like_csv_writer(tmp_path, ("t", "y"), (floats, floats[::-1]))


@pytest.mark.parametrize("lengths", [(3, 2), (2, 3), (0, 1), (_BLOCK_ROWS + 1, _BLOCK_ROWS, _BLOCK_ROWS + 1)])
def test_writer_refuses_columns_of_unequal_lengths(tmp_path, lengths):
    # Not cut to the shortest column: the error names every length, and no
    # file is opened.
    path = tmp_path / "table.csv"
    header = tuple(f"c{i}" for i in range(len(lengths)))
    message = f"columns must have equal lengths, got {list(lengths)}"
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        write_csv_table(path, header, [np.zeros(n) for n in lengths])
    assert not path.exists()


def test_writer_golden_bytes(tmp_path):
    path = tmp_path / "golden.csv"
    write_csv_table(
        path,
        ("t_ns", "v", "n"),
        (np.array([0.0, 0.5, 1e300]), np.array([-0.0, 1 / 3, 5e-324]), np.array([1, -7, 10**16])),
    )
    assert path.read_bytes() == (
        b"t_ns,v,n\r\n"
        b"0,-0,1\r\n"
        b"0.5,0.33333333333333331,-7\r\n"
        b"1.0000000000000001e+300,4.9406564584124654e-324,10000000000000000\r\n"
    )


# -- reader: same values or same error ----------------------------------------------

HEADERS = {2: ("t_ns", "amplitude"), 3: ("zpa_c", "f_ghz", "branch")}
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
    header = HEADERS[width]
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
    return text, header


@settings(deadline=None, max_examples=500)
@given(fuzzed_files())
def test_reader_matches_csv_reader_on_fuzzed_files(case):
    text, header = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        expected = outcome(reference_read, path, header)
        assert outcome(read_csv_table, path, header) == expected


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
    expected = outcome(reference_read, path, HEADERS[2])
    assert outcome(read_csv_table, path, HEADERS[2]) == expected


def test_reader_parses_written_float_tables_with_numpy(tmp_path):
    # The writer's own tables of floats take the tokenizer, not csv.reader.
    path = tmp_path / "wave.csv"
    write_csv_table(path, ("t_ns", "amplitude"), (np.arange(3.0), np.array([5e-324, -0.0, 1 / 3])))
    columns = read_csv_table(path, ("t_ns", "amplitude"))
    assert all(isinstance(column, np.ndarray) for column in columns)
    assert [c.tolist() for c in columns] == [[0.0, 1.0, 2.0], [5e-324, -0.0, 1 / 3]]


@pytest.mark.parametrize(
    "text, expected",
    [
        (b"t_ns,amplitude\n0,1\nnan,2\n\xff1,2\n7,8\n", ", line 4: .*byte 0xff.*"),
        (b"t_ns,amplitude\n0,1\nnan,2\n3\n7,8\n", ", line 4: expected 2 fields, got 1"),
        (b"t_ns,amp\n0,1\nnan,2\n7,8\n", ": expected header 't_ns,amplitude'"),
    ],
    ids=["undecodable_byte_below_nan", "nan_above_short_row", "bad_header_and_nan"],
)
def test_reader_raises_the_first_of_two_defects(tmp_path, text, expected):
    # The error is the first one csv.reader's pass meets, whether the body
    # reaches numpy first (plain) or goes straight to csv.reader (a quote in
    # its last row).
    path = tmp_path / "two.csv"
    messages = []
    for body in (text, text.replace(b"\n7,8\n", b'\n"7",8\n')):
        path.write_bytes(body)
        with pytest.raises(ValueError) as info:
            read_csv_table(path, HEADERS[2])
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert re.fullmatch(re.escape(str(path)) + expected, messages[0])


@pytest.mark.parametrize(
    "old, new",
    [(b"amplitude", b"volts"), (b"\r\n1,", b"\r\nnan,"), (b"\r\n1,", b"\r\n\xc2\xa01,")],
    ids=["bad_header", "non_finite", "non_ascii"],
)
def test_float_table_reads_only_clean_tables(tmp_path, old, new):
    # numpy reads the writer's own table; a table with a fault, or with a
    # non-ASCII byte (here a no-break space that float strips), is left to
    # csv.reader.
    path = tmp_path / "wave.csv"
    write_csv_table(path, HEADERS[2], (np.arange(3.0), np.array([5e-324, -0.0, 1 / 3])))
    data = path.read_bytes()
    columns = _float_table(data, HEADERS[2])
    assert [c.tolist() for c in columns] == [[0.0, 1.0, 2.0], [5e-324, -0.0, 1 / 3]]
    assert _float_table(data.replace(old, new), HEADERS[2]) is None


@settings(deadline=None, max_examples=20)
@given(
    rows=st.integers(10_000, 10_050),
    seed=st.integers(0, 2**32 - 1),
    long_line=st.sampled_from([None, "long_fields", "long_field", "long_row"]),
    end=st.sampled_from(["\n", "\r\n"]),
)
def test_reader_matches_csv_reader_on_tables_longer_than_the_field_limit(rows, seed, long_line, end):
    # Written tables whose text is longer than csv.field_size_limit(), where
    # the reader's line checks scan the text block by block: plain, or with
    # one over-long line in the middle: two fields within the limit whose
    # line is over it, one field over it, or a row of numbers over it.
    limit = csv.field_size_limit()
    rng = np.random.default_rng(seed)
    columns = (np.arange(rows) * 0.5, rng.normal(size=rows) * 10.0 ** rng.integers(-9, 9, rows))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "long.csv"
        write_csv_table(path, HEADERS[2], columns)
        text = path.read_bytes().decode()
        lines = text.split("\r\n")
        middle = {
            None: lines[rows // 2],
            "long_fields": f"{'1' * (limit - 5)},{'2' * 10}",
            "long_field": f"0,{'3' * (limit + 1)}",
            "long_row": ",".join(["7.25"] * (limit // 4)),
        }[long_line]
        lines[rows // 2] = middle
        path.write_bytes(end.join(lines).encode())
        assert path.stat().st_size > limit
        if long_line is None:  # numpy's tokenizer takes the plain table
            assert _float_table(path.read_bytes(), HEADERS[2]) is not None
        expected = outcome(reference_read, path, HEADERS[2])
        assert outcome(read_csv_table, path, HEADERS[2]) == expected


line_lengths = st.one_of(
    st.integers(0, 5), st.integers(_SCAN_BYTES - 3, _SCAN_BYTES + 3), st.integers(0, 2 * _SCAN_BYTES)
)


@settings(deadline=None, max_examples=100)
@given(st.lists(line_lengths, min_size=1, max_size=6))
def test_longest_line_is_that_of_the_split_lines(lengths):
    # Lines that end next to, on and across the edges of the scanned blocks.
    data = b"\n".join(b"x" * n for n in lengths)
    assert _longest_line(data) == max(map(len, data.split(b"\n")))


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
