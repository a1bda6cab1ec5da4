import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxcal.analysis import read_decay_csv
from fluxcal.errors import FluxcalError
from fluxcal.fitting import read_anticrossing_csv, read_calibration_csv
from fluxcal.serialize import read_csv_table, write_csv_table
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
