"""Write about a million adversarial doubles with ``write_csv_table`` and
with ``csv.writer``, to two files to be compared byte for byte, and print
both times.

The values are raw 64-bit patterns, patterns whose exponent lies in the
writer's exact band, the neighbours of every power of ten, exact ties of
the 17th digit, and short decimals.  It checks the numpy on which it runs
(its log10, rint and integer casts) on the writer's whole path.

It then writes a decay table of whole sequence lengths from 0 to 1e9 (every
power of ten and its neighbours among them) with ``write_decay_csv``, which
formats them with the same float kernel, and exits with an error unless its
bytes are those of ``csv.writer`` given the lengths as integer text.

    PYTHONPATH=src python tests/csv_float_stress.py OUT_DIR
    cmp OUT_DIR/floats_ours.csv OUT_DIR/floats_csv_writer.csv
"""

import csv
import sys
import time
from pathlib import Path

import numpy as np

from fluxcal.analysis import MAX_SEQUENCE_LENGTH, write_decay_csv
from fluxcal.serialize import write_csv_table


def adversarial_columns(rows: int, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 2**64, size=rows, dtype=np.uint64)
    exponents = rng.integers(1023 - 21, 1023 + 57, size=rows).astype(np.uint64) << np.uint64(52)
    banded = (raw & np.uint64(0x800F_FFFF_FFFF_FFFF)) | exponents
    powers = np.array([float(f"1e{k}") for k in range(-7, 19)])
    near = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    # q / 2**(k + 1) with q odd and q 5**k in [2e16, 2e17): a tie at digit 17
    ties = []
    for k in range(1, 23):
        low, high = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
        ties += [(q | 1) / 2 ** (k + 1) for q in rng.integers(low, high - 1, size=rows // 22).tolist()]
    decimals = rng.integers(-(10**7), 10**7, size=rows) / 10.0 ** rng.integers(0, 9, size=rows)
    return {
        "raw": raw.view(np.float64),
        "banded": banded.view(np.float64),
        "ties": np.resize(np.concatenate([near, -near, np.array(ties)]), rows),
        "decimals": decimals,
    }


def whole_lengths(rows: int, seed: int = 0) -> np.ndarray:
    """Whole numbers from 0 to MAX_SEQUENCE_LENGTH (1e9) as doubles: each
    power of ten and its neighbours, -0.0, and uniform draws."""
    powers = 10 ** np.arange(10)
    near = np.concatenate([powers - 1, powers, powers + 1])
    near = near[near <= MAX_SEQUENCE_LENGTH]
    drawn = np.random.default_rng(seed).integers(0, MAX_SEQUENCE_LENGTH, size=rows, endpoint=True)
    return np.concatenate([near, [-0.0], drawn[: rows - near.size - 1]]).astype(float)


def check_decay_lengths(out_dir: str) -> None:
    """Write whole lengths with ``write_decay_csv`` and with ``csv.writer``
    (the lengths as ``str(int(n))``); exit with an error unless the bytes
    agree."""
    lengths = whole_lengths(250_000)
    fidelities = np.random.default_rng(1).random(lengths.size)
    ours, theirs = Path(out_dir) / "lengths_ours.csv", Path(out_dir) / "lengths_csv_writer.csv"
    start = time.perf_counter()
    write_decay_csv(ours, lengths, fidelities)
    middle = time.perf_counter()
    with open(theirs, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("n", "fidelity"))
        writer.writerows(
            (str(int(n)), f"{f:.17g}") for n, f in zip(lengths.tolist(), fidelities.tolist())
        )
    end = time.perf_counter()
    print(f"numpy {np.__version__}: {lengths.size} whole lengths, write_decay_csv "
          f"{middle - start:.3f} s, csv.writer {end - middle:.3f} s")
    if ours.read_bytes() != theirs.read_bytes():
        sys.exit(f"{ours} and {theirs} differ: whole lengths are not written as integers")


def main(out_dir: str) -> None:
    columns = adversarial_columns(250_000)
    header = tuple(columns)
    ours, theirs = Path(out_dir) / "floats_ours.csv", Path(out_dir) / "floats_csv_writer.csv"
    start = time.perf_counter()
    write_csv_table(ours, header, tuple(columns.values()))
    middle = time.perf_counter()
    with open(theirs, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(map("{:.17g}".format, c.tolist()) for c in columns.values())))
    end = time.perf_counter()
    values = sum(c.size for c in columns.values())
    print(f"numpy {np.__version__}: {values} values, write_csv_table {middle - start:.3f} s, "
          f"csv.writer {end - middle:.3f} s")
    check_decay_lengths(out_dir)


if __name__ == "__main__":
    main(sys.argv[1])
