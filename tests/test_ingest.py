"""CSV ingest: the one-pass C reader agrees with the row-by-row reader.

``load_losses_csv`` parses a clean book with numpy's chunked text reader and
reads anything else again record by record. These tests hold it to
``helpers.csv_rows_oracle`` (same samples bit for bit, or the same error
type and message), and bound its memory by the row count.
"""

import bz2
import csv
import gzip
import lzma
import os
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import csv_rows_oracle, sorted_sample
from varsplit import CsvFormatError, load_losses_csv, loss_model
from varsplit.cli import main

NUMBERS = st.one_of(
    st.integers(0, 10**6).map(lambda k: f"{k // 100}.{k % 100:02d}"),
    st.floats(min_value=0.0, max_value=1e300).map(repr),
)
ODD_ROWS = (
    "", " ", "\t ", '"1.5"', '"1\n2"', '"2\r\n"', "1_000", "+1.5", " 2.5 ", "1e400",
    "inf", "nan", "-1", "-0.0", "0", "1,2", "3,", ",", "abc", "１.５", "\x0c4", "1\x1c",
)
ENDINGS = ("\n", "\r\n", "\r")
HEADERS = ("loss", "\ufeffloss", " loss ", '"loss"', "value", "loss,x", "")


def outcome(load, path):
    """The samples' bytes, or the type and message of the error raised."""
    try:
        return sorted_sample(load(path)).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def write_book(path, header, rows, trailing, lead=0):
    """``lead`` plain rows, then ``rows`` as (text, line ending) pairs."""
    parts = [header, "\n", "1.25\n" * lead]
    for text, end in rows:
        parts += [text, end]
    if rows and not trailing:
        parts.pop()
    path.write_bytes("".join(parts).encode("utf-8"))


@st.composite
def books(draw):
    """Number rows with at most two odd rows dropped in, so that each odd
    row is also met alone among numbers."""
    rows = draw(st.lists(st.tuples(NUMBERS, st.sampled_from(ENDINGS)), max_size=30))
    for _ in range(draw(st.integers(0, 2))):
        odd = (draw(st.sampled_from(ODD_ROWS)), draw(st.sampled_from(ENDINGS)))
        rows.insert(draw(st.integers(0, len(rows))), odd)
    return rows


@settings(max_examples=300)
@given(
    header=st.sampled_from(HEADERS),
    rows=books(),
    trailing=st.booleans(),
    lead=st.sampled_from((0,) * 29 + (100_000,)),
)
@example(header="loss", rows=[("abc", "\n")], trailing=True, lead=100_000)
@example(header="loss", rows=[("", "\n"), ("-3", "\r\n")], trailing=False, lead=100_000)
@example(header="loss", rows=[("1e400", "\r")], trailing=True, lead=100_000)
@example(header="\ufeffloss", rows=[("-0.0", "\r\n"), ("2", "\r\n")], trailing=False, lead=0)
@example(header="loss", rows=[("1", "\n"), (" ", "\n"), ("2", "\n")], trailing=True, lead=0)
@example(header="loss", rows=[('"1\n2"', "\n")], trailing=True, lead=0)
@example(header="loss", rows=[("0" * (csv.field_size_limit() + 1), "\n")], trailing=True, lead=0)
@example(header="loss", rows=[], trailing=True, lead=0)
@example(header="\ufeffloss", rows=[], trailing=False, lead=0)
@example(header="loss", rows=[("1,2", "\n")], trailing=False, lead=0)
@example(header="loss", rows=[("1", "\r"), ("", "\r"), ("2", "\r")], trailing=False, lead=0)
@example(
    header="loss",
    rows=[("1.2345678901234567e-05", "\n"), ("9.876543210987654e+299", "\r\n"),
          ("4.9406564584124654e-324", "\n"), ("0.30000000000000004", "\n")],
    trailing=True,
    lead=0,
)
def test_load_matches_row_oracle(header, rows, trailing, lead):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "book.csv"
        write_book(path, header, rows, trailing, lead)
        assert outcome(load_losses_csv, path) == outcome(csv_rows_oracle, path)


def test_plain_book_skips_the_row_loop(tmp_path, monkeypatch):
    """A book of plain numbers is read by the C reader alone."""

    def fail(path):
        raise AssertionError("row loop used")

    path = tmp_path / "book.csv"
    write_book(path, "loss", [("3.5", "\r\n"), ("-0.0", "\r\n")], True)
    monkeypatch.setattr(loss_model, "_parse_rows", fail)
    assert list(sorted_sample(load_losses_csv(path))) == [0.0, 3.5]


def test_underscore_book_goes_through_the_row_loop(tmp_path, monkeypatch):
    """numpy's reader rejects ``1_000``; the row loop reads it as ``float`` does."""
    calls = []
    row_loop = loss_model._parse_rows

    def counted(path):
        calls.append(path)
        return row_loop(path)

    path = tmp_path / "book.csv"
    write_book(path, "loss", [("3.5", "\n"), ("1_000", "\n"), ("2", "\n")], True)
    monkeypatch.setattr(loss_model, "_parse_rows", counted)
    assert list(sorted_sample(load_losses_csv(path))) == [2.0, 3.5, 1000.0]
    assert calls == [path]


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_compression_suffix_is_only_a_name(tmp_path, suffix):
    """numpy opens such a name through a decompressor, which fails on a plain
    book, so the row loop reads it; a real archive fails the header check."""
    text = "loss\n2.5\n0.1\n7\n"
    plain = tmp_path / "book.csv"
    plain.write_text(text)
    named = tmp_path / f"book.csv{suffix}"
    named.write_text(text)
    expected = sorted_sample(load_losses_csv(plain)).tobytes()
    assert outcome(load_losses_csv, named) == expected
    assert outcome(csv_rows_oracle, named) == expected

    pack = {".gz": gzip.compress, ".bz2": bz2.compress}.get(suffix, lzma.compress)
    named.write_bytes(pack(text.encode()))
    with pytest.raises(CsvFormatError):
        load_losses_csv(named)


@pytest.mark.parametrize("rows", [3, 20_000])
def test_piped_book_loads_every_row(tmp_path, rows):
    """A book read from ``/dev/fd/N`` of a pipe, one small and one larger
    than the pipe buffer, gives the samples of the same book in a file."""
    text = "loss\n" + "".join(f"{k % 997}.{k % 100:02d}\n" for k in range(rows))
    plain = tmp_path / "book.csv"
    plain.write_text(text)
    read_fd, write_fd = os.pipe()

    def feed():
        try:
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(text.encode())
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        got = outcome(load_losses_csv, Path(f"/dev/fd/{read_fd}"))
    finally:
        os.close(read_fd)
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == sorted_sample(load_losses_csv(plain)).tobytes()


def test_header_only_book_prints_one_error_line(tmp_path, capsys, recwarn):
    """numpy's "input contained no data" warning never reaches the user."""
    path = tmp_path / "empty.csv"
    path.write_text("loss\n")
    assert main(["var", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: no loss rows found\n"
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("lead", [0, 20_000])
def test_non_utf8_is_a_one_line_format_error(tmp_path, capsys, lead):
    """A bad byte in the first decoded chunk, or one deep in the body."""
    path = tmp_path / "bad.csv"
    path.write_bytes(b"loss\n" + b"1.25\n" * lead + b"1.5\n\xff2\n")
    with pytest.raises(CsvFormatError, match="not UTF-8 text"):
        load_losses_csv(path)
    assert main(["var", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: not UTF-8 text: invalid start byte 0xff\n"


@pytest.mark.parametrize(
    ("text", "row"),
    [
        ("loss\n" + "0" * 200_000 + "\n", 2),
        ("0" * 200_000 + "\n1\n", 1),
        ('loss\n1\n"2\n3\n' + "0" * 200_000 + "\n", 3),
    ],
)
def test_over_long_field_is_a_one_line_format_error(tmp_path, capsys, text, row):
    """A field over the csv size limit names the record it sits in, exit 1."""
    path = tmp_path / "long.csv"
    path.write_text(text)
    limit = csv.field_size_limit()
    message = f"{path}: row {row}: field larger than field limit ({limit})"
    with pytest.raises(CsvFormatError) as exc:
        load_losses_csv(path)
    assert str(exc.value) == message
    assert main(["var", "--input", str(path), "--alpha", "0.9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_ingest_memory_is_linear_in_rows(tmp_path):
    """A 200 000-row book of 2-decimal losses: under 32 bytes per row at peak."""
    rng = np.random.default_rng(11)
    n = 200_000
    cents = rng.choice(rng.integers(0, 400_000, size=4000), size=n)
    path = tmp_path / "book.csv"
    path.write_text("loss\n" + "".join(f"{c // 100}.{c % 100:02d}\n" for c in cents))
    tracemalloc.start()
    try:
        model = load_losses_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.law.total == n
    assert peak < 32 * n, f"peaked at {peak / n:.1f} bytes per row"
