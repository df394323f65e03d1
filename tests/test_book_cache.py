"""The CLI's book cache: a command on a CSV book it has read before gives the
same exit code, stdout and stderr, byte for byte, without parsing the book.

Each run below points ``XDG_CACHE_HOME`` at a directory of its own, so a
"cold" run starts from an empty cache and a "warm" one from a cache that an
earlier command on the same bytes filled.
"""

import csv
import io
import os
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varsplit import cli
from varsplit.cli import main

COMMANDS = (
    ["var"],
    ["es"],
    ["decompose"],
    ["simulate", "--trials", "40", "--seed", "3"],
    ["solve", "--max-desks", "3"],
)


def run(argv, cache):
    """(exit code, stdout, stderr) of ``main(argv)`` with its cache under ``cache``."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": str(cache)}):
        with redirect_stdout(out), redirect_stderr(err):
            code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def entries(cache) -> list[Path]:
    return sorted(Path(cache, "varsplit", "books").glob("*"))


def never_parse():
    """Patch ``cli.load_losses_csv`` so that a parse fails the test."""

    def parse(path):
        raise AssertionError(f"{path} was parsed")

    return mock.patch.object(cli, "load_losses_csv", parse)


def write_book(path: Path, losses) -> Path:
    path.write_text("loss\n" + "".join(f"{x!r}\n" for x in losses))
    return path


LOSSES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
BOOKS = st.one_of(
    st.lists(LOSSES, min_size=1, max_size=40),  # ties and zero losses
    st.lists(LOSSES, min_size=1, max_size=40, unique=True),  # all distinct
)


@settings(max_examples=40)
@given(losses=BOOKS, alpha=st.sampled_from(["0.5", "0.8", "0.95"]))
@example(losses=[3.0], alpha="0.5")
@example(losses=[0.0, 0.0, 1.5, 2.0, 2.0, 9.0], alpha="0.5")
@example(losses=[float(k) for k in range(25)], alpha="0.95")
def test_warm_run_prints_what_a_cold_run_prints(losses, alpha):
    """Every command, in JSON and CSV: a run that parses and a run that
    reads the entry instead agree byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        book = write_book(tmp / "book.csv", losses)
        assert run(["var", "--input", book], tmp / "warm")[0] == 0
        assert len(entries(tmp / "warm")) == 1
        for i, command in enumerate(COMMANDS):
            for fmt in ("json", "csv"):
                argv = [*command, "--input", book, "--alpha", alpha, "--format", fmt]
                cold = run(argv, tmp / f"cold-{i}-{fmt}")
                with never_parse():
                    assert run(argv, tmp / "warm") == cold


def test_warm_run_does_not_parse(tmp_path):
    book = write_book(tmp_path / "book.csv", [0.0, 1.0, 1.0, 4.0, 9.5])
    argv = ["decompose", "--input", book, "--alpha", "0.5", "--format", "csv"]
    calls = []
    parse = cli.load_losses_csv

    def first_only(path):
        calls.append(path)
        if len(calls) > 1:
            raise AssertionError("parsed twice")
        return parse(path)

    with mock.patch.object(cli, "load_losses_csv", first_only):
        cold = run(argv, tmp_path / "xdg")
        assert run(argv, tmp_path / "xdg") == cold
    assert cold[0] == 0 and len(calls) == 1


def test_book_edited_during_the_parse_is_not_stored(tmp_path):
    """The entry would file the parsed law under the old bytes' key."""
    book = write_book(tmp_path / "book.csv", [1.5, 2.5, 6.5])
    parse = cli.load_losses_csv

    def parse_then_edit(path):
        model = parse(path)
        write_book(book, [1.5, 2.5, 8.5])
        return model

    argv = ["var", "--input", book, "--alpha", "0.5"]
    with mock.patch.object(cli, "load_losses_csv", parse_then_edit):
        assert '"var_total": 2.5' in run(argv, tmp_path / "xdg")[1]
    assert entries(tmp_path / "xdg") == []


def test_same_size_and_mtime_edit_still_misses(tmp_path):
    """The key is the bytes, not the file's size or times."""
    book = write_book(tmp_path / "book.csv", [1.5, 2.5, 6.5])
    argv = ["var", "--input", book, "--alpha", "0.5"]
    before = run(argv, tmp_path / "xdg")
    stamp = book.stat()
    write_book(book, [1.5, 3.5, 6.5])
    os.utime(book, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
    assert book.stat().st_size == stamp.st_size
    after = run(argv, tmp_path / "xdg")
    assert after == run(argv, tmp_path / "cold")
    assert after != before and '"var_total": 3.5' in after[1]
    assert len(entries(tmp_path / "xdg")) == 2


def _unpickled(path):
    """A pickled object array where the entry was."""
    np.save(path, np.array([0.0, None, 1.0], dtype=object), allow_pickle=True)


def _zipped(path):
    """The entry's array inside an ``.npz`` archive, which ``np.load`` opens as one."""
    saved = np.load(path)
    with open(path, "wb") as fh:
        np.savez(fh, saved)


CORRUPT = {
    "truncated": lambda p: p.write_bytes(p.read_bytes()[:-8]),
    "empty": lambda p: p.write_bytes(b""),
    "not npy": lambda p: p.write_bytes(b"loss\n1\n"),
    "float32": lambda p: np.save(p, np.load(p).astype(np.float32)),
    "int64": lambda p: np.save(p, np.load(p).astype(np.int64)),
    "big-endian": lambda p: np.save(p, np.load(p).astype(">f8")),
    "2-D": lambda p: np.save(p, np.load(p)[None, :]),
    "even length": lambda p: np.save(p, np.load(p)[:-1]),
    "values not increasing": lambda p: np.save(p, np.load(p)[[1, 0, *range(2, 9)]]),
    "value -0.0": lambda p: np.save(p, np.where(np.arange(9) == 0, -0.0, np.load(p))),
    "value inf": lambda p: np.save(p, np.where(np.arange(9) == 3, np.inf, np.load(p))),
    "cum from 1": lambda p: np.save(p, np.load(p) + (np.arange(9) >= 4)),
    "cum not integral": lambda p: np.save(p, np.load(p) + 0.5 * (np.arange(9) >= 5)),
    "cum flat": lambda p: np.save(p, np.where(np.arange(9) == 6, 1.0, np.load(p))),
    "pickled objects": _unpickled,
    "npz archive": _zipped,
}


@pytest.mark.parametrize("how", CORRUPT)
def test_unsound_entry_misses_and_is_rewritten(tmp_path, how):
    book = write_book(tmp_path / "book.csv", [0.0, 1.0, 1.0, 4.0, 9.5, 9.5])
    argv = ["es", "--input", book, "--alpha", "0.6"]
    cold = run(argv, tmp_path / "xdg")
    [entry] = entries(tmp_path / "xdg")
    sound = entry.read_bytes()
    assert np.load(entry).size == 9  # four distinct values and their five run starts
    CORRUPT[how](entry)
    assert entry.read_bytes() != sound
    assert run(argv, tmp_path / "xdg") == cold
    assert entries(tmp_path / "xdg") == [entry]
    assert entry.read_bytes() == sound


def test_cache_home_that_is_a_file_changes_nothing(tmp_path):
    book = write_book(tmp_path / "book.csv", [2.0, 0.5, 3.0])
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    for argv in (["var", "--input", book], ["solve", "--input", book, "--max-desks", "2"]):
        code, out, err = run(argv, blocker)
        assert (code, out, err) == run(argv, tmp_path / "xdg")
        assert code == 0 and err == ""


def test_failed_parse_writes_nothing(tmp_path):
    book = tmp_path / "bad.csv"
    book.write_text("loss\n1.5\nabc\n")
    code, out, err = run(["var", "--input", book], tmp_path / "xdg")
    assert (code, out) == (1, "")
    assert err == f"error: {book}: row 3: not a number: 'abc'\n"
    assert entries(tmp_path / "xdg") == []


def test_field_size_limit_is_part_of_the_key(tmp_path):
    """A book whose longest row fits the csv limit is cached; under a lower
    limit the same bytes miss and the row loop rejects the row as before."""
    book = tmp_path / "book.csv"
    book.write_text("loss\n1.5\n" + "0" * 40 + "2\n")
    argv = ["var", "--input", book]
    assert run(argv, tmp_path / "xdg")[0] == 0
    limit = csv.field_size_limit(20)
    try:
        code, out, err = run(argv, tmp_path / "xdg")
    finally:
        csv.field_size_limit(limit)
    assert (code, out) == (1, "")
    assert err == f"error: {book}: row 3: field larger than field limit (20)\n"


def test_piped_book_bypasses_the_cache(tmp_path):
    text = "loss\n0.25\n3\n3\n1e3\n"
    plain = tmp_path / "book.csv"
    plain.write_text(text)
    read_fd, write_fd = os.pipe()

    def feed():
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(text.encode())

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        with mock.patch.object(cli, "_read_entry") as read:
            piped = run(["es", "--input", f"/dev/fd/{read_fd}"], tmp_path / "xdg")
    finally:
        os.close(read_fd)
        writer.join(timeout=10)
    assert not writer.is_alive()
    read.assert_not_called()
    assert entries(tmp_path / "xdg") == []
    assert piped[0] == 0
    assert piped[1] == run(["es", "--input", plain], tmp_path / "other")[1]
