"""The compiled SWF scan of the trace plane against the line path.

``load_trace`` on a path or on SWF text runs
:func:`repro.kernels.swf_scan_core` and, when the scan declines, re-reads
the source through :func:`repro.workloads.trace.parse_trace` (the line
path).  Three kinds of test pin the pair:

* a Hypothesis fuzz over SWF documents — numbers at the edges of exact
  decimal conversion, ragged layouts, comments and headers, CRLF, lone CR,
  control and non-ASCII bytes — on which the compiled backend and the
  NumPy backend (whose scan always declines) give the same digest,
  ``max_procs`` and column bytes, or the same exception;
* one document per decline class, which must reach the line path;
* the fixtures and archives at the benchmark's sizes, which the scan must
  take without declining: a scan that declined everything would pass every
  equality test.

A pipe path is read once, through the line path, and a file without
newlines ends the scan within a bounded read.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.workloads import trace as trace_module
from repro.workloads.trace import load_trace, synthesize_swf

COMPILED = tuple(n for n in kernels.available_backend_names() if n != "numpy")

pytestmark = pytest.mark.skipif(
    not COMPILED, reason="no compiled kernel backend (cffi) available"
)

TRACES = Path(__file__).resolve().parents[1] / "data" / "traces"
COLUMNS = ("job_ids", "submits", "waits", "runs", "procs")


def outcome(load) -> tuple:
    """What a load gives: the trace's identity and column bytes, or the
    exception's type and message."""
    try:
        tr = load()
    except Exception as exc:  # noqa: BLE001 - both backends must fail alike
        return ("error", type(exc), str(exc))
    return (
        "trace",
        tr.digest,
        tr.max_procs,
        tuple((getattr(tr, c).dtype.str, getattr(tr, c).tobytes()) for c in COLUMNS),
    )


def on_backend(name: str, load) -> tuple:
    previous = kernels.set_backend(name)
    try:
        return outcome(load)
    finally:
        kernels.set_backend(previous)


class LinePathSpy:
    """Counts the loads that reach the line path."""

    def __init__(self, monkeypatch):
        self.calls = 0
        parse = trace_module.parse_trace

        def spy(lines):
            self.calls += 1
            return parse(lines)

        monkeypatch.setattr(trace_module, "parse_trace", spy)


# --------------------------------------------------------------------- #
# Differential fuzz                                                     #
# --------------------------------------------------------------------- #
#: Tokens in the scan's grammar at the edges of exact conversion: the
#: fast path's mantissa bound (2**53 +- 1) and power bound (1e22 / 1e23),
#: a halfway case, subnormals, overflow and underflow, signed zero.
EDGE_NUMBERS = [
    "9007199254740991", "9007199254740992", "9007199254740993",
    "9007199254740993e22", "9007199254740992e-22", "9007199254740991e23",
    "9007199254740991e-23", "1e22", "1e23", "1e-22", "1e-23", "123456789e-22",
    "1.00000000000000011102230246251565404236316680908203125",
    "4.9e-324", "2.4703282292062327e-324", "2.2250738585072011e-308",
    "1e308", "1.7976931348623157e308", "1.8e308", "1e-400", "1e400",
    "-0", "-1", "+5", "0", "00012.500", "1E5", "7e+03", "0.1e-0000001",
]

#: Insertions that leave the grammar or the byte classes the scan takes.
DEFECTS = [
    "\r", "\x0b", "\x0c", "\x00", "\x7f", "\x1c", "\ufeff", "é", "\xa0", "\x85",
    " \x0b ", " \x0c ", " \x1c ", " \xa0 ", " \x85 ", " é ",
    " nan ", " inf ", " 0x10 ", " 1_0 ", " .5 ", " 5. ", " 1e ", "_", ",", "+", "-",
    ".", "e", " ", "\t", "\n",
]

COMMENTS = [
    "; Version: 2.2", "; MaxProcs: 8", ";MaxProcs:16", "  ; MaxProcs: 2.7",
    "; MaxProcs: inf", "; MaxProcs: 0", "; MaxProcs: -4", "; MaxProcs: 1e400",
    "; MaxProcs: 64 processors", "; maxprocs: 3", "; MaxProcs:", ";", "\t; note\t",
]

numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(min_value=-3, max_value=10**7).map(str),
    st.sampled_from(EDGE_NUMBERS),
)
job_ids = st.integers(min_value=0, max_value=10**6).map(str)
others = st.one_of(st.sampled_from(["-1", "1", "abc", "x_y", ";", "0x1"]), numbers)
separators = st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"])
blanks = st.sampled_from(["", "", " ", "\t", "  "])


@st.composite
def records(draw) -> str:
    # Mostly records the scan takes (>= 8 fields), sometimes short ones
    # (5-7 fields) that only the line path reads.
    n = draw(st.sampled_from([5, 6, 7] + 4 * list(range(8, 21))))
    # One id in twenty is any number: the post-parse checks then fail
    # the load, alike on both paths.
    first = numbers if draw(st.integers(min_value=0, max_value=19)) == 0 else job_ids
    tokens = [draw(first)] + [
        draw(numbers if i in (1, 2, 3, 4, 7) else others) for i in range(1, n)
    ]
    line = tokens[0] + "".join(draw(separators) + tok for tok in tokens[1:])
    return draw(blanks) + line + draw(blanks)


lines = st.one_of(records(), records(), records(), st.sampled_from(COMMENTS), blanks)


@st.composite
def documents(draw) -> tuple[str, bytes]:
    """SWF text and the bytes a file of it holds: mostly well-formed, with
    at most one defect inserted anywhere, and sometimes a byte-order mark
    or an invalid UTF-8 byte."""
    body = draw(st.lists(lines, max_size=10))
    text = "".join(
        line + draw(st.sampled_from(["\n", "\n", "\n", "\r\n"])) for line in body
    )
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    defect = draw(st.one_of(st.none(), st.sampled_from(DEFECTS)))
    if defect is not None:
        at = draw(st.integers(min_value=0, max_value=len(text)))
        text = text[:at] + defect + text[at:]
    if draw(st.booleans()):
        text = "\ufeff" + text
    raw = text.encode()
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        at = draw(st.integers(min_value=0, max_value=len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return text, raw


@pytest.fixture(scope="module")
def scratch_file():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp) / "fuzz.swf"


@given(
    doc=documents(),
    block=st.sampled_from([1, 2, 7, 64, 1 << 20]),
    rows=st.sampled_from([1, 2, 16384]),
    spans=st.sampled_from([1, 256]),
)
@settings(max_examples=300, deadline=None)
def test_scan_agrees_with_line_path(scratch_file, doc, block, rows, spans):
    """Small blocks carry lines across block ends; small row chunks and
    span buffers make the scan resume mid-block."""
    text, raw = doc
    scratch_file.write_bytes(raw)
    with mock.patch.multiple(
        trace_module, _BLOCK_BYTES=block, _SCAN_ROWS=rows, _SCAN_SPANS=spans
    ):
        got = on_backend(COMPILED[0], lambda: load_trace(scratch_file))
        ref = on_backend("numpy", lambda: load_trace(scratch_file))
        assert got == ref
        if "\n" in text:  # a one-line string may be taken for a path
            got = on_backend(COMPILED[0], lambda: load_trace(text))
            ref = on_backend("numpy", lambda: load_trace(text))
            assert got == ref


# --------------------------------------------------------------------- #
# Every decline class reaches the line path                             #
# --------------------------------------------------------------------- #
GOOD = "; MaxProcs: 8\n1 0 0 5 2 -1 -1 2\n2 1.5 0 3 1 -1 -1 1\n"

DECLINES = {
    "non-ASCII byte in a comment": "; café\n" + GOOD,
    "byte-order mark mid-file": GOOD + "\ufeff3 2 0 4 2 -1 -1 2\n",
    "second byte-order mark": "\ufeff\ufeff" + GOOD,
    "no-break space separator": GOOD + "3\xa02 0 4 2 -1 -1 2\n",
    "lone CR": GOOD + "3 2 0 4 2 -1 -1 2\r4 2 0 4 2 -1 -1 2\n",
    "non-ASCII byte in an unused field": GOOD + "3 2 0 4 2 -1 -1 2 é\n",
    "vertical tab": GOOD + "3 2 0 4 2 -1 -1 2 \x0b\n",
    "form feed line": GOOD + "\x0c\n",
    "information separator": GOOD + "3 2 0 4 2 -1 -1 2 x\x1c\n",
    "NUL": GOOD + "3 2 0 4 2 -1 -1 2\x00\n",
    "DEL": GOOD + "3 2 0 4 2 -1 -1 2 \x7f\n",
    "five fields": GOOD + "3 2 0 4 2\n",
    "seven fields": GOOD + "3 2 0 4 2 -1 -1\n",
    "nan": GOOD + "3 nan 0 4 2 -1 -1 2\n",
    "inf": GOOD + "3 2 0 inf 2 -1 -1 2\n",
    "hex": GOOD + "0x10 2 0 4 2 -1 -1 2\n",
    "underscore": GOOD + "3 1_0 0 4 2 -1 -1 2\n",
    "leading dot": GOOD + "3 .5 0 4 2 -1 -1 2\n",
    "trailing dot": GOOD + "3 5. 0 4 2 -1 -1 2\n",
    "bare exponent": GOOD + "3 2 0 4e 2 -1 -1 2\n",
    "comma": GOOD + "3 2 0 4 2 -1 -1 2,5\n",
    "garbage": GOOD + "3 2 0 4 2 -1 -1 x\n",
}


@pytest.mark.parametrize("case", list(DECLINES))
def test_each_decline_class_reaches_the_line_path(case, monkeypatch, tmp_path):
    text = DECLINES[case]
    path = tmp_path / "decline.swf"
    path.write_bytes(text.encode())
    for source in (text, path):
        ref = on_backend("numpy", lambda: load_trace(source))
        spy = LinePathSpy(monkeypatch)
        assert on_backend(COMPILED[0], lambda: load_trace(source)) == ref
        assert spy.calls == 1, f"{case}: the scan did not decline"


def test_strtod_under_a_comma_locale_declines():
    """A token the fast path cannot take goes to strtod, which under a
    locale with a decimal comma stops at the point: the scan declines,
    and the line path (locale-independent) reads the value."""
    script = """
import locale, sys
for name in ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8"):
    try:
        locale.setlocale(locale.LC_NUMERIC, name)
        break
    except locale.Error:
        pass
else:
    sys.exit(77)
from repro import kernels
from repro.workloads import trace
kernels.set_backend("cffi")
parse, calls = trace.parse_trace, []
trace.parse_trace = lambda lines: calls.append(1) or parse(lines)
tr = trace.load_trace("1 0.26040773895023467 0 5 2 -1 -1 2\\n")
assert calls and tr.submits.tolist() == [0.26040773895023467], (calls, tr.submits)
"""
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    if proc.returncode == 77:
        pytest.skip("no locale with a decimal comma installed")
    assert proc.returncode == 0, proc.stderr


# --------------------------------------------------------------------- #
# The scan is taken                                                     #
# --------------------------------------------------------------------- #
#: ``(jobs, m)`` of the benchmark's replay archives: ``replay-spine``
#: full and smoke, ``replay-demt`` full and smoke.
BENCH_ARCHIVES = [(15000, 64), (1000, 16), (3000, 64), (300, 16)]


@pytest.mark.parametrize(
    "archive",
    sorted(os.listdir(TRACES)) + BENCH_ARCHIVES,
    ids=lambda a: a if isinstance(a, str) else "synthetic-{}x{}".format(*a),
)
def test_scan_takes_well_formed_archives(archive, monkeypatch, tmp_path):
    if isinstance(archive, str):
        path = TRACES / archive
    else:
        path = tmp_path / "archive.swf"
        path.write_text(synthesize_swf(*archive, seed=2004, load=0.8))
    ref = on_backend("numpy", lambda: load_trace(path))
    text_ref = on_backend("numpy", lambda: load_trace(path.read_text()))
    spy = LinePathSpy(monkeypatch)
    assert on_backend(COMPILED[0], lambda: load_trace(path)) == ref
    assert on_backend(COMPILED[0], lambda: load_trace(path.read_text())) == text_ref == ref
    assert ref[0] == "trace"
    assert spy.calls == 0, "the scan declined a well-formed archive"


# --------------------------------------------------------------------- #
# Bounded blocks                                                        #
# --------------------------------------------------------------------- #
def test_path_load_holds_the_columns_not_the_text(monkeypatch, tmp_path):
    """Padding every line with 600 bytes of unused fields multiplies the
    text twentyfold and leaves the peak allocation where it was: the file
    passes through one block at a time, and what is held grows with the
    parsed records — at most four 48-byte rows' worth per record (the
    scan's chunks, their concatenation, the trace's columns and the
    temporaries of the post-parse checks)."""
    n, block = 20000, 1 << 16
    monkeypatch.setattr(trace_module, "_BLOCK_BYTES", block)
    body = [
        f"{i} {i * 0.5} -1 {1 + i % 7}.25 {1 + i % 4} -1 -1 {1 + i % 4}"
        for i in range(1, n + 1)
    ]
    peaks, sizes = [], []
    for pad in ("", " -1" * 200):
        path = tmp_path / f"pad{len(pad)}.swf"
        path.write_text("".join(line + pad + "\n" for line in body))
        sizes.append(path.stat().st_size)
        previous = kernels.set_backend(COMPILED[0])
        tracemalloc.start()
        try:
            tr = load_trace(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            kernels.set_backend(previous)
        assert tr.n == n
    short, padded = peaks
    assert sizes[1] - sizes[0] >= 600 * n
    assert padded - short < 4 * block, (short, padded)
    assert padded < 4 * 48 * n < sizes[1] / 3, (padded, sizes)


def test_a_file_without_newlines_ends_the_scan(monkeypatch, tmp_path):
    """CR line ends leave no LF to cut blocks at, so the carried partial
    line would grow to the whole file: the scan gives up once it outgrows
    ``_LINE_BYTES``, having read at most one block more, and the line path
    reads the CR lines."""
    monkeypatch.setattr(trace_module, "_BLOCK_BYTES", 64)
    monkeypatch.setattr(trace_module, "_LINE_BYTES", 256)
    raw = synthesize_swf(300, 16, seed=2004, load=0.8).replace("\n", "\r").encode()
    reader = io.BytesIO(raw)
    previous = kernels.set_backend(COMPILED[0])
    try:
        assert trace_module._scan_swf(reader) is None
    finally:
        kernels.set_backend(previous)
    assert reader.tell() <= 3 + 256 + 64 < len(raw)
    path = tmp_path / "cr.swf"
    path.write_bytes(raw)
    ref = on_backend("numpy", lambda: load_trace(path))
    spy = LinePathSpy(monkeypatch)
    assert on_backend(COMPILED[0], lambda: load_trace(path)) == ref
    assert ref[0] == "trace" and spy.calls == 1


# --------------------------------------------------------------------- #
# A pipe is read once                                                   #
# --------------------------------------------------------------------- #
def load_through_pipe(data: bytes) -> tuple:
    """:func:`outcome` of loading ``data`` fed through a pipe, named by
    its ``/dev/fd`` path as a shell's ``<(zcat log.swf.gz)`` names it."""
    read_end, write_end = os.pipe()

    def feed():
        try:
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(data)
        except BrokenPipeError:  # the load stopped reading early
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return outcome(lambda: load_trace(f"/dev/fd/{read_end}"))
    finally:
        os.close(read_end)
        writer.join(timeout=60)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
@pytest.mark.parametrize("backend", ("numpy",) + COMPILED)
@pytest.mark.parametrize("header", ["", "; café\n"], ids=["scannable", "declined"])
def test_pipe_path_loads_whole(backend, header, monkeypatch, tmp_path):
    """A pipe cannot be rewound, so a load through a pipe path skips the
    scan and reads the stream once, through the line path; the result is
    the file's, whether or not the scan would have taken the bytes."""
    raw = (header + synthesize_swf(1000, 16, seed=2004, load=0.8)).encode()
    path = tmp_path / "archive.swf"
    path.write_bytes(raw)
    ref = on_backend(backend, lambda: load_trace(path))
    assert ref[0] == "trace"
    spy = LinePathSpy(monkeypatch)
    previous = kernels.set_backend(backend)
    try:
        assert load_through_pipe(raw) == ref
    finally:
        kernels.set_backend(previous)
    assert spy.calls == 1
