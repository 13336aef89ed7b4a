"""The SWF scan kernel (``kernels.swf_scan_core``) on raw inputs.

The trace-level suite (``tests/workloads/test_swf_scan.py``) fuzzes the
scan against the line path through ``load_trace``; here the kernel's own
contract: it stops before a line it has no room for, never writing past
the capacity it was given, resumes from the offset it reached, and every
backend rejects inputs that could send it outside its buffers.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import kernels

COMPILED = tuple(n for n in kernels.available_backend_names() if n != "numpy")

DOC = (
    b"; MaxProcs: 8\n"
    b"1 0 0 5 2 -1 -1 2\n"
    b"\n"
    b"; note\n"
    b"2 1.5 0 3 1 -1 -1 1 -1 -1 1\n"
    b"3 2 0.25 4 2 -1 -1 2\r\n"
)
ROWS = [[1, 0, 0, 5, 2, 2], [2, 1.5, 0, 3, 1, 1], [3, 2, 0.25, 4, 2, 2]]
COMMENTS = [b"; MaxProcs: 8", b"; note"]


@pytest.mark.skipif(not COMPILED, reason="no compiled kernel backend (cffi) available")
@pytest.mark.parametrize("row_cap, span_cap", [(1, 1), (2, 1), (1, 2), (8, 8)])
def test_scan_stops_at_capacity_and_resumes(row_cap, span_cap):
    mod = kernels.load_backend(COMPILED[0])
    rows = np.full((len(ROWS) + 8, 6), -7.0)
    spans = np.full((span_cap + 4, 2), -7, dtype=np.int64)
    filled, comments, pos, calls = 0, [], 0, 0
    while pos < len(DOC):
        window = rows[filled : filled + row_cap]
        n_rows, n_spans, stop = mod.swf_scan_core(DOC, pos, window, spans[:span_cap])
        # Nothing past either capacity is written.
        assert (rows[filled + row_cap :] == -7.0).all()
        assert (spans[span_cap:] == -7).all()
        assert n_rows <= row_cap and n_spans <= span_cap and stop > pos
        comments += [DOC[s:e] for s, e in spans[:n_spans].tolist()]
        filled, pos, calls = filled + n_rows, stop, calls + 1
    assert pos == len(DOC)
    assert rows[:filled].tolist() == ROWS
    assert comments == COMMENTS
    if row_cap >= len(ROWS) and span_cap >= len(COMMENTS):
        assert calls == 1


@pytest.mark.skipif(not COMPILED, reason="no compiled kernel backend (cffi) available")
def test_scan_declines_and_numpy_always_declines():
    mod = kernels.load_backend(COMPILED[0])
    rows = np.zeros((4, 6))
    spans = np.zeros((4, 2), dtype=np.int64)
    assert mod.swf_scan_core(DOC, 0, rows, spans) == (3, 2, len(DOC))
    assert mod.swf_scan_core(b"1 2 3 4 5\n", 0, rows, spans) is None
    assert mod.swf_scan_core(b"", 0, rows, spans) == (0, 0, 0)
    numpy_backend = kernels.load_backend("numpy")
    assert numpy_backend.swf_scan_core(DOC, 0, rows, spans) is None


#: Arguments that could send the scan outside its buffers, each a
#: replacement of the good call's arguments by position.
_BAD_INPUTS = {
    "non-contiguous-buffer": {0: "memoryview(b'1 2 3 4 5 6 7 8\\n\\n')[::2]"},
    "wide-item-buffer": {0: "np.array([10], dtype=np.int64)"},
    "two-dimensional-buffer": {0: "np.frombuffer(b'12\\n\\n', dtype=np.uint8).reshape(2, 2)"},
    "no-final-newline": {0: "b'1 2 3 4 5 6 7 8'"},
    "negative-start": {1: "-1"},
    "start-past-end": {1: "17"},
    "float32-rows": {2: "np.zeros((2, 6), dtype=np.float32)"},
    "five-column-rows": {2: "np.zeros((2, 5))"},
    "strided-rows": {2: "np.zeros((2, 12))[:, ::2]"},
    "read-only-rows": {2: "np.frombuffer(bytes(96)).reshape(2, 6)"},
    "no-rows": {2: "np.zeros((0, 6))"},
    "int32-spans": {3: "np.zeros((2, 2), dtype=np.int32)"},
    "fortran-spans": {3: "np.zeros((2, 2), dtype=np.int64, order='F')"},
    "no-spans": {3: "np.zeros((0, 2), dtype=np.int64)"},
}


@pytest.mark.parametrize("backend", ["numpy", "cffi"])
def test_input_checks_reject_buffer_overruns(backend):
    """Each bad call runs in a fresh interpreter: a kernel that trusted it
    could read or write outside its buffers and kill the process, which
    must fail this test rather than pytest."""
    if kernels.load_backend(backend) is None:
        pytest.skip(f"{backend} backend unavailable here")
    good = [
        "b'1 2 3 4 5 6 7 8\\n'", "0", "np.zeros((2, 6))", "np.zeros((2, 2), dtype=np.int64)",
    ]
    lines = [
        "import numpy as np",
        "from repro import kernels",
        f"kernels.set_backend({backend!r})",
        f"kernels.swf_scan_core({', '.join(good)})",
    ]
    for case, patch in _BAD_INPUTS.items():
        args = [patch.get(i, a) for i, a in enumerate(good)]
        lines += [
            "try:",
            f"    kernels.swf_scan_core({', '.join(args)})",
            "except ValueError:",
            f"    print('rejected {case}')",
            "else:",
            f"    print('accepted {case}')",
        ]
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert proc.stdout.split("\n")[:-1] == [f"rejected {c}" for c in _BAD_INPUTS]
