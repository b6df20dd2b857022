"""Line coverage of ``src/v2xalloc`` over a pytest run, with the stdlib only.

Load it as a plugin, so that tracing starts before the package is imported:

    PYTHONPATH=src:tools python -m pytest -q -p linecov

A ``sys.settrace`` tracer records every line that runs in a file of
``src/v2xalloc``.  When the session ends, each executable line (one that a
code object's line table names) that ran in no test is printed as
``path:line`` and the run fails.  Tests that start a subprocess are not traced
there, so a line only such a run reaches is allowed in ALLOWED, by its text,
with its reason.  An allowance whose text is on no unreached executable line
of its file, because the line is gone, changed or now runs, fails the run too,
so no allowance outlives its line.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "v2xalloc"
ALLOWED = {
    ("cli.py", "sys.exit(main())"): "runs only as `python -m v2xalloc.cli`, in a subprocess",
    ("oracles.py", 'raise ValueError("brute force expects a square matrix")'):
        "the brute-force oracle's guard; every caller passes a square matrix",
}

_hits: dict[str, set[int]] = {}         # package file -> lines run
_ours: dict[str, set[int] | None] = {}  # co_filename -> its _hits entry, None outside


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _ours:
        path = Path(name).resolve()
        _ours[name] = _hits.setdefault(str(path), set()) if path.parent == PACKAGE else None
    lines = _ours[name]
    if lines is None:
        return None

    def line(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return line

    return line


def executable_lines(code) -> set[int]:
    """Line numbers of ``code`` and of every code object nested in it."""
    lines = {ln for _, _, ln in code.co_lines() if ln}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def missed_lines() -> list[str]:
    """``path:line`` of every executable package line that did not run and is
    not allowed, then every allowance that no such line uses."""
    out, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        ran = _hits.get(str(path), set())
        for ln in sorted(executable_lines(compile(text, str(path), "exec")) - ran):
            code = source[ln - 1].strip()
            if (path.name, code) in ALLOWED:
                used.add((path.name, code))
            else:
                out.append(f"src/v2xalloc/{path.name}:{ln}: {code}")
    for name, code in sorted(ALLOWED.keys() - used):
        out.append(f"src/v2xalloc/{name}: allowance on no unreached line: {code}")
    return out


sys.settrace(_trace)
threading.settrace(_trace)


_missed: list[str] = []


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    _missed[:] = missed_lines()
    if _missed and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_sep(
        "-", f"linecov: {len(_missed)} executable line(s) of src/v2xalloc ran in no test, "
             "or allowance(s) used by none")
    for entry in _missed:
        terminalreporter.write_line(f"  {entry}")
