"""Report the lines of ``src/odd_assure`` that the tests never run in process.

Runs pytest under a ``sys.settrace`` line collector, then prints as Markdown
every source line that holds bytecode but never ran. Tests that start the
command line in a subprocess are not traced, so a line that only they reach
is listed too. The report gates nothing: the script exits 0 whatever the
tests do.

    python tests/line_hits.py
"""

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "odd_assure"
PREFIX = str(SRC) + os.sep

hits: dict[str, set[int]] = {}


def _line(frame, event, arg):
    if event == "line":
        hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(PREFIX):
        return None
    hits.setdefault(filename, set()).add(frame.f_lineno)
    return _line


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some of its bytecode belongs to."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def report(status: int) -> str:
    out = [
        "### Lines of src/odd_assure the tests never run in process",
        "",
        "Tests that run the command line in a subprocess are not traced, so a "
        "line that only they reach is listed too. This report gates nothing.",
        "",
    ]
    missed, total = [], 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(lines - hits.get(str(path), set())):
            missed.append(f"- `{path.name}:{line}` `{text[line - 1].strip()}`")
    out.append(f"pytest exit status {status}; {len(missed)} of {total} lines never ran.")
    out.append("")
    return "\n".join(out + missed) + "\n"


def main() -> int:
    threading.settrace(_call)
    sys.settrace(_call)
    try:
        status = pytest.main(["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    text = report(int(status))
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(text)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
