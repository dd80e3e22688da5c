"""Every output ``tools/pinned_outputs.py`` prints equals the committed fixture, bit for bit.

The script runs in its own process, so no monkeypatch of another test can
reach it. Only the value lines are compared; the ``#`` header names the
Python, numpy and BLAS the values came from and is shown on a mismatch.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "pinned_outputs.txt"
REGENERATE = "python3 tools/pinned_outputs.py > tests/fixtures/pinned_outputs.txt"


def split(text):
    """(header lines, value lines) of one output."""
    lines = text.splitlines()
    return [line for line in lines if line.startswith("#")], [line for line in lines if not line.startswith("#")]


def clip(text, width=300):
    return text if len(text) <= width else f"{text[:width]}... ({len(text)} characters)"


def first_difference(expected, actual):
    """(label, expected value, actual value) at the first differing line, or None."""
    for k in range(max(len(expected), len(actual))):
        want = expected[k] if k < len(expected) else None
        got = actual[k] if k < len(actual) else None
        if want != got:
            label = (want if want is not None else got).partition("\t")[0]
            return label, *(line.partition("\t")[2] if line is not None else "<missing line>"
                             for line in (want, got))
    return None


def test_pinned_outputs_equal_the_fixture():
    done = subprocess.run([sys.executable, str(Path("tools") / "pinned_outputs.py")], cwd=ROOT,
                          capture_output=True, encoding="utf-8", check=False,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONIOENCODING": "utf-8"})
    assert done.returncode == 0, done.stderr
    fixture_header, expected = split(FIXTURE.read_text(encoding="utf-8"))
    run_header, actual = split(done.stdout)
    difference = first_difference(expected, actual)
    if difference is not None:
        label, want, got = difference
        raise AssertionError(
            f"first differing label: {label}\n"
            f"  expected: {clip(want)}\n"
            f"  actual:   {clip(got)}\n"
            f"fixture header: {' | '.join(fixture_header)}\n"
            f"run header:     {' | '.join(run_header)}\n"
            f"{len(expected)} fixture value lines, {len(actual)} run value lines; "
            f"if the change is meant, regenerate with: {REGENERATE}")
