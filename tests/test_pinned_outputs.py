"""Every output ``tools/pinned_outputs.py`` prints equals a committed fixture, bit for bit.

The script runs in its own process, so no monkeypatch of another test can
reach it. Some values follow the rounding of numpy's kernels, so there is one
fixture per set of numpy dispatch targets, named in its ``# numpy targets``
header line, and a run is compared with the fixture for its own targets. On
a host with AVX512 kernels the script also runs with them switched off
(``NPY_DISABLE_CPU_FEATURES``, which acts on that process only), at the same
time, so both kernel sets are pinned on every such run. Only the value lines
are compared; the ``#`` header names the Python, numpy, BLAS and targets the
values came from and is shown on a mismatch.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"


def split(text):
    """(header lines, value lines) of one output."""
    lines = text.splitlines()
    return [line for line in lines if line.startswith("#")], [line for line in lines if not line.startswith("#")]


def targets(header):
    """The numpy dispatch targets a header names, or None where it names none."""
    for line in header:
        if line.startswith("# numpy targets "):
            return line.removeprefix("# numpy targets ")
    return None


def host_targets():
    """The dispatch targets numpy enabled in this process, as the script's header names them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]


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


def start(disabled):
    """The script in its own process, with numpy's ``disabled`` CPU features off (None: as the host has them)."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONIOENCODING": "utf-8"}
    if disabled is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    return subprocess.Popen([sys.executable, str(Path("tools") / "pinned_outputs.py")], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, encoding="utf-8", env=env)


def test_pinned_outputs_equal_the_fixture():
    fixtures = {}
    for path in sorted(FIXTURES.glob("pinned_outputs*.txt")):
        fixtures[targets(split(path.read_text(encoding="utf-8"))[0])] = path
    settings = [None] + ([AVX512_OFF] if set(AVX512_OFF.split()) & set(host_targets()) else [])
    runs = [(disabled, start(disabled)) for disabled in settings]  # at the same time
    outputs = [(disabled, *run.communicate(), run.returncode) for disabled, run in runs]
    for disabled, stdout, stderr, returncode in outputs:
        assert returncode == 0, stderr
        run_header, actual = split(stdout)
        fixture = fixtures.get(targets(run_header))
        assert fixture is not None, (
            f"no fixture pins numpy dispatch targets {targets(run_header)!r} "
            f"(NPY_DISABLE_CPU_FEATURES={disabled!r}); fixtures pin {sorted(map(str, fixtures))}")
        fixture_header, expected = split(fixture.read_text(encoding="utf-8"))
        difference = first_difference(expected, actual)
        if difference is not None:
            label, want, got = difference
            raise AssertionError(
                f"{fixture.name}: first differing label: {label}\n"
                f"  expected: {clip(want)}\n"
                f"  actual:   {clip(got)}\n"
                f"fixture header: {' | '.join(fixture_header)}\n"
                f"run header:     {' | '.join(run_header)}\n"
                f"{len(expected)} fixture value lines, {len(actual)} run value lines; "
                f"if the change is meant, regenerate with: "
                f"{'' if disabled is None else f'NPY_DISABLE_CPU_FEATURES={disabled!r} '}"
                f"python3 tools/pinned_outputs.py > tests/fixtures/{fixture.name}")
