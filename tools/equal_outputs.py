"""Diff the pinned outputs of a git revision against those of the working tree.

    python3 tools/equal_outputs.py REF

Extracts ``git archive REF`` into a temporary directory, runs the working
tree's ``tools/pinned_outputs.py`` on that tree and on the working tree, and
prints a unified diff of the two outputs and the number of differing lines
(lines of REF's output missing from the working tree's plus lines added).
Each run gets its own process without bytecode files, and the temporary
directory is removed, so no file or process is left behind. Exit code 0 when
the outputs are equal, 1 when a line differs, 2 when the archive or either
run fails. Standard library only.
"""

import difflib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = Path("tools") / "pinned_outputs.py"


def pinned_outputs(tree: Path) -> list[str]:
    """Output lines of the working tree's equality script run on ``tree``."""
    done = subprocess.run([sys.executable, str(tree / SCRIPT)], capture_output=True, text=True,
                          check=False, cwd=tree, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if done.returncode != 0:
        raise RuntimeError(f"{tree / SCRIPT}: exit {done.returncode}: {done.stderr.strip()}")
    return done.stdout.splitlines(keepends=True)


def extract(archive: bytes, tree: Path) -> None:
    """Unpack a tar archive into ``tree``, by tarfile's ``data`` filter where this Python has it.

    The filter came in Python 3.12 and the 3.11.4 and 3.10.12 backports; the
    archive is the repository's own ``git archive``, so older Pythons unpack it
    unfiltered.
    """
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(tree, filter="data")
        else:
            tar.extractall(tree)


def differing_lines(diff: list[str]) -> int:
    """Removed plus added lines of a unified diff, its two file header lines not counted."""
    return sum(line[0] in "+-" for line in diff[2:])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    ref = argv[0]
    try:
        archive = subprocess.run(["git", "archive", "--format=tar", ref], capture_output=True,
                                 check=False, cwd=ROOT)
    except OSError as exc:
        print(f"error: git archive {ref}: {exc}", file=sys.stderr)
        return 2
    if archive.returncode != 0:
        print(f"error: git archive {ref}: {archive.stderr.decode(errors='replace').strip()}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="equal_outputs_") as tmp:
        tree = Path(tmp)
        extract(archive.stdout, tree)
        (tree / SCRIPT).parent.mkdir(exist_ok=True)
        (tree / SCRIPT).write_bytes((ROOT / SCRIPT).read_bytes())
        try:
            before, after = pinned_outputs(tree), pinned_outputs(ROOT)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    diff = list(difflib.unified_diff(before, after, fromfile=f"{ref}/{SCRIPT}",
                                     tofile=f"working tree/{SCRIPT}"))
    sys.stdout.writelines(diff)
    changed = differing_lines(diff)
    print(f"{changed} differing lines ({len(before)} lines at {ref}, {len(after)} in the working tree)")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
