"""The standard-library tools under ``tools/`` that a test can run in well under a second."""

import difflib
import importlib.util
import io
import pathlib
import tarfile

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_equal_outputs_counts_differing_lines():
    tool = load("equal_outputs")
    diff = list(difflib.unified_diff(["a\n", "--b\n", "c\n"], ["a\n", "++B\n", "c\n", "d\n"], "x", "y"))
    assert tool.differing_lines(diff) == 3
    assert tool.differing_lines([]) == 0


def test_equal_outputs_refuses_a_bad_ref_or_usage(capsys):
    tool = load("equal_outputs")
    assert tool.main(["no/such/ref"]) == 2
    assert capsys.readouterr().err.startswith("error: git archive no/such/ref")
    assert tool.main([]) == 2 and tool.main(["a", "b"]) == 2
    assert "equal_outputs.py REF" in capsys.readouterr().err


def test_equal_outputs_extracts_without_the_tar_data_filter(tmp_path, monkeypatch):
    tool = load("equal_outputs")
    content, buffer = b"print()\n", io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w") as tar:
        member = tarfile.TarInfo("tools/pinned_outputs.py")
        member.size = len(content)
        tar.addfile(member, io.BytesIO(content))
    monkeypatch.delattr(tarfile, "data_filter", raising=False)
    tool.extract(buffer.getvalue(), tmp_path)
    assert (tmp_path / "tools" / "pinned_outputs.py").read_bytes() == content
