import dataclasses
import pathlib

import pytest

from clonality import _blas, cli, simulation
from clonality.rng import RngStream

from conftest import FIXTURES

OPENBLAS = _blas._openblas()
needs_openblas = pytest.mark.skipif(OPENBLAS is None, reason="numpy has no bundled OpenBLAS")


@pytest.fixture
def two_threads():
    """OpenBLAS at two threads for the test, and at its old count afterwards."""
    get, set_ = OPENBLAS
    before = get()
    set_(2)
    try:
        yield get()
    finally:
        set_(before)


def count_inside(monkeypatch, module, name):
    """Record the BLAS thread count at each call of ``module.name``."""
    seen, inner = [], getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(OPENBLAS[0]())
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return seen


@needs_openblas
def test_one_thread_inside_and_old_count_after(two_threads):
    get = OPENBLAS[0]
    with _blas.one_blas_thread():
        assert get() == 1
    assert get() == two_threads
    with pytest.raises(RuntimeError):
        with _blas.one_blas_thread():
            assert get() == 1
            raise RuntimeError("body failed")
    assert get() == two_threads


@needs_openblas
def test_nested_blocks_restore_the_outer_count(two_threads):
    get = OPENBLAS[0]
    with _blas.one_blas_thread():
        with _blas.one_blas_thread():
            assert get() == 1
        assert get() == 1
    assert get() == two_threads


@needs_openblas
def test_without_openblas_the_block_does_nothing(two_threads, tmp_path, monkeypatch):
    fake = tmp_path / "libopenblas.so"
    fake.write_bytes(b"not a shared library")
    _blas._openblas.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(pathlib.Path, "glob", lambda self, pattern: iter([fake]))
            assert _blas._openblas() is None
            with _blas.one_blas_thread():
                assert OPENBLAS[0]() == two_threads
        assert OPENBLAS[0]() == two_threads
    finally:
        _blas._openblas.cache_clear()
    assert _blas._openblas() is not None


@needs_openblas
def test_cli_runs_on_one_thread_and_restores_the_count(two_threads, monkeypatch, capsys):
    seen = count_inside(monkeypatch, cli, "conditional_test")
    code = cli.main(["test", "--mutations", str(FIXTURES / "table1_mutations.tsv"),
                     "--probs", str(FIXTURES / "table1_probs.tsv"),
                     "--tumor-a", "T3", "--tumor-b", "Left/Mucinous"])
    assert code == 0 and capsys.readouterr().err == ""
    assert seen == [1]
    assert OPENBLAS[0]() == two_threads


@needs_openblas
def test_simulation_runners_run_on_one_thread(two_threads, monkeypatch):
    seen = count_inside(monkeypatch, simulation, "counts_test")
    spec = dataclasses.replace(simulation.preset_scenario("table2-m5", 0.25), replicates=3, sims=20)
    simulation.run_size_power(spec, RngStream(1))
    simulation.run_calibrated_comparison(spec, RngStream(1))
    assert seen and set(seen) == {1}
    assert OPENBLAS[0]() == two_threads
