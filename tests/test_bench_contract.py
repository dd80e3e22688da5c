"""What the scripts under ``bench/`` and ``tools/`` use of the package still exists.

The benchmark scripts and the tools, ``tools/pinned_outputs.py`` among
them, are not imported here (they set up paths and files at import); an
``ast`` walk finds every ``clonality`` name they import or dereference, and
every keyword they pass to a package function, and checks each against the
package as it is. So a change that deletes or renames a name a script uses
fails here, not in a later run of that script.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

from clonality import cli, simulation

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def _imported(tree):
    """``{local name: dotted path}`` of every ``clonality`` import in ``tree``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "clonality":
                    local = alias.asname or alias.name.split(".")[0]
                    names[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "clonality":
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _dotted(node):
    """``a.b.c`` of an attribute chain on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _resolve(path):
    """The object at dotted ``path``: the longest importable module, then attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            target = getattr(target, attr)
        return target
    raise ImportError(path)


def _uses(script):
    """``(dotted path, node)`` of every package name ``script`` imports or dereferences."""
    tree = ast.parse(script.read_text(encoding="utf-8"))
    imported = _imported(tree)
    uses = [(path, None) for path in imported.values()]
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, (ast.Attribute, ast.Name)) else None
        if chain and chain.split(".")[0] in imported:
            head, _, rest = chain.partition(".")
            uses.append((".".join(filter(None, [imported[head], rest])), node))
    return tree, uses


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_bench_names_resolve(script):
    _, uses = _uses(script)
    missing = []
    for path, _ in uses:
        try:
            _resolve(path)
        except (ImportError, AttributeError):
            missing.append(path)
    assert not missing, f"{script.name} uses names the package lacks: {sorted(set(missing))}"


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_bench_keywords_bind(script):
    tree, uses = _uses(script)
    callees = {id(node): path for path, node in uses if node is not None}
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and id(call.func) in callees:
            target = _resolve(callees[id(call.func)])
            keywords = {k.arg: None for k in call.keywords if k.arg}
            if callable(target) and keywords:
                inspect.signature(target).bind_partial(**keywords)


def test_runners_take_one_thread():
    for runner in (simulation.run_size_power, simulation.run_calibrated_comparison):
        inspect.signature(runner).bind_partial(None, None, threads=1)


def test_bench_command_lines_parse():
    parser = cli.build_parser()
    pairs = parser.parse_args(["pairs", "--mutations", "m.tsv", "--probs", "p.tsv", "--sims", "200",
                               "--seed", "1", "--threads", "2"])
    assert (pairs.func, pairs.threads) == (cli._cmd_pairs, 2)
    sim = parser.parse_args(["simulate", "--preset", "table2-m10", "--xi", "0.25", "--replicates", "4",
                             "--sims", "50", "--seed", "1", "--threads", "1"])
    assert (sim.func, sim.threads) == (cli._cmd_simulate, 1)
