import pathlib

import numpy as np
import pytest

from clonality.cli import read_mutations_file, read_probability_file
from clonality.inference import bound_tables
from clonality.model import MutationProfile
from clonality.simulation import _independent_pair_counts

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def table1():
    """(tumor -> markers, catalog) for the two-colon / two-lung case."""
    tumors = read_mutations_file(str(FIXTURES / "table1_mutations.tsv"))
    catalog = read_probability_file(str(FIXTURES / "table1_probs.tsv"))
    return tumors, catalog


@pytest.fixture(scope="session")
def table5():
    """(tumor -> markers, catalog) for the prostate primaries / metastases case."""
    tumors = read_mutations_file(str(FIXTURES / "table5_mutations.tsv"))
    catalog = read_probability_file(str(FIXTURES / "table5_probs.tsv"))
    return tumors, catalog


def profile(tumors, tumor_id):
    return MutationProfile(tumor_id, frozenset(tumors[tumor_id]))


def independent_pairs(gen, n, p, xi, size):
    """(matched, a_only, b_only) arrays of ``size`` independent-group pairs, drawn one by
    one on ``gen`` as the harness draws them."""
    return np.array([_independent_pair_counts(gen, n, p, xi) for _ in range(size)]).T


def table_sums(pg, sizes, patterns):
    """Each pattern's (21,) sums of its groups' bound-table columns, gathered group by group."""
    tables = bound_tables(pg, sizes)
    return sum(table[:, patterns[:, g].astype(int)] for g, table in enumerate(tables))
