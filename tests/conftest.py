import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread, as in CI, unless the caller set the variables: the
# pools read them once, when numpy loads, and pytest has not loaded it yet.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from util import make_pair_dataset, write_dataset  # noqa: E402

import kglp  # noqa: E402


@pytest.fixture(scope="session")
def toy_dataset_dir(tmp_path_factory):
    """Three-relation hand-enumerable KG used across data/text tests."""
    return write_dataset(
        tmp_path_factory.mktemp("toy"),
        {
            "train": [("A", "r0", "B"), ("A", "r0", "C"), ("B", "r1", "C")],
            "valid": [("C", "r0", "A")],
            "test": [("B", "r0", "A")],
        },
        entity_texts={"A": "axle assembly", "B": "bearing hub", "C": "chain coupler"},
        entity_longs={"A": "a rotating axle assembly part"},
        relation_texts={"r0": "connected to", "r1": "drives"},
    )


@pytest.fixture(scope="session")
def toy_kg(toy_dataset_dir):
    return kglp.load_dataset(toy_dataset_dir)


@pytest.fixture(scope="session")
def toy_aug(toy_kg):
    return kglp.augment_inverse(toy_kg)


@pytest.fixture(scope="session")
def toy_vocab(toy_aug):
    return kglp.build_vocab(toy_aug, min_freq=1)


@pytest.fixture(scope="session")
def pair_dataset_dir(tmp_path_factory):
    """Learnable synthetic dataset shared by the training-heavy tests."""
    return make_pair_dataset(tmp_path_factory.mktemp("pairs"), n_pairs=80, seed=2)


@pytest.fixture(scope="session")
def pair_kg(pair_dataset_dir):
    return kglp.augment_inverse(kglp.load_dataset(pair_dataset_dir))


@pytest.fixture(scope="session")
def pair_vocab(pair_kg):
    return kglp.build_vocab(pair_kg, min_freq=1)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
