import os
import random
from pathlib import Path

import pytest

from riordanlab import Field

# The CLI tests run `python -m riordanlab.cli` in a child process; from a
# checkout the child finds the package through PYTHONPATH, as this process
# does through `pythonpath` in pyproject.toml.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def QQ():
    return Field()


@pytest.fixture
def F7():
    return Field(7)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
