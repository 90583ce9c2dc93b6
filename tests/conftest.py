import os
from pathlib import Path

import numpy as np
import pytest

import hoplite
from hoplite.config import ENV_PREFIX
from hoplite.corpus import Corpus, Passage, QueryRecord
from hoplite.encoder import EncoderConfig, LexicalEncoder


@pytest.fixture()
def enc():
    return LexicalEncoder(EncoderConfig(dim=64, seed=3))


@pytest.fixture()
def tiny_corpus():
    # Six tiny passages; "rome" bridges p1 -> p2, "tiber" bridges p2 -> p3.
    passages = [
        Passage(
            pid="p1",
            title="ancient carthage",
            sentences=(
                "carthage fought three wars against rome",
                "its harbor held two hundred ships",
            ),
        ),
        Passage(
            pid="p2",
            title="rome",
            sentences=(
                "rome sits on the tiber river",
                "legions marched from the capital",
            ),
        ),
        Passage(
            pid="p3",
            title="tiber river",
            sentences=("the tiber flows into the tyrrhenian sea",),
        ),
        Passage(
            pid="d1",
            title="punic traders",
            sentences=("carthage traded silver tin and purple dye",),
        ),
        Passage(
            pid="d2",
            title="sicily",
            sentences=("sicily lies between carthage and the mainland",),
        ),
        Passage(
            pid="f1",
            title="weaving",
            sentences=("looms turn thread into cloth",),
        ),
    ]
    return Corpus(passages)


@pytest.fixture()
def tiny_query():
    return QueryRecord(
        qid="q1",
        text="carthage fought wars against rome",
        gold_pids=frozenset({"p1", "p2", "p3"}),
        gold_facts=frozenset({("p1", 0), ("p2", 0), ("p3", 0)}),
        answer="tyrrhenian",
        label=True,
        num_hops=3,
    )


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    m = rng.standard_normal((n, dim))
    return (m / np.linalg.norm(m, axis=1, keepdims=True)).astype(np.float32)


def subprocess_env() -> dict[str, str]:
    """A copy of ``os.environ`` for a child ``python -m hoplite.cli``.

    Inherited ``HOPLITE_*`` variables are dropped, so a config variable set in
    the calling shell cannot change what a test runs; a test that needs one
    passes it itself. The directory holding the imported ``hoplite`` package
    (``src`` in a checkout) goes first on ``PYTHONPATH`` as an absolute path,
    ahead of any existing entries, so the child runs the same package as the
    tests whatever its cwd and whether or not another copy is installed.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(ENV_PREFIX)}
    root = str(Path(hoplite.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


# one summary line per acceptance check, echoed after the test report
_acceptance_lines: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    return _acceptance_lines.append


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
