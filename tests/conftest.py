"""Shared fixtures: paths, codebook, the synthetic corpus, config builders,
and the chat endpoint of ``chat.py``."""

from __future__ import annotations

from pathlib import Path

import pytest
import yaml
from chat import chat_endpoint

from themecoder.codebook import Codebook, load_codebook
from themecoder.corpus import load_posts

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def cb() -> Codebook:
    return load_codebook()


@pytest.fixture(scope="session")
def corpus50():
    return load_posts(FIXTURES / "posts_50.jsonl")


@pytest.fixture(scope="session")
def filter_oracle_ids() -> list[str]:
    return (FIXTURES / "filter_expected_ids.txt").read_text().split()


@pytest.fixture(scope="session")
def clean_oracle_ids() -> list[str]:
    return (FIXTURES / "clean_expected_ids.txt").read_text().split()


def make_vector(cb: Codebook, positives=()) -> dict[str, int]:
    """The ``{code: 0|1}`` mapping over ``cb.alphabet`` with ``positives`` set."""
    return {code: 1 if code in positives else 0 for code in cb.alphabet}


@pytest.fixture()
def chat_server(request):
    """The state of a ``chat.chat_endpoint``; parametrized with "tls", it serves https."""
    with chat_endpoint(tls=getattr(request, "param", None) == "tls") as state:
        yield state


def write_config(path: Path, **sections) -> Path:
    """Serialize config sections to a YAML file and return its path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(sections, sort_keys=True), encoding="utf-8")
    return path


def base_config(tmp_path: Path, corpus_path: Path, **extra) -> dict:
    """Config skeleton for a mock-rules run over the given corpus."""
    sections = {
        "run": {"dataset": "FIX", "output_dir": str(tmp_path / "run")},
        "corpus": {"path": str(corpus_path)},
        "gold": {"path": str(FIXTURES / "gold_clean.csv")},
        "backend": {"kind": "mock-rules", "model": "mock"},
    }
    for key, value in extra.items():
        if value is None:
            sections.pop(key, None)
        else:
            sections.setdefault(key, {}).update(value)
    return sections


@pytest.fixture()
def clean_corpus_path(tmp_path, corpus50) -> Path:
    """The filter+clean output as a corpus file, built once per test."""
    from themecoder.corpus import dedup_clean, keyword_filter, load_keywords, write_posts

    filtered = keyword_filter(corpus50, load_keywords(), "xylazine AND wound")
    cleaned = dedup_clean(filtered).corpus
    path = tmp_path / "clean.jsonl"
    write_posts(cleaned, path)
    return path
