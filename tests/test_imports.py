"""The package imports and runs without scipy or requests, importing it
loads no HTTP transport, and ingest and classify load neither numpy nor
statistics."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES, base_config, write_config

SRC = Path(__file__).resolve().parents[1] / "src"
CHILD_PATH = os.pathsep.join((str(SRC), str(Path(__file__).resolve().parent)))  # the package, and chat.py

# A None entry in sys.modules makes every later `import scipy` raise ImportError.
BLOCKED = """
import sys
sys.modules["scipy"] = None
import themecoder
from themecoder.cli import main
from themecoder.evaluation import MetricSet, avg_rank, wald_ci

tied = MetricSet(0.5, 0.5, 0.5, 0.5, "micro", 10)
assert avg_rank([("a", tied), ("b", tied)]).rank_of("a") == 1.5
assert wald_ci(0.5, 100, confidence=0.9).lower < 0.5
sys.exit(main(["rank", "--metrics-table", sys.argv[1], "--out", sys.argv[2]]))
"""


def test_package_runs_without_scipy(tmp_path):
    child = subprocess.run(
        [sys.executable, "-c", BLOCKED, str(FIXTURES / "ds1_reference_metrics.csv"), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert (tmp_path / "ranking.csv").is_file()


# A remote-chat classify of one prompt against a chat endpoint on 127.0.0.1.
NO_REQUESTS = """
import sys
sys.modules["requests"] = None
from contextlib import closing
from chat import chat_endpoint, chat_payload
from themecoder.backends import BackendConfig, classify_with_retry, make_backend
from themecoder.parsing import parse_single_answer
from themecoder.prompting import RenderedPrompt

prompt = RenderedPrompt(text="PROBE", template_version="v1", shots=0, target=("A",), post_id="p1")
with chat_endpoint() as chat:
    chat["answer"] = lambda request: (200, chat_payload("A=[1]"))
    cfg = BackendConfig(kind="remote-chat", model="m", credential_env="TC_TEST_KEY", endpoint=chat["endpoint"])
    with closing(make_backend(cfg)) as backend:
        outcome, _, _ = classify_with_retry(backend, prompt, lambda raw: parse_single_answer(raw, "A"))
assert outcome.vector == {"A": 1}, outcome
"""


def test_remote_backend_runs_without_requests():
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    child = subprocess.run(
        [sys.executable, "-c", NO_REQUESTS],
        env={**env, "PYTHONPATH": CHILD_PATH, "TC_TEST_KEY": "k"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr


def test_import_loads_no_http_transport():
    child = subprocess.run(
        [sys.executable, "-c", "import sys, themecoder; print(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    loaded = set(child.stdout.split())
    assert "themecoder" in loaded
    assert not loaded & {"urllib.request", "http.client", "ssl"}


# Ingest with sampling, then a classify with two drawn exemplars: both draws
# come from themecoder.draws, so numpy.random is never loaded.
NO_NUMPY_RANDOM = """
import sys
from themecoder.pipeline import cmd_classify, cmd_ingest, load_config

cfg = load_config(sys.argv[1])
assert cmd_ingest(cfg)["sampled"] == 5
assert len(cmd_classify(cfg)[0]) == 18
loaded = sorted(name for name in sys.modules if name.startswith("numpy.random"))
assert not loaded, loaded
"""


def test_ingest_and_classify_do_not_load_numpy_random(tmp_path, clean_corpus_path):
    sections = base_config(tmp_path, clean_corpus_path, corpus={"sample": {"n": 5}}, prompting={"shots": 2})
    cfg_path = write_config(tmp_path / "run.yaml", **sections)
    child = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RANDOM, str(cfg_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr


# Ingest with sampling, a mock-rules classify with two drawn exemplars and a
# remote-chat classify against a chat endpoint on 127.0.0.1 load neither numpy
# nor statistics; evaluate, distribute and rank then load them on first use.
NO_NUMPY = """
import sys
import yaml
import themecoder
from chat import chat_endpoint, chat_payload
from themecoder.cli import main

mock_cfg, rank_table, out = sys.argv[1:]
alphabet = themecoder.load_codebook().alphabet
reply = ", ".join(f"{code}={int(code == 'X')}" for code in alphabet)

with chat_endpoint() as chat:
    chat["answer"] = lambda request: (200, chat_payload(reply))
    with open(mock_cfg, encoding="utf-8") as f:
        sections = yaml.safe_load(f)
    sections["run"]["output_dir"] += "-remote"
    sections["backend"] = {
        "kind": "remote-chat", "model": "m", "credential_env": "TC_TEST_KEY", "in_flight_limit": 2,
        "endpoint": chat["endpoint"],
    }
    remote_cfg = mock_cfg.replace(".yaml", "-remote.yaml")
    with open(remote_cfg, "w", encoding="utf-8") as f:
        yaml.safe_dump(sections, f)

    for verb, cfg in (("ingest", mock_cfg), ("classify", mock_cfg), ("classify", remote_cfg)):
        assert main([verb, "--config", cfg]) == 0, verb
loaded = {"numpy", "statistics"} & set(sys.modules)
assert not loaded, loaded

assert main(["evaluate", "--config", mock_cfg]) == 0
assert main(["distribute", "--config", remote_cfg]) == 0
assert main(["rank", "--metrics-table", rank_table, "--out", out]) == 0
assert "numpy" in sys.modules
"""


def test_ingest_and_classify_load_neither_numpy_nor_statistics(tmp_path, clean_corpus_path):
    sections = base_config(tmp_path, clean_corpus_path, corpus={"sample": {"n": 5}}, prompting={"shots": 2})
    cfg_path, ranked = write_config(tmp_path / "run.yaml", **sections), tmp_path / "ranked"
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    child = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, str(cfg_path), str(FIXTURES / "ds1_reference_metrics.csv"), str(ranked)],
        env={**env, "PYTHONPATH": CHILD_PATH, "TC_TEST_KEY": "k"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert len(list((tmp_path / "run" / "reports").glob("*/report.json"))) == 1
    assert (tmp_path / "run-remote" / "reports" / "distribution.json").is_file()
    assert (ranked / "ranking.csv").is_file()
