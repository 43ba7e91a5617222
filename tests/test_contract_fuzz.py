"""The exit-code contract under mutation: a fixed seed and number of cases
from ``scripts/fuzz_contract.py``, each of which must end in exit 0, 1, 2 or
3 with nothing else escaping ``cli.main``. The script runs longer, with
other seeds, outside tier-1."""

from __future__ import annotations

import importlib.util
import itertools
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fuzz_contract.py"
SEED, CASES = 1, 300


def _fuzzer():
    spec = importlib.util.spec_from_file_location("fuzz_contract", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the script loads
    spec.loader.exec_module(module)
    return module


def test_every_mutated_input_and_blocked_output_ends_in_a_contract_exit(tmp_path):
    fuzz = _fuzzer()
    template = fuzz.build_template(tmp_path)
    cases = list(itertools.islice(fuzz.cases(SEED), CASES))
    # the fixed cases reach every input pair, every directory a command makes and every file made a directory
    pairs = set(fuzz.INPUT_PAIRS) | set(fuzz.OUTPUT_PAIRS) | set(fuzz.FILE_PAIRS)
    assert {(c.target, c.argv) for c in cases} >= pairs
    outcomes = [(case, fuzz.run_case(template, tmp_path / "case", case)) for case in cases]
    assert not fuzz.breaches(outcomes), "\n".join(f"{case}\n{out}" for case, out in fuzz.breaches(outcomes))
    assert {out for _, out in outcomes} == set(fuzz.CONTRACT)
