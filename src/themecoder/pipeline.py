"""Run orchestration: config files, manifests, result stores, commands.

A run lives in one output directory owned by one process at a time:
``manifest.json`` (write-once), ``ledger.jsonl`` (append-only run
events), ``results*.jsonl`` (append-only classification records),
``cache*.jsonl`` (response cache), ``audit.jsonl`` (backend log), and
``reports/`` (evaluation output). Stores and reports contain no
timestamps or latencies, so a rerun of the same manifest against a
deterministic backend reproduces them byte for byte.
"""

from __future__ import annotations

import csv
import json
import operator
import os
import socket
import sys
import threading
from collections import Counter
from contextlib import ExitStack, closing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from datetime import date, datetime, timezone
from functools import partial
from hashlib import sha256
from pathlib import Path, PurePath
from types import NoneType
from typing import Iterator, Mapping, Sequence, get_args, get_origin, get_type_hints

from .backends import (
    AuditLog,
    BackendConfig,
    ResponseCache,
    RetryPolicy,
    classify_with_retry,
    frame_fingerprints,
    make_backend,
)
from .codebook import Codebook, LabelMatrix, load_codebook, load_gold, tuple_getter
from .corpus import (
    SamplingSpec,
    dedup_clean,
    keyword_filter,
    load_keywords,
    load_post_ids,
    load_posts,
    parse_timestamp,
    sample_random,
    temporal_split,
    write_posts,
)
from .errors import BackendError, ConfigError, DataError, ThemecoderError
from .evaluation import (
    FAILURE_POLICIES,
    METRIC_NAMES,
    MetricSet,
    ModelRanking,
    avg_rank,
    evaluate_predictions,
    run_stats,
    theme_distribution,
)
from .jsonl import JsonLines, input_lines, read_yaml, write_json, write_table
from .parsing import PARSE_MODES, assemble_per_theme, parse_single_answer, parse_single_line
from .prompting import (
    DEFAULT_EXEMPLAR_BUDGET,
    DEFAULT_TEMPLATE_VERSION,
    ShotPolicy,
    load_template,
    prompt_renderer,
    render_prompt,  # noqa: F401  unused here; perfbench/spans.py wraps pipeline.render_prompt
)

try:
    from importlib.metadata import PackageNotFoundError, version

    TOOL_VERSION = version("themecoder")
except PackageNotFoundError:  # running from a source tree
    TOOL_VERSION = "0.0.0-dev"


def _sha256_file(path: Path) -> str:
    digest = sha256()
    with path.open("rb") as fh:
        for block in iter(partial(fh.read, 1 << 16), b""):  # a 1 MiB block raised classify's peak RSS by 0.7 MB
            digest.update(block)
    return digest.hexdigest()


def _sha256_text(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# --- configuration ------------------------------------------------------------

SEED_FIELDS = ("sample_seed", "exemplar_seed", "bootstrap_seed")  # the seeds an override may replace


def _key(key: str, default=MISSING, **checks):
    """A RunConfig field read from config ``key``, required unless it has a ``default``
    or is ``derived``; ``checks`` may give ``allowed`` (with ``noun``), ``exists``, ``directory``,
    and ``minimum`` and ``maximum``, each a (bound, message) pair checked once every field
    is set, only while the field named by ``when`` (if any) is set."""
    return field(default=default, metadata={"key": key, **checks})


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """One run's full configuration with every seed made explicit. Each field
    of ``backend`` and ``retry`` is read from its name in that section."""

    label: str = _key("run.label", derived=True)
    dataset: str = _key("run.dataset", derived=True)
    output_dir: Path = _key("run.output_dir", directory="output directory")
    repeats: int = _key("run.repeats", derived=True, minimum=(1, "run.repeats must be >= 1, got {}"))
    corpus_path: Path = _key("corpus.path", exists="corpus path")
    corpus_format: str = _key("corpus.format", "post-lines")
    keywords_path: Path | None = _key("corpus.keywords", None, exists="keyword set path")
    filter_rule: str | None = _key("corpus.rule", None)
    split_at: str | None = _key("corpus.split_at", None)
    sample_n: int | None = _key("corpus.sample.n", None, minimum=(1, "sampling target_n must be >= 1, got {}"))
    sample_seed: int = _key("corpus.sample.seed", 0, minimum=(0, "sample seed must be >= 0, got {}"))
    sample_from: str = _key("corpus.sample.from", "pre", allowed=("pre", "post"))
    codebook_path: Path | None = _key("codebook.path", None, exists="codebook path")
    gold_path: Path | None = _key("gold.path", None, exists="gold path")
    template_version: str = _key("prompting.template_version", DEFAULT_TEMPLATE_VERSION)
    template_path: Path | None = _key("prompting.template_path", None, exists="template path")
    shots: int = _key("prompting.shots", 0)
    selection: tuple[int, ...] | None = _key("prompting.selection", None)
    exemplar_seed: int = _key("prompting.exemplar_seed", 0, minimum=(0, "exemplar seed must be >= 0, got {}"))
    include_title: bool = _key("prompting.include_title", False)
    exemplar_budget: int = _key(
        "prompting.exemplar_budget", DEFAULT_EXEMPLAR_BUDGET,
        minimum=(0, "prompting.exemplar_budget must be >= 0, got {}"),
    )
    parse_mode: str = _key("parsing.mode", "lenient", allowed=PARSE_MODES, noun="parsing mode")
    backend: BackendConfig = _key("backend")
    retry: RetryPolicy = _key("retry")
    failure_policy: str = _key(
        "evaluation.failure_policy", "exclude-and-report", allowed=FAILURE_POLICIES, noun="failure_policy"
    )
    bootstrap_resamples: int = _key(
        "evaluation.bootstrap_resamples", 2000,
        minimum=(100, "bootstrap requires >= 100 resamples, got {}"),
        maximum=(1_000_000, "bootstrap allows <= 1000000 resamples, got {}"), when="bootstrap_metrics",
    )
    bootstrap_seed: int = _key("evaluation.bootstrap_seed", 0, minimum=(0, "bootstrap seed must be >= 0, got {}"))
    bootstrap_metrics: tuple[str, ...] = _key(
        "evaluation.bootstrap_metrics", (), allowed=METRIC_NAMES, noun="bootstrap metric"
    )

    def to_dict(self) -> dict:
        """JSON-safe mirror, frozen into the manifest."""
        return json.loads(json.dumps(asdict(self), default=str))


def _leaves(cls, section: str = "", names: tuple[str, ...] = ()) -> Iterator[tuple[str, tuple[str, ...], object, object]]:
    """Each field of ``cls`` and its nested config classes: config key, ``to_dict``
    path, type, and JSON default or MISSING."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        key, path = f.metadata.get("key", f"{section}.{f.name}"), (*names, f.name)
        if is_dataclass(hints[f.name]):
            yield from _leaves(hints[f.name], key, path)
        else:
            default = f.default if f.default is MISSING else json.loads(json.dumps(f.default, default=str))
            yield key, path, hints[f.name], default


# A config key taken out of RunConfig: its path in an old manifest's config, its
# type, what replaced it, and per value it may hold, the config keys it reads as.
RETIRED = {
    "evaluation.aggregation": (("aggregation",), str, "every report is micro", {"micro": {}}),
    "retry.reask_on_parse_failure": (
        ("retry", "reask_on_parse_failure"), bool,
        "retry.max_attempts replaces it, and false reads as retry.max_attempts: 1",
        {True: {}, False: {"retry.max_attempts": 1}},
    ),
}

_LEAVES = tuple(_leaves(RunConfig))
# every dotted config key, and every section that holds one
_KEYS = frozenset(key for key, *_ in _LEAVES)
_SECTIONS = frozenset(key.rsplit(".", 1)[0] for key in _KEYS)
# the config key at each path of a manifest's config, retired ones included
_PATHS = {path: key for key, path, *_ in _LEAVES} | {path: key for key, (path, *_) in RETIRED.items()}


def _retire(flat: dict) -> list[str]:
    """Read each retired key in ``flat``, checked as before, as what replaced it; one warning per key."""
    warnings = []
    for key, (_, kind, note, replaced) in RETIRED.items():
        if key in flat:
            flat.update(replaced[_checked(key, kind, flat.pop(key), {"allowed": tuple(replaced)})])
            warnings.append(f"warning: {key} is retired: {note}")
    return warnings


def _flatten(body, section: str, flat: dict) -> None:
    """Add the values under config ``section`` to ``flat`` by dotted key,
    after checking that the section is a mapping of known keys."""
    if not isinstance(body, dict):
        raise ConfigError(f"config section {section!r} must be a mapping")
    unknown = sorted(str(name) for name in body if f"{section}.{name}" not in _KEYS | RETIRED.keys() | _SECTIONS)
    if unknown:
        raise ConfigError(f"config section {section!r} has unknown key(s): {', '.join(unknown)}")
    for name, value in body.items():
        key = f"{section}.{name}"
        if key in _SECTIONS:
            _flatten(value or {}, key, flat)
        else:
            flat[key] = value


def _is(value, kind) -> bool:
    """The one type rule for config values: an int field takes no bool, a
    float field also takes an int, and a path is given as a string."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, {float: (int, float), Path: str}.get(kind, kind))


def _checked(key: str, kind, value, checks: Mapping):
    """The value of config ``key`` for a field of type ``kind``, checked. A null
    leaves an optional field unset, as does "" for an optional path or string."""
    if NoneType in get_args(kind):
        kind = next(k for k in get_args(kind) if k is not NoneType)
        if value is None or (value == "" and kind in (str, Path)):
            return None
    many = get_origin(kind) is tuple  # tuple[X, ...], given as a list
    item = get_args(kind)[0] if many else kind
    items = value if many else [value]
    if many and not isinstance(value, list) or not all(_is(v, item) for v in items):
        raise TypeError(f"{key} must be {'a list of ' * many}{item.__name__}, got {value!r}")
    allowed = checks.get("allowed")
    for v in items:
        if item is float and isinstance(v, int) and abs(v) > sys.float_info.max:
            raise ConfigError(f"{key} must fit in a float, got an integer of {len(str(abs(v)))} digits")
        if allowed is not None and v not in allowed:
            if "noun" in checks:
                raise ConfigError(f"unknown {checks['noun']} {v!r}; known: {', '.join(allowed)}")
            raise ConfigError(f"{key} must be {' or '.join(map(repr, allowed))}, got {v!r}")
    if kind is Path:
        value = Path(value)
        if "exists" in checks:
            _require_file(value, checks["exists"])
        if "directory" in checks:
            _require_directory(value, checks["directory"])
    return tuple(value) if many else value


def _require_file(path: Path, noun: str) -> None:
    """Raise unless ``path`` names a regular file (an empty path reads as ".", a directory)."""
    if not path.exists():
        raise ConfigError(f"{noun} does not exist: {path}")
    if not path.is_file():
        raise ConfigError(f"{noun} is not a file: {path}")


def _require_directory(path: Path, noun: str) -> None:
    """Raise unless ``path`` is a directory or can be made one: the first of
    ``path`` and its parents that exists must be a directory."""
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"{noun} {path}: {existing} is not a directory")


def _read(cls, flat: Mapping, section: str = "") -> dict:
    """Keyword arguments for ``cls`` from the flattened config; a derived
    field is left out when its key is absent."""
    hints, values = get_type_hints(cls), {}
    for f in fields(cls):
        key, kind = f.metadata.get("key", f"{section}.{f.name}"), hints[f.name]
        if is_dataclass(kind):
            values[f.name] = kind(**_read(kind, flat, key))
        elif key in flat:
            values[f.name] = _checked(key, kind, flat[key], f.metadata)
        elif f.default is not MISSING:
            values[f.name] = f.default
        elif not f.metadata.get("derived"):
            raise ConfigError(f"config requires {key}")
    return values


def load_config(
    path: str | Path,
    *,
    overrides: Mapping[str, int] | None = None,
    offline: bool = False,
) -> RunConfig:
    """Load and validate a run config file.

    Every seed is defaulted here, never downstream, so the manifest's
    frozen config always shows the exact values used. ``overrides`` may
    replace the seeds named in ``SEED_FIELDS``; ``offline`` forbids remote
    backend kinds.
    """
    p = Path(path)
    raw = read_yaml(p, "config file", ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {p} must contain a mapping")
    unknown = sorted(str(name) for name in raw.keys() - {key.split(".")[0] for key in _KEYS})
    if unknown:
        raise ConfigError(f"config file {p} has unknown section(s): {', '.join(unknown)}")
    flat: dict = {}
    for name, body in raw.items():
        _flatten(body or {}, name, flat)
    if isinstance(flat.get("corpus.split_at"), date):  # an unquoted YAML timestamp
        flat["corpus.split_at"] = str(flat["corpus.split_at"])
    try:
        for warning in _retire(flat):
            print(warning, file=sys.stderr)
        return _run_config(flat, overrides or {}, offline)
    except (TypeError, ValueError) as exc:  # a value of the wrong type for its field
        raise ConfigError(f"config file {p} has a value of the wrong type: {exc}") from None


def _run_config(flat: Mapping, overrides: Mapping[str, int], offline: bool) -> RunConfig:
    values = _read(RunConfig, flat)
    if values["split_at"] is not None:
        try:
            parse_timestamp(values["split_at"])
        except (ThemecoderError, ValueError) as exc:
            raise ConfigError(f"corpus.split_at is not a timestamp: {exc}") from exc

    backend = values["backend"]
    if offline and backend.kind == "remote-chat":
        raise ConfigError("remote backends are forbidden in offline mode")
    if backend.kind == "replay":
        _require_file(Path(backend.replay_path), "replay script path")

    unknown = sorted(set(overrides) - set(SEED_FIELDS))
    if unknown:
        raise ConfigError(f"unknown seed override(s): {', '.join(unknown)}")
    values.update((name, int(seed)) for name, seed in overrides.items())

    values.setdefault("dataset", values["corpus_path"].stem)
    values.setdefault("label", f"{values['dataset']}_{values['shots']}shot_{backend.model or backend.kind}")
    if not _is_label(values["label"]):
        raise ConfigError(f"run.label {values['label']!r} {_LABEL_RULE}")
    # repeat runs only make sense against a nondeterministic backend
    values.setdefault("repeats", 1 if (backend.temperature == 0 or backend.kind != "remote-chat") else 3)
    for f in fields(RunConfig):
        value, when = values[f.name], f.metadata.get("when")
        if value is None or (when is not None and not values[when]):
            continue
        for check, outside in (("minimum", operator.lt), ("maximum", operator.gt)):
            if check in f.metadata and outside(value, f.metadata[check][0]):
                raise ConfigError(f.metadata[check][1].format(value))
    return RunConfig(**values)


# --- manifest, ledger, store, lock --------------------------------------------


def build_manifest(cfg: RunConfig, scaffold: str) -> dict:
    """Frozen config plus content hashes of every input."""
    hashes = {
        "corpus": _sha256_file(cfg.corpus_path),
        "codebook": _sha256_file(cfg.codebook_path) if cfg.codebook_path else None,
        "gold": _sha256_file(cfg.gold_path) if cfg.gold_path else None,
        "keywords": _sha256_file(cfg.keywords_path) if cfg.keywords_path else None,
        "template_scaffold": _sha256_text(scaffold),
    }
    return {
        "config": cfg.to_dict(),
        "hashes": hashes,
        "tool_version": TOOL_VERSION,
        "started_at": _utcnow(),
    }


def _frozen(config, names: tuple[str, ...] = ()) -> dict:
    """A manifest's frozen config by dotted config key, each section checked to be an object of known keys."""
    if not isinstance(config, dict):
        raise ConfigError(f"config key {'.'.join(names)} is not an object" if names else "config is not an object")
    flat: dict = {}
    for name, value in config.items():
        path = (*names, name)
        if path in _PATHS:
            flat[_PATHS[path]] = value
        elif any(known[: len(path)] == path for known in _PATHS):
            flat.update(_frozen(value, path))
        else:
            raise ConfigError(f"config key {'.'.join(path)} is unknown")
    return flat


def _check_resume(existing: dict, manifest: dict) -> None:
    """Refuse to resume unless the ``existing`` manifest froze what ``manifest`` does: a key
    the old config lacks reads as its default, a retired key as what replaced it, and each
    old value must pass the type rule a config file's value does."""
    try:
        old = _frozen(existing.get("config"))
        _retire(old)
        for key, _, kind, _ in _LEAVES:
            if key in old:
                _checked(key, kind, old[key], {})
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"resume refused: the original manifest's {exc}") from None
    new = _frozen(manifest["config"])
    for key, _, _, default in _LEAVES:
        if old.get(key, default) != new[key]:
            raise ConfigError(f"resume refused: config key {key} differs from the original manifest")
    hashes = existing.get("hashes")
    if hashes != manifest["hashes"]:
        changed = [n for n, sha in manifest["hashes"].items() if isinstance(hashes, dict) and hashes.get(n) != sha]
        raise ConfigError(f"resume refused: input {(changed or ['hashes'])[0]} differs from the original manifest")


class RunLedger(JsonLines):
    """Append-only JSON-lines event log; the one mutable run artifact."""

    def append(self, event: dict) -> None:
        event = dict(event)
        event.setdefault("ts", _utcnow())
        self.write(event)

    def events(self) -> list[dict]:
        return list(self.read())


_LABEL_RULE = "must be a relative path under reports/: not empty, no NUL, no '..' part"
_INT_TYPE = frozenset((int,))  # bool is a subclass of int but not int itself
_BITS = frozenset((0, 1))


def _is_label(label: str) -> bool:
    """Whether ``label`` names a directory strictly inside ``reports/``."""
    if "\0" in label:
        return False
    path = PurePath(label)
    return not path.is_absolute() and bool(path.parts) and ".." not in path.parts


def _add_key(path: Path, ids: dict[str, set[str]], rec: dict) -> None:
    """Add the record's (post, label) key to ``ids``, refusing a second one."""
    post_id, label = rec["post_id"], rec["label"]
    seen = ids.setdefault(label, set())
    if post_id in seen:
        raise DataError(f"results store {path} has two records for post {post_id!r} under label {label!r}")
    seen.add(post_id)


def _checked_records(source: JsonLines, ids: dict[str, set[str]]) -> Iterator[dict]:
    """Every record of a results file in file order, each checked and its key
    added to ``ids``: the one loop behind the store's load and ``read_results``."""
    for lineno, rec in source.read_numbered():
        if not (isinstance(rec.get("post_id"), str) and isinstance(rec.get("label"), str)):
            problem = "needs a string post_id and label"
        elif rec["label"] not in ids and not _is_label(rec["label"]):  # a label in ids has passed
            problem = f"label {rec['label']!r} {_LABEL_RULE}"
        elif rec.get("status") not in ("classified", "failed"):
            problem = "needs status classified or failed"
        elif rec["status"] == "classified" and not (  # labels are the JSON integers 0 and 1, not true or 1.0
            isinstance(vector := rec.get("vector"), dict)
            and _INT_TYPE.issuperset(map(type, vector.values()))
            and _BITS.issuperset(vector.values())
        ):
            problem = "is classified without a 0/1 vector"
        else:
            _add_key(source.path, ids, rec)
            yield rec
            continue
        raise DataError(f"{source.path} line {lineno}: record {problem}")


def read_results(path: str | Path, alphabet: Sequence[str]) -> dict[str, tuple[LabelMatrix, tuple[str, ...]]]:
    """Read a results file once: per label, in label order, its classified
    posts as a label matrix over ``alphabet`` and its sorted failed ids."""
    source, codes = JsonLines(path), tuple(alphabet)
    cells = tuple_getter(codes)
    if not source.path.exists():
        raise DataError(f"results store not found: {source.path}")
    parts: dict[str, tuple[list[str], bytearray, list[str]]] = {}  # label -> classified ids, rows, failed ids
    for rec in _checked_records(source, {}):
        ids, rows, failed = parts.setdefault(rec["label"], ([], bytearray(), []))
        if rec["status"] == "failed":
            failed.append(rec["post_id"])
            continue
        try:
            rows.extend(map(int, cells(rec["vector"])))
        except KeyError as exc:
            raise DataError(
                f"{source.path}: record for post {rec['post_id']!r} under label {rec['label']!r} "
                f"has no value for code {exc.args[0]}"
            ) from None
        ids.append(rec["post_id"])
    return {
        label: (LabelMatrix.from_rows(ids, rows, codes), tuple(sorted(failed)))
        for label, (ids, rows, failed) in sorted(parts.items())
    }


class ResultsStore(JsonLines):
    """Append-only classification records, one line per (post, label), as
    classify writes them.

    Records carry no timestamps, latencies, or cache flags, so two runs of
    the same manifest against a deterministic backend produce identical
    bytes. Memory holds only what resume needs: the (post, label) keys and
    each label's status counts. ``read_results`` reads a results file for
    evaluation.
    """

    def __init__(self, path: str | Path) -> None:
        super().__init__(path)
        self._ids: dict[str, set[str]] = {}  # label -> post ids recorded under it
        self._counts: Counter[tuple[str, str]] = Counter()  # (label, status) -> records
        for rec in _checked_records(self, self._ids):
            self._counts[rec["label"], rec["status"]] += 1

    def __len__(self) -> int:
        return sum(map(len, self._ids.values()))

    def __contains__(self, key: tuple[str, str]) -> bool:
        post_id, label = key
        return post_id in self._ids.get(label, ())

    def status_counts(self, label: str) -> dict[str, int]:
        """Records under ``label`` per status, classified and failed."""
        return {status: self._counts[label, status] for status in ("classified", "failed")}

    def append(self, rec: dict) -> None:
        with self._lock:
            _add_key(self.path, self._ids, rec)
            self._counts[rec["label"], rec["status"]] += 1
            self.write(rec)

    @property
    def records(self) -> list[dict]:
        """Every record in file order, read from the file."""
        return list(self.read())


class RunLock:
    """One process per run directory, enforced with an exclusive lock file.

    The file names the holder's pid and host. A lock left by a dead process
    on this host is replaced; one from a live process, another host, or
    without a pid is never broken.
    """

    def __init__(self, run_dir: Path) -> None:
        self.path = Path(run_dir) / ".lock"

    def __enter__(self) -> "RunLock":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        holder = {"pid": os.getpid(), "host": socket.gethostname(), "started_at": _utcnow()}
        for _ in range(2):  # a second try only after breaking a stale lock
            try:
                with self.path.open("x", encoding="utf-8") as fh:
                    fh.write(json.dumps(holder, sort_keys=True) + "\n")
                return self
            except FileExistsError:
                pid, host = self._holder()
                if not (host == holder["host"] and pid is not None and not _pid_alive(pid)):
                    break
                self.path.unlink(missing_ok=True)
        who = f"pid {pid} on host {host}" if pid is not None else "no pid recorded"
        raise ConfigError(f"run directory is locked by another process ({who}); remove {self.path} if stale")

    def _holder(self) -> tuple[int | None, str | None]:
        """The pid and host named by the lock file, or None for each that it lacks."""
        try:
            rec = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None, None
        if not isinstance(rec, dict):
            return None, None
        pid, host = rec.get("pid"), rec.get("host")
        return (pid if type(pid) is int and pid > 0 else None), (host if isinstance(host, str) else None)

    def __exit__(self, *exc) -> None:
        self.path.unlink(missing_ok=True)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by another user
        pass
    return True


# --- commands -----------------------------------------------------------------


def _stage(name: str, fn, *args, **kwargs):
    """Run one ingest stage, prefixing errors with the stage name."""
    try:
        return fn(*args, **kwargs)
    except ThemecoderError as exc:
        raise type(exc)(f"stage {name}: {exc}") from exc


def cmd_ingest(cfg: RunConfig) -> dict:
    """Load, filter, clean, optionally split and sample; write each stage.

    Returns the stage-count summary and prints it as one line.
    """
    out_dir = cfg.output_dir / "corpora"
    _require_directory(out_dir, "corpus output directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    summary: dict = {"loaded": 0}
    outputs: dict[str, str] = {}

    def write_stage(stage: str, stage_corpus, file_name: str) -> None:
        summary[stage] = len(stage_corpus)
        outputs[stage] = file_name
        write_posts(stage_corpus, out_dir / file_name)

    corpus = _stage("load", load_posts, cfg.corpus_path, cfg.corpus_format)
    summary["loaded"] = len(corpus)

    if cfg.filter_rule:
        keywords = _stage("keywords", load_keywords, cfg.keywords_path)
        corpus = _stage("keyword_filter", keyword_filter, corpus, keywords, cfg.filter_rule)
        write_stage("filtered", corpus, f"{corpus.name}_filtered.jsonl")

    clean = _stage("dedup_clean", dedup_clean, corpus)
    corpus = clean.corpus
    write_stage("cleaned", corpus, f"{corpus.name}_clean.jsonl")
    summary["removed"] = dict(clean.removed)

    if cfg.split_at is not None:
        pre, post = _stage("temporal_split", temporal_split, corpus, parse_timestamp(cfg.split_at))
        write_stage("split_pre", pre, f"{pre.name}.jsonl")
        write_stage("split_post", post, f"{post.name}.jsonl")
        corpus = pre if cfg.sample_from == "pre" else post

    if cfg.sample_n is not None:
        spec = SamplingSpec(target_n=cfg.sample_n, seed=cfg.sample_seed)
        corpus = _stage("sample_random", sample_random, corpus, spec)
        write_stage("sampled", corpus, f"{corpus.name}_sampled.jsonl")

    summary["outputs"] = outputs
    write_json(cfg.output_dir / "ingest_summary.json", summary)
    parts = [f"{k}={summary[k]}" for k in ("loaded", "filtered", "cleaned", "sampled") if k in summary]
    print(", ".join(parts))
    return summary


def _prompt_classifier(cfg: RunConfig, cb: Codebook, frames, backend, cache):
    """Return ``classify(prompts)``: for each of one post's prompts, one per
    frame, ``classify_with_retry``'s ``(outcome, failures, attempts)`` with the
    frame's fingerprint appended. A frame that assigns one code is parsed as one
    answer ("A=[1]"), one that assigns several as one line. Each frame's
    fingerprint state and parser are built here, once per run, not per post."""
    fingerprints = frame_fingerprints(backend.cfg, cfg.template_version, [text for _, text in frames])
    line = partial(parse_single_line, cb=cb, mode=cfg.parse_mode)
    parsers = [partial(parse_single_answer, code=t[0], mode=cfg.parse_mode) if len(t) == 1 else line for t, _ in frames]

    def classify(prompts) -> list:
        return [
            (*classify_with_retry(backend, rp, parser, cache=cache, fingerprint=fp), fp)
            for rp, parser, fp in zip(prompts, parsers, fingerprints(prompts[0].post_text))
        ]

    return classify


def _classify_one(post, cb: Codebook, render, classify, cfg: RunConfig) -> dict:
    """Render and classify one post; returns its store record. A single
    frame's answer is the post's; several frames' answers merge code by code."""
    prompts = render(post)
    answers = classify(prompts)
    if len(answers) == 1:
        (outcome, failures, attempts, fingerprint), = answers
    else:
        frames, _, counts, fingerprints = zip(*answers)
        outcome = assemble_per_theme({code: frame for rp, frame in zip(prompts, frames) for code in rp.target}, cb)
        failures = [outcome.failure]
        attempts = sum(counts)
        fingerprint = _sha256_text("\n".join(fingerprints))

    rec: dict = {"post_id": post.id, "label": cfg.label}
    if outcome.ok:
        rec.update(status="classified", vector=outcome.vector)
    else:
        rec.update(status="failed", failures=[{"reason": f.reason, "detail": f.detail} for f in failures])
    rec.update(
        attempts=attempts, template_version=cfg.template_version, backend_kind=cfg.backend.kind, fingerprint=fingerprint
    )
    return rec


def _commit_in_order(posts: Sequence, classify_one, commit, backend, limit: int) -> None:
    """Classify every post and ``commit`` each record in corpus order.

    Local backends run on the calling thread. Otherwise ``limit`` threads take
    posts while under ``2 * limit`` are uncommitted; whoever finishes the head
    post commits it and the finished ones behind it. An exception at the head,
    a post's or ``commit``'s, stops the taking; it is raised once all are idle.
    """
    if not backend.waits_on_io:
        for post in posts:
            commit(classify_one(post))
        return
    lock = threading.Lock()
    cond, quiet = threading.Condition(lock), threading.Condition(lock)  # a post taken or committed; a worker idle
    done: dict[int, object] = {}  # position -> its record, or the exception its post raised
    taken = committed = idle = 0
    failure: BaseException | None = None  # once set, nothing more is taken or committed

    def work() -> None:
        nonlocal taken, committed, idle, failure
        while True:
            with cond:
                cond.wait_for(lambda: failure is not None or taken - committed < 2 * limit)
                if failure is not None or taken == len(posts):
                    idle += 1
                    return quiet.notify()
                i, taken = taken, taken + 1
            try:
                result = classify_one(posts[i])
            except BaseException as exc:
                result = exc
            with cond:
                done[i] = result
                while failure is None and committed in done:
                    try:
                        result = done.pop(committed)
                        if isinstance(result, BaseException):
                            raise result
                        commit(result)
                        committed += 1
                    except BaseException as exc:
                        failure = exc
                    cond.notify_all()

    threads = [threading.Thread(target=work) for _ in range(min(limit, len(posts)))]
    for thread in threads:
        thread.start()
    with lock:  # not in join: an interrupted join can mark a thread that still runs as ended
        try:
            quiet.wait_for(lambda: idle == len(threads))
        except BaseException as exc:  # an interrupt stops the workers and is raised once they are idle
            failure = exc
            cond.notify_all()
            quiet.wait_for(lambda: idle == len(threads))
    for thread in threads:
        thread.join()
    if failure is not None:
        raise failure


def cmd_classify(cfg: RunConfig, *, resume: bool = False) -> list[ResultsStore]:
    """Classify every corpus post against the configured backend.

    ``mock-rules`` and ``replay`` run on the calling thread, so their cache and
    audit lines follow corpus order too. ``remote-chat`` runs on
    ``in_flight_limit`` threads that commit what they finish in corpus order,
    as ``_commit_in_order`` says. With resume, posts already recorded are
    skipped and the manifest must match the original.
    """
    run_dir = cfg.output_dir
    run_dir.mkdir(parents=True, exist_ok=True)
    corpus = load_posts(cfg.corpus_path, cfg.corpus_format)
    cb = load_codebook(cfg.codebook_path)
    tpl = load_template(cfg.template_version, cfg.template_path)
    render = prompt_renderer(  # a bad shot policy fails here, before any run file exists
        cb,
        tpl,
        ShotPolicy(shots=cfg.shots, selection=cfg.selection),
        seed=cfg.exemplar_seed,
        include_title=cfg.include_title,
        exemplar_budget=cfg.exemplar_budget,
    )
    backend = make_backend(cfg.backend, retry=cfg.retry)  # so does a bad replay script
    manifest = build_manifest(cfg, tpl.scaffold)

    with RunLock(run_dir), ExitStack() as run_files:  # files and connections close after the workers are joined
        run_files.enter_context(closing(backend))
        manifest_path = run_dir / "manifest.json"
        if manifest_path.exists():
            try:
                existing = json.loads(manifest_path.read_text(encoding="utf-8"))
            except ValueError as exc:
                raise DataError(f"{manifest_path} is not valid JSON: {exc}") from None
            if not isinstance(existing, dict):
                raise DataError(f"{manifest_path} is not a JSON object")
            if not resume:
                raise ConfigError(
                    f"{manifest_path} already exists; pass resume to continue that run"
                )
            _check_resume(existing, manifest)
        else:
            write_json(manifest_path, manifest)

        ledger = run_files.enter_context(closing(RunLedger(run_dir / "ledger.jsonl")))
        ledger.events()  # finds a torn last line, cut off before the next event
        audit = backend.audit = run_files.enter_context(closing(AuditLog(run_dir / "audit.jsonl")))
        stores: list[ResultsStore] = []
        for r in range(1, cfg.repeats + 1):
            suffix = "" if cfg.repeats == 1 else f"_r{r}"
            store = run_files.enter_context(closing(ResultsStore(run_dir / f"results{suffix}.jsonl")))
            if len(store) and not resume:
                raise ConfigError(
                    f"{store.path} already has records; pass resume to continue"
                )
            cache = run_files.enter_context(closing(ResponseCache(run_dir / f"cache{suffix}.jsonl")))
            for f in (ledger, audit, store, cache):
                if f.torn:
                    ledger.append({"event": "torn-tail", "run_index": r, "file": f.path.name, "bytes": f.torn})
                    f.torn = 0  # a torn ledger or audit is recorded once, not again per repeat
            pending = [p for p in corpus.posts if (p.id, cfg.label) not in store]
            ledger.append({"event": "start", "run_index": r, "total": len(corpus), "pending": len(pending)})
            classify = _prompt_classifier(cfg, cb, render.frames, backend, cache)
            classify_one = partial(_classify_one, cb=cb, render=render, classify=classify, cfg=cfg)
            try:
                _commit_in_order(pending, classify_one, store.append, backend, cfg.backend.in_flight_limit)
            except (BackendError, KeyboardInterrupt) as exc:
                ledger.append({"event": "abort" if isinstance(exc, BackendError) else "interrupt", "run_index": r})
                raise
            totals = store.status_counts(cfg.label)
            ledger.append({"event": "end", "run_index": r, **totals})
            print(
                f"run {r}/{cfg.repeats}: classified={totals['classified']}, "
                f"failed={totals['failed']}, total={len(corpus)}"
            )
            stores.append(store)
        return stores


def _load_metrics_table(path: str | Path) -> list[tuple[str, MetricSet]]:
    """Read a delimited metrics table: label plus the four metric columns,
    one row per label."""
    p = Path(path)
    with input_lines(p, "metrics table") as lines:
        reader = csv.DictReader(lines)
        fields = reader.fieldnames or []
        for col in ("label", *METRIC_NAMES):
            if col not in fields:
                raise DataError(f"metrics table {p}: missing column {col!r}")
        rows = []
        first_row: dict[str, int] = {}  # label -> the row that gave it
        for lineno, row in enumerate(reader, start=2):
            if None in row or None in row.values():
                raise DataError(f"metrics table {p} row {lineno}: wrong cell count")
            label = row["label"]
            if label in first_row:
                raise DataError(
                    f"metrics table {p} row {lineno}: label {label!r} is already given in row {first_row[label]}"
                )
            first_row[label] = lineno
            try:
                mset = MetricSet(**{m: float(row[m]) for m in METRIC_NAMES}, aggregation="micro", n_decisions=0)
            except ValueError as exc:
                raise DataError(f"metrics table {p} row {lineno}: {exc}") from exc
            rows.append((label, mset))
    if not rows:
        raise DataError(f"metrics table {p} has no rows")
    return rows


def _write_ranking(ranking: ModelRanking, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = [
        {
            "label": row.label,
            "avg_rank": row.avg_rank,
            "ranks": dict(row.ranks),
            **{m: row.metrics.value(m) for m in METRIC_NAMES},
        }
        for row in ranking.rows
    ]
    write_json(out_dir / "ranking.json", payload)
    rows = (
        {
            "label": row.label,
            **{m: f"{row.metrics.value(m):.6f}" for m in METRIC_NAMES},
            **{f"rank_{m}": f"{row.ranks[m]:g}" for m in METRIC_NAMES},
            "avg_rank": f"{row.avg_rank:.3f}",
        }
        for row in ranking.rows
    )
    header = ["label", *METRIC_NAMES, *(f"rank_{m}" for m in METRIC_NAMES), "avg_rank"]
    write_table(out_dir / "ranking.csv", header, rows)


def _print_ranking(ranking: ModelRanking) -> None:
    for row in ranking.rows:
        print(f"{row.avg_rank:>7.3f}  {row.label}")


def cmd_evaluate(cfg: RunConfig, *, store_paths: Sequence[str | Path] | None = None) -> dict:
    """Score stored predictions against gold: one report per model-prompt
    label, plus a ranking when two or more labels are present."""
    reports_dir = cfg.output_dir / "reports"
    corpus_ids = load_post_ids(cfg.corpus_path, cfg.corpus_format)
    cb = load_codebook(cfg.codebook_path)
    if cfg.gold_path is None:
        raise ConfigError("evaluation requires gold.path in the config")
    gold = load_gold(cfg.gold_path, corpus_ids, cb)
    del corpus_ids  # needed only to check the gold ids

    if store_paths:
        paths = [Path(s) for s in store_paths]
    else:
        paths = sorted(cfg.output_dir.glob("results*.jsonl"))
    if not paths:
        raise DataError(f"no results stores found under {cfg.output_dir}")
    seen: dict[Path, Path] = {}  # resolved path -> the path given
    for path in paths:
        resolved = path.resolve()
        if resolved in seen:  # one store given twice would pool as two repeats
            raise DataError(f"results store {path} is given twice (also as {seen[resolved]})")
        seen[resolved] = path

    # every store is read and checked against gold, and every report directory
    # checked, before any report is written
    by_label: dict[str, list[tuple[Path, LabelMatrix, tuple[str, ...]]]] = {}
    for path in paths:
        results = read_results(path, cb.alphabet)
        if not results:
            raise DataError(f"results store {path} has no records")
        for label, (preds, failed) in results.items():
            missing = sorted(pid for pid in preds.ids + failed if pid not in gold)
            if missing:
                raise DataError(
                    f"gold does not cover {len(missing)} evaluated post(s): "
                    + ", ".join(missing[:20])
                )
            runs = by_label.setdefault(label, [])
            if runs and runs[0][0].resolve().parent != path.resolve().parent:  # repeats of one run share its directory
                raise DataError(
                    f"results stores {runs[0][0]} and {path} are from different run directories but both hold "
                    f"label {label!r}; give each run its own run.label"
                )
            runs.append((path, preds, failed))
    for label in sorted(by_label):
        _require_directory(reports_dir / label, "report output directory")

    reports = {}
    headline_rows: list[tuple[str, MetricSet]] = []
    for label in sorted(by_label):
        # the first repeat's report is written; later repeats give only their micro set to run_stats
        per_run_reports = [
            evaluate_predictions(
                gold.take(sorted(preds.ids + failed)),
                preds,
                cb,
                failed_ids=failed,
                failure_policy=cfg.failure_policy,
                label=label,
                bootstrap_metrics=cfg.bootstrap_metrics if i == 0 else (),
                bootstrap_resamples=cfg.bootstrap_resamples,
                bootstrap_seed=cfg.bootstrap_seed,
            )
            for i, (_, preds, failed) in enumerate(by_label[label])
        ]
        report = per_run_reports[0]
        if len(per_run_reports) > 1:
            report.stats = run_stats([r.micro for r in per_run_reports])
        report.write(reports_dir / label)
        reports[label] = report
        headline_rows.append((label, report.micro))
        m = report.micro
        banner = f", failures={report.n_failures} ({cfg.failure_policy})" if report.n_failures else ""
        print(
            f"{label}: P={m.precision:.3f}, R={m.recall:.3f}, F1={m.f1:.3f}, "
            f"Acc={m.accuracy:.3f}, n_posts={report.n_posts}{banner}"
        )

    if len(headline_rows) >= 2:
        ranking = avg_rank(headline_rows)
        _write_ranking(ranking, reports_dir)
        _print_ranking(ranking)
    return reports


TOP_THEMES = 5  # the most frequent themes distribute prints and lists as top_themes


def cmd_distribute(cfg: RunConfig, *, store_path: str | Path | None = None) -> dict:
    """Theme distribution over all classified posts; no gold required."""
    cb = load_codebook(cfg.codebook_path)
    path = Path(store_path) if store_path is not None else cfg.output_dir / "results.jsonl"
    results = read_results(path, cb.alphabet)
    # labels pool in label order: a post recorded under two keeps the row of the label that sorts last
    matrices = [matrix for matrix, _ in results.values()]
    preds = LabelMatrix.from_rows(
        [pid for m in matrices for pid in m.ids], b"".join(m.values.tobytes() for m in matrices), cb.alphabet
    )
    if not len(preds):
        raise DataError(f"results store {path} has no classified posts")
    dist = theme_distribution(preds, cb)
    ranked = sorted(dist.codes, key=lambda c: (-dist.counts[c], c))
    top = ranked[:TOP_THEMES]
    payload = {
        **dist.to_dict(),
        "n_failed": sum(len(failed) for _, failed in results.values()),
        "top_themes": top,
    }
    reports_dir = cfg.output_dir / "reports"
    _require_directory(reports_dir, "report output directory")
    reports_dir.mkdir(parents=True, exist_ok=True)
    write_json(reports_dir / "distribution.json", payload)
    rows = ({"code": c, "count": dist.counts[c], "percentage": f"{dist.percentage(c):.1f}"} for c in dist.codes)
    write_table(reports_dir / "distribution.csv", ["code", "count", "percentage"], rows)
    for code in top:
        print(f"{code}: {dist.counts[code]} ({dist.percentage(code):.1f}%)")
    return payload


def cmd_rank(metrics_table: str | Path, out_dir: str | Path | None = None) -> ModelRanking:
    """Rank externally supplied metric rows; no model calls involved."""
    if out_dir is not None:
        _require_directory(Path(out_dir), "ranking output directory")
    ranking = avg_rank(_load_metrics_table(metrics_table))
    if out_dir is not None:
        _write_ranking(ranking, Path(out_dir))
    _print_ranking(ranking)
    return ranking
