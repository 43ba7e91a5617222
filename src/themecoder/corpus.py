"""Corpus ingestion and preparation.

Loads post collections from line-oriented or delimited files, applies
keyword relevance filtering with a small AND/OR rule grammar, removes
duplicate/blank/garbage posts, and draws seeded samples and temporal
splits. All transformations are pure: a Corpus is immutable after
construction and ordering is always normalized to (created_at, id).
"""

from __future__ import annotations

import csv
import json
import logging
import operator
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator, Mapping

from .draws import Stream
from .errors import ConfigError, DataError
from .jsonl import atomic_write, holds_surrogate, read_yaml, undecodable_line, write_table

log = logging.getLogger(__name__)

DEFAULT_KEYWORDS_PATH = Path(__file__).parent / "data" / "keywords_default.yaml"

POST_FIELDS = ("id", "title", "body", "source", "created_at", "url")
CORPUS_FORMATS = ("post-lines", "delimited-table")
_ENCODER = json.JSONEncoder(ensure_ascii=False)  # json.dumps with options builds one per call
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")


def parse_timestamp(value) -> datetime:
    """Parse an ISO-8601 timestamp (or epoch seconds) to UTC, seconds precision."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return datetime.fromtimestamp(int(value), tz=timezone.utc)
    if not isinstance(value, str):
        raise ValueError(f"not a timestamp: {value!r}")
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is timezone.utc and not dt.microsecond:  # as format_timestamp writes: nothing to convert
        return dt
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).replace(microsecond=0)


def format_timestamp(dt: datetime) -> str:
    dt = dt.astimezone(timezone.utc)
    if dt.year < 1000:  # glibc's %Y does not zero-pad these years, so they keep strftime's text
        return dt.strftime("%Y-%m-%dT%H:%M:%SZ")
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % (dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second)


@dataclass(frozen=True)
class Post:
    id: str
    title: str
    body: str
    source: str
    created_at: datetime
    url: str | None = None

    def to_record(self) -> dict:
        rec = {
            "id": self.id,
            "title": self.title,
            "body": self.body,
            "source": self.source,
            "created_at": format_timestamp(self.created_at),
        }
        if self.url is not None:
            rec["url"] = self.url
        return rec


@dataclass(frozen=True)
class Corpus:
    """An immutable, order-normalized collection of posts."""

    name: str
    posts: tuple[Post, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.posts, key=operator.attrgetter("created_at", "id")))
        object.__setattr__(self, "posts", ordered)
        seen: set[str] = set()
        for p in ordered:
            if not p.id:
                raise DataError(f"corpus {self.name!r}: post with empty id")
            if p.id in seen:
                raise DataError(f"corpus {self.name!r}: duplicate post id {p.id!r}")
            seen.add(p.id)

    def __len__(self) -> int:
        return len(self.posts)

    def __iter__(self):
        return iter(self.posts)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.posts)

    @property
    def time_range(self) -> tuple[datetime, datetime] | None:
        if not self.posts:
            return None
        return (self.posts[0].created_at, max(p.created_at for p in self.posts))


@dataclass(frozen=True)
class Term:
    """One match term: literal text, word-boundary or substring mode."""

    text: str
    mode: str = "word"  # word | substring
    case_sensitive: bool = False

    def __post_init__(self) -> None:
        if not self.text:
            raise ConfigError("keyword term must be non-empty")
        if self.mode not in ("word", "substring"):
            raise ConfigError(f"unknown term mode {self.mode!r} (use word or substring)")

    def compile(self) -> re.Pattern:
        escaped = re.escape(self.text)
        pattern = rf"\b{escaped}\b" if self.mode == "word" else escaped
        return re.compile(pattern, 0 if self.case_sensitive else re.IGNORECASE)


@dataclass(frozen=True)
class KeywordSet:
    groups: Mapping[str, tuple[Term, ...]]

    def __post_init__(self) -> None:
        for name, terms in self.groups.items():
            if not terms:
                raise ConfigError(f"keyword group {name!r} is empty")


@dataclass(frozen=True)
class SamplingSpec:
    target_n: int
    seed: int

    def __post_init__(self) -> None:
        if self.target_n < 1:
            raise ConfigError(f"sampling target_n must be >= 1, got {self.target_n}")


def load_keywords(path: str | Path | None = None) -> KeywordSet:
    """Load a keyword set file (the shipped default when path is None).

    File format: a mapping ``groups: {name: [term, ...]}`` where each term is
    either a bare string (word-boundary, case-insensitive) or a mapping with
    keys term, mode, case_sensitive.
    """
    p = Path(path) if path is not None else DEFAULT_KEYWORDS_PATH
    raw = read_yaml(p, "keyword set file")
    if not isinstance(raw, dict) or not isinstance(raw.get("groups"), dict):
        raise DataError(f"keyword set file {p} must contain a 'groups' mapping")
    groups: dict[str, tuple[Term, ...]] = {}
    for name, entries in raw["groups"].items():
        where = f"keyword set file {p} group {name!r}"
        if not isinstance(entries or [], list):
            raise DataError(f"{where} must be a list of terms")
        terms: list[Term] = []
        for j, e in enumerate(entries or ()):
            e = {"term": e} if isinstance(e, str) else e
            if not isinstance(e, dict) or not isinstance(e.get("term"), str):
                raise DataError(f"{where} entry {j} must be a term or a mapping with a string 'term'")
            unknown = sorted(map(str, e.keys() - {"term", "mode", "case_sensitive"}))
            if unknown:
                raise DataError(f"{where} entry {j} has unknown key(s): {', '.join(unknown)}")
            case_sensitive = e.get("case_sensitive", False)
            if not isinstance(case_sensitive, bool):
                raise DataError(f"{where} entry {j} case_sensitive must be true or false")
            try:
                terms.append(Term(text=e["term"], mode=e.get("mode", "word"), case_sensitive=case_sensitive))
            except ConfigError as exc:
                raise DataError(f"{where} entry {j}: {exc}") from None
        groups[str(name)] = tuple(terms)
    try:
        return KeywordSet(groups=groups)
    except ConfigError as exc:
        raise DataError(f"keyword set file {p}: {exc}") from None


def load_posts(path: str | Path, format: str = "post-lines") -> Corpus:
    """Load a corpus file in post-lines (one JSON record per line) or
    delimited-table (RFC-4180 header row) format."""
    p = Path(path)
    corpus = Corpus(name=p.stem, posts=tuple(_posts(p, format, _post_from_record)))
    log.info("loaded %d posts from %s", len(corpus), p)
    return corpus


@dataclass(frozen=True)
class CorpusIds:
    """The name and post ids of a corpus file, without its posts."""

    name: str
    ids: frozenset[str]


def load_post_ids(path: str | Path, format: str = "post-lines") -> CorpusIds:
    """The ids ``load_posts`` would give, checked as it checks them, with no
    post kept in memory; it raises the errors ``load_posts`` raises."""
    p = Path(path)
    count = 0

    def ids() -> Iterator[str]:
        nonlocal count
        for post_id in _posts(p, format, _record_id):
            count += 1
            yield post_id

    found = frozenset(ids())
    if count != len(found) or "" in found:
        load_posts(p, format)  # raises the empty or duplicate id error naming the same post
    return CorpusIds(name=p.stem, ids=found)


def _posts(p: Path, format: str, build: Callable[[dict, str], object]) -> Iterator:
    """``build(record, where)`` of each record in file order.

    A record that is not a post (a missing field, a bad timestamp) is
    raised only once the whole file has parsed, so a malformed record
    further on is still the error named, as when every record was parsed
    before any post was built.
    """
    if format == "post-lines":
        records = _read_post_lines(p)
    elif format == "delimited-table":
        records = _read_delimited(p)
    else:
        raise ConfigError(f"unknown corpus format {format!r}; known: {', '.join(CORPUS_FORMATS)}")
    held: DataError | None = None
    try:
        for where, rec in records:
            try:
                built = build(rec, where)
            except DataError as exc:
                held = held or exc
                continue
            if held is None:
                yield built
    except UnicodeDecodeError:  # read again only to name the line
        raise DataError(f"{p} line {undecodable_line(p)}: not valid UTF-8") from None
    if held is not None:
        raise held


def _read_post_lines(p: Path) -> Iterator[tuple[str, dict]]:
    try:
        fh = p.open(encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"corpus file not found: {p}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{p} line {lineno}: malformed record ({exc.msg})") from None
            if not isinstance(rec, dict):
                raise DataError(f"{p} line {lineno}: record is not an object")
            # a \uD800-\uDFFF escape may decode to a lone surrogate, which no
            # UTF-8 file can hold; only lines with such an escape are checked
            if "\\u" in line and _SURROGATE_ESCAPE_RE.search(line) and holds_surrogate(rec):
                raise DataError(f"{p} line {lineno}: a \\u escape gives a lone surrogate, not valid Unicode")
            yield f"{p} line {lineno}", rec


def _read_delimited(p: Path) -> Iterator[tuple[str, dict]]:
    try:
        fh = p.open(encoding="utf-8", newline="")
    except FileNotFoundError:
        raise DataError(f"corpus file not found: {p}") from None
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{p}: empty delimited file (missing header)")
        missing = [f for f in POST_FIELDS[:-1] if f not in reader.fieldnames]
        if missing:
            raise DataError(f"{p}: header missing field(s) {', '.join(missing)}")
        for recno, row in enumerate(reader, start=1):
            if None in row or None in row.values():
                raise DataError(f"{p} record {recno}: malformed record (wrong cell count)")
            yield f"{p} record {recno}", row


def _check_record(rec: dict, where: str) -> datetime:
    """Check that the record holds every post field and a timestamp that parses; return the timestamp."""
    for f in ("id", "title", "body", "source", "created_at"):
        if f not in rec:
            raise DataError(f"{where}: missing field {f!r}")
    try:
        return parse_timestamp(rec["created_at"])
    except (ValueError, TypeError, OverflowError, OSError) as exc:  # an epoch beyond datetime's range
        raise DataError(f"{where}: bad created_at ({exc})") from None


def _record_id(rec: dict, where: str) -> str:
    _check_record(rec, where)
    return str(rec["id"])


def _post_from_record(rec: dict, where: str) -> Post:
    created = _check_record(rec, where)
    url = rec.get("url")
    return Post(
        id=str(rec["id"]),
        title=str(rec["title"]),
        body=str(rec["body"]),
        source=str(rec["source"]),
        created_at=created,
        url=None if url in (None, "") else str(url),
    )


def write_posts(corpus: Corpus, path: str | Path, format: str = "post-lines") -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    if format == "post-lines":
        with atomic_write(p) as fh:
            for post in corpus.posts:
                fh.write(_ENCODER.encode(post.to_record()) + "\n")
    elif format == "delimited-table":
        write_table(p, POST_FIELDS, (post.to_record() for post in corpus.posts))
    else:
        raise ConfigError(f"unknown corpus format {format!r}; known: {', '.join(CORPUS_FORMATS)}")


# --- keyword rule grammar: NAME, AND, OR, parentheses ----------------------

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


def _parse_rule(rule: str, group_names: set[str]) -> Callable[[Mapping[str, bool]], bool]:
    tokens = _TOKEN_RE.findall(rule)
    if not tokens:
        raise ConfigError("empty keyword rule")
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_or() -> Callable:
        node = parse_and()
        while peek() is not None and peek().upper() == "OR":
            take()
            rhs = parse_and()
            node = (lambda a, b: lambda env: a(env) or b(env))(node, rhs)
        return node

    def parse_and() -> Callable:
        node = parse_atom()
        while peek() is not None and peek().upper() == "AND":
            take()
            rhs = parse_atom()
            node = (lambda a, b: lambda env: a(env) and b(env))(node, rhs)
        return node

    def parse_atom() -> Callable:
        tok = peek()
        if tok is None:
            raise ConfigError(f"keyword rule {rule!r}: unexpected end of rule")
        if tok == "(":
            take()
            node = parse_or()
            if peek() != ")":
                raise ConfigError(f"keyword rule {rule!r}: missing closing parenthesis")
            take()
            return node
        if tok == ")" or tok.upper() in ("AND", "OR"):
            raise ConfigError(f"keyword rule {rule!r}: unexpected token {tok!r}")
        take()
        if tok not in group_names:
            raise ConfigError(f"keyword rule references unknown group {tok!r}")
        return (lambda name: lambda env: env[name])(tok)

    node = parse_or()
    if pos != len(tokens):
        raise ConfigError(f"keyword rule {rule!r}: trailing tokens from {tokens[pos]!r}")
    return node


def keyword_filter(corpus: Corpus, keywords: KeywordSet, rule: str) -> Corpus:
    """Retain posts whose (title + body) satisfies the rule expression.

    The rule combines group names with AND/OR and parentheses; a group
    matches when any of its terms matches. Case-insensitive terms are
    matched with case folding.
    """
    evaluate = _parse_rule(rule, set(keywords.groups))
    compiled = {
        name: [t.compile() for t in terms] for name, terms in keywords.groups.items()
    }
    kept = []
    for post in corpus.posts:
        haystack = f"{post.title}\n{post.body}"
        env = {
            name: any(rx.search(haystack) for rx in rxs)
            for name, rxs in compiled.items()
        }
        if evaluate(env):
            kept.append(post)
    return Corpus(name=corpus.name, posts=tuple(kept))


# --- cleanup ----------------------------------------------------------------

_URL_RE = re.compile(r"https?://\S+|www\.\S+", re.IGNORECASE)
# The garbage check's markup is tags, entities and single characters, none of
# which is alphanumeric, "<" or "&"; so the single characters can stay in the
# residue without changing which tags and entities match, or the answer.
_TAG_RE = re.compile(r"<[^>]*>|&[a-z]+;")
_ALNUM_RE = re.compile(r"[^\W_]")  # exactly the characters str.isalnum() accepts


def _normalize(text: str) -> str:
    return " ".join(text.split()).casefold()


def _poorly_formatted(body: str) -> bool:
    stripped = body.strip()
    if not stripped:
        return False
    # whitespace is never alphanumeric, and split() drops exactly the characters isspace() accepts
    alnum = sum(map(str.isalnum, stripped))
    if alnum / sum(map(len, stripped.split())) < 0.10:
        return True
    residue = stripped
    if "://" in residue or "www." in residue.lower():  # else _URL_RE cannot match
        residue = _URL_RE.sub("", residue)
    if "<" in residue or "&" in residue:
        residue = _TAG_RE.sub("", residue)
    return not _ALNUM_RE.search(residue)


@dataclass(frozen=True)
class CleanResult:
    corpus: Corpus
    removed: Mapping[str, int]


def dedup_clean(corpus: Corpus) -> CleanResult:
    """Remove duplicate, blank, and garbage posts.

    A duplicate repeats another post's normalized (title, body); the
    earliest created_at is kept. Blank means title and body are both
    empty after whitespace normalization. Poorly formatted means the body
    is over 90% non-alphanumeric or contains only URLs/markup. Each removed
    post is counted under exactly one reason, checked in that order.
    """
    removed = {"blank": 0, "poorly_formatted": 0, "duplicate": 0}
    seen: set[tuple[str, str]] = set()
    kept: list[Post] = []
    for post in corpus.posts:
        key = (_normalize(post.title), _normalize(post.body))
        if key == ("", ""):
            removed["blank"] += 1
            continue
        if _poorly_formatted(post.body):
            removed["poorly_formatted"] += 1
            continue
        if key in seen:
            removed["duplicate"] += 1
            continue
        seen.add(key)
        kept.append(post)
    return CleanResult(corpus=Corpus(name=corpus.name, posts=tuple(kept)), removed=dict(removed))


def sample_random(corpus: Corpus, spec: SamplingSpec) -> Corpus:
    """Draw a uniform sample without replacement, deterministic given the seed.

    Algorithm (fixed; tests re-derive it independently from this text):
    with ``rng = draws.Stream(seed)``, themecoder's PCG64 stream, which draws
    what ``numpy.random.default_rng(seed)`` draws, and ``idx = [0..n-1]`` over
    the order-normalized corpus, perform a partial Fisher-Yates shuffle: for
    each position ``i`` in ``0..target_n-1`` draw ``j = rng.integers(i, n)``
    and swap ``idx[i]`` and ``idx[j]``; the sample is the posts at
    ``idx[:target_n]``, then ordering is re-normalized.
    """
    n = len(corpus)
    if spec.target_n > n:
        raise DataError(
            f"cannot sample {spec.target_n} posts from a corpus of {n}"
        )
    rng = Stream(spec.seed)
    idx = list(range(n))
    for i in range(spec.target_n):
        j = rng.integers(i, n)
        idx[i], idx[j] = idx[j], idx[i]
    chosen = tuple(corpus.posts[k] for k in idx[: spec.target_n])
    return Corpus(name=corpus.name, posts=chosen)


def temporal_split(corpus: Corpus, boundary: datetime) -> tuple[Corpus, Corpus]:
    """Partition into (created_at < boundary, created_at >= boundary)."""
    if boundary.tzinfo is None:
        boundary = boundary.replace(tzinfo=timezone.utc)
    early = tuple(p for p in corpus.posts if p.created_at < boundary)
    late = tuple(p for p in corpus.posts if p.created_at >= boundary)
    return Corpus(name=f"{corpus.name}_pre", posts=early), Corpus(name=f"{corpus.name}_post", posts=late)
