"""Corpus loading, filtering, cleaning, sampling, and splitting."""

from __future__ import annotations

import json
import random
import re
import sys
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from themecoder import corpus as corpus_module
from themecoder.corpus import (
    _ALNUM_RE,
    _URL_RE,
    CORPUS_FORMATS,
    Corpus,
    KeywordSet,
    Post,
    SamplingSpec,
    Term,
    dedup_clean,
    format_timestamp,
    keyword_filter,
    load_keywords,
    load_post_ids,
    load_posts,
    parse_timestamp,
    sample_random,
    temporal_split,
    write_posts,
    _poorly_formatted,
)
from themecoder.errors import ConfigError, DataError

UTC = timezone.utc


def make_post(pid: str, body: str = "text", title: str = "t", minute: int = 0) -> Post:
    return Post(
        id=pid,
        title=title,
        body=body,
        source="r/test",
        created_at=datetime(2023, 6, 1, 8, minute % 60, 0, tzinfo=UTC)
        + timedelta(hours=minute // 60),
    )


# --- timestamps --------------------------------------------------------------


def test_parse_timestamp_forms():
    want = datetime(2023, 6, 1, 8, 0, 0, tzinfo=UTC)
    assert parse_timestamp("2023-06-01T08:00:00Z") == want
    assert parse_timestamp("2023-06-01T08:00:00z") == want
    assert parse_timestamp("2023-06-01T08:00:00") == want  # naive reads as UTC
    assert parse_timestamp("2023-06-01T10:00:00+02:00") == want
    assert parse_timestamp("2023-06-01T08:00:00.987654Z") == want  # sub-second dropped


def test_parse_timestamp_epoch_seconds():
    want = datetime(2023, 6, 1, 8, 0, 0, tzinfo=UTC)
    epoch = int(want.timestamp())
    assert parse_timestamp(epoch) == want
    assert parse_timestamp(float(epoch) + 0.7) == want  # fractional part dropped


@pytest.mark.parametrize("bad", [True, False, None, [], "yesterday", ""])
def test_parse_timestamp_rejects_non_timestamps(bad):
    with pytest.raises((ValueError, TypeError)):
        parse_timestamp(bad)


def test_format_timestamp_is_utc_seconds():
    dt = datetime(2023, 6, 1, 10, 30, 5, tzinfo=timezone(timedelta(hours=2)))
    assert format_timestamp(dt) == "2023-06-01T08:30:05Z"


def test_timestamp_round_trip_seeded():
    rng = np.random.default_rng(11)
    for _ in range(50):
        epoch = int(rng.integers(1_500_000_000, 1_800_000_000))
        dt = parse_timestamp(epoch)
        assert parse_timestamp(format_timestamp(dt)) == dt


def strftime_timestamp(dt: datetime) -> str:
    """format_timestamp as one strftime call, the oracle of its faster form."""
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def general_parse_timestamp(value) -> datetime:
    """parse_timestamp without its early return for whole-second UTC values."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return datetime.fromtimestamp(int(value), tz=timezone.utc)
    if not isinstance(value, str):
        raise ValueError(f"not a timestamp: {value!r}")
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).replace(microsecond=0)


def outcome(fn, arg):
    """What ``fn(arg)`` gives: its value's repr (which shows the tzinfo), or its error."""
    try:
        return repr(fn(arg))
    except Exception as exc:  # noqa: BLE001 - the error and its text are what is compared
        return type(exc), str(exc)


def random_datetimes(rng: random.Random, count: int):
    for _ in range(count):
        offset = rng.choice([None, 0, rng.randint(-14 * 60, 14 * 60)])
        tz = None if offset is None else timezone(timedelta(minutes=offset))
        yield datetime(
            rng.choice([rng.randint(1, 999), rng.randint(1000, 9999), rng.randint(1990, 2030)]),
            rng.randint(1, 12), rng.randint(1, 28), rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59),
            rng.choice([0, rng.randint(1, 999_999)]), tzinfo=tz,
        )


def test_format_timestamp_gives_strftime_text():
    for dt in random_datetimes(random.Random(5), 5000):
        assert outcome(format_timestamp, dt) == outcome(strftime_timestamp, dt), dt
    assert format_timestamp(datetime(999, 1, 2, 3, 4, 5, tzinfo=UTC)) == strftime_timestamp(
        datetime(999, 1, 2, 3, 4, 5, tzinfo=UTC)
    )


def test_parse_timestamp_gives_the_general_parse():
    rng = random.Random(6)
    texts = [
        "2024-01-01T00:00+01Z",
        "2024-13-01T00:00:00Z",
        "2024-01-01 00:00:00Z",
        "2024-01-01T00:00:00Z",
        "2024-01-01T24:00:00Z",
        "2024-02-30T00:00:00Z",
        "2024-01-01T00:00:60Z",
        " 024-01-01T00:00:00Z",
        " 2024-01-01T00:00:00Z",
        "\t2024-01-01T00:00:00+01:00Z",
        "2024-01-01T00:00:00+01:00Z",
        "2024-01-01T00:00:00.5Z",
        "2024-01-01Z",
        "Z",
    ]
    for dt in random_datetimes(rng, 3000):
        stamp = f"{dt.year:04d}-{dt:%m-%dT%H:%M:%S}"
        texts += [
            strftime_timestamp(dt),
            stamp + "Z",
            stamp + "z",
            stamp + f".{dt.microsecond:06d}Z",
            dt.isoformat(),
            dt.isoformat(sep=" ") + "Z",
        ]
        chars = list(stamp + "Z")
        chars[rng.randrange(20)] = rng.choice("0123456789-:TZz +.\u0663")
        texts.append("".join(chars))
    for text in texts:
        assert outcome(parse_timestamp, text) == outcome(general_parse_timestamp, text), text


# --- Corpus invariants --------------------------------------------------------


def test_corpus_orders_by_created_then_id(corpus50):
    rng = np.random.default_rng(3)
    posts = list(corpus50.posts)
    for _ in range(10):
        perm = rng.permutation(len(posts))
        shuffled = tuple(posts[int(k)] for k in perm)
        assert Corpus(name="x", posts=shuffled).ids == corpus50.ids


def test_corpus_ties_break_on_id():
    a = make_post("b", minute=0)
    b = make_post("a", minute=0)
    assert Corpus(name="x", posts=(a, b)).ids == ("a", "b")


def test_corpus_rejects_duplicate_id():
    with pytest.raises(DataError, match="duplicate post id 'p1'"):
        Corpus(name="x", posts=(make_post("p1"), make_post("p1", minute=1)))


def test_corpus_rejects_empty_id():
    with pytest.raises(DataError, match="empty id"):
        Corpus(name="x", posts=(make_post(""),))


def test_corpus_time_range(corpus50):
    lo, hi = corpus50.time_range
    assert lo == min(p.created_at for p in corpus50)
    assert hi == max(p.created_at for p in corpus50)
    assert Corpus(name="empty", posts=()).time_range is None


def test_post_record_omits_missing_url():
    post = make_post("p1")
    assert "url" not in post.to_record()
    with_url = Post(**{**post.__dict__, "url": "https://example.org/x"})
    assert with_url.to_record()["url"] == "https://example.org/x"


# --- file round trips ---------------------------------------------------------


def test_post_lines_round_trip(tmp_path, corpus50):
    path = tmp_path / "copy.jsonl"
    write_posts(corpus50, path)
    back = load_posts(path)
    assert back.posts == corpus50.posts
    # a second write of the reloaded corpus is byte-identical
    again = tmp_path / "again.jsonl"
    write_posts(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_delimited_round_trip(tmp_path, corpus50):
    path = tmp_path / "copy.csv"
    write_posts(corpus50, path, format="delimited-table")
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "id,title,body,source,created_at,url"
    back = load_posts(path, format="delimited-table")
    assert back.posts == corpus50.posts


def test_delimited_empty_url_reads_as_none(tmp_path):
    corpus = Corpus(name="x", posts=(make_post("p1"),))
    path = tmp_path / "one.csv"
    write_posts(corpus, path, format="delimited-table")
    assert load_posts(path, format="delimited-table").posts[0].url is None


def test_load_posts_names_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "p1"}\n{broken\n', encoding="utf-8")
    with pytest.raises(DataError, match="line 2: malformed record"):
        load_posts(path)


def test_load_posts_rejects_non_object_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 1: record is not an object"):
        load_posts(path)


def test_load_posts_names_missing_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "p1", "title": "t", "body": "b", "source": "s"}\n')
    with pytest.raises(DataError, match="line 1: missing field 'created_at'"):
        load_posts(path)


def test_load_posts_names_bad_timestamp(tmp_path):
    path = tmp_path / "bad.jsonl"
    record = '{"id": "p1", "title": "t", "body": "b", "source": "s", "created_at": "soon"}\n'
    path.write_text(record, encoding="utf-8")
    with pytest.raises(DataError, match="line 1: bad created_at"):
        load_posts(path)


def test_load_posts_skips_blank_lines(tmp_path, corpus50):
    path = tmp_path / "gappy.jsonl"
    lines = (tmp_path / "raw.jsonl", write_posts(corpus50, tmp_path / "raw.jsonl"))[0]
    padded = "\n\n".join(lines.read_text(encoding="utf-8").splitlines()) + "\n"
    path.write_text(padded, encoding="utf-8")
    assert load_posts(path).posts == corpus50.posts


def post_line(pid: str, created: str = "2023-06-01T08:00:00Z", **drop) -> str:
    rec = {"id": pid, "title": "t", "body": "b", "source": "s", "created_at": created}
    return json.dumps({k: v for k, v in rec.items() if k not in drop}) + "\n"


@pytest.mark.parametrize(
    "text,message",
    [
        (post_line("p1", title=1) + "{broken\n", "line 2: malformed record"),
        (post_line("p1") + post_line("p2", body=1) + "[1]\n", "line 3: record is not an object"),
        (post_line("p1", created_at=1) + post_line("p2", title=1), "line 1: missing field 'created_at'"),
        (post_line("p2") + post_line("p1") + post_line("p2") + post_line("p1", "2023-06-01T07:00:00Z"),
         "duplicate post id 'p1'"),  # the first repeat in (created_at, id) order, not in file order
        (post_line("p1") + post_line(""), "post with empty id"),
        (post_line("p1") + post_line("p2").replace('"b"', '"b\\ud800"', 1), "line 2: .* lone surrogate"),
        (post_line("p1").replace('"t"', '"\\uDC00t"', 1), "line 1: .* lone surrogate"),
    ],
    ids=["malformed-after-missing-field", "non-object-after-missing-field", "first-field-error",
         "duplicate-id", "empty-id", "lone-high-surrogate", "lone-low-surrogate"],
)
def test_load_post_ids_raises_what_load_posts_raises(tmp_path, text, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=message) as from_posts:
        load_posts(path)
    with pytest.raises(DataError) as from_ids:
        load_post_ids(path)
    assert str(from_ids.value) == str(from_posts.value)


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"], ids=["u2028", "u2029", "u0085"])
def test_post_text_with_a_unicode_line_break_round_trips(tmp_path, char):
    # write_posts writes these raw; only "\n" (or "\r") ends a post-lines record
    posts = (make_post("p1", body=f"b{char}b", title=f"t{char}"), make_post("p2", minute=1))
    path = tmp_path / "breaks.jsonl"
    write_posts(Corpus(name="breaks", posts=posts), path)
    assert char in path.read_text(encoding="utf-8")
    assert load_posts(path).posts == posts
    assert load_post_ids(path).ids == {"p1", "p2"}


def test_load_posts_reads_a_surrogate_pair_escape(tmp_path):
    path = tmp_path / "pair.jsonl"
    path.write_text(post_line("p1").replace('"b"', '"b \\ud83e\\udddf \\\\ud800"', 1), encoding="utf-8")
    assert load_posts(path).posts[0].body == "b \U0001f9df \\ud800"  # a pair, then an escaped backslash


# post-lines line 48 starts past the first 8 KiB the reader decodes, so posts came out before it
@pytest.mark.parametrize("format,line", [("post-lines", 48), ("delimited-table", 41)])
def test_load_posts_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, corpus50, format, line):
    path = tmp_path / "bad.txt"
    write_posts(corpus50, path, format=format)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].replace(b"e", b"\xe9", 1)
    path.write_bytes(b"".join(lines))
    for load in (load_posts, load_post_ids):
        with pytest.raises(DataError, match=f"^{path} line {line}: not valid UTF-8$"):
            load(path, format)


def test_load_post_ids_of_a_corpus(fixtures_dir, corpus50):
    ids = load_post_ids(fixtures_dir / "posts_50.jsonl")
    assert ids.name == corpus50.name and ids.ids == frozenset(corpus50.ids)


def test_load_post_ids_builds_no_post(fixtures_dir, corpus50, monkeypatch):
    def no_post(**fields):
        raise AssertionError("load_post_ids built a Post")

    monkeypatch.setattr(corpus_module, "Post", no_post)
    assert load_post_ids(fixtures_dir / "posts_50.jsonl").ids == frozenset(corpus50.ids)
    with pytest.raises(AssertionError, match="built a Post"):
        load_posts(fixtures_dir / "posts_50.jsonl")


def test_load_posts_missing_file(tmp_path):
    for format in CORPUS_FORMATS:
        with pytest.raises(DataError, match="not found"):
            load_posts(tmp_path / "nope.jsonl", format)


def test_load_posts_unknown_format(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text("", encoding="utf-8")
    message = re.escape("unknown corpus format 'parquet'; known: post-lines, delimited-table")
    with pytest.raises(ConfigError, match=message):
        load_posts(path, format="parquet")
    with pytest.raises(ConfigError, match=message):
        write_posts(Corpus(name="x", posts=()), path, format="parquet")


def test_delimited_header_checks(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="missing header"):
        load_posts(empty, format="delimited-table")
    partial = tmp_path / "partial.csv"
    partial.write_text("id,title,body\n", encoding="utf-8")
    with pytest.raises(DataError, match="header missing field"):
        load_posts(partial, format="delimited-table")


def test_delimited_names_ragged_record(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text(
        "id,title,body,source,created_at,url\n"
        "p1,t,b,s,2023-06-01T08:00:00Z,\n"
        "p2,t,b,s\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError, match="record 2: malformed record"):
        load_posts(path, format="delimited-table")


# --- keyword terms and rules ---------------------------------------------------

FRUIT_KW = KeywordSet(
    groups={
        "alpha": (Term("apple"),),
        "beta": (Term("banana"),),
        "gamma": (Term("cherry"),),
    }
)


def kept_bodies(rule: str, bodies: list[str], kw: KeywordSet = FRUIT_KW) -> list[str]:
    posts = tuple(make_post(f"p{i}", body=b, title="", minute=i) for i, b in enumerate(bodies))
    return [p.body for p in keyword_filter(Corpus(name="x", posts=posts), kw, rule)]


def test_term_validation():
    with pytest.raises(ConfigError, match="non-empty"):
        Term("")
    with pytest.raises(ConfigError, match="unknown term mode"):
        Term("x", mode="regex")


def test_term_word_boundary_and_substring():
    assert Term("tranq").compile().search("got some tranq dope")
    assert not Term("tranq").compile().search("a tranquilizer dose")
    assert Term("xylazine", mode="substring").compile().search("xylazines everywhere")
    assert Term("wound", mode="substring").compile().search("many WOUNDS")


def test_term_case_sensitivity():
    assert Term("wound").compile().search("Wound care")
    assert not Term("wound", case_sensitive=True).compile().search("Wound care")


def test_rule_and_or_precedence():
    bodies = ["apple", "banana", "banana cherry", "cherry", "apple cherry"]
    assert kept_bodies("alpha OR beta AND gamma", bodies) == [
        "apple",
        "banana cherry",
        "apple cherry",
    ]
    assert kept_bodies("(alpha OR beta) AND gamma", bodies) == [
        "banana cherry",
        "apple cherry",
    ]
    assert kept_bodies("alpha or beta and gamma", bodies) == kept_bodies(
        "alpha OR beta AND gamma", bodies
    )


def test_rule_matches_title_too():
    posts = (make_post("p1", body="nothing here", title="fresh apple pie"),)
    assert len(keyword_filter(Corpus(name="x", posts=posts), FRUIT_KW, "alpha")) == 1


@pytest.mark.parametrize(
    "rule, message",
    [
        ("", "empty keyword rule"),
        ("alpha AND", "unexpected end"),
        ("(alpha", "missing closing parenthesis"),
        ("alpha beta", "trailing tokens"),
        ("AND alpha", "unexpected token"),
        ("delta", "unknown group 'delta'"),
    ],
)
def test_rule_grammar_errors(rule, message):
    with pytest.raises(ConfigError, match=message):
        keyword_filter(Corpus(name="x", posts=()), FRUIT_KW, rule)


def test_keyword_set_rejects_empty_group():
    with pytest.raises(ConfigError, match="group 'g1' is empty"):
        KeywordSet(groups={"g1": ()})


def test_load_keywords_default():
    kw = load_keywords()
    assert set(kw.groups) == {"xylazine", "wound"}
    assert all(kw.groups.values())


def test_load_keywords_errors(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_keywords(tmp_path / "nope.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("groups: [a, b", encoding="utf-8")
    with pytest.raises(DataError, match="not valid YAML"):
        load_keywords(bad)
    flat = tmp_path / "flat.yaml"
    flat.write_text("terms: [x]\n", encoding="utf-8")
    with pytest.raises(DataError, match="'groups' mapping"):
        load_keywords(flat)


def test_load_keywords_reads_a_yaml_boolean_case_sensitive(tmp_path):
    path = tmp_path / "kw.yaml"
    entries = "    - {term: X, case_sensitive: true}\n    - {term: y, case_sensitive: false}\n"
    path.write_text(f"groups:\n  g:\n{entries}", encoding="utf-8")
    assert load_keywords(path).groups["g"] == (Term("X", case_sensitive=True), Term("y"))


def test_keyword_filter_fixture_oracle(corpus50, filter_oracle_ids):
    filtered = keyword_filter(corpus50, load_keywords(), "xylazine AND wound")
    assert list(filtered.ids) == filter_oracle_ids


def test_keyword_filter_single_group(corpus50, filter_oracle_ids):
    # relaxing the rule to one group can only grow the kept set
    loose = keyword_filter(corpus50, load_keywords(), "xylazine OR wound")
    assert set(filter_oracle_ids) <= set(loose.ids)
    strict = keyword_filter(corpus50, load_keywords(), "xylazine AND wound")
    assert set(strict.ids) <= set(loose.ids)


# --- cleanup -------------------------------------------------------------------


def test_dedup_clean_fixture_oracle(corpus50, filter_oracle_ids, clean_oracle_ids):
    filtered = keyword_filter(corpus50, load_keywords(), "xylazine AND wound")
    result = dedup_clean(filtered)
    assert list(result.corpus.ids) == clean_oracle_ids
    assert result.removed == {"blank": 0, "poorly_formatted": 1, "duplicate": 2}
    assert len(result.corpus) + sum(result.removed.values()) == len(filter_oracle_ids)


def test_dedup_keeps_earliest_copy():
    first = make_post("late", body="same words", minute=30)
    second = make_post("early", body="same words", minute=5)
    result = dedup_clean(Corpus(name="x", posts=(first, second)))
    assert result.corpus.ids == ("early",)
    assert result.removed["duplicate"] == 1


def test_dedup_normalizes_case_and_whitespace():
    a = make_post("a", title="Hello  World", body="Tranq   Wound", minute=0)
    b = make_post("b", title="hello world", body="tranq wound", minute=1)
    result = dedup_clean(Corpus(name="x", posts=(a, b)))
    assert result.corpus.ids == ("a",)


def test_blank_removed_before_duplicate_check():
    posts = (
        make_post("a", title="", body="   ", minute=0),
        make_post("b", title="", body="", minute=1),
    )
    result = dedup_clean(Corpus(name="x", posts=posts))
    assert result.removed == {"blank": 2, "poorly_formatted": 0, "duplicate": 0}


def test_poor_format_removed_before_duplicate_check():
    posts = (
        make_post("a", body="https://spam.example/offer", minute=0),
        make_post("b", body="https://spam.example/offer", minute=1),
    )
    result = dedup_clean(Corpus(name="x", posts=posts))
    assert result.removed == {"blank": 0, "poorly_formatted": 2, "duplicate": 0}


@pytest.mark.parametrize(
    "body, removed",
    [
        ("https://example.org/only-a-link", True),
        ("www.example.org/x see", False),  # "see" is real residue
        ("!!! ??? ***", True),
        ("<b><i></i></b>", True),
        ("Real sentence with substance.", False),
        ("12345", False),
    ],
)
def test_poor_format_detector(body, removed):
    result = dedup_clean(Corpus(name="x", posts=(make_post("a", body=body),)))
    assert (result.removed["poorly_formatted"] == 1) is removed


_OLD_MARKUP_RE = re.compile(r"<[^>]*>|&[a-z]+;|[\[\]()*_#>`~|\\=+:;.,!?'\"-]")


def per_character_poorly_formatted(body: str) -> bool:
    """The garbage check as a loop over characters, the oracle of its faster form."""
    stripped = body.strip()
    if not stripped:
        return False
    nonspace = [ch for ch in stripped if not ch.isspace()]
    alnum = sum(ch.isalnum() for ch in nonspace)
    if alnum / len(nonspace) < 0.10:
        return True
    residue = _OLD_MARKUP_RE.sub("", _URL_RE.sub("", stripped))
    return not any(ch.isalnum() for ch in residue)


GARBAGE_FRAGMENTS = [
    "http://", "HTTPS://", "https:/", "www.", "WwW.", "ww.", "x.org/", "/", ":", ".", "<b>", "</i>", "<", ">",
    "&amp;", "&AMP;", "&", ";", "&#39;", "a", "Z", "0", "_", "-", "!", "*", "[", "]", "(", "=", "'", '"',
    "é", "٣", "²", "ſ", "\u00a0", "\u2028", "\u3000", " ", "\n", "\t", "\x1c", "\x85",
]


def test_poorly_formatted_gives_the_per_character_answer():
    rng = random.Random(7)
    answers = set()
    for _ in range(30_000):
        body = "".join(rng.choices(GARBAGE_FRAGMENTS, k=rng.randint(0, 14)))
        answer = _poorly_formatted(body)
        assert answer == per_character_poorly_formatted(body), repr(body)
        answers.add(answer)
    assert answers == {True, False}


def test_split_drops_exactly_the_characters_isspace_accepts():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(every.split()) == "".join(ch for ch in every if not ch.isspace())


def test_alnum_pattern_matches_exactly_the_characters_isalnum_accepts():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(_ALNUM_RE.findall(every)) == "".join(filter(str.isalnum, every))


def test_clean_funnel_conservation():
    # 286 unique + 9 duplicates + 3 blank + 2 garbage = 300 in, 286 out
    posts = [make_post(f"u{i:03d}", body=f"distinct text {i}", minute=i) for i in range(286)]
    posts += [
        make_post(f"d{i}", body=f"distinct text {i}", minute=300 + i) for i in range(9)
    ]
    posts += [make_post(f"b{i}", title="", body="", minute=320 + i) for i in range(3)]
    posts += [
        make_post(f"g{i}", body=f"https://x.example/{i}", minute=330 + i) for i in range(2)
    ]
    result = dedup_clean(Corpus(name="big", posts=tuple(posts)))
    assert len(result.corpus) == 286
    assert result.removed == {"blank": 3, "poorly_formatted": 2, "duplicate": 9}


# --- sampling ------------------------------------------------------------------


def documented_sample_ids(ids: tuple[str, ...], target_n: int, seed: int) -> set[str]:
    """Independent re-derivation of the documented partial shuffle."""
    rng = np.random.default_rng(seed)
    idx = list(range(len(ids)))
    for i in range(target_n):
        j = int(rng.integers(i, len(ids)))
        idx[i], idx[j] = idx[j], idx[i]
    return {ids[k] for k in idx[:target_n]}


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2024])
def test_sample_matches_documented_algorithm(corpus50, seed):
    sample = sample_random(corpus50, SamplingSpec(target_n=12, seed=seed))
    assert set(sample.ids) == documented_sample_ids(corpus50.ids, 12, seed)
    assert len(sample) == 12
    assert sample.ids == tuple(sorted(sample.ids))  # order re-normalized


def test_sample_is_deterministic(corpus50):
    spec = SamplingSpec(target_n=20, seed=9)
    assert sample_random(corpus50, spec).ids == sample_random(corpus50, spec).ids


def test_sample_whole_corpus_is_identity_set(corpus50):
    sample = sample_random(corpus50, SamplingSpec(target_n=50, seed=0))
    assert sample.ids == corpus50.ids


def test_sample_rejects_oversized_target(corpus50):
    with pytest.raises(DataError, match="cannot sample 51 posts from a corpus of 50"):
        sample_random(corpus50, SamplingSpec(target_n=51, seed=0))


def test_sampling_spec_validation():
    with pytest.raises(ConfigError, match="target_n"):
        SamplingSpec(target_n=0, seed=0)


def test_sample_subset_property_seeded(corpus50):
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 51))
        seed = int(rng.integers(0, 10_000))
        sample = sample_random(corpus50, SamplingSpec(target_n=n, seed=seed))
        assert len(sample) == n
        assert set(sample.ids) <= set(corpus50.ids)


# --- temporal split ------------------------------------------------------------


def test_temporal_split_fixture(corpus50):
    pre, post = temporal_split(corpus50, datetime(2024, 1, 1))  # naive reads as UTC
    assert len(pre) == 20 and len(post) == 30
    assert pre.name.endswith("_pre") and post.name.endswith("_post")
    assert set(pre.ids) | set(post.ids) == set(corpus50.ids)
    assert set(pre.ids) & set(post.ids) == set()
    boundary = datetime(2024, 1, 1, tzinfo=UTC)
    assert all(p.created_at < boundary for p in pre)
    assert all(p.created_at >= boundary for p in post)


def test_temporal_split_boundary_goes_late():
    at = make_post("edge", minute=0)
    pre, post = temporal_split(Corpus(name="x", posts=(at,)), at.created_at)
    assert pre.ids == () and post.ids == ("edge",)
