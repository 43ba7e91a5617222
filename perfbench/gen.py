"""Deterministic input generator for the benchmark workloads.

Posts are assembled from the sentences and titles of
``tests/fixtures/posts_50.jsonl`` (read at run time, never copied into
this directory). The same workload and seed always give the same files.

Every post that should survive ingest contains the literal words
``xylazine`` and a wound term, so it passes ``xylazine AND wound``; every
off-topic post lacks one of the two groups entirely. The generator
therefore knows which posts ingest keeps without running it, and gold
covers exactly those posts.
"""

from __future__ import annotations

import csv
import json
import random
import re
from datetime import datetime, timedelta, timezone
from pathlib import Path

# casefolded substrings of every term in the shipped keyword groups; a
# sentence containing none of them cannot match the group
XYLAZINE_TERMS = ("xylazine", "xylazene", "xilazine", "zylazine", "tranq")
WOUND_TERMS = ("wound", "ulcer", "necrosis", "necrotic", "abscess", "eschar")

WORKLOADS = {
    "offline-chain": {
        "posts": 12000,
        "off_topic_share": 0.10,
        "duplicate_share": 0.03,
        "blank_share": 0.01,
        "url_only_share": 0.02,
        "gold_flip_share": 0.03,
    },
    "remote-latency": {
        "posts": 1000,
        "reask_share": 0.10,
        "http_503_share": 0.02,
    },
    "per-theme-resume": {
        "posts": 1000,
        "gold_flip_share": 0.03,
        "results_keep_share": 0.40,
        "cache_keep_share": 0.70,
    },
}

_URL_RE = re.compile(r"https?://|www\.", re.IGNORECASE)
_EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)


def _has(text: str, terms) -> bool:
    folded = text.casefold()
    return any(t in folded for t in terms)


class SentencePool:
    """Sentences and titles of the fixture corpus, split by keyword group."""

    def __init__(self, fixture: Path) -> None:
        sentences: set[str] = set()
        titles: set[str] = set()
        for line in fixture.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            titles.add(rec["title"].strip())
            for s in re.split(r"(?<=[.!?])\s+", rec["body"]):
                # a bare link would make a post URL-only, which ingest removes
                if s.strip() and not _URL_RE.search(s):
                    sentences.add(s.strip())
        ordered = sorted(sentences)
        # "xylazine" and the wound terms below are substring-mode terms, so
        # their presence guarantees a group match
        self.xylazine = [s for s in ordered if "xylazine" in s.casefold()]
        self.wound = [s for s in ordered if _has(s, ("wound", "ulcer", "abscess", "eschar"))]
        self.neutral = [s for s in ordered if not _has(s, XYLAZINE_TERMS + WOUND_TERMS)]
        self.xylazine_only = [s for s in self.xylazine if not _has(s, WOUND_TERMS)]
        self.titles = sorted(t for t in titles if t and not _has(t, XYLAZINE_TERMS + WOUND_TERMS))
        both = [s for s in self.xylazine if _has(s, ("wound", "ulcer", "abscess", "eschar"))]
        if not (self.xylazine and self.wound and self.neutral and self.titles and both):
            raise ValueError(f"fixture {fixture} lacks the sentence kinds the generator needs")
        self.both = both

    def on_topic_body(self, rng: random.Random) -> str:
        parts = [rng.choice(self.xylazine), rng.choice(self.wound)]
        parts += rng.sample(self.neutral, rng.randint(0, 2))
        rng.shuffle(parts)
        return " ".join(dict.fromkeys(parts))

    def off_topic_body(self, rng: random.Random) -> str:
        parts = rng.sample(self.neutral, rng.randint(1, 3))
        if rng.random() < 0.5:  # mentions xylazine but no wound
            parts.append(rng.choice(self.xylazine_only))
        rng.shuffle(parts)
        return " ".join(parts)


def _post(i: int, title: str, body: str) -> dict:
    created = _EPOCH + timedelta(minutes=i)
    return {
        "id": f"b{i:06d}",
        "title": title,
        "body": body,
        "source": "r/bench",
        "created_at": created.strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def _unique_on_topic(pool: SentencePool, rng: random.Random, seen: set) -> tuple[str, str]:
    # Prompts carry the body only, so distinct bodies give distinct prompts
    # (no response-cache hits) as well as distinct posts for dedup_clean.
    while True:
        body = pool.on_topic_body(rng)
        key = " ".join(body.split()).casefold()
        if key not in seen:
            seen.add(key)
            return rng.choice(pool.titles), body


def build_posts(workload: str, seed: int, pool: SentencePool) -> tuple[list[dict], list[str], dict]:
    """Return (posts, ids ingest keeps, per-kind counts)."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    n = spec["posts"]
    kinds = ["on_topic"] * n
    if workload == "offline-chain":
        slots = list(range(1, n))  # post 0 is always a survivor
        rng.shuffle(slots)
        start = 0
        for kind in ("off_topic", "duplicate", "blank", "url_only"):
            count = round(n * spec[f"{kind}_share"])
            for i in slots[start:start + count]:
                kinds[i] = kind
            start += count

    posts: list[dict] = []
    survivors: list[str] = []
    originals: list[dict] = []
    seen: set = set()
    for i, kind in enumerate(kinds):
        if kind == "on_topic":
            title, body = _unique_on_topic(pool, rng, seen)
            post = _post(i, title, body)
            originals.append(post)
            survivors.append(post["id"])
        elif kind == "duplicate":  # a later copy of an earlier survivor
            src = rng.choice(originals)
            post = _post(i, src["title"], src["body"])
        elif kind == "off_topic":
            post = _post(i, rng.choice(pool.titles), pool.off_topic_body(rng))
        elif kind == "blank":
            post = _post(i, "", rng.choice(["", " ", "\n"]))
        else:  # url_only: on-topic title, a link for a body
            post = _post(i, rng.choice(pool.both), f"https://example.org/p/{rng.randrange(10**9)}")
        posts.append(post)
    counts = {k: kinds.count(k) for k in ("on_topic", "off_topic", "duplicate", "blank", "url_only")}
    return posts, survivors, counts


def write_inputs(workload: str, seed: int, fixture: Path, out_dir: Path, alphabet, rule_vector) -> dict:
    """Write posts.jsonl (and gold.csv where the workload evaluates) and
    return the generation record, which is also saved as generated.json.

    ``rule_vector(text, codes)`` gives the noise-free gold vector.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    pool = SentencePool(fixture)
    posts, survivors, counts = build_posts(workload, seed, pool)
    with (out_dir / "posts.jsonl").open("w", encoding="utf-8") as fh:
        for p in posts:
            fh.write(json.dumps(p, ensure_ascii=False) + "\n")

    spec = WORKLOADS[workload]
    record = {
        "workload": workload,
        "seed": seed,
        "stated": dict(spec),
        "generated_counts": counts,
        "posts": len(posts),
        "expected_survivors": len(survivors),
        "expected_removed_share": 1 - len(survivors) / len(posts),
    }
    if "gold_flip_share" in spec:
        rng = random.Random(f"gold:{workload}:{seed}")
        bodies = {p["id"]: p["body"] for p in posts}
        flips = 0
        with (out_dir / "gold.csv").open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["post_id", *alphabet])
            for pid in sorted(survivors):
                vec = rule_vector(bodies[pid], alphabet)
                row = []
                for code in alphabet:
                    v = vec[code]
                    if rng.random() < spec["gold_flip_share"]:
                        v, flips = 1 - v, flips + 1
                    row.append(v)
                writer.writerow([pid, *row])
        record["gold_flips"] = flips
    (out_dir / "survivors.txt").write_text("\n".join(survivors) + "\n", encoding="utf-8")
    (out_dir / "generated.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return record
