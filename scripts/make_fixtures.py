"""Regenerate the committed test fixtures.

Run from the repo root:

    python3 scripts/make_fixtures.py

Outputs land in tests/fixtures/. The 50-post corpus is synthetic: every
post is annotated at construction time with whether it matches the
default keyword rule and whether cleanup should remove it, and those
annotations are written as oracle files for the tests. The script then
cross-checks the package's own filter/cleanup against the construction,
so fixture drift fails loudly here rather than mysteriously in CI.
"""

from __future__ import annotations

import csv
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from themecoder.backends import mock_rule_vector
from themecoder.codebook import load_codebook
from themecoder.corpus import Corpus, Post, dedup_clean, keyword_filter, load_keywords, write_posts

FIXTURES = ROOT / "tests" / "fixtures"

# (tag, title, body) in corpus order; tags: m=match+keep, d=duplicate,
# q=poor format, b=blank, x=xylazine-only, w=wound-only, n=neither
ROWS = [
    ("m01", "long read", "I inject tranq dope daily and now there is a deep wound on my forearm."),
    ("n01", "moving soon", "Best coffee in Portland? Moving there next month."),
    ("x01", "test strips", "Is tranq in everything now? Test strips only show fentanyl."),
    ("w01", "gym mishap", "My surgical wound reopened at the gym. Should I see a doctor?"),
    ("m02", "not closing", "My tranq wound will not close. The doctor gave me antibiotics and a dressing."),
    ("n02", "cable chaos", "My cat knocked over the router again. Any cable management tips?"),
    ("m03", "waitlist blues", "Necrotic ulcer from xylazine. Thinking about detox but the rehab waitlist is weeks long."),
    ("w02", "dog bite", "Dog bite left an abscess on my calf. Antibiotics are not helping."),
    ("x02", "policy question", "Xylazine ban passed in my state. Will that change anything on the street?"),
    ("m04", "shaking", "Tranq withdrawal is hell. My legs shake and the wound on my thigh oozes."),
    ("n03", "day one", "Started methadone maintenance and feel human again."),
    ("m05", "healing slow", "Started methadone last week after years on tranq. The abscess on my arm is finally healing."),
    ("w03", "foot trouble", "Diabetic foot ulcer tips? My podiatrist is useless."),
    ("x03", "blackouts", "Tranq makes me black out for hours. How do you stay safe?"),
    ("m06", "street view", "Kensington is full of people with xylazine wounds. Philly needs more wound care vans."),
    ("n04", "rent rant", "Kensington rents are insane now. Gentrification is wild."),
    ("m07", "overnight", "Fentanyl cut with xylazine gave me an eschar overnight. Never snort mystery powder."),
    ("b01", "", ""),
    ("w04", "burn question", "How long does a burn eschar take to fall off?"),
    ("m08", "spreading fast", "Tranq makes skin start rotting and the wound spreads fast. The zombie drug is real."),
    ("x04", "news clip", "Saw tranq mentioned on the news. They called it the zombie drug."),
    ("n05", "fourth try", "Rehab number four. This time feels different somehow."),
    ("m09", "mechanism", "Xylazine is an alpha-2 agonist, that is why wounds vasoconstrict and turn necrotic."),
    ("w05", "spider bite", "Necrosis after a spider bite, graphic photos inside."),
    ("m10", "comfort meds", "Clonidine and gabapentin helped me through tranq withdrawal after the ulcer surgery."),
    ("q01", "study link", "https://example.com/xylazine-wound-study"),
    ("n06", "draft day", "Fantasy football draft strategies for this season?"),
    ("x05", "denial", "My dealer swears there is no xylazine in his stuff. I do not believe him."),
    ("m11", "clinic intake", "Suboxone clinic said they treat tranq users too. My wound needs debriding first."),
    ("w06", "wound vac", "Wound vac experiences? Insurance finally approved one."),
    ("m12", "curious", "Does anyone know if xylazine wounds heal? Asking for research I saw about necrosis."),
    ("n07", "prescribed", "Gabapentin for anxiety, anyone else get prescribed this?"),
    ("d01", "SPREADING FAST", "Tranq makes skin  start rotting and the wound spreads fast.  The zombie drug is real."),
    ("x06", "the nod", "Tranq dope hits different. The nod lasts forever and I hate it."),
    ("m13", "nose trouble", "I snort tranq sometimes and found a small ulcer inside my nose."),
    ("w07", "caregiving", "Pressure ulcer prevention for bedridden family member?"),
    ("m14", "turned away", "Hospital refused to debride my xylazine abscess until I was sober. Is that legal?"),
    ("n08", "bad day", "Lost my job today. Just needed to vent somewhere."),
    ("m15", "worried friend", "My buddy in Philadelphia got a necrotic wound from tranq dope. He will not go to the hospital."),
    ("x07", "er visit", "Can hospitals even test for xylazine? The ER seemed clueless."),
    ("d02", "healing slow", "Started methadone last week after years on tranq. The abscess on my arm is finally healing."),
    ("n09", "flat loaf", "Homemade sourdough keeps collapsing. What am I doing wrong?"),
    ("m16", "two weeks", "Two weeks clean off tranq. The eschar fell off and new skin is growing. Detox was worth it."),
    ("w08", "crash update", "The wound on my shin from the crash is finally closing."),
    ("m17", "smoke question", "Why does xylazine cause wounds even if you smoke it? Something about the receptors?"),
    ("n10", "sold out", "Concert tickets sold out in minutes. Scalpers ruin everything."),
    ("x08", "cold turkey", "Quitting tranq cold turkey tomorrow. Wish me luck."),
    ("m18", "psa", "Saw a post about tranq wound care. Saline, cling wrap, and patience. Sharing for visibility."),
    ("n11", "denied again", "My insurance denied the MRI again. This system is broken."),
    ("n12", "night shift", "Meal prep ideas for night shift workers?"),
]

BASE = datetime(2023, 6, 1, 8, 0, 0, tzinfo=timezone.utc)
FLIP_RATE = 0.08
FLIP_SEED = 42


def build_posts() -> tuple[list[Post], dict[str, str]]:
    posts = []
    tag_by_id = {}
    for i, (tag, title, body) in enumerate(ROWS):
        post_id = f"p{i + 1:03d}"
        tag_by_id[post_id] = tag
        posts.append(
            Post(
                id=post_id,
                title=title,
                body=body,
                source="r/synthetic",
                created_at=BASE + timedelta(days=11 * i),
            )
        )
    return posts, tag_by_id


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    posts, tag_by_id = build_posts()
    corpus = Corpus(name="posts_50", posts=tuple(posts))
    write_posts(corpus, FIXTURES / "posts_50.jsonl")

    # oracle files come from construction intent, not from running the filter
    match_tags = {"m", "d", "q"}
    expect_filtered = [p.id for p in posts if tag_by_id[p.id][0] in match_tags]
    expect_clean = [p.id for p in posts if tag_by_id[p.id][0] == "m"]
    (FIXTURES / "filter_expected_ids.txt").write_text(
        "\n".join(expect_filtered) + "\n", encoding="utf-8"
    )
    (FIXTURES / "clean_expected_ids.txt").write_text(
        "\n".join(expect_clean) + "\n", encoding="utf-8"
    )

    # cross-check the package against the construction
    keywords = load_keywords()
    filtered = keyword_filter(corpus, keywords, "xylazine AND wound")
    assert [p.id for p in filtered.posts] == expect_filtered, (
        [p.id for p in filtered.posts],
        expect_filtered,
    )
    cleaned = dedup_clean(filtered).corpus
    assert [p.id for p in cleaned.posts] == expect_clean

    # gold labels: mock rules over each body, with a few seeded flips so
    # the fixture metrics are not trivially perfect
    cb = load_codebook()
    rng = np.random.default_rng(FLIP_SEED)
    with (FIXTURES / "gold_clean.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["post_id", *cb.alphabet])
        for post in cleaned.posts:
            values = mock_rule_vector(post.body, cb.alphabet)
            row = []
            for code in cb.alphabet:
                v = values[code]
                if rng.random() < FLIP_RATE:
                    v = 1 - v
                row.append(v)
            writer.writerow([post.id, *row])

    ds1 = [
        ("DS1_2shot_deepseekV3", 0.614, 0.612, 0.613, 0.9),
        ("DS1_2shot_gpt-4o", 0.626, 0.566, 0.594, 0.9),
        ("DS1_0shot_deepseekV3", 0.611, 0.599, 0.605, 0.899),
        ("DS1_1shot_gpt-4o", 0.619, 0.559, 0.588, 0.899),
        ("DS1_0shot_gpt-4o", 0.584, 0.551, 0.567, 0.892),
        ("DS1_0shot_llama3", 0.574, 0.478, 0.522, 0.887),
        ("DS1_1shot_gemma3", 0.522, 0.53, 0.526, 0.877),
        ("DS1_2shot_gemma3", 0.515, 0.568, 0.54, 0.875),
        ("DS1_1shot_llama3", 0.527, 0.455, 0.488, 0.877),
        ("DS1_1shot_gpt-35-turbo", 0.524, 0.441, 0.478, 0.876),
        ("DS1_0shot_gpt-35-turbo", 0.518, 0.47, 0.493, 0.875),
        ("DS1_2shot_gpt-35-turbo", 0.524, 0.395, 0.45, 0.876),
        ("DS1_0shot_gemma3", 0.469, 0.524, 0.495, 0.862),
        ("DS1_2shot_llama3", 0.511, 0.39, 0.443, 0.873),
        ("DS1_1shot_deepseekV3", 0.354, 0.315, 0.333, 0.838),
    ]
    ds2 = [
        ("DS2_gpt-4o", 0.76, 0.663, 0.708, 0.909),
        ("DS2_deepseekV3", 0.702, 0.642, 0.671, 0.895),
    ]
    for name, rows in (("ds1_reference_metrics.csv", ds1), ("ds2_reference_metrics.csv", ds2)):
        with (FIXTURES / name).open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label", "precision", "recall", "f1", "accuracy"])
            writer.writerows(rows)

    print(f"wrote fixtures for {len(posts)} posts; {len(cleaned)} survive filter+clean")


if __name__ == "__main__":
    main()
