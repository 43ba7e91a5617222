"""Prompt templates, exemplar selection, and rendering."""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, replace
from datetime import datetime, timezone

import pytest

from conftest import make_vector
from themecoder.backends import BackendConfig, cache_key, frame_fingerprints
from themecoder.codebook import DEFAULT_CODEBOOK_PATH, load_codebook
from themecoder.corpus import Post
from themecoder.errors import ConfigError, DataError
from themecoder.prompting import (
    DEFAULT_TEMPLATE_VERSION,
    TEMPLATE_VERSIONS,
    PromptTemplate,
    ShotPolicy,
    canonical_line,
    load_template,
    prompt_renderer,
    render_prompt,
    select_exemplars,
)

POST = Post(
    id="p1",
    title="tranq wounds are spreading",
    body="My leg wound from tranq dope keeps growing and nothing helps.",
    source="r/test",
    created_at=datetime(2023, 6, 1, 8, 0, 0, tzinfo=timezone.utc),
)


def render_one(cb, version=DEFAULT_TEMPLATE_VERSION, shots=0, **kw):
    policy = kw.pop("policy", ShotPolicy(shots=shots))
    return render_prompt(POST, cb, load_template(version), policy, **kw)


# --- templates -------------------------------------------------------------------


def test_template_catalog():
    assert TEMPLATE_VERSIONS == ("v1-per-theme", "v2-multi-question", "v3-single-line")
    assert DEFAULT_TEMPLATE_VERSION == "v3-single-line"
    for version in TEMPLATE_VERSIONS:
        assert load_template(version).version == version


def test_load_template_unknown_version():
    with pytest.raises(ConfigError, match="unknown template version 'v4'"):
        load_template("v4")


def test_template_override_path(tmp_path, cb):
    path = tmp_path / "custom.txt"
    path.write_text(
        "Classify strictly in the format:\n{{format_line}}\n{{categories}}\n{{post}}",
        encoding="utf-8",
    )
    tpl = load_template("v3-single-line", path=path)
    prompt = render_prompt(POST, cb, tpl, ShotPolicy())
    assert prompt.text.startswith("Classify strictly")


def test_template_missing_slot_rejected():
    with pytest.raises(ConfigError, match="missing slot {{post}}"):
        PromptTemplate(version="v2-multi-question", scaffold="{{questions}} only")


def test_v3_requires_strict_directive():
    scaffold = "{{post}} {{format_line}} {{categories}} reply in one line"
    with pytest.raises(ConfigError, match="strict format directive"):
        PromptTemplate(version="v3-single-line", scaffold=scaffold)


# --- shot policy and exemplar selection ----------------------------------------------


def test_shot_policy_validation():
    with pytest.raises(ConfigError, match="shots must be >= 0"):
        ShotPolicy(shots=-1)
    with pytest.raises(ConfigError, match="2 indices but shots=1"):
        ShotPolicy(shots=1, selection=(0, 1))
    assert ShotPolicy(shots=2, selection=[3, 1]).selection == (3, 1)


def test_select_exemplars_explicit(cb):
    pool = cb.exemplars
    picked = select_exemplars(cb, ShotPolicy(shots=2, selection=(3, 0)))
    assert picked == (pool[3], pool[0])
    with pytest.raises(ConfigError, match="index 99 out of range"):
        select_exemplars(cb, ShotPolicy(shots=1, selection=(99,)))


def test_select_exemplars_seeded(cb):
    policy = ShotPolicy(shots=3)
    first = select_exemplars(cb, policy, seed=7)
    assert first == select_exemplars(cb, policy, seed=7)
    assert len(first) == 3
    assert len(set(id(e) for e in first)) == 3  # without replacement
    assert all(e in cb.exemplars for e in first)
    pool = list(cb.exemplars)
    varied = {
        tuple(pool.index(e) for e in select_exemplars(cb, policy, seed=s))
        for s in range(12)
    }
    assert len(varied) > 1


def test_select_exemplars_bounds(cb):
    assert select_exemplars(cb, ShotPolicy(shots=0), seed=1) == ()
    over = len(cb.exemplars) + 1
    with pytest.raises(ConfigError, match=f"wants {over} exemplars"):
        select_exemplars(cb, ShotPolicy(shots=over))


# --- canonical line --------------------------------------------------------------------


def test_canonical_line_exact(cb):
    line = canonical_line(make_vector(cb, positives=("B",)), cb)
    assert line == "A=0, B=1, C=0, D=0, E=0, F=0, G=0, H=0, I=0, J=0, K=0, L=0, X=0"
    assert not line.endswith((".", ","))


def test_canonical_line_requires_full_alphabet(cb):
    with pytest.raises(DataError, match="missing code"):
        canonical_line({"A": 1, "B": 0}, cb)


def test_format_reminder_strings(cb):
    full = render_one(cb)
    assert full.format_reminder() == (
        "Reminder: reply with exactly one line, strictly in the format: "
        "A=_, B=_, C=_, D=_, E=_, F=_, G=_, H=_, I=_, J=_, K=_, L=_, X=_"
    )
    single = render_one(cb, version="v1-per-theme")[2]
    assert single.format_reminder() == (
        'Reminder: answer with exactly "C=[0]" or "C=[1]" and nothing else.'
    )


# --- rendering: v3 ---------------------------------------------------------------------


def test_v3_render_structure(cb):
    prompt = render_one(cb)
    assert prompt.template_version == "v3-single-line"
    assert prompt.target == cb.alphabet
    assert prompt.post_id == "p1"
    assert prompt.post_text == POST.body
    assert POST.body in prompt.text
    assert "strictly in the format:" in prompt.text
    assert "A=_, B=_, C=_, D=_, E=_, F=_, G=_, H=_, I=_, J=_, K=_, L=_, X=_" in prompt.text
    for theme in cb.themes:
        assert theme.name in prompt.text
        assert theme.definition in prompt.text
    assert "{{" not in prompt.text


def test_v3_shots_section(cb):
    bare = render_one(cb)
    assert "Examples:" not in bare.text
    shot = render_one(cb, policy=ShotPolicy(shots=1, selection=(4,)))
    assert shot.shots == 1
    assert "Examples:" in shot.text
    # the worked answer is the exemplar's canonical line
    line = canonical_line(cb.exemplars[4].labels, cb)
    assert line in shot.text


FIRST_LABELS = "labels: {A: 1, B: 0, C: 1, D: 1, "  # the first exemplar of the shipped codebook
SECOND_LABELS = "labels: {A: 0, B: 0, C: 0, D: 0, E: 1, F: 0, G: 1, H: 0, I: 0, J: 0, K: 0, L: 0, X: 0}"


def test_exemplar_labels_written_as_yaml_true_or_floats_render_as_0_and_1(tmp_path, cb, caplog):
    # true, 1.0 and 0.0 equal 1 and 0, so they pass validation; they must render as the digits
    text = DEFAULT_CODEBOOK_PATH.read_text(encoding="utf-8")
    assert text.count(FIRST_LABELS) == text.count(SECOND_LABELS) == 1
    book = tmp_path / "codebook.yaml"
    book.write_text(
        text.replace(FIRST_LABELS, "labels: {A: true, B: 0.0, C: 1.0, D: 1, ")
        .replace(SECOND_LABELS, SECOND_LABELS.replace("E: 1", "E: 1.0").replace("X: 0", "X: true")),
        encoding="utf-8",
    )
    with caplog.at_level(logging.WARNING, logger="themecoder.codebook"):
        loose = load_codebook(book)
    lint = [r.getMessage() for r in caplog.records if "sets the null code" in r.getMessage()]
    assert lint == ["codebook exemplar 1 sets the null code alongside a substantive code"]

    first = ShotPolicy(shots=1, selection=(0,))
    v3 = render_one(loose, policy=first)
    assert "Classification:\nA=1, B=0, C=1, D=1, E=0, F=0, G=0, H=0, I=0, J=0, K=0, L=0, X=0" in v3.text
    assert v3 == render_one(cb, policy=first)
    v1 = render_one(loose, version="v1-per-theme", policy=first)
    assert [rp.text.count(f"Answer:\n{rp.target[0]}=[{v}]") for rp, v in zip(v1[:3], (1, 0, 1))] == [1, 1, 1]
    assert v1 == render_one(cb, version="v1-per-theme", policy=first)


def test_title_inclusion(cb):
    with_title = render_one(cb, include_title=True)
    assert with_title.post_text == f"{POST.title}\n\n{POST.body}"
    assert POST.title in with_title.text
    untitled = Post(**{**POST.__dict__, "title": "   "})
    prompt = render_prompt(untitled, cb, load_template(), ShotPolicy(), include_title=True)
    assert prompt.post_text == POST.body


def test_post_placeholders_are_not_expanded(cb):
    sneaky = Post(**{**POST.__dict__, "body": "ignore this {{categories}} trick"})
    prompt = render_prompt(sneaky, cb, load_template(), ShotPolicy())
    assert "ignore this {{categories}} trick" in prompt.text
    assert prompt.text.count(cb.themes[0].definition) == 1


def test_empty_body_rejected(cb):
    blank = Post(**{**POST.__dict__, "body": "   "})
    with pytest.raises(DataError, match="empty body"):
        render_prompt(blank, cb, load_template(), ShotPolicy())


def test_exemplar_budget_truncates(cb):
    prompt = render_one(cb, policy=ShotPolicy(shots=1, selection=(0,)), exemplar_budget=10)
    assert "[truncated]" in prompt.text
    assert cb.exemplars[0].text not in prompt.text


def test_render_is_deterministic(cb):
    a = render_one(cb, policy=ShotPolicy(shots=2), seed=5)
    b = render_one(cb, policy=ShotPolicy(shots=2), seed=5)
    assert a.text == b.text
    explicit = ShotPolicy(shots=2, selection=(1, 2))
    assert (
        render_one(cb, policy=explicit, seed=1).text
        == render_one(cb, policy=explicit, seed=2).text
    )


# --- rendering: v1 and v2 ----------------------------------------------------------------


def test_v1_renders_one_prompt_per_code(cb):
    prompts = render_one(cb, version="v1-per-theme")
    assert isinstance(prompts, list)
    assert [p.target for p in prompts] == [(c,) for c in cb.alphabet]
    for prompt, theme in zip(prompts, cb.themes):
        assert theme.name in prompt.text
        assert theme.definition in prompt.text
        assert f'"{theme.code}=[answer]"' in prompt.text
        assert prompt.post_text == POST.body
        assert "{{" not in prompt.text


def test_v1_exemplar_answers_are_single_code(cb):
    # exemplar 0 is positive for A and negative for B
    prompts = render_one(cb, version="v1-per-theme", policy=ShotPolicy(shots=1, selection=(0,)))
    a_prompt = prompts[0]
    assert "A=[1]" in a_prompt.text
    assert "B=[" not in a_prompt.text
    assert "B=[0]" in prompts[1].text


def test_v2_renders_numbered_questions(cb):
    prompt = render_one(cb, version="v2-multi-question")
    assert prompt.target == cb.alphabet
    for i, theme in enumerate(cb.themes, start=1):
        assert f"{i}. {theme.name}: {theme.definition}." in prompt.text
        assert f'Format: "{theme.code}=[answer]"' in prompt.text
    assert "{{" not in prompt.text


# --- golden renders ---------------------------------------------------------------------
# sha256 over every RenderedPrompt field of each case, taken when every slot was
# still filled per post: render_prompt and prompt_renderer must reproduce them.

SLOTTED = Post(**{**POST.__dict__, "body": "body with {{categories}} and {{post}} and {{examples_section}}"})


def _slotted_codebook(cb):
    """The shipped codebook with slot names inside a theme definition and an exemplar."""
    first = cb.themes[0]
    exemplar = replace(first.exemplars[0], text="exemplar {{post}} text")
    first = replace(
        first,
        definition=first.definition + " {{examples_section}} then {{post}} then {{code}}",
        exemplars=(exemplar, *first.exemplars[1:]),
    )
    return replace(cb, themes=(first, *cb.themes[1:]))


def _custom_template(version):
    scaffold = {
        "v1-per-theme": "{{post}}|{{theme_name}}|{{theme_definition}}|{{code}}|{{examples_section}}|{{post}}",
        "v2-multi-question": "{{post}}|{{questions}}|{{examples_section}}|{{post}}",
        "v3-single-line": (
            "{{post}} strictly in the format: {{format_line}}|{{categories}}|{{n_topics}} "
            "{{first_code}}-{{last_code}}{{examples_section}}|{{post}}"
        ),
    }[version]
    return PromptTemplate(version=version, scaffold=scaffold)


def _golden_cases():
    cases = {}
    for version in TEMPLATE_VERSIONS:
        v = version.split("-")[0]
        cases[f"{v}-0shot"] = (version, "shipped", POST, ShotPolicy(), {})
        cases[f"{v}-1shot-seed0"] = (version, "shipped", POST, ShotPolicy(shots=1), {"seed": 0})
        cases[f"{v}-2shot-seed5"] = (version, "shipped", POST, ShotPolicy(shots=2), {"seed": 5})
        cases[f"{v}-2shot-selection"] = (version, "shipped", POST, ShotPolicy(shots=2, selection=(4, 1)), {})
        cases[f"{v}-title"] = (version, "shipped", POST, ShotPolicy(shots=1, selection=(2,)), {"include_title": True})
        cases[f"{v}-budget"] = (
            version, "shipped", POST, ShotPolicy(shots=2, selection=(0, 3)), {"exemplar_budget": 12}
        )
        cases[f"{v}-slotted-body"] = (version, "shipped", SLOTTED, ShotPolicy(shots=1, selection=(0,)), {})
        cases[f"{v}-slotted-codebook"] = (version, "custom", SLOTTED, ShotPolicy(shots=2, selection=(0, 4)), {})
    return cases


GOLDEN = {
    "v1-0shot": "70b668fb01e91a30ca5bf844eb8ded3359fa95f05fd995308478a8f8cd0f64f6",
    "v1-1shot-seed0": "4d25b03a7459a374529267b09682cf02b340ea080d3ada6865bbec2707161ced",
    "v1-2shot-seed5": "6e5bb238f5b9018718d324cfe09bd97f76b34c4cd29f793f5f0f9e1e021efc24",
    "v1-2shot-selection": "3c46454da38600aa4af0a5d2df6128e3635399dfaef329bfeaeae1cda6631835",
    "v1-title": "4784efca828a1ce81c1710895a36ac17b6b5b45511b4db085251f244014329b2",
    "v1-budget": "985ea73d4115f3cf9ce240b231a6155a17a3af16973b65ad063d0082755e519e",
    "v1-slotted-body": "c08874e98efe18d5f295823ab2f424ff284d23f988fb5261731e0105f99dbcfb",
    "v1-slotted-codebook": "11ad4755441c6f06fc0fd71cceff5a22a039b6cda2e00f90bb1f2746025ae217",
    "v2-0shot": "1273d4f65d40f2f133a647841f720e64f2ad9be0f11173b8b6a2f6efb0089193",
    "v2-1shot-seed0": "51e932b5d3d80f9aaef453133d38d253b883c4ead915f650e739c43f2fd9be90",
    "v2-2shot-seed5": "f481f92f417065da6a89b76a8efca237481d8ffe5b4a58a0dee7924816c734eb",
    "v2-2shot-selection": "4c052ed97804f1bae695be2d6d742309f90657c42eda339a50d36ab8c75dcb88",
    "v2-title": "523381c3846a4ca0d763b0d8e424ab89a66412f1190b5c1339ac1ba6c4c9c96f",
    "v2-budget": "4173759818d7dd7d333da5b3de9105dca9858e48584f46250acefb5b5270acbc",
    "v2-slotted-body": "437ee803f53e20175989d7970a0a960f4b006e1c2b7cff444cb9bab172e558fd",
    "v2-slotted-codebook": "27e18e6da029ae061d19dfbc371f152552395dd3269a3bf2587a9beb8535c313",
    "v3-0shot": "21b7e9cc2256672ec2a6bfa9e6e61b925b5e5be3529d010f67ebb2e8ca1fa15e",
    "v3-1shot-seed0": "7d6b9c60cab89fef9deb8babe3db3fcdaa61b4d93c823e0542731f12d7ef5dbf",
    "v3-2shot-seed5": "574d167b27cf66739b174b637b529fda57f62594d3a2137166f9b9e46e373e0a",
    "v3-2shot-selection": "336f583e4629fa8f81be5221e33f36243f6f0ba2cb5df3274bd68d0673e68d33",
    "v3-title": "9195c8a4d51198ea190c4513f9d190cac4c1ab38d8a37bcb7282e5a2549253c9",
    "v3-budget": "569345437394fbd1580e48fd9b1378467a62e8b810bb98298108555415fc4849",
    "v3-slotted-body": "5d8766f46738e37a9e1ec2e2fe36a7d132ceca3a142debab05e5a43d69a09228",
    "v3-slotted-codebook": "c243842b2dbcfd5b74146b6957a9568e2d4ccbbafb7e4834724539b5dbaee101",
}


def _digest(rendered) -> str:
    prompts = rendered if isinstance(rendered, (list, tuple)) else [rendered]  # render_prompt's shape or render's
    blob = json.dumps([asdict(rp) for rp in prompts], sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_render_matches_golden(cb, name):
    version, kind, post, policy, kw = _golden_cases()[name]
    book, tpl = (cb, load_template(version)) if kind == "shipped" else (_slotted_codebook(cb), _custom_template(version))
    assert _digest(render_prompt(post, book, tpl, policy, **kw)) == GOLDEN[name]
    render = prompt_renderer(book, tpl, policy, **kw)
    assert _digest(render(post)) == GOLDEN[name]
    assert _digest(render(post)) == GOLDEN[name]  # the frames are not consumed


def test_golden_cases_cover_every_case():
    assert sorted(GOLDEN) == sorted(_golden_cases())


# --- request fingerprints from frames ------------------------------------------

FINGERPRINT_BACKENDS = [
    BackendConfig(kind="mock-rules", model=model, temperature=temperature)
    for model in ("mock", 'm "<<prompt>>" \\ \u00e9')  # the second holds the slot marker and escapes
    for temperature in (0, 0.7)
]


def _assert_fingerprints_match_cache_key(render, post, version) -> None:
    prompts = render(post)
    assert isinstance(prompts, tuple)
    frames = [text for _, text in render.frames]
    assert len(frames) == len(prompts)
    for bcfg in FINGERPRINT_BACKENDS:
        fingerprints = frame_fingerprints(bcfg, version, frames)
        assert fingerprints(prompts[0].post_text) == [cache_key(bcfg, rp) for rp in prompts]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_frame_fingerprints_match_cache_key(cb, name):
    version, kind, post, policy, kw = _golden_cases()[name]
    book, tpl = (cb, load_template(version)) if kind == "shipped" else (_slotted_codebook(cb), _custom_template(version))
    _assert_fingerprints_match_cache_key(prompt_renderer(book, tpl, policy, **kw), post, version)


@pytest.mark.parametrize(
    "body",
    [
        'a "quoted" word',
        "a back\\slash and \\u0041 as text",
        "tab\tnewline\ncarriage\rbell\x07nul\x00escape\x1bdel\x7f",
        "line\u2028separator\u2029paragraph",
        "emoji \U0001f9df and \u00e9",
        "a literal {{post}} slot",
    ],
    ids=["quote", "backslash", "control", "u2028", "non-bmp", "post-slot"],
)
@pytest.mark.parametrize("scaffold", ["shipped", "custom"])  # the custom scaffolds hold {{post}} twice
@pytest.mark.parametrize("version", TEMPLATE_VERSIONS)
def test_frame_fingerprints_escape_the_payload_as_cache_key_does(cb, version, scaffold, body):
    tpl = load_template(version) if scaffold == "shipped" else _custom_template(version)
    post = replace(POST, body=body)
    render = prompt_renderer(cb, tpl, ShotPolicy(shots=1), include_title=True)
    _assert_fingerprints_match_cache_key(render, post, version)
