"""Prompt rendering under the three template generations.

v1-per-theme asks one theme per prompt (one render per code), v2 asks all
themes as numbered questions in one prompt, v3 (the default) demands one
strict classification line. Templates are versioned text assets with
``{{placeholder}}`` slots and can be overridden by path; rendering is a
pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Mapping, NamedTuple

from .codebook import Codebook, Exemplar
from .corpus import Post
from .draws import Stream
from .errors import ConfigError, DataError
from .jsonl import read_text
from .parsing import render_answer, render_line

DEFAULT_TEMPLATE_VERSION = "v3-single-line"
DEFAULT_EXEMPLAR_BUDGET = 1500


class _Template(NamedTuple):
    file: str  # the shipped scaffold, under data/templates
    slots: tuple[str, ...]  # each slot a scaffold must hold
    directive: str | None = None  # a phrase a scaffold must carry


_TEMPLATE_DIR = Path(__file__).parent / "data" / "templates"
_TEMPLATES = {
    "v1-per-theme": _Template("v1_per_theme.txt", ("{{post}}", "{{theme_name}}", "{{theme_definition}}", "{{code}}")),
    "v2-multi-question": _Template("v2_multi_question.txt", ("{{post}}", "{{questions}}")),
    "v3-single-line": _Template(
        "v3_single_line.txt", ("{{post}}", "{{format_line}}", "{{categories}}"), "strictly in the format"
    ),
}
TEMPLATE_VERSIONS = tuple(_TEMPLATES)


def _template(version: str) -> _Template:
    if version not in _TEMPLATES:
        raise ConfigError(f"unknown template version {version!r}; known: {', '.join(TEMPLATE_VERSIONS)}")
    return _TEMPLATES[version]


@dataclass(frozen=True)
class ShotPolicy:
    """How many worked exemplars to embed, and which ones.

    ``selection`` gives explicit indices into the codebook exemplar pool;
    when None, selection is seed-driven at render time.
    """

    shots: int = 0
    selection: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.shots < 0:
            raise ConfigError(f"shots must be >= 0, got {self.shots}")
        if self.selection is not None:
            object.__setattr__(self, "selection", tuple(self.selection))
            if len(self.selection) != self.shots:
                raise ConfigError(
                    f"exemplar selection has {len(self.selection)} indices "
                    f"but shots={self.shots}"
                )


@dataclass(frozen=True)
class PromptTemplate:
    version: str
    scaffold: str

    def __post_init__(self) -> None:
        row = _template(self.version)
        for slot in row.slots:
            if slot not in self.scaffold:
                raise ConfigError(
                    f"template {self.version} scaffold is missing slot {slot}"
                )
        if row.directive is not None and row.directive not in self.scaffold:
            raise ConfigError("v3 scaffold must carry the strict format directive")


@dataclass(frozen=True)
class RenderedPrompt:
    """One ready-to-send prompt. ``target`` is the code(s) the response
    must assign: a single code for v1, the full alphabet otherwise."""

    text: str
    template_version: str
    shots: int
    target: tuple[str, ...]
    post_id: str
    post_text: str = ""

    def format_reminder(self) -> str:
        """One-line format reminder appended on a re-ask."""
        if len(self.target) == 1:
            zero, one = render_answer(self.target[0], 0), render_answer(self.target[0], 1)
            return f'Reminder: answer with exactly "{zero}" or "{one}" and nothing else.'
        return f"Reminder: reply with exactly one line, strictly in the format: {render_line(self.target, repeat('_'))}"


def load_template(version: str = DEFAULT_TEMPLATE_VERSION, path: str | Path | None = None) -> PromptTemplate:
    """Load a shipped template by version, or an override scaffold from path."""
    if path is None:
        path = _TEMPLATE_DIR / _template(version).file
    scaffold = read_text(Path(path), "template file")
    return PromptTemplate(version=version, scaffold=scaffold)


def canonical_line(v: Mapping[str, int], cb: Codebook) -> str:
    """Render a ``{code: 0|1}`` mapping as the canonical classification line.

    Canonical order comes from the codebook, terms are comma-space
    separated, and there is no trailing punctuation.
    """
    missing = [c for c in cb.alphabet if c not in v]
    if missing:
        raise DataError(f"vector is missing code(s) {', '.join(missing)}")
    return render_line(cb.alphabet, map(v.__getitem__, cb.alphabet))


def select_exemplars(cb: Codebook, policy: ShotPolicy, seed: int = 0) -> tuple[Exemplar, ...]:
    """Pick ``policy.shots`` exemplars from the codebook pool.

    Explicit indices win; otherwise a seeded uniform draw without
    replacement (``draws.Stream(seed).choice``), in draw order.
    Deterministic either way.
    """
    if policy.shots == 0:
        return ()
    pool = cb.exemplars
    if len(pool) < policy.shots:
        raise ConfigError(
            f"shot policy wants {policy.shots} exemplars but the codebook has {len(pool)}"
        )
    if policy.selection is not None:
        bad = [i for i in policy.selection if not 0 <= i < len(pool)]
        if bad:
            raise ConfigError(
                f"exemplar index {bad[0]} out of range (pool has {len(pool)})"
            )
        return tuple(pool[i] for i in policy.selection)
    return tuple(pool[i] for i in Stream(seed).choice(len(pool), policy.shots))


def _truncate(text: str, budget: int) -> str:
    if len(text) <= budget:
        return text
    return text[:budget] + " [truncated]"


def _payload(post: Post, include_title: bool) -> str:
    if not post.body.strip():
        raise DataError(f"post {post.id!r} has an empty body")
    if include_title and post.title.strip():
        return f"{post.title}\n\n{post.body}"
    return post.body


def _examples_section(exemplars: tuple[Exemplar, ...], heading: str, answers: list[str], budget: int) -> str:
    """Each exemplar's text, then its answer under ``heading``."""
    if not exemplars:
        return ""
    parts = ["\n\nExamples:\n"]
    for i, (ex, answer) in enumerate(zip(exemplars, answers), start=1):
        parts.append(f'\n{i}. Post:\n"{_truncate(ex.text, budget)}"\n\n{heading}:\n{answer}\n')
    return "".join(parts).rstrip("\n")


def prompt_renderer(
    cb: Codebook,
    tpl: PromptTemplate,
    policy: ShotPolicy,
    seed: int = 0,
    include_title: bool = False,
    exemplar_budget: int = DEFAULT_EXEMPLAR_BUDGET,
):
    """Fill every slot but ``{{post}}`` once; return the per-post render.

    The returned function maps a post to a tuple of RenderedPrompts, one
    per frame: one frame for v2/v3, one per code for v1-per-theme. Its
    ``frames`` attribute holds one ``(target, text)`` pair per frame, in
    render order, with ``{{post}}`` still in the text. ``{{post}}`` is the
    last slot filled, so the text is the same as filling every slot per
    post. A bad shot policy raises here, before any post is rendered.
    """
    exemplars = select_exemplars(cb, policy, seed)
    alphabet = cb.alphabet

    def line_examples() -> str:
        lines = [canonical_line(ex.labels, cb) for ex in exemplars]
        return _examples_section(exemplars, "Classification", lines, exemplar_budget)

    def answer_examples(code: str) -> str:
        # per-theme prompts show only the target code's answer for each exemplar
        answers = [render_answer(code, ex.labels[code]) for ex in exemplars]
        return _examples_section(exemplars, "Answer", answers, exemplar_budget)

    if tpl.version == "v1-per-theme":
        frames = [
            (
                (theme.code,),
                tpl.scaffold.replace("{{theme_name}}", theme.name)
                .replace("{{theme_definition}}", theme.definition)
                .replace("{{code}}", theme.code)
                .replace("{{examples_section}}", answer_examples(theme.code)),
            )
            for theme in cb.themes
        ]
    elif tpl.version == "v2-multi-question":
        questions = "\n\n".join(
            f'{i}. {t.name}: {t.definition}. Format: "{render_answer(t.code, "answer")}".'
            for i, t in enumerate(cb.themes, start=1)
        )
        frames = [
            (
                alphabet,
                tpl.scaffold.replace("{{questions}}", questions).replace("{{examples_section}}", line_examples()),
            )
        ]
    else:  # v3-single-line
        categories = "\n\n".join(f"{t.code}. {t.name}\n{t.definition}" for t in cb.themes)
        frames = [
            (
                alphabet,
                tpl.scaffold.replace("{{n_topics}}", str(len(alphabet)))
                .replace("{{first_code}}", alphabet[0])
                .replace("{{last_code}}", alphabet[-1])
                .replace("{{format_line}}", render_line(alphabet, repeat("_")))
                .replace("{{categories}}", categories)
                .replace("{{examples_section}}", line_examples()),
            )
        ]

    def render(post: Post) -> tuple[RenderedPrompt, ...]:
        payload = _payload(post, include_title)
        return tuple([  # a list comprehension, which builds faster than a generator
            RenderedPrompt(
                text=frame.replace("{{post}}", payload),
                template_version=tpl.version,
                shots=policy.shots,
                target=target,
                post_id=post.id,
                post_text=payload,
            )
            for target, frame in frames
        ])

    render.frames = tuple(frames)
    return render


def render_prompt(
    post: Post,
    cb: Codebook,
    tpl: PromptTemplate,
    policy: ShotPolicy,
    seed: int = 0,
    include_title: bool = False,
    exemplar_budget: int = DEFAULT_EXEMPLAR_BUDGET,
):
    """Render the prompt(s) for one post.

    Returns one RenderedPrompt for v2/v3, or a list with one per code for
    v1-per-theme. Identical inputs produce byte-identical text.
    """
    prompts = prompt_renderer(cb, tpl, policy, seed, include_title, exemplar_budget)(post)
    return list(prompts) if tpl.version == "v1-per-theme" else prompts[0]
