"""Slot-template DSL: parsing and expansion.

Template syntax is whitespace-separated items.  ``Name[]`` is an
unconstrained slot drawing from lexicon category ``Name``; ``Name[f=V,g=W]``
additionally binds feature ``f`` to agreement variable ``V`` (slots sharing a
variable must agree on that feature's value); a bare lowercase token is a
literal emitted verbatim.

Example, an embedded-question paradigm::

    Wh[] Aux_mat[] Subj[] V_mat[] Adv[] V_emb[] Obj[]

Expansion order is deterministic: the full cartesian product of slot
candidates in lexicographic index order (leftmost slot outermost), filtered
by agreement, deduplicated on the emitted token tuple.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

from .io import DataError, read_jsonl, read_lines
from .records import SentenceRecord
from .seeds import derive_seed

PHENOMENA = (
    "anaphor_agreement",
    "argument_structure",
    "binding",
    "control_raising",
    "determiner_noun_agreement",
    "ellipsis",
    "filler_gap",
    "irregular_forms",
    "island_effects",
    "npi_licensing",
    "quantifiers",
    "subject_verb_agreement",
)


class TemplateParseError(ValueError):
    """Malformed template DSL; ``offset`` is the byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Slot:
    """One slot: a lexicon category plus feature=variable agreement bindings."""

    category: str
    constraints: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Template:
    """A parsed template: ordered slots and literals under a phenomenon tag."""

    id: str
    phenomenon: str
    elements: tuple["Slot | str", ...]  # literals as bare strings, in sentence order

    def __post_init__(self) -> None:
        if self.phenomenon not in PHENOMENA and self.phenomenon != "custom":
            raise ValueError(f"unknown phenomenon tag {self.phenomenon!r}")
        if not self.slots:
            raise ValueError(f"template {self.id!r} has no slots")

    @property
    def slots(self) -> tuple[Slot, ...]:
        return tuple(e for e in self.elements if isinstance(e, Slot))


@dataclass(frozen=True)
class LexiconEntry:
    word: str
    features: tuple[tuple[str, str], ...] = ()
    pose_source: str = ""


@dataclass(frozen=True)
class SlotLexicon:
    """category -> candidate words with features and sign-lexicon references."""

    entries: Mapping[str, tuple[LexiconEntry, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        fixed = {cat: tuple(items) for cat, items in self.entries.items()}
        object.__setattr__(self, "entries", fixed)

    def candidates(self, category: str) -> tuple[LexiconEntry, ...]:
        try:
            return self.entries[category]
        except KeyError:
            raise KeyError(f"unknown slot category {category!r}") from None

    def words(self) -> set[str]:
        return {e.word.lower() for items in self.entries.values() for e in items}


_SLOT_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\[([^\]]*)\]$")
_CONSTRAINT_RE = re.compile(r"^([a-z][a-z0-9_]*)=([A-Z][A-Z0-9]*)$")
_LITERAL_RE = re.compile(r"^[a-z][a-z0-9'\-]*$")


def parse_template(src: str, template_id: str = "", phenomenon: str = "custom") -> Template:
    """Parse one DSL string into a Template.

    Raises TemplateParseError with the byte offset of the offending item on
    malformed brackets, empty categories/values, or duplicate feature keys.
    """
    if not src.strip():
        raise TemplateParseError("empty template source", 0)
    elements: list[Slot | str] = []
    for match in re.finditer(r"\S+", src):
        item = match.group(0)
        offset = len(src[: match.start()].encode("utf-8"))
        if "[" in item or "]" in item:
            slot_match = _SLOT_RE.match(item)
            if slot_match is None:
                raise TemplateParseError(f"malformed slot {item!r}", offset)
            category, inner = slot_match.group(1), slot_match.group(2)
            constraints: list[tuple[str, str]] = []
            seen_features: set[str] = set()
            if inner:
                for part in inner.split(","):
                    cm = _CONSTRAINT_RE.match(part)
                    if cm is None:
                        raise TemplateParseError(
                            f"malformed constraint {part!r} in slot {category!r}", offset
                        )
                    feature, var = cm.group(1), cm.group(2)
                    if feature in seen_features:
                        raise TemplateParseError(
                            f"duplicate feature {feature!r} in slot {category!r}", offset
                        )
                    seen_features.add(feature)
                    constraints.append((feature, var))
            elements.append(Slot(category=category, constraints=tuple(sorted(constraints))))
        elif _LITERAL_RE.match(item):
            elements.append(item)
        else:
            raise TemplateParseError(
                f"expected 'Name[...]' slot or lowercase literal, got {item!r}", offset
            )
    return Template(id=template_id, phenomenon=phenomenon, elements=tuple(elements))


def _expansion_texts(t: Template, lex: SlotLexicon) -> Iterator[tuple[str, ...]]:
    """Distinct sentences in lexicographic candidate-index order.

    Agreement is pruned as early as possible: a partial assignment that
    contradicts an existing variable binding skips the whole subtree.
    """
    # Per slot: the literals before it, its constraints, its (word, features) candidates.
    steps: list[tuple] = []
    literals: list[str] = []
    for e in t.elements:
        if isinstance(e, str):
            literals.append(e)
            continue
        candidates = [(c.word, dict(c.features)) for c in lex.candidates(e.category)]
        steps.append((tuple(literals), e.constraints, candidates))
        literals = []
    tail = tuple(literals)
    seen: set[tuple[str, ...]] = set()

    def walk(depth: int, prefix: tuple[str, ...],
             bindings: dict[str, Optional[str]]) -> Iterator[tuple[str, ...]]:
        if depth == len(steps):
            tokens = prefix + tail
            if tokens not in seen:
                seen.add(tokens)
                yield tokens
            return
        before, constraints, candidates = steps[depth]
        for word, features in candidates:
            new_bindings = bindings
            for feature, var in constraints:
                value = features.get(feature)
                if var not in new_bindings:
                    if new_bindings is bindings:
                        new_bindings = dict(bindings)
                    new_bindings[var] = value
                elif new_bindings[var] != value:
                    break
            else:
                yield from walk(depth + 1, prefix + before + (word,), new_bindings)

    return walk(0, (), {})


def count_expansions(t: Template, lex: SlotLexicon) -> int:
    """Number of distinct sentences expand_all would emit."""
    return sum(1 for _ in _expansion_texts(t, lex))


def expand_all(
    t: Template, lex: SlotLexicon, limit: Optional[int] = None
) -> Iterator[SentenceRecord]:
    """Enumerate the template's sentences as records tagged with its phenomenon."""
    for i, tokens in enumerate(_expansion_texts(t, lex)):
        if limit is not None and i >= limit:
            return
        yield SentenceRecord(id=f"{t.id}-{i:06d}", text=tokens, phenomenon=t.phenomenon)


def sample_expansions(
    t: Template, lex: SlotLexicon, n: int, seed: int
) -> Iterator[SentenceRecord]:
    """Draw n sentences uniformly with replacement from the expansion space."""
    space = list(_expansion_texts(t, lex))
    if not space:
        raise ValueError(f"template {t.id!r} has an empty expansion space")
    rng = random.Random(derive_seed(seed, t.id))
    for i in range(n):
        tokens = space[rng.randrange(len(space))]
        yield SentenceRecord(id=f"{t.id}-s{i:06d}", text=tokens, phenomenon=t.phenomenon)


# --- file formats -------------------------------------------------------------
#
# Template file: UTF-8 text, one template per line, "id <TAB> phenomenon
# <TAB> dsl".  Slot lexicon: JSON lines, one entry per line with keys
# category, word, features, pose_source.


def _template_line(line: str) -> Template | None:
    if not line.strip() or line.lstrip().startswith("#"):
        return None
    parts = line.split("\t")
    if len(parts) != 3:
        raise ValueError("expected 'id<TAB>phenomenon<TAB>dsl'")
    template_id, phenomenon, dsl = parts
    if not template_id.strip():
        raise ValueError("empty template id")
    return parse_template(dsl, template_id=template_id, phenomenon=phenomenon)


def load_templates(path) -> list[Template]:
    """One template per 'id<TAB>phenomenon<TAB>dsl' line; blank and '#' lines
    are skipped.  An id given twice is a DataError citing the line of the repeat."""
    templates: dict[str, Template] = {}
    for lineno, template in read_lines(path, _template_line):
        if template.id in templates:
            raise DataError(f"{path}:{lineno}: template id {template.id!r} given twice")
        templates[template.id] = template
    return list(templates.values())


def _lexicon_line(obj: dict) -> tuple[str, LexiconEntry]:
    category, word = obj["category"], obj["word"]
    features, pose_source = obj.get("features", {}), obj.get("pose_source", word)
    if not all(isinstance(v, str) for v in (category, word, pose_source)):
        raise ValueError("category, word and pose_source must be strings")
    if not isinstance(features, dict) or not all(isinstance(v, str) for v in features.values()):
        raise ValueError("features must be an object of strings")
    features = tuple(sorted(features.items()))
    return category, LexiconEntry(word=word, features=features, pose_source=pose_source)


def load_slot_lexicon(path) -> SlotLexicon:
    entries: dict[str, list[LexiconEntry]] = {}
    for _, (category, entry) in read_jsonl(path, _lexicon_line):
        entries.setdefault(category, []).append(entry)
    return SlotLexicon(entries={cat: tuple(items) for cat, items in entries.items()})

