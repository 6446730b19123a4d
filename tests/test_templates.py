from __future__ import annotations

import math
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signsynth.templates import (
    LexiconEntry,
    PHENOMENA,
    Slot,
    SlotLexicon,
    Template,
    TemplateParseError,
    count_expansions,
    expand_all,
    load_slot_lexicon,
    load_templates,
    parse_template,
    sample_expansions,
    save_slot_lexicon,
    save_templates,
)

from . import oracles


def entry(word, pose_source=None, **features):
    return LexiconEntry(
        word=word,
        features=tuple(sorted((k, str(v)) for k, v in features.items())),
        pose_source=pose_source or word,
    )


AGREEMENT_LEX = SlotLexicon(
    entries={
        "Subj": (
            entry("boy", num="sg"),
            entry("girl", num="sg"),
            entry("people", num="pl"),
        ),
        "V": (entry("hides", num="sg"), entry("hide", num="pl"), entry("vanish", num="pl")),
    }
)


def to_oracle_form(template):
    """Template -> the plain element list the enumeration oracle consumes."""
    elements = []
    for e in template.elements:
        if isinstance(e, str):
            elements.append(e)
        else:
            elements.append((e.category, dict(e.constraints)))
    return elements


def oracle_lexicon(lex: SlotLexicon):
    return {
        cat: [(e.word, dict(e.features)) for e in items] for cat, items in lex.entries.items()
    }


# Small random lexicons and templates over them: repeated words, entries
# missing a feature, empty categories, and slots whose 0-2 constraints share
# agreement variables, with literals between the slots.
CATEGORIES = ("A", "B", "C")

entries = st.builds(
    lambda word, features: LexiconEntry(word=word, features=tuple(sorted(features.items()))),
    st.sampled_from(["x", "y", "z", "can"]),
    st.dictionaries(st.sampled_from(["num", "case"]), st.sampled_from(["sg", "pl"]), max_size=2),
)
lexicons = st.fixed_dictionaries(
    {cat: st.lists(entries, max_size=4).map(tuple) for cat in CATEGORIES}
).map(lambda by_category: SlotLexicon(entries=by_category))
slots = st.builds(
    lambda category, constraints: Slot(category, tuple(sorted(constraints.items()))),
    st.sampled_from(CATEGORIES),
    st.dictionaries(st.sampled_from(["num", "case"]), st.sampled_from(["N", "M"]), max_size=2),
)
templates = (
    st.lists(st.one_of(slots, st.sampled_from(["can", "the"])), min_size=1, max_size=5)
    .filter(lambda elements: any(isinstance(e, Slot) for e in elements))
    .map(lambda elements: Template(id="t", phenomenon="custom", elements=tuple(elements)))
)


class TestParse:
    def test_seven_slot_paradigm(self):
        t = parse_template("Wh[] Aux_mat[] Subj[] V_mat[] Adv[] V_emb[] Obj[]")
        assert len(t.slots) == 7
        assert len(t.elements) == 7  # no literals
        assert [s.category for s in t.slots] == [
            "Wh", "Aux_mat", "Subj", "V_mat", "Adv", "V_emb", "Obj",
        ]

    def test_shared_agreement_variable(self):
        t = parse_template("Subj[num=N] V[num=N]")
        assert len(t.slots) == 2
        assert t.slots[0].constraints == (("num", "N"),)
        assert t.slots[1].constraints == (("num", "N"),)

    def test_empty_value_is_parse_error(self):
        with pytest.raises(TemplateParseError):
            parse_template("Subj[num=]")

    def test_error_carries_byte_offset(self):
        with pytest.raises(TemplateParseError) as exc:
            parse_template("Subj[] V[num=]")
        assert exc.value.offset == len("Subj[] ".encode("utf-8"))

    def test_duplicate_feature_rejected(self):
        with pytest.raises(TemplateParseError, match="duplicate"):
            parse_template("Subj[num=N,num=M]")

    def test_literals_and_slots_interleave(self):
        t = parse_template("Det[] boy can V[]")
        assert t.elements[1:3] == ("boy", "can")
        assert [s.category for s in t.slots] == ["Det", "V"]

    def test_uppercase_bare_token_rejected(self):
        with pytest.raises(TemplateParseError):
            parse_template("Subj[] Verb")

    def test_requires_a_slot(self):
        with pytest.raises(ValueError, match="no slots"):
            parse_template("just literal words")

    def test_unknown_phenomenon_rejected(self):
        with pytest.raises(ValueError, match="phenomenon"):
            parse_template("Subj[]", phenomenon="nonsense")

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(["boy", "can", "the"]),
                st.tuples(
                    st.sampled_from(["Subj", "V_mat", "Obj"]),
                    st.dictionaries(
                        st.sampled_from(["num", "case"]), st.sampled_from(["N", "M", "K"]),
                        max_size=2,
                    ),
                ),
            ),
            min_size=1,
            max_size=6,
        ).filter(lambda items: any(not isinstance(i, str) for i in items))
    )
    @settings(max_examples=60, deadline=None)
    def test_render_parse_round_trip(self, items):
        src = " ".join(
            item
            if isinstance(item, str)
            else item[0] + "[" + ",".join(f"{f}={v}" for f, v in sorted(item[1].items())) + "]"
            for item in items
        )
        t = parse_template(src)
        assert parse_template(t.render()) == t
        assert t.render() == src


class TestCountAndExpand:
    def test_product_rule(self):
        lex = SlotLexicon(
            entries={
                "A": tuple(entry(f"a{i}") for i in range(3)),
                "B": tuple(entry(f"b{i}") for i in range(4)),
            }
        )
        t = parse_template("A[] B[]")
        assert count_expansions(t, lex) == 12

    def test_agreement_example(self):
        # 2 singular + 1 plural subjects; 1 singular + 2 plural verbs:
        # 2*1 + 1*2 = 4 agreeing sentences.
        t = parse_template("Subj[num=N] V[num=N]")
        assert count_expansions(t, AGREEMENT_LEX) == 4

    def test_zero_candidates(self):
        lex = SlotLexicon(entries={"A": (), "B": (entry("b"),)})
        t = parse_template("A[] B[]")
        assert count_expansions(t, lex) == 0
        assert list(expand_all(t, lex)) == []

    def test_unknown_category_named(self):
        t = parse_template("Nope[]")
        with pytest.raises(KeyError, match="Nope"):
            count_expansions(t, SlotLexicon(entries={}))

    def test_expand_limit_zero(self):
        t = parse_template("Subj[num=N] V[num=N]")
        assert list(expand_all(t, AGREEMENT_LEX, limit=0)) == []

    def test_expand_single_sentence_shape(self):
        lex = SlotLexicon(
            entries={"Subj": (entry("some_boy"),), "V": (entry("clean"),)}
        )
        t = parse_template("Subj[] V[]", template_id="t", phenomenon="argument_structure")
        records = list(expand_all(t, lex))
        assert len(records) == 1
        assert records[0].text == ("some_boy", "clean")
        assert records[0].phenomenon == "argument_structure"

    def test_expand_matches_enumeration_oracle(self):
        t = parse_template(
            "Det[num=N] Subj[num=N] can V[num=M] Obj[num=M]", template_id="t1"
        )
        lex = SlotLexicon(
            entries={
                "Det": (entry("this", num="sg"), entry("these", num="pl")),
                "Subj": (entry("boy", num="sg"), entry("people", num="pl")),
                "V": (entry("hides", num="sg"), entry("hide", num="pl")),
                "Obj": (entry("coat", num="sg"), entry("coats", num="pl")),
            }
        )
        got = [r.text for r in expand_all(t, lex)]
        want = oracles.enumerate_sentences(to_oracle_form(t), oracle_lexicon(lex))
        assert got == want
        assert count_expansions(t, lex) == len(want)

    @given(templates, lexicons)
    @settings(max_examples=100, deadline=None)
    def test_walk_matches_enumeration_oracle(self, t, lex):
        want = oracles.enumerate_sentences(to_oracle_form(t), oracle_lexicon(lex))
        assert [r.text for r in expand_all(t, lex)] == want
        assert count_expansions(t, lex) == len(want)

    def test_deduplicates_repeated_words(self):
        lex = SlotLexicon(entries={"A": (entry("x", num="sg"), entry("x", num="pl"))})
        t = parse_template("A[]")
        assert count_expansions(t, lex) == 1

    def test_all_outputs_satisfy_agreement(self):
        t = parse_template("Subj[num=N] V[num=N]")
        features = {e.word: dict(e.features)["num"] for cat in ("Subj", "V")
                    for e in AGREEMENT_LEX.entries[cat]}
        for record in expand_all(t, AGREEMENT_LEX):
            subj, verb = record.text
            assert features[subj] == features[verb]

    def test_no_duplicate_records(self):
        t = parse_template("Subj[num=N] V[num=N]", template_id="t")
        records = list(expand_all(t, AGREEMENT_LEX))
        texts = [r.text for r in records]
        ids = [r.id for r in records]
        assert len(set(texts)) == len(texts)
        assert len(set(ids)) == len(ids)


class TestSample:
    def test_deterministic(self):
        t = parse_template("Subj[num=N] V[num=N]", template_id="t")
        a = [r.text for r in sample_expansions(t, AGREEMENT_LEX, 5, seed=7)]
        b = [r.text for r in sample_expansions(t, AGREEMENT_LEX, 5, seed=7)]
        assert a == b

    def test_zero_draws(self):
        t = parse_template("Subj[num=N] V[num=N]", template_id="t")
        assert list(sample_expansions(t, AGREEMENT_LEX, 0, seed=1)) == []

    def test_empty_space_errors(self):
        t = parse_template("A[]")
        with pytest.raises(ValueError, match="empty expansion space"):
            list(sample_expansions(t, SlotLexicon(entries={"A": ()}), 3, seed=1))

    def test_uniform_within_5_sigma(self):
        # 12-sentence space (3 det * 2 noun agreeing pairs * 2 verbs = 12);
        # chi-squared against the enumeration oracle's space.
        lex = SlotLexicon(
            entries={
                "Det": (
                    entry("a", num="sg"), entry("b", num="sg"), entry("c", num="sg"),
                    entry("d", num="pl"), entry("e", num="pl"), entry("f", num="pl"),
                ),
                "V": (entry("u"), entry("v")),
            }
        )
        t = parse_template("Det[num=N] V[]", template_id="t")
        space = [r.text for r in expand_all(t, lex)]
        assert len(space) == 12
        n = 10_000
        counts = Counter(r.text for r in sample_expansions(t, lex, n, seed=123))
        expected = n / len(space)
        sigma = math.sqrt(n * (1 / len(space)) * (1 - 1 / len(space)))
        for text in space:
            assert abs(counts[text] - expected) < 5 * sigma


class TestFiles:
    def test_round_trip(self, tmp_path):
        templates = [
            parse_template("Subj[num=N] V[num=N]", template_id="a", phenomenon="binding"),
            parse_template("Wh[] can Subj[]", template_id="b", phenomenon="filler_gap"),
        ]
        path = tmp_path / "templates.tsv"
        save_templates(path, templates)
        assert load_templates(path) == templates
        # Blank lines, whitespace-only lines and '#' comment lines, indented
        # or not, are skipped.
        first, second = path.read_text().splitlines(keepends=True)
        path.write_text("  # note\n" + first + "   \n" + "\n# comment\n" + second)
        assert load_templates(path) == templates

    def test_lexicon_round_trip(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        save_slot_lexicon(path, AGREEMENT_LEX)
        assert load_slot_lexicon(path) == AGREEMENT_LEX

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only two\tfields\n")
        with pytest.raises(ValueError, match=":1"):
            load_templates(path)

    def test_toy_pack_covers_all_phenomena(self):
        data = resources.files("signsynth.data")
        with resources.as_file(data / "toy_templates.tsv") as path:
            pack = load_templates(path)
        assert {t.phenomenon for t in pack} == set(PHENOMENA)

    def test_toy_pack_expands_under_toy_lexicon(self):
        data = resources.files("signsynth.data")
        with resources.as_file(data / "toy_templates.tsv") as tpath:
            pack = load_templates(tpath)
        with resources.as_file(data / "toy_slot_lexicon.jsonl") as lpath:
            lex = load_slot_lexicon(lpath)
        for t in pack:
            assert count_expansions(t, lex) > 0
