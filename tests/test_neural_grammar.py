"""Tests for the SQL decoding grammar automaton."""

import random

import pytest

from repro.neural import SqlDecodingAutomaton, classify
from repro.neural.base import sql_to_tokens
from repro.neural.grammar import END, GrammarMask, GrammarViolation
from repro.nlp.vocab import Vocab


def accepts(sql_text: str) -> bool:
    return SqlDecodingAutomaton().accepts(sql_to_tokens(sql_text))


class TestClassify:
    def test_keywords(self):
        assert classify("SELECT") == "SELECT"
        assert classify("COUNT") == "COUNT"

    def test_categories(self):
        assert classify("@AGE") == "PLACEHOLDER"
        assert classify("@JOIN") == "JOIN_PH"
        assert classify("42") == "NUMBER"
        assert classify("3.5") == "NUMBER"
        assert classify("'text'") == "STRING"
        assert classify(">=") == "OP"
        assert classify("patients") == "IDENT"
        assert classify("(") == "("


class TestAccepts:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM patients",
            "SELECT name, age FROM patients",
            "SELECT DISTINCT name FROM patients",
            "SELECT COUNT(*) FROM patients WHERE age > @AGE",
            "SELECT AVG(t.age) FROM t GROUP BY t.d HAVING COUNT(*) > @NUM",
            "SELECT * FROM a, b WHERE a.x = b.y ORDER BY a.x DESC LIMIT 5",
            "SELECT name FROM t WHERE age = (SELECT MAX(age) FROM t)",
            "SELECT * FROM t WHERE x IN (SELECT y FROM u WHERE z = 1)",
            "SELECT * FROM t WHERE x IN (1, 2, 3)",
            "SELECT * FROM t WHERE EXISTS (SELECT * FROM u)",
            "SELECT * FROM t WHERE NOT EXISTS (SELECT * FROM u)",
            "SELECT * FROM t WHERE a = 1 AND (b = 2 OR c = 3)",
            "SELECT * FROM t WHERE x BETWEEN @X.LOW AND @X.HIGH",
            "SELECT * FROM t WHERE name NOT LIKE 'a%'",
            "SELECT AVG(p.age) FROM @JOIN WHERE d.name = @D.NAME",
        ],
    )
    def test_valid_accepted(self, sql):
        assert accepts(sql)

    @pytest.mark.parametrize(
        "tokens",
        [
            ["FROM", "t"],
            ["SELECT", "FROM", "t"],
            ["SELECT", "*"],
            ["SELECT", "*", "FROM"],
            ["SELECT", "*", "FROM", "t", "WHERE"],
            ["SELECT", "*", "FROM", "t", "WHERE", "a", "="],
            ["SELECT", "*", "FROM", "t", "LIMIT", "x"],
            ["SELECT", "*", "FROM", "t", "GROUP", "name"],
            ["SELECT", "*", "FROM", "t", "ORDER", "BY"],
            ["SELECT", "*", "FROM", "t", ")"],
            ["SELECT", "COUNT", "*", "FROM", "t"],
            ["SELECT", "*", "FROM", "t", "WHERE", "a", "=", "1", "1"],
            ["SELECT", "*", "FROM", "t", "HAVING", "COUNT", "(", "*", ")", ">", "1"],
        ],
    )
    def test_invalid_rejected(self, tokens):
        assert not SqlDecodingAutomaton().accepts(tokens)

    def test_incomplete_not_accepted(self):
        automaton = SqlDecodingAutomaton()
        for token in ["SELECT", "*", "FROM"]:
            automaton.advance(token)
        assert END not in automaton.allowed_symbols()

    def test_clause_order_enforced(self):
        # GROUP BY cannot precede WHERE.
        assert not SqlDecodingAutomaton().accepts(
            "SELECT * FROM t GROUP BY d WHERE a = 1".split()
        )

    def test_advance_raises_on_violation(self):
        automaton = SqlDecodingAutomaton()
        with pytest.raises(GrammarViolation):
            automaton.advance("FROM")


class TestAllowedSymbols:
    def test_start_allows_only_select(self):
        assert SqlDecodingAutomaton().allowed_symbols() == {"SELECT"}

    def test_end_allowed_after_complete_query(self):
        automaton = SqlDecodingAutomaton()
        for token in sql_to_tokens("SELECT * FROM t"):
            automaton.advance(token)
        assert END in automaton.allowed_symbols()

    def test_subquery_close_required(self):
        automaton = SqlDecodingAutomaton()
        for token in sql_to_tokens("SELECT name FROM t WHERE age = ( SELECT MAX ( age ) FROM t"):
            automaton.advance(token)
        allowed = automaton.allowed_symbols()
        assert ")" in allowed
        assert END not in allowed


class TestGrammarMask:
    def make_vocab(self):
        return Vocab(
            "SELECT FROM WHERE * t name age = @AGE COUNT ( ) GROUP BY".split()
        )

    def test_mask_start(self):
        vocab = self.make_vocab()
        mask = GrammarMask(vocab).mask_for([])
        allowed_tokens = {vocab.token_of(i) for i in range(len(vocab)) if mask[i]}
        assert allowed_tokens == {"SELECT"}

    def test_eos_masked_until_complete(self):
        vocab = self.make_vocab()
        gm = GrammarMask(vocab)
        mid = gm.mask_for(["SELECT", "*", "FROM"])
        assert not mid[vocab.eos_id]
        done = gm.mask_for(["SELECT", "*", "FROM", "t"])
        assert done[vocab.eos_id]

    def test_specials_never_allowed(self):
        vocab = self.make_vocab()
        gm = GrammarMask(vocab)
        mask = gm.mask_for(["SELECT"])
        assert not mask[vocab.pad_id]
        assert not mask[vocab.bos_id]
        assert not mask[vocab.unk_id]

    def test_invalid_prefix_returns_none(self):
        gm = GrammarMask(self.make_vocab())
        assert gm.mask_for(["FROM", "FROM"]) is None

    def test_one_read_only_mask_per_allowed_symbol_set(self):
        vocab = self.make_vocab()
        gm = GrammarMask(vocab)
        prefixes = [
            [],
            ["SELECT"],
            ["SELECT", "name"],
            ["SELECT", "age"],
            ["SELECT", "*", "FROM"],
            ["SELECT", "*", "FROM", "t"],
            ["SELECT", "*", "FROM", "t", "WHERE", "age", "="],
        ]
        for prefix in prefixes:
            mask = gm.mask_for(prefix)
            automaton = SqlDecodingAutomaton()
            for token in prefix:
                automaton.advance(token)
            allowed = automaton.allowed_symbols()
            expected = [classify(t) in allowed for t in vocab.tokens]
            expected[vocab.eos_id] = END in allowed
            for special in (vocab.pad_id, vocab.bos_id, vocab.unk_id):
                expected[special] = False
            assert mask.tolist() == expected
            assert not mask.flags.writeable
            with pytest.raises(ValueError):
                mask[0] = True
        # Columns of one kind leave the same symbols allowed.
        assert gm.mask_for(["SELECT", "name"]) is gm.mask_for(["SELECT", "age"])


AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")


def _allowed_after(sql_text: str) -> frozenset[str]:
    automaton = SqlDecodingAutomaton()
    for token in sql_text.split():
        automaton.advance(token)
    return automaton.allowed_symbols()


class TestAggregateStar:
    """``*`` may follow only a plain ``COUNT (``."""

    @pytest.mark.parametrize(
        "prefix",
        [
            "SELECT COUNT (",
            "SELECT name , COUNT (",
            "SELECT name FROM t GROUP BY name HAVING COUNT (",
            "SELECT name FROM t ORDER BY COUNT (",
        ],
    )
    def test_count_open_offers_star(self, prefix):
        assert _allowed_after(prefix) == {"DISTINCT", "IDENT", "*"}

    @pytest.mark.parametrize("keyword", AGGREGATES[1:])
    @pytest.mark.parametrize(
        "template",
        [
            "SELECT {} (",
            "SELECT COUNT ( * ) , {} (",
            "SELECT name FROM t GROUP BY name HAVING {} (",
            "SELECT name FROM t ORDER BY {} (",
        ],
    )
    def test_other_aggregates_never_offer_star(self, keyword, template):
        assert _allowed_after(template.format(keyword)) == {"DISTINCT", "IDENT"}

    @pytest.mark.parametrize("keyword", AGGREGATES)
    def test_distinct_never_offers_star(self, keyword):
        assert _allowed_after(f"SELECT {keyword} ( DISTINCT") == {"IDENT"}

    def test_select_distinct_star_still_allowed(self):
        assert "*" in _allowed_after("SELECT DISTINCT")

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT SUM(*) FROM t",
            "SELECT COUNT(DISTINCT *) FROM t",
            "SELECT name FROM t GROUP BY name HAVING MAX(*) > 1",
            "SELECT name FROM t ORDER BY AVG(*)",
        ],
    )
    def test_star_arguments_rejected(self, sql):
        assert not accepts(sql)

    def test_seeded_walks_emit_star_only_in_count(self):
        tokens_of = {
            "IDENT": "age",
            "PLACEHOLDER": "@AGE",
            "NUMBER": "1",
            "STRING": "'a'",
            "JOIN_PH": "@JOIN",
            "OP": "=",
        }
        count_stars = 0
        openings = set()
        for seed in range(400):
            rng = random.Random(seed)
            automaton = SqlDecodingAutomaton()
            tokens: list[str] = []
            while len(tokens) < 40:
                allowed = sorted(automaton.allowed_symbols())
                assert allowed, tokens  # no prefix is a dead end
                symbol = rng.choice(allowed)
                if symbol == END:
                    break
                token = tokens_of.get(symbol, symbol)
                automaton.advance(token)
                tokens.append(token)
            for i, token in enumerate(tokens[2:], start=2):
                if tokens[i - 1] == "(" and tokens[i - 2] in AGGREGATES:
                    openings.add(tokens[i - 2])
                if token != "*":
                    continue
                assert tokens[i - 1] != "DISTINCT" or tokens[i - 2] != "(", tokens
                if tokens[i - 1] == "(":
                    assert tokens[i - 2] == "COUNT", tokens
                    count_stars += 1
        # The walks reach every aggregate and do emit COUNT(*).
        assert openings == set(AGGREGATES)
        assert count_stars > 0


class TestMaximumDepth:
    """At the depth bound only a frame-opening '(' is blocked."""

    DEEP = "SELECT a FROM t WHERE x IN ( SELECT b FROM u WHERE y IN ( SELECT"

    def test_aggregate_open_paren_allowed_at_depth_bound(self):
        assert _allowed_after(f"{self.DEEP} COUNT") == {"("}

    def test_in_list_paren_allowed_at_depth_bound(self):
        assert _allowed_after(f"{self.DEEP} c FROM v WHERE z IN") == {"("}

    def test_subquery_and_group_blocked_at_depth_bound(self):
        allowed = _allowed_after(f"{self.DEEP} c FROM v WHERE")
        assert "(" not in allowed and "EXISTS" not in allowed and "NOT" not in allowed
        assert "(" not in _allowed_after(f"{self.DEEP} c FROM v WHERE z =")
        assert "SELECT" not in _allowed_after(f"{self.DEEP} c FROM v WHERE z IN (")

    def test_full_deep_query_accepted(self):
        assert accepts(f"{self.DEEP} COUNT ( * ) FROM v WHERE z IN ( 1 , 2 ) ) )")
