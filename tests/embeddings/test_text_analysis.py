"""Tests for tokenizer, Porter stemmer, and vocabulary."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings import Vocabulary, analyze, porter_stem, tokenize

#: Reference examples from Porter's original paper.
PORTER_REFERENCE = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("failing", "fail"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("formaliti", "formal"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
]


class TestTokenizer:
    def test_lowercases_and_splits(self):
        assert tokenize("Hello, WORLD-wide Web!") == ["hello", "world", "wide", "web"]

    def test_drops_stopwords_and_short_tokens(self):
        assert tokenize("the cat is on a mat") == ["cat", "mat"]

    def test_keeps_numbers(self):
        assert tokenize("covid19 symptoms in 2023") == ["covid19", "symptoms", "2023"]

    def test_empty_input(self):
        assert tokenize("") == []
        assert tokenize("a I !") == []

    def test_analyze_stems(self):
        assert analyze("running quickly") == ["run", "quickli"]
        assert analyze("running quickly", stem=False) == ["running", "quickly"]


class TestPorterStemmer:
    """Reference examples from Porter's original paper."""

    @pytest.mark.parametrize("word,stem", PORTER_REFERENCE)
    def test_reference_examples(self, word, stem):
        assert porter_stem(word) == stem

    def test_short_words_untouched(self):
        assert porter_stem("a") == "a"
        assert porter_stem("is") == "is"

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_on_most_words(self, word):
        # Stemming never crashes and never grows a word by more than
        # the single 'e' that step 1b can restore.
        out = porter_stem(word)
        assert len(out) <= len(word) + 1

    def test_memo_returns_what_a_cold_stemmer_returns(self):
        warm = [porter_stem(word) for word, _ in PORTER_REFERENCE]
        porter_stem.cache_clear()
        cold = [porter_stem(word) for word, _ in PORTER_REFERENCE]
        assert cold == warm == [stem for _, stem in PORTER_REFERENCE]

    def test_memo_is_bounded(self):
        maxsize = porter_stem.cache_info().maxsize
        assert maxsize is not None
        for i in range(100_000):
            porter_stem(f"tok{i}ing")
        assert porter_stem.cache_info().currsize <= maxsize


class TestVocabulary:
    def test_build_and_lookup(self):
        vocab = Vocabulary.build([["cat", "dog"], ["cat", "fish"]])
        assert len(vocab) == 3
        assert "cat" in vocab
        assert vocab.doc_freq[vocab.id_of("cat")] == 2
        assert vocab.doc_freq[vocab.id_of("fish")] == 1

    def test_min_df_filters_rare_terms(self):
        vocab = Vocabulary.build([["cat", "dog"], ["cat"]], min_df=2)
        assert "cat" in vocab and "dog" not in vocab

    def test_max_terms_keeps_most_frequent(self):
        vocab = Vocabulary.build(
            [["cat", "dog"], ["cat", "fish"], ["cat"]], max_terms=1
        )
        assert list(vocab.term_to_id) == ["cat"]

    def test_idf_orders_by_rarity(self):
        vocab = Vocabulary.build([["cat", "dog"], ["cat", "fish"], ["cat"]])
        assert vocab.idf(vocab.id_of("fish")) > vocab.idf(vocab.id_of("cat"))

    def test_restrict_to_top_idf_keeps_rarest(self):
        vocab = Vocabulary.build([["cat", "dog"], ["cat", "fish"], ["cat"]])
        restricted = vocab.restrict_to_top_idf(2)
        assert "cat" not in restricted
        assert "dog" in restricted and "fish" in restricted
        assert restricted.num_docs == vocab.num_docs
