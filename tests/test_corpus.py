"""The frozen exact corpus: the construct answers are recomputed and must match `data/corpus.json` byte for byte."""

import corpus


def test_corpus_is_unchanged():
    expected = corpus.PATH.read_text()
    actual = corpus.build()
    if actual != expected:
        # Name the first record that differs, not the whole text.
        for line, (old, new) in enumerate(zip(expected.splitlines(), actual.splitlines()), 1):
            assert old == new, f"corpus line {line} differs:\n  frozen:   {old[:300]}\n  computed: {new[:300]}"
        assert actual == expected, "the corpus changed length"
