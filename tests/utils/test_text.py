"""Tests for repro.utils.text — interning and the name-noise channel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import text
from repro.utils.rng import make_rng
from repro.utils.text import NameNoiseModel, StringInterner, mangle_name


class TestStringInterner:
    def test_roundtrip(self):
        si = StringInterner()
        i = si.intern("hello")
        assert si.lookup(i) == "hello"

    def test_same_string_same_id(self):
        si = StringInterner()
        assert si.intern("a") == si.intern("a")

    def test_ids_are_dense(self):
        si = StringInterner()
        ids = [si.intern(s) for s in ("a", "b", "c", "a")]
        assert ids == [0, 1, 2, 0]
        assert len(si) == 3

    def test_intern_all(self):
        si = StringInterner()
        arr = si.intern_all(["x", "y", "x"])
        np.testing.assert_array_equal(arr, [0, 1, 0])

    def test_intern_bulk_matches_scalar_intern(self):
        strings = ["x", "y", "x", "z", "y", "x"]
        bulk, scalar = StringInterner(), StringInterner()
        arr = bulk.intern_bulk(strings)
        np.testing.assert_array_equal(arr, [scalar.intern(s) for s in strings])
        assert bulk.strings() == scalar.strings()

    def test_intern_bulk_extends_existing(self):
        si = StringInterner()
        si.intern("a")
        np.testing.assert_array_equal(si.intern_bulk(["b", "a"]), [1, 0])

    def test_intern_bulk_empty(self):
        si = StringInterner()
        assert si.intern_bulk([]).size == 0
        assert len(si) == 0

    def test_get_missing_is_none(self):
        assert StringInterner().get("nope") is None

    def test_contains(self):
        si = StringInterner()
        si.intern("z")
        assert "z" in si and "q" not in si

    def test_strings_is_copy(self):
        si = StringInterner()
        si.intern("a")
        si.strings().append("b")
        assert len(si) == 1

    @given(st.lists(st.text(max_size=12), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_lookup_inverts_intern(self, strings):
        si = StringInterner()
        for s in strings:
            assert si.lookup(si.intern(s)) == s


class TestNameNoiseModel:
    def test_default_valid(self):
        NameNoiseModel()

    def test_invalid_probability_raises(self):
        with pytest.raises(ValueError, match="p_typo"):
            NameNoiseModel(p_typo=1.5)


class TestMangleName:
    ZERO = NameNoiseModel(
        p_case=0, p_punct=0, p_featuring=0, p_subtitle=0, p_typo=0, p_drop_term=0
    )
    ALL = NameNoiseModel(
        p_case=1, p_punct=1, p_featuring=1, p_subtitle=1, p_typo=1, p_drop_term=1
    )

    def test_identity_with_zero_noise(self):
        out = mangle_name("Artist - Song.mp3", make_rng(0), noise=self.ZERO)
        assert out == "Artist - Song.mp3"

    def test_deterministic_given_rng_state(self):
        a = mangle_name("Artist - Song.mp3", make_rng(7), noise=self.ALL,
                        featuring_pool=["X"], subtitle_pool=["live"])
        b = mangle_name("Artist - Song.mp3", make_rng(7), noise=self.ALL,
                        featuring_pool=["X"], subtitle_pool=["live"])
        assert a == b

    def test_full_noise_changes_name(self):
        out = mangle_name("Artist - Song.mp3", make_rng(3), noise=self.ALL,
                          featuring_pool=["Guest"], subtitle_pool=["remix"])
        assert out != "Artist - Song.mp3"

    def test_featuring_appended(self):
        noise = NameNoiseModel(p_case=0, p_punct=0, p_featuring=1.0,
                               p_subtitle=0, p_typo=0, p_drop_term=0)
        out = mangle_name("A - B.mp3", make_rng(0), noise=noise, featuring_pool=["Guest"])
        assert "ft. Guest" in out

    def test_subtitle_appended(self):
        noise = NameNoiseModel(p_case=0, p_punct=0, p_featuring=0,
                               p_subtitle=1.0, p_typo=0, p_drop_term=0)
        out = mangle_name("A - B.mp3", make_rng(0), noise=noise, subtitle_pool=["live"])
        assert "(live)" in out

    def test_punct_replaces_spaces(self):
        noise = NameNoiseModel(p_case=0, p_punct=1.0, p_featuring=0,
                               p_subtitle=0, p_typo=0, p_drop_term=0)
        out = mangle_name("A B C.mp3", make_rng(0), noise=noise)
        assert " " not in out

    def test_no_pools_no_crash(self):
        # featuring/subtitle steps are skipped when pools are absent.
        out = mangle_name("A - B.mp3", make_rng(0), noise=self.ALL)
        assert isinstance(out, str) and out


def _choice_typo(s, rng):
    """The earlier ``_typo``: ``rng.choice`` over a Python list of letters."""
    letters = [i for i, ch in enumerate(s) if ch.isalpha()]
    if not letters:
        return s
    i = int(rng.choice(letters))
    op = rng.integers(0, 3)
    if op == 0:
        repl = text._ALPHABET[rng.integers(0, 26)]
        return s[:i] + repl + s[i + 1 :]
    if op == 1:
        return s[:i] + s[i + 1 :]
    return s[:i] + s[i] + s[i:]


class TestTypoDraws:
    """``_typo`` draws exactly what the ``rng.choice`` form drew.

    Trace bundles are cached by config digest, so the noise channel
    must consume the generator identically: same output name and the
    same next draw afterwards.
    """

    NAMES = [
        "Aaron Neville and Linda Ronstadt - I Don't Know Much",
        "Beck - Loser",
        "a",
        "",
        "123 - 456 (07)",
        "Beyoncé - Déjà Vu",
        "Björk_Jóga",
        "日本語 song 2",
        "ÀÉÎ",
        "x" * 997 + "9",
    ]

    @pytest.mark.parametrize("name", NAMES)
    def test_typo_matches_choice_form(self, name):
        for seed in range(300):
            old_rng, new_rng = make_rng(seed), make_rng(seed)
            assert text._typo(name, new_rng) == _choice_typo(name, old_rng)
            assert new_rng.random() == old_rng.random()

    def test_mangle_name_matches_choice_form(self, monkeypatch):
        noise = NameNoiseModel(p_typo=0.9)
        pools = {"featuring_pool": ["Guest Star"], "subtitle_pool": ["live", "remix"]}
        new_out = []
        for seed in range(400):
            for name in self.NAMES:
                rng = make_rng(seed)
                new_out.append((mangle_name(name + ".mp3", rng, noise=noise, **pools),
                                rng.random()))
        monkeypatch.setattr(text, "_typo", _choice_typo)
        old_out = []
        for seed in range(400):
            for name in self.NAMES:
                rng = make_rng(seed)
                old_out.append((mangle_name(name + ".mp3", rng, noise=noise, **pools),
                                rng.random()))
        assert new_out == old_out

    @settings(max_examples=200, deadline=None)
    @given(name=st.text(max_size=40), seed=st.integers(0, 2**32 - 1))
    def test_arbitrary_text(self, name, seed):
        old_rng, new_rng = make_rng(seed), make_rng(seed)
        assert text._typo(name, new_rng) == _choice_typo(name, old_rng)
        assert new_rng.random() == old_rng.random()
