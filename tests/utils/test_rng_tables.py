"""Unit tests for RNG helpers and the table renderer."""

import numpy as np
import pytest

from repro.utils.rng import derive_seed, ensure_rng, spawn_rngs
from repro.utils.tables import TextTable


class TestEnsureRng:
    def test_from_int_deterministic(self):
        a = ensure_rng(42).integers(0, 1000, 10)
        b = ensure_rng(42).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(1)
        assert ensure_rng(rng) is rng

    def test_seed_sequence(self):
        rng = ensure_rng(np.random.SeedSequence(5))
        assert isinstance(rng, np.random.Generator)

    def test_none_allowed(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_bad_type(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(1, 5)) == 5

    def test_streams_differ(self):
        rngs = spawn_rngs(1, 3)
        draws = [r.integers(0, 10**9) for r in rngs]
        assert len(set(draws)) == 3

    def test_deterministic(self):
        a = [r.integers(0, 10**9) for r in spawn_rngs(7, 4)]
        b = [r.integers(0, 10**9) for r in spawn_rngs(7, 4)]
        assert a == b

    def test_from_generator(self):
        rngs = spawn_rngs(np.random.default_rng(3), 2)
        assert len(rngs) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)

    def test_zero(self):
        assert spawn_rngs(1, 0) == []


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "fig5", 3) == derive_seed(1, "fig5", 3)

    def test_labels_matter(self):
        assert derive_seed(1, "fig5") != derive_seed(1, "fig6")

    def test_base_matters(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_none_base(self):
        assert derive_seed(None, "x") == derive_seed(None, "x")


class TestTextTable:
    def test_render_contains_cells(self):
        t = TextTable(["a", "b"], title="T")
        t.add_row(1, "x")
        out = t.render()
        assert "T" in out and "a" in out and "x" in out

    def test_row_length_checked(self):
        t = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_extend(self):
        t = TextTable(["a"])
        t.extend([[1], [2]])
        assert t.nrows == 2

    def test_needs_columns(self):
        with pytest.raises(ValueError):
            TextTable([])

    def test_float_formatting(self):
        t = TextTable(["v"])
        t.add_row(0.000123456)
        assert "1.235e-04" in t.render()
        t2 = TextTable(["v"])
        t2.add_row(3.14159)
        assert "3.142" in t2.render()

    def test_bool_formatting(self):
        t = TextTable(["v"])
        t.add_row(True)
        assert "yes" in t.render()

    def test_alignment_pads_columns(self):
        t = TextTable(["col"])
        t.add_row("short")
        t.add_row("a much longer cell")
        lines = t.render().splitlines()
        assert len({len(l) for l in lines[1:]}) <= 2  # header+rows aligned
