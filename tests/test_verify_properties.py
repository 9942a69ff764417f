"""Metamorphic properties and the registry contract."""

import pytest

from repro.errors import VerificationError
from repro.perf.cache import cache
from repro.verify.cases import VerifyCase
from repro.verify.properties import (
    PROPERTIES,
    check_config_text,
    check_topology_text,
    prop_cache_identity,
    prop_conservation,
    prop_monotone_array,
    prop_monotone_batch,
    prop_permutation,
    resolve_properties,
)

CASES = [
    VerifyCase(m=8, k=8, n=8, array_rows=4, array_cols=4),
    VerifyCase(m=7, k=3, n=5, dataflow="ws", array_rows=4, array_cols=2),
    VerifyCase(m=6, k=4, n=9, dataflow="is", array_rows=3, array_cols=3),
    VerifyCase(m=12, k=4, n=8, partition_rows=2, partition_cols=2),
]


class TestMetamorphicPass:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.describe())
    def test_conservation(self, case):
        assert prop_conservation(case) == []

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.describe())
    def test_monotone_array(self, case):
        assert prop_monotone_array(case) == []

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.describe())
    def test_monotone_batch(self, case):
        assert prop_monotone_batch(case) == []

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.describe())
    def test_permutation(self, case):
        assert prop_permutation(case) == []

    def test_cache_identity(self):
        assert prop_cache_identity(CASES[0]) == []

    def test_cache_identity_restores_cache_state(self):
        was_enabled = cache.enabled
        prop_cache_identity(CASES[1])
        assert cache.enabled == was_enabled


class TestParserProperties:
    def test_valid_topology_passes(self):
        text = "conv1, 8, 8, 3, 3, 4, 8, 1,\n"
        assert check_topology_text(text) == []

    def test_typed_topology_error_is_fine(self):
        assert check_topology_text("just,one,field\n") == []
        assert check_topology_text("l, nan, 2, 3, 4, 5, 6, 1,\n") == []

    def test_absurd_topology_dim_is_rejected_not_accepted(self):
        huge = 2**40
        text = f"l, {huge}, 2, 3, 4, 5, 6, 1,\n"
        # The hardened parser raises TopologyError -> no violation.
        assert check_topology_text(text) == []

    def test_valid_config_passes(self):
        text = "[architecture_presets]\nArrayHeight = 8\nArrayWidth = 8\n"
        assert check_config_text(text) == []

    def test_typed_config_error_is_fine(self):
        assert check_config_text("[architecture_presets]\nArrayHeight = nan\n") == []
        assert check_config_text("not an ini at all {") == []

    def test_leaked_exception_is_a_finding(self, monkeypatch):
        import repro.verify.properties as properties

        def explode(text, name="fuzz"):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(properties, "parse_topology_text", explode)
        violations = properties.check_topology_text("x, 1, 1, 1, 1, 1, 1, 1,\n")
        assert violations and "ZeroDivisionError" in violations[0].message


class TestRegistry:
    def test_registry_names_are_stable(self):
        assert set(PROPERTIES) == {
            "models", "shape_classes", "golden", "conservation",
            "monotone_array", "monotone_batch", "permutation",
            "cache_identity", "vectorized", "fold_runs", "dram",
            "parser_topology", "parser_config",
        }

    def test_resolve_defaults_to_everything(self):
        assert len(resolve_properties(None)) == len(PROPERTIES)

    def test_resolve_by_name(self):
        chosen = resolve_properties(["models", "golden"])
        assert [p.name for p in chosen] == ["models", "golden"]

    def test_resolve_unknown_raises(self):
        with pytest.raises(VerificationError, match="unknown property"):
            resolve_properties(["models", "nope"])

    def test_resolve_empty_selection_raises(self):
        with pytest.raises(VerificationError):
            resolve_properties(["", " "])

    def test_golden_gate_is_wired(self):
        prop = PROPERTIES["golden"]
        assert prop.applies(VerifyCase(m=4, k=4, n=4, array_rows=4, array_cols=4))
        assert not prop.applies(VerifyCase(m=500, k=500, n=500))
