"""Tests for the Table 4 / Fig 7 / Fig 8 effect experiments.

These are the statistically heavy experiments, so they share the small
scenario fixture and module-scoped computation.
"""

import numpy as np
import pytest

from repro.experiments.effects import fig7, fig8, table4


@pytest.fixture(scope="module")
def table4_result(small_result):
    return table4(small_result)


@pytest.fixture(scope="module")
def fig7_result(small_result):
    return fig7(small_result)


class TestTable4:
    def test_all_announced_prefixes_estimated(self, table4_result):
        names = set(table4_result.traffic)
        assert "H_TPot1" in names and "H_UDP" in names
        assert "H_TCP" not in names  # announcement never propagated

    def test_effects_positive_and_significant(self, table4_result):
        for name, est in table4_result.traffic.items():
            assert est.aes > 0, name
            assert est.significant, name

    def test_asn_effects_positive(self, table4_result):
        for name, est in table4_result.asn.items():
            assert est.aes > 0, name

    def test_domain_prefixes_attract_most_asns(self, table4_result):
        """Paper: H_Org/net had the largest ASN diversity effect."""
        asn = {k: v.aes for k, v in table4_result.asn.items()}
        best = max(asn, key=asn.get)
        assert best in ("H_Org/net", "H_Combined", "H_Com", "H_TPot1")
        assert asn[best] > asn["H_BGP1"]

    def test_tpot_dominates_bgp_only(self, table4_result):
        assert (table4_result.traffic["H_TPot1"].aes
                > table4_result.traffic["H_BGP1"].aes)

    def test_hitlisted_udp_beats_plain_alias(self, table4_result):
        """Paper: the manually hitlisted H_UDP (112k/day) far exceeded the
        plain aliased prefix (10.7k/day)."""
        assert (table4_result.traffic["H_UDP"].aes
                > table4_result.traffic["H_Alias"].aes)

    def test_trigger_effects_present(self, table4_result):
        assert "TPot1+TLS" in table4_result.triggers
        assert table4_result.triggers["TPot1+TLS"].significant

    def test_tls_trigger_is_largest_effect(self, table4_result):
        """Paper: the TPot1 TLS trigger produced the largest effect size
        (224k packets/day)."""
        tls = table4_result.triggers["TPot1+TLS"].aes
        assert all(tls > est.aes for est in table4_result.traffic.values())

    def test_render(self, table4_result):
        text = table4_result.render()
        assert "Δtraffic" in text and "H_TPot1" in text


class TestFig7:
    def test_matrix_shape(self, fig7_result):
        assert fig7_result.matrix.shape[0] == len(fig7_result.names)

    def test_immediate_increase_after_announcement(self, fig7_result):
        """Scanner attention spikes right after the BGP announcement."""
        for i, name in enumerate(fig7_result.names):
            row = fig7_result.matrix[i]
            finite = row[np.isfinite(row)]
            early = finite[:10]
            assert np.max(early) > 0, name

    def test_trigger_jumps_positive(self, fig7_result):
        assert fig7_result.trigger_jumps.get("hitlist", 0) > 1.5
        assert fig7_result.trigger_jumps.get("tls", 0) > 1.5

    def test_render(self, fig7_result):
        assert "trigger" in fig7_result.render()


class TestFig8:
    def test_asn_stability_vs_traffic_decay(self, small_result):
        result = fig8(small_result, names=("H_Com", "H_Alias"))
        for name in result.names:
            # ASN counts stay comparatively stable...
            assert result.stability(name) > 0.3
        # ...while at least the non-trigger prefixes' traffic decays from
        # its initial burst.
        assert result.traffic_decay("H_Alias") < 1.5

    def test_series_lengths(self, small_result):
        result = fig8(small_result)
        for name in result.names:
            assert len(result.asn_series[name]) == len(
                result.traffic_series[name]
            )


class TestSeasonalEffects:
    def test_seasonal_counterfactual_still_detects(self, small_result):
        """Effect estimation with the weekly-seasonal model reaches the
        same qualitative conclusion on real scenario data."""
        from repro.analysis.effects import estimate_effect
        from repro.core.features import Feature

        control = small_result.control_records()
        hp = small_result.honeyprefixes["H_Org/net"]
        records = small_result.honeyprefix_records("H_Org/net")
        estimate = estimate_effect(
            "H_Org/net", records, control,
            hp.feature_time(Feature.BGP),
            small_result.start, small_result.end,
            seasonal_period=7,
        )
        assert estimate.significant
        assert estimate.aes > 0


class TestShortHorizon:
    """A run that ends before a honeyprefix is deployed: its name is
    skipped, as an empty honeyprefix is, and the figures still render."""

    @pytest.fixture(scope="class")
    def short_result(self):
        from repro.sim import ScenarioConfig, run_scenario

        return run_scenario(ScenarioConfig(duration_days=12,
                                           volume_scale=1e-4, n_tail=20))

    def test_undeployed_names_are_skipped(self, short_result):
        assert "H_Com" not in short_result.honeyprefixes
        for figure in (fig7, fig8):
            result = figure(short_result)
            assert "H_Com" not in result.names
            assert result.render()

    def test_retraction_of_an_undeployed_name_is_skipped(self,
                                                          short_result):
        """``experiment all`` renders a ValueError as a skipped section."""
        from repro.experiments import s531_retraction

        with pytest.raises(ValueError, match="never withdrawn"):
            s531_retraction(short_result, name="H_Com")

    def test_fig7_renders_with_no_name_kept(self, short_result):
        result = fig7(short_result, names=("H_Com",))
        assert result.names == []
        assert result.matrix.shape == (0, 0)
        assert result.render().startswith("Fig 7")
