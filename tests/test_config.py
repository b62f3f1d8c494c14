"""Tests for repro.config."""

import pytest

from repro.config import (
    FaultConfig,
    PStoreConfig,
    Q_FRACTION,
    SINGLE_NODE_SATURATION_TPS,
    default_config,
)
from repro.errors import ConfigurationError
from repro.experiments.fig12 import DEFAULT_Q_FRACTIONS


class TestDefaults:
    def test_default_q_is_65_percent_of_saturation(self):
        cfg = default_config()
        assert cfg.q == pytest.approx(0.65 * SINGLE_NODE_SATURATION_TPS)

    def test_default_q_hat_is_80_percent_of_saturation(self):
        cfg = default_config()
        assert cfg.q_hat == pytest.approx(0.80 * SINGLE_NODE_SATURATION_TPS)

    def test_paper_values(self):
        """Sec 8.1: saturation 438 tps, Q-hat = 350, Q = 285 (rounded)."""
        cfg = default_config()
        assert SINGLE_NODE_SATURATION_TPS == 438.0
        assert round(cfg.q_hat) == 350
        assert round(cfg.q) == 285

    def test_default_d_is_77_minutes(self):
        cfg = default_config()
        assert cfg.d_seconds == pytest.approx(4646.0)
        assert cfg.d_seconds / 60.0 == pytest.approx(77.4, abs=0.1)

    def test_migration_rate_close_to_244_kbps(self):
        """D and the database size together imply the paper's R."""
        cfg = default_config()
        assert cfg.migration_rate_kbps == pytest.approx(244.0, rel=0.01)

    def test_six_partitions_per_node(self):
        assert default_config().partitions_per_node == 6

    def test_inflation_15_percent(self):
        assert default_config().prediction_inflation == pytest.approx(1.15)

    def test_three_scale_in_confirmations(self):
        assert default_config().scale_in_confirmations == 3


class TestDerived:
    def test_d_intervals(self):
        cfg = PStoreConfig(d_seconds=600.0, interval_seconds=60.0)
        assert cfg.d_intervals == pytest.approx(10.0)

    def test_with_q_returns_new_config(self):
        cfg = default_config()
        modified = cfg.with_q(100.0)
        assert modified.q == 100.0
        assert cfg.q != 100.0  # original untouched

    def test_with_interval(self):
        cfg = default_config().with_interval(300.0)
        assert cfg.interval_seconds == 300.0

    def test_servers_for_load_rounds_up(self):
        cfg = default_config().with_q(100.0)
        assert cfg.servers_for_load(250.0) == 3
        assert cfg.servers_for_load(300.0) == 3
        assert cfg.servers_for_load(301.0) == 4

    def test_servers_for_load_minimum_one(self):
        assert default_config().servers_for_load(0.0) == 1
        assert default_config().servers_for_load(-5.0) == 1

    def test_figure12_fractions_bracket_default(self):
        assert min(DEFAULT_Q_FRACTIONS) < Q_FRACTION < max(DEFAULT_Q_FRACTIONS)
        assert Q_FRACTION in DEFAULT_Q_FRACTIONS


class TestValidation:
    def test_q_above_q_hat_rejected(self):
        with pytest.raises(ConfigurationError):
            PStoreConfig(q=400.0, q_hat=300.0)

    def test_negative_q_rejected(self):
        with pytest.raises(ConfigurationError):
            PStoreConfig(q=-1.0)

    def test_zero_d_rejected(self):
        with pytest.raises(ConfigurationError):
            PStoreConfig(d_seconds=0.0)

    def test_zero_partitions_rejected(self):
        with pytest.raises(ConfigurationError):
            PStoreConfig(partitions_per_node=0)

    def test_zero_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            PStoreConfig(interval_seconds=0.0)

    def test_negative_inflation_rejected(self):
        with pytest.raises(ConfigurationError):
            PStoreConfig(prediction_inflation=0.0)

    def test_zero_confirmations_rejected(self):
        with pytest.raises(ConfigurationError):
            PStoreConfig(scale_in_confirmations=0)

    def test_negative_max_machines_rejected(self):
        with pytest.raises(ConfigurationError):
            PStoreConfig(max_machines=-1)

    def test_frozen(self):
        cfg = default_config()
        with pytest.raises(Exception):
            cfg.q = 1.0  # type: ignore[misc]

    def test_zero_sla_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            PStoreConfig(sla_latency_ms=0.0)

    def test_zero_database_kb_rejected(self):
        """database_kb / d_seconds is the migration rate R; it must be
        positive for any transfer to make progress."""
        with pytest.raises(ConfigurationError):
            PStoreConfig(database_kb=0.0)

    def test_negative_database_kb_rejected(self):
        with pytest.raises(ConfigurationError):
            PStoreConfig(database_kb=-1.0)

    def test_zero_chunk_kb_rejected(self):
        with pytest.raises(ConfigurationError):
            PStoreConfig(chunk_kb=0.0)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            PStoreConfig(horizon_intervals=-1)

    def test_zero_horizon_means_derived(self):
        # 0 is the sentinel for "derive the 2D/P bound", not invalid
        assert PStoreConfig(horizon_intervals=0).horizon_intervals == 0


class TestFaultConfig:
    def test_disabled_by_default(self):
        assert default_config().faults.enabled is False

    def test_zero_max_attempts_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(max_attempts=0)

    def test_zero_backoff_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(base_backoff_seconds=0.0)

    def test_shrinking_backoff_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(backoff_multiplier=0.5)

    def test_jitter_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(jitter_fraction=-0.1)
        with pytest.raises(ConfigurationError):
            FaultConfig(jitter_fraction=1.0)
        FaultConfig(jitter_fraction=0.0)  # boundary is legal

    def test_zero_transfer_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(transfer_timeout_seconds=0.0)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            FaultConfig.from_dict({"enabled": True, "blast_radius": 3})

    def test_nested_dict_coerced_by_pstore_config(self):
        cfg = PStoreConfig.from_dict(
            {"faults": {"enabled": True, "scenario": "chaos.json", "seed": 4}}
        )
        assert isinstance(cfg.faults, FaultConfig)
        assert cfg.faults.scenario == "chaos.json"
        assert cfg.faults.seed == 4

    def test_invalid_nested_faults_rejected(self):
        with pytest.raises(ConfigurationError):
            PStoreConfig.from_dict({"faults": {"max_attempts": -3}})


class TestSerialisation:
    def test_round_trip_via_dict(self):
        cfg = default_config().with_q(300.0)
        clone = PStoreConfig.from_dict(cfg.to_dict())
        assert clone == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            PStoreConfig.from_dict({"q": 100.0, "shards": 3})

    def test_there_is_no_telemetry_section(self):
        # Recording is switched on by --telemetry-out or telemetry_scope(),
        # never by a config, so a ``telemetry`` key is a typo.
        with pytest.raises(ConfigurationError):
            PStoreConfig.from_dict({"telemetry": {}})
        with pytest.raises(ConfigurationError):
            PStoreConfig.from_sources(overrides={"telemetry.enabled": True})

    def test_default_config_hash_is_pinned(self):
        # The sweep result cache keys cells on this digest: moving it
        # invalidates every cached cell.
        assert default_config().config_hash() == (
            "0467d320ef5cf2bca94302a244dc312196d1509fd3e89eca99e40cf0ad84a71d"
        )

    def test_from_file(self, tmp_path):
        path = tmp_path / "pstore.json"
        path.write_text(
            '{"q": 200.0, "q_hat": 320.0, "interval_seconds": 300.0}'
        )
        cfg = PStoreConfig.from_file(path)
        assert cfg.q == 200.0
        assert cfg.interval_seconds == 300.0
        # Unspecified keys keep their defaults.
        assert cfg.partitions_per_node == 6

    def test_from_file_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            PStoreConfig.from_file(path)

    def test_from_file_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigurationError):
            PStoreConfig.from_file(path)

    def test_validation_applies_to_loaded_configs(self, tmp_path):
        path = tmp_path / "invalid.json"
        path.write_text('{"q": 500.0, "q_hat": 300.0}')
        with pytest.raises(ConfigurationError):
            PStoreConfig.from_file(path)
