"""OptimizerConfig: validation and cache tokens."""

import pytest

from repro.errors import OptimizerError
from repro.optimizer import OptimizerConfig


class TestValidation:
    def test_defaults_are_valid(self):
        config = OptimizerConfig()
        assert config.enabled
        assert config.budget_s > 0

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(OptimizerError):
            OptimizerConfig(budget_s=0.0)
        with pytest.raises(OptimizerError):
            OptimizerConfig(budget_s=-1.0)

    def test_bad_cut_limit_rejected(self):
        with pytest.raises(OptimizerError):
            OptimizerConfig(cut_limit=0)

    def test_replace_revalidates(self):
        config = OptimizerConfig()
        assert config.replace(budget_s=2.5).budget_s == 2.5
        assert config.budget_s != 2.5 or config.budget_s == 8.0
        with pytest.raises(OptimizerError):
            config.replace(budget_s=0.0)


class TestToken:
    def test_token_stable_and_prefixed(self):
        config = OptimizerConfig()
        assert config.token() == config.token()
        assert config.token().startswith("o")
        # Short enough for a filename, long enough not to collide.
        assert len(config.token()) == 11

    def test_disabled_config_has_empty_token(self):
        assert OptimizerConfig(enabled=False).token() == ""

    @pytest.mark.parametrize("changes", [
        {"enabled": False},
        {"budget_s": 1.5},
        {"cut_limit": 6},
        {"remap_iterations": 1},
        {"restarts": 8},
        {"exhaustive_op_limit": 10},
        {"seed": 7},
    ])
    def test_every_knob_lands_in_the_digest(self, changes):
        base = OptimizerConfig()
        changed = base.replace(**changes)
        assert changed.digest() != base.digest()
        assert changed.token() != base.token()
