import json
import math

import numpy as np
import pytest

from gradflow import PRESETS, SimConfig, VelocityBounds, make_v_alpha, sim_config
from gradflow.presets import SIM_DEFAULTS
from helpers import preset_sim_config


class TestSettings:
    def test_defaults_are_p1(self):
        assert PRESETS["P1"] == {}
        assert sim_config({}).controller == sim_config(SIM_DEFAULTS).controller

    def test_presets_override_known_keys_only(self):
        for overrides in PRESETS.values():
            assert set(overrides) <= set(SIM_DEFAULTS)

    def test_defaults_are_json(self):
        assert json.loads(json.dumps(SIM_DEFAULTS)) == SIM_DEFAULTS

    @pytest.mark.parametrize("name,alpha,k1,k2", [
        ("P1", 1.0, 0.5, 8.0),
        ("P2", 1.0, 1.0 / math.sqrt(2.0), 4.0 * math.sqrt(2.0)),
        ("P3", 4.0, 0.5, 8.0),
        ("P4", 10.0, 0.5, 8.0),
    ])
    def test_preset_config(self, name, alpha, k1, k2):
        cfg = preset_sim_config(name)
        assert isinstance(cfg, SimConfig)
        ctrl = cfg.controller
        assert (ctrl.epsilon, ctrl.gamma, ctrl.k1, ctrl.k2) == (1.0, 0.05, k1, k2)
        assert ctrl.bounds == VelocityBounds(0.22, 2.84)
        assert ctrl.loop_mode == "continuous"
        assert np.array_equal(cfg.potential.coeffs, make_v_alpha(alpha).coeffs)
        assert cfg.x0.tolist() == [-0.5, -0.5, 0.0]
        assert (cfg.goal_tol, cfg.t_max, cfg.control_period, cfg.log_every) == \
            (0.05, 600.0, 5e-4, 1)

    def test_overrides_layer_over_the_preset(self):
        cfg = preset_sim_config("P2", bounds_mode="ideal", x0=[0.1, 0.2, 0.3], log_every=3)
        assert cfg.controller.k1 == 1.0 / math.sqrt(2.0)
        assert cfg.controller.bounds == VelocityBounds(math.inf, math.inf)
        assert cfg.x0.tolist() == [0.1, 0.2, 0.3] and cfg.log_every == 3
        quad = preset_sim_config("P3", potential={"kind": "quadratic", "c": [1, 2, 3]})
        assert quad.potential.coeffs.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("overrides", [
        pytest.param({"h": 1e-3}, id="unknown-key"),
        pytest.param({"log_every": 2.5}, id="log_every-fraction"),
        pytest.param({"t_max": "600"}, id="t_max-string"),
        pytest.param({"gamma": True}, id="gamma-bool"),
        pytest.param({"x0": (-0.5, -0.5, 0.0)}, id="x0-tuple"),
        pytest.param({"potential": {"kind": "v_alpha", "alpha": "4"}}, id="alpha-string"),
    ])
    def test_overrides_are_checked_like_a_config_file(self, overrides):
        with pytest.raises(ValueError):
            preset_sim_config("P1", **overrides)
        with pytest.raises(ValueError):
            sim_config(overrides)
