import json
import math

import numpy as np
import pytest

from gradflow import PRESETS, ControllerParams, SimConfig, make_v_alpha, sim_config
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
        assert (ctrl.u1_max, ctrl.u2_max) == (0.22, 2.84)
        assert ctrl.loop_mode == "continuous"
        assert np.array_equal(cfg.potential.coeffs, make_v_alpha(alpha).coeffs)
        assert cfg.x0 == (-0.5, -0.5, 0.0)
        assert (cfg.goal_tol, cfg.t_max, cfg.control_period, cfg.log_every) == \
            (0.05, 600.0, 5e-4, 1)

    def test_overrides_layer_over_the_preset(self):
        cfg = preset_sim_config("P2", bounds_mode="ideal", x0=[0.1, 0.2, 0.3], log_every=3)
        assert cfg.controller.k1 == 1.0 / math.sqrt(2.0)
        assert (cfg.controller.u1_max, cfg.controller.u2_max) == (math.inf, math.inf)
        assert cfg.x0 == (0.1, 0.2, 0.3) and cfg.log_every == 3
        quad = preset_sim_config("P3", potential={"kind": "quadratic", "c": [1, 2, 3]})
        assert quad.potential.coeffs == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("overrides", [
        pytest.param({"h": 1e-3}, id="unknown-key"),
        pytest.param({"k2": 8.0}, id="k2-key"),
        pytest.param({"log_every": 2.5}, id="log_every-fraction"),
        pytest.param({"t_max": "600"}, id="t_max-string"),
        pytest.param({"gamma": True}, id="gamma-bool"),
        pytest.param({"x0": (-0.5, -0.5, 0.0)}, id="x0-tuple"),
        pytest.param({"potential": {"kind": "v_alpha", "alpha": "4"}}, id="alpha-string"),
        pytest.param({"potential": {"kind": "quadratic", "c": [math.inf, 1, 1]}},
                     id="c-infinite"),
    ])
    def test_overrides_are_checked_like_a_config_file(self, overrides):
        with pytest.raises(ValueError):
            preset_sim_config("P1", **overrides)
        with pytest.raises(ValueError):
            sim_config(overrides)

    @pytest.mark.parametrize("limit", ["u1_max", "u2_max"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_ideal_bounds_still_check_the_limits(self, limit, value):
        with pytest.raises(ValueError, match="velocity bounds"):
            sim_config({"bounds_mode": "ideal", limit: value})

    def test_ideal_bounds_drop_the_limits_and_keep_the_rest(self):
        settings = {"bounds_mode": "ideal", "epsilon": 0.5, "gamma": 0.1, "k1": 1.0,
                    "u1_max": 0.3, "u2_max": 3.0, "loop_mode": "sampling"}
        assert sim_config(settings).controller == ControllerParams(
            epsilon=0.5, gamma=0.1, k1=1.0, u1_max=math.inf, u2_max=math.inf,
            loop_mode="sampling")
        clamped = sim_config({**settings, "bounds_mode": "clamp"}).controller
        assert (clamped.u1_max, clamped.u2_max) == (0.3, 3.0)
