"""Backend selection, and agreement of the compiled and interpreted loops.

The admissibility quadrature is numpy on every backend, so it has no
agreement test here.
"""

import numpy as np
import pytest

from gradflow import (
    integrate_gradient_flow,
    make_v_alpha,
    preset_sim_config,
    set_backend,
    simulate,
)
from gradflow._kernels import HAVE_NUMBA, backend
from gradflow.cli import main

needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
DEFAULT = "numba" if HAVE_NUMBA else "numpy"


def run_on(be, fn):
    set_backend(be)
    try:
        return fn()
    finally:
        set_backend(None)


def test_env_flag_selects_numpy(monkeypatch):
    monkeypatch.setenv("GRADFLOW_BACKEND", " NumPy ")
    assert backend() == "numpy"
    monkeypatch.delenv("GRADFLOW_BACKEND")
    assert backend() == DEFAULT


@needs_numba
def test_env_flag_selects_numba(monkeypatch):
    monkeypatch.setenv("GRADFLOW_BACKEND", "numba")
    assert backend() == "numba"


def test_env_flag_rejects_unknown(monkeypatch):
    monkeypatch.setenv("GRADFLOW_BACKEND", "fortran")
    with pytest.raises(ValueError, match="fortran"):
        backend()


@pytest.mark.skipif(HAVE_NUMBA, reason="numba is installed")
def test_env_flag_rejects_missing_numba(monkeypatch):
    monkeypatch.setenv("GRADFLOW_BACKEND", "numba")
    with pytest.raises(ValueError, match="not importable"):
        backend()


@pytest.mark.parametrize("value", ["fortran", "numba"])
def test_cli_bad_backend_exit_2(monkeypatch, capsys, tmp_path, value):
    if value == "numba" and HAVE_NUMBA:
        pytest.skip("numba is installed")
    monkeypatch.setenv("GRADFLOW_BACKEND", value)
    code = main(["simulate", "--preset", "P1", "--t-max", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "GRADFLOW_BACKEND" in capsys.readouterr().err


def test_set_backend_rejects_unknown(restore_backend):
    with pytest.raises(ValueError):
        set_backend("fortran")
    assert backend() == DEFAULT


@needs_numba
def test_closed_loop_agreement(restore_backend):
    cfg = preset_sim_config("P2", loop_mode="sampling", bounds_mode="clamp",
                            t_max=2.0, control_period=1e-3)
    nb = run_on("numba", lambda: simulate(cfg))
    py = run_on("numpy", lambda: simulate(cfg))
    assert nb.data.shape == py.data.shape
    assert np.abs(nb.data - py.data).max() <= 1e-12
    assert nb.terminated == py.terminated
    assert nb.saturation_count == py.saturation_count


@needs_numba
def test_gradient_flow_agreement(restore_backend):
    pot = make_v_alpha(4.0)
    nb = run_on("numba", lambda: integrate_gradient_flow(pot, [1, -1, 0.5], 1.0, 1e-3))
    py = run_on("numpy", lambda: integrate_gradient_flow(pot, [1, -1, 0.5], 1.0, 1e-3))
    assert np.abs(nb.data - py.data).max() <= 1e-12


@needs_numba
def test_determinism_within_backend(restore_backend):
    cfg = preset_sim_config("P1", loop_mode="continuous", bounds_mode="ideal",
                            t_max=1.0, control_period=1e-3)
    for be in ("numba", "numpy"):
        a = run_on(be, lambda: simulate(cfg))
        b = run_on(be, lambda: simulate(cfg))
        assert np.array_equal(a.data, b.data)
