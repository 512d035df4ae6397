import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import gradflow
from gradflow import _kernels, simulator
from gradflow import (ControllerParams, SimConfig, cli, integrate_gradient_flow, make_v_alpha,
                      simulate, tracking_deviation)
from gradflow.cli import main
from gradflow.plotting import render_trajectory_svg
from gradflow.simulator import CSV_HEADER, load_trajectory_csv
from helpers import fill_the_disk, preset_sim_config


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


class TestSimulateCommand:
    def test_preset_run_writes_csv_and_summary(self, capsys, tmp_path):
        out = tmp_path / "p1.csv"
        code, summary = run(capsys, "simulate", "--preset", "P1",
                            "--mode", "continuous", "--t-max", "2",
                            "--control-period", "0.001",
                            "--out", str(out))
        assert code == 0
        assert summary["preset"] == "P1"
        assert summary["terminated"] == "horizon_exhausted"
        assert summary["max_abs_u1"] <= 0.22
        assert summary["max_abs_u2"] <= 2.84
        data = load_trajectory_csv(out)
        assert data.shape[0] == summary["rows"]
        assert summary["kernel"] == "c"

    def test_preset_flags_equal_library_preset(self, capsys, tmp_path):
        # one preset -> SimConfig path: the command line and the library agree to the byte
        cli_csv, lib_csv = tmp_path / "cli.csv", tmp_path / "lib.csv"
        code, _ = run(capsys, "simulate", "--preset", "P3", "--mode", "sampling",
                      "--bounds", "ideal", "--t-max", "2", "--control-period", "0.001",
                      "--out", str(cli_csv))
        assert code == 0
        simulate(preset_sim_config("P3", loop_mode="sampling", bounds_mode="ideal",
                                   t_max=2.0, control_period=1e-3)).save_csv(lib_csv)
        assert cli_csv.read_bytes() == lib_csv.read_bytes()

    def test_huge_horizon_that_reaches_the_goal(self, capsys, tmp_path):
        # memory follows the logged rows: a 1e9 s horizon is never allocated up front
        code, huge = run(capsys, "simulate", "--preset", "P1", "--mode", "sampling",
                         "--t-max", "1e9", "--out", str(tmp_path / "huge.csv"))
        default = simulate(preset_sim_config("P1", loop_mode="sampling"))
        assert code == 0
        assert huge["terminated"] == "goal_reached"
        assert huge["rows"] == len(default.data)
        assert huge["convergence_time"] == default.convergence_time

    def test_unknown_preset_exit_2(self, capsys):
        code = main(["simulate", "--preset", "P9"])
        assert code == 2

    def test_missing_potential_source_exit_2(self, capsys):
        code = main(["simulate", "--t-max", "1"])
        capsys.readouterr()
        assert code == 2

    def test_sampling_amplitudes_constant_per_interval(self, capsys, tmp_path):
        out = tmp_path / "p3.csv"
        code, _ = run(capsys, "simulate", "--preset", "P3", "--mode", "sampling",
                      "--t-max", "3", "--control-period", "0.001",
                      "--goal-tol", "0", "--out", str(out))
        assert code == 0
        data = np.asarray(load_trajectory_csv(out))
        t, amps = data[:, 0], data[:, 6:9]
        block = np.floor(t + 1e-9).astype(int)
        for j in np.unique(block):
            rows = amps[block == j]
            assert np.abs(rows - rows[0]).max() <= 1e-12

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = {
            "potential": {"kind": "quadratic", "c": [2, 1, 1]},
            "t_max": 5.0,
            "loop_mode": "sampling",
            "bounds_mode": "ideal",
            "control_period": 0.001,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run.csv"
        code, summary = run(capsys, "simulate", "--config", str(path),
                            "--t-max", "1", "--out", str(out))
        assert code == 0
        assert summary["loop_mode"] == "sampling"
        data = load_trajectory_csv(out)
        assert data[-1, 0] == pytest.approx(1.0, abs=1e-9)  # flag beat config

    def test_bad_config_keys_exit_2(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tmax": 5.0}))
        code = main(["simulate", "--config", str(path)])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("entry", [
        pytest.param({"log_every": 2.7}, id="log_every-fraction"),
        pytest.param({"log_every": True}, id="log_every-bool"),
        pytest.param({"log_every": "2"}, id="log_every-string"),
        pytest.param({"t_max": "600"}, id="t_max-string"),
        pytest.param({"t_max": True}, id="t_max-bool"),
        pytest.param({"goal_tol": "0.05"}, id="goal_tol-string"),
        pytest.param({"epsilon": True}, id="epsilon-bool"),
        pytest.param({"u1_max": None}, id="u1_max-null"),
        pytest.param({"x0": ["-0.5", "-0.5", "0"]}, id="x0-strings"),
        pytest.param({"goal": [0, 0, True]}, id="goal-bool"),
        pytest.param({"potential": {"kind": "v_alpha", "alpha": "4"}}, id="alpha-string"),
        pytest.param({"potential": {"kind": "v_alpha"}}, id="alpha-missing"),
        pytest.param({"potential": {"kind": "quadratic", "c": [1, True, 1]}}, id="c-bool"),
    ])
    def test_config_values_are_not_coerced_exit_2(self, capsys, tmp_path, entry):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"t_max": 1.0, **entry}))
        out = tmp_path / "x.csv"
        code = main(["simulate", "--preset", "P1", "--config", str(path),
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("entry, key", [
        pytest.param({"gamma": 10 ** 400}, "gamma", id="gamma"),
        pytest.param({"x0": [10 ** 400, 0, 0]}, "x0", id="x0"),
    ])
    def test_config_integer_past_the_float_range_exit_2(self, capsys, tmp_path, entry, key):
        # float() of a 401-digit integer raises OverflowError; the settings
        # check rejects it first and names the key
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(entry))
        out = tmp_path / "x.csv"
        code = main(["simulate", "--preset", "P1", "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"config key {key!r} must have the JSON type of its default" in captured.err
        assert not out.exists()

    def test_config_integers_are_numbers(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"t_max": 1, "log_every": 10, "x0": [-1, 0, 0]}))
        code, summary = run(capsys, "simulate", "--preset", "P1", "--config", str(path),
                            "--out", str(tmp_path / "x.csv"))
        assert code == 0
        assert summary["rows"] == 2000 // 10 + 1

    def test_invalid_grid_exit_2(self, capsys, tmp_path):
        # a control period longer than epsilon (1 s for P1) is a config error
        code = main(["simulate", "--preset", "P1", "--t-max", "4",
                     "--control-period", "2", "--out", str(tmp_path / "x.csv")])
        capsys.readouterr()
        assert code == 2

    def test_partial_control_period_exit_2(self, capsys, tmp_path):
        code = main(["simulate", "--preset", "P1", "--t-max", "1.00026",
                     "--out", str(tmp_path / "x.csv")])
        capsys.readouterr()
        assert code == 2

    def test_step_flag_exit_2(self, capsys, tmp_path):
        code = main(["simulate", "--preset", "P1", "--t-max", "1", "--h", "0.001",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "unrecognized arguments: --h" in capsys.readouterr().err

    def test_config_step_key_exit_2(self, capsys, tmp_path):
        # the hold is propagated exactly, so there is no step to set
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"t_max": 1.0, "h": 0.001}))
        code = main(["simulate", "--preset", "P1", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown config keys: ['h']" in err

    def test_config_goal_key_exit_2(self, capsys, tmp_path):
        # every run steers to the origin, so a goal elsewhere is not a setting
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"t_max": 1.0, "goal": [0.0, 0.0, 0.0]}))
        out = tmp_path / "x.csv"
        code = main(["simulate", "--preset", "P1", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown config keys: ['goal']" in err
        assert not out.exists()

    def test_ideal_bounds_check_the_limits_exit_2(self, capsys, tmp_path):
        # "ideal" runs unbounded, but a negative limit is still a config error
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bounds_mode": "ideal", "u1_max": -1.0, "t_max": 1.0}))
        out = tmp_path / "x.csv"
        code = main(["simulate", "--preset", "P1", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "velocity bounds must be positive" in err
        assert not out.exists()

    @pytest.mark.parametrize("bounds", ["clamp", "ideal"])
    def test_counts_independent_of_log_every(self, capsys, tmp_path, bounds):
        summaries = []
        for every in ("1", "10"):
            code, summary = run(capsys, "simulate", "--preset", "P1", "--mode", "sampling",
                                "--bounds", bounds, "--t-max", "3", "--log-every", every,
                                "--out", str(tmp_path / f"run{every}.csv"))
            assert code == 0
            summaries.append(summary)
        full, sparse = summaries
        assert sparse["rows"] < full["rows"]
        for key in ("saturation_count", "max_abs_u1", "max_abs_u2"):
            assert sparse[key] == full[key]
        assert (full["saturation_count"] > 0) == (bounds == "clamp")


class TestKernelReport:
    """simulate, refine and gradient-flow name the build that ran; the Python
    fallback writes the same bytes and says so."""

    ARGV = {
        "simulate": ["simulate", "--preset", "P1", "--t-max", "10"],
        "refine": ["refine", "--v-alpha", "1", "--eps", "0.5,0.1", "--window", "0.5"],
        "gradient-flow": ["gradient-flow", "--v-alpha", "1", "--t-max", "1"],
    }

    def outputs(self, capsys, tmp_path, command):
        out = tmp_path / "out.csv"
        code, summary = run(capsys, *self.ARGV[command], "--out", str(out))
        assert code == 0
        return summary, out.read_bytes()

    @pytest.mark.parametrize("command", ["simulate", "refine", "gradient-flow"])
    def test_python_fallback_writes_the_same_bytes(self, capsys, tmp_path, monkeypatch,
                                                   command):
        summary, csv = self.outputs(capsys, tmp_path, command)
        assert summary["kernel"] == "c"
        monkeypatch.setattr(_kernels, "compiled_loop", lambda: None)
        fallback, fallback_csv = self.outputs(capsys, tmp_path, command)
        assert fallback.pop("kernel") == "python"
        summary.pop("kernel")
        assert fallback == summary and fallback_csv == csv


def child_output(code: str, cwd, stdin: str | None = None) -> str:
    """What `code` prints in a fresh interpreter with the package on its path;
    `stdin`, if given, is written to it through a pipe."""
    package_root = os.path.dirname(os.path.dirname(gradflow.__file__))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=package_root),
                          input=stdin, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def child(code: str, cwd, stdin: str | None = None) -> list:
    """The JSON lines that `code` prints, as child_output runs it."""
    return [json.loads(line) for line in child_output(code, cwd, stdin).splitlines()]


# the first lines of a child that cannot import numpy: every import of it raises
NUMPY_BLOCKED = "import sys\nsys.modules['numpy'] = None\n"

# the library calls that a user makes, in the build BUILD; prints what they return
LIBRARY_API = """
import json
import gradflow as gf
from gradflow import _kernels
from gradflow.plotting import render_trajectory_svg
if BUILD == "python":
    _kernels.compiled_loop = lambda: None
pot = gf.make_v_alpha(1.0)
traj = gf.simulate(gf.sim_config({**gf.PRESETS["P1"], "t_max": 1.0}))
data = traj.data
ref = gf.integrate_gradient_flow(pot.scaled(0.05), [-0.5, -0.5, 0.0], t_max=1.0, h=1e-3)
traj.save_csv("run.csv")
loaded = gf.load_trajectory_csv("run.csv")
render_trajectory_svg(traj.data, "run.svg")
print(json.dumps({
    "kernel": _kernels.kernel(), "t_end": traj.t[-1], "shape": data.shape,
    "loaded_shape": loaded.shape, "readonly": data.readonly, "view": data.obj is traj.rows,
    "once": traj.data is data, "reference_rows": ref.data.shape[0],
    "deviation": gf.tracking_deviation(traj, ref),
    "J": gf.admissibility_measure(pot, gf.AdmissibilityConfig(grid_n=20)).value,
}))
"""


class TestNumpyFree:
    """No module imports numpy at import time, and no command, simulate, plot,
    refine, gradient-flow or admissibility, with or without the library,
    ever imports it."""

    @pytest.mark.parametrize("module", ["gradflow", "gradflow.cli"])
    def test_import(self, tmp_path, module):
        assert child(f"import json, sys, {module}; print(json.dumps('numpy' in sys.modules))",
                     tmp_path) == [False]

    def test_simulate(self, tmp_path):
        runs = {}
        for loop in ("c", "python"):
            code = (
                "import json, sys\n"
                "from gradflow import _kernels\n"
                "from gradflow.cli import main\n"
                + ("_kernels.compiled_loop = lambda: None\n" if loop == "python" else "")
                + "code = main(['simulate', '--preset', 'P1', '--t-max', '10', '--out', "
                f"'{loop}.csv'])\n"
                "print(json.dumps([code, 'numpy' in sys.modules]))\n"
            )
            summary, result = child(code, tmp_path)
            assert result == [0, False]
            assert summary["kernel"] == loop
            runs[loop] = (tmp_path / f"{loop}.csv").read_bytes()
        assert runs["c"] == runs["python"]

    def test_plot(self, tmp_path):
        child("from gradflow.cli import main\n"
              "main(['simulate', '--preset', 'P1', '--t-max', '10', '--out', 's.csv'])\n",
              tmp_path)
        svgs = {}
        for parser in ("c", "python"):
            code = (
                "import json, sys\n"
                "from gradflow import _kernels\n"
                "from gradflow.cli import main\n"
                + ("_kernels.compiled_loop = lambda: None\n" if parser == "python" else "")
                + f"code = main(['plot', 's.csv', '--out', '{parser}.svg'])\n"
                "print(json.dumps([code, 'numpy' in sys.modules]))\n"
            )
            summary, result = child(code, tmp_path)
            assert result == [0, False]
            assert summary == {"rows": 20001, "out": f"{parser}.svg", "parser": parser}
            svgs[parser] = (tmp_path / f"{parser}.svg").read_bytes()
        assert svgs["c"] == svgs["python"]

    def test_refine(self, tmp_path):
        runs = {}
        for loop in ("c", "python"):
            code = (
                "import json, sys\n"
                "from gradflow import _kernels\n"
                "from gradflow.cli import main\n"
                + ("_kernels.compiled_loop = lambda: None\n" if loop == "python" else "")
                + "code = main(['refine', '--v-alpha', '1', '--eps', '0.5,0.1', '--window', "
                f"'0.5', '--out', '{loop}.csv'])\n"
                "print(json.dumps([code, 'numpy' in sys.modules]))\n"
            )
            summary, result = child(code, tmp_path)
            assert result == [0, False]
            assert summary.pop("kernel") == loop
            assert summary.pop("csv") == f"{loop}.csv"
            runs[loop] = summary, (tmp_path / f"{loop}.csv").read_bytes()
        assert runs["c"] == runs["python"]

    def test_gradient_flow(self, tmp_path):
        runs = {}
        for loop in ("c", "python"):
            code = (
                "import json, sys\n"
                "from gradflow import _kernels\n"
                "from gradflow.cli import main\n"
                + ("_kernels.compiled_loop = lambda: None\n" if loop == "python" else "")
                + "code = main(['gradient-flow', '--v-alpha', '2', '--x0', '-0.5', '0.3', "
                f"'0.2', '--t-max', '3', '--out', '{loop}.csv'])\n"
                "print(json.dumps([code, 'numpy' in sys.modules]))\n"
            )
            summary, result = child(code, tmp_path)
            assert result == [0, False]
            assert summary.pop("kernel") == loop
            assert summary.pop("csv") == f"{loop}.csv"
            runs[loop] = summary, (tmp_path / f"{loop}.csv").read_bytes()
        assert runs["c"] == runs["python"]
        assert runs["c"][0]["rows"] == 3001

    def test_admissibility(self, tmp_path):
        runs = {}
        for kernel in ("c", "python"):
            code = (
                "import json, sys\n"
                "from gradflow import _kernels\n"
                "from gradflow.cli import main\n"
                + ("_kernels.compiled_loop = lambda: None\n" if kernel == "python" else "")
                + "code = main(['admissibility', '--v-alpha', '1,4', '--q', '1.5', '--grid-n', "
                f"'20', '--out', '{kernel}.csv'])\n"
                "print(json.dumps([code, 'numpy' in sys.modules]))\n"
            )
            summary, result = child(code, tmp_path)
            assert result == [0, False]
            assert summary.pop("kernel") == kernel
            assert summary.pop("csv") == f"{kernel}.csv"
            runs[kernel] = summary, (tmp_path / f"{kernel}.csv").read_bytes()
        assert runs["c"] == runs["python"]
        assert [cell["points"] for cell in runs["c"][0]["cells"]] == [8000, 8000]

    def test_other_commands_print_their_summaries(self, tmp_path):
        commands = [
            ["simulate", "--preset", "P1", "--t-max", "1", "--out", "s.csv"],
            ["plot", "s.csv"],
            ["gradient-flow", "--v-alpha", "1", "--t-max", "1", "--out", "gf.csv"],
            ["refine", "--v-alpha", "1", "--eps", "0.5,0.1", "--window", "0.5"],
            ["admissibility", "--quadratic", "1,1,1", "--grid-n", "10"],
        ]
        code = (
            "import json, sys\n"
            "from gradflow.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    print(json.dumps([main(argv), 'numpy' in sys.modules]))\n"
        )
        lines = child(code, tmp_path)
        summaries, results = lines[::2], lines[1::2]
        assert results == [[0, False]] * 5
        assert [sorted(s) for s in summaries[1:]] == [
            ["out", "parser", "rows"],
            ["V_end", "csv", "final_state", "kernel", "rows"],
            ["csv", "deviations", "eps", "kernel", "loop_mode", "non_increasing", "slope",
             "window"],
            ["cells", "csv", "kernel", "q"],
        ]
        assert summaries[1]["rows"] == summaries[0]["rows"] == 2001
        assert summaries[2]["rows"] == 1001
        assert summaries[3]["non_increasing"] is True
        assert summaries[4]["cells"][0]["points"] == 1000

    def test_library_api(self, tmp_path):
        traj = simulate(preset_sim_config("P1", t_max=1.0))
        reference = integrate_gradient_flow(make_v_alpha(1.0).scaled(0.05), [-0.5, -0.5, 0.0],
                                            t_max=1.0, h=1e-3)
        expected = {
            "t_end": traj.t[-1], "shape": [2001, 11], "loaded_shape": [2001, 11],
            "readonly": True, "view": True, "once": True, "reference_rows": 1001,
            "deviation": tracking_deviation(traj, reference),
            "J": gradflow.admissibility_measure(make_v_alpha(1.0),
                                                gradflow.AdmissibilityConfig(grid_n=20)).value,
        }
        render_trajectory_svg(np.asarray(traj.data), tmp_path / "array.svg")
        for build in ("c", "python"):
            (result,) = child(NUMPY_BLOCKED + f"BUILD = {build!r}\n" + LIBRARY_API, tmp_path)
            assert result.pop("kernel") == build
            assert result == expected
            assert (tmp_path / "run.svg").read_bytes() == (tmp_path / "array.svg").read_bytes()

    def test_readme_library_block(self, tmp_path):
        # the README's Library example runs as printed
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as f:
            block = re.search(r"\n## Library\n+```python\n(.*?)```", f.read(), re.S).group(1)
        lines = child_output(NUMPY_BLOCKED + block, tmp_path).splitlines()
        assert len(lines) == 3 and lines[0].startswith("goal_reached ")


class TestAdmissibilityCommand:
    def test_quadratic_cell(self, capsys, tmp_path):
        out = tmp_path / "cell.csv"
        code, summary = run(capsys, "admissibility", "--quadratic", "1,1,1",
                            "--grid-n", "50", "--out", str(out))
        assert code == 0
        cell = summary["cells"][0]
        assert cell["J"] == pytest.approx(1.0 / 3.0, abs=2e-3)
        lines = out.read_text().splitlines()
        assert lines[0] == "c1,c2,c3,q,method,points,J,stderr,excluded"
        assert len(lines) == 2

    def test_v_alpha_list(self, capsys):
        code, summary = run(capsys, "admissibility", "--v-alpha", "2,4",
                            "--grid-n", "50")
        assert code == 0
        assert [c["alpha"] for c in summary["cells"]] == [2.0, 4.0]
        assert summary["cells"][0]["J"] > summary["cells"][1]["J"]

    def test_negative_q_exit_2(self, capsys):
        code = main(["admissibility", "--quadratic", "1,1,1", "--q", "-1"])
        capsys.readouterr()
        assert code == 2

    def test_requires_potential_choice(self, capsys):
        code = main(["admissibility", "--grid-n", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert "one of the arguments --v-alpha --quadratic --table1 is required" in captured.err

    @pytest.mark.parametrize("flag, value", [
        pytest.param("--method", "monte_carlo", id="method"),
        pytest.param("--samples", "10", id="samples"),
        pytest.param("--seed", "1", id="seed"),
    ])
    def test_monte_carlo_flags_removed_exit_2(self, capsys, flag, value):
        # J has one deterministic rule, the midpoint grid, and no Monte Carlo settings
        code = main(["admissibility", "--quadratic", "1,1,1", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err

    def test_nonfinite_q_exit_2(self, capsys):
        # q = inf would report J = 0 and print "q": Infinity, which is not JSON
        code = main(["admissibility", "--quadratic", "1,1,1", "--grid-n", "10", "--q", "inf"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "q must be positive and finite" in captured.err

    def test_jobs_flag_removed_exit_2(self, capsys):
        code = main(["admissibility", "--table1", "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --jobs" in captured.err

    def test_grad_floor_flag_removed_exit_2(self, capsys):
        code = main(["admissibility", "--quadratic", "1,1,1", "--grad-floor", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --grad-floor" in captured.err

    @pytest.mark.parametrize("box", ["inf", "0", "-1", "nan", "1e-310"])
    def test_bad_box_named_exit_2(self, capsys, box):
        code = main(["admissibility", "--quadratic", "1,1,1", "--grid-n", "10", "--box", box])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "half_width must be positive" in captured.err

    @pytest.mark.parametrize("potential", [["--v-alpha", "2"], ["--quadratic", "1,2,3"]])
    def test_table1_with_a_potential_exit_2(self, capsys, potential):
        # --table1 has its own potentials: a second selection is a conflict, not ignored
        code = main(["admissibility", "--table1", *potential])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "not allowed with argument" in captured.err


class TestRefineCommand:
    def test_two_eps_non_increasing(self, capsys, tmp_path):
        out = tmp_path / "refine.csv"
        code, summary = run(capsys, "refine", "--v-alpha", "1",
                            "--eps", "0.2,0.1", "--window", "1.0",
                            "--out", str(out))
        assert code == 0
        assert summary["non_increasing"] is True
        assert summary["deviations"][1] <= summary["deviations"][0]
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,deviation"
        assert len(lines) == 3
        d0, d1 = summary["deviations"]
        assert summary["slope"] == pytest.approx(math.log(d0 / d1) / math.log(2.0), rel=1e-9)

    def test_failed_write_leaves_the_old_csv(self, capsys, tmp_path, monkeypatch):
        # the disk fills during the write: the partial CSV is removed, and the
        # earlier one keeps its bytes
        out = tmp_path / "refine.csv"
        out.write_bytes(b"an earlier study\n")
        fill_the_disk(monkeypatch)
        code = main(["refine", "--v-alpha", "1", "--eps", "0.5,0.1", "--window", "0.5",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "No space left on device" in captured.err
        assert out.read_bytes() == b"an earlier study\n"
        assert [p.name for p in tmp_path.iterdir()] == ["refine.csv"]

    def test_single_eps(self, capsys):
        code, summary = run(capsys, "refine", "--v-alpha", "1",
                            "--eps", "0.2", "--window", "0.5")
        assert code == 0
        assert len(summary["deviations"]) == 1
        assert summary["slope"] is None

    def test_equilibrium_has_zero_deviation_and_no_slope(self, capsys):
        # both runs stay at the origin, so there is no log-log slope to fit
        code, summary = run(capsys, "refine", "--v-alpha", "1", "--eps", "0.5,0.1",
                            "--x0", "0", "0", "0")
        assert code == 0
        assert summary["deviations"] == [0.0, 0.0]
        assert summary["non_increasing"] is True
        assert summary["slope"] is None

    @pytest.mark.parametrize("flags, loop_mode, k1", [
        (["--mode", "continuous"], "continuous", 0.5),
        (["--k1", "0.7"], "sampling", 0.7),
    ], ids=["mode-continuous", "k1"])
    def test_mode_and_k1_reach_the_runs(self, capsys, flags, loop_mode, k1):
        # each deviation is that of a library run with the same loop_mode and k1
        code, summary = run(capsys, "refine", "--v-alpha", "1", "--eps", "0.5,0.1",
                            "--window", "0.5", *flags)
        assert code == 0
        assert summary["loop_mode"] == loop_mode
        potential, x0 = make_v_alpha(1.0), [-0.5, -0.5, 0.0]
        reference = integrate_gradient_flow(potential.scaled(0.05), x0, t_max=0.5, h=1e-3)
        expected = [tracking_deviation(simulate(SimConfig(
            potential=potential, controller=ControllerParams(epsilon=eps, k1=k1,
                                                             loop_mode=loop_mode),
            x0=x0, goal_tol=0.0, t_max=0.5, control_period=eps / 2000)), reference)
            for eps in (0.5, 0.1)]
        assert summary["deviations"] == expected

    def test_empty_eps_exit_2(self, capsys):
        # argparse refuses the empty field before refine runs
        code = main(["refine", "--v-alpha", "1", "--eps", ""])
        assert "expected comma-separated floats" in capsys.readouterr().err
        assert code == 2

    def test_non_descending_eps_exit_2(self, capsys):
        code = main(["refine", "--v-alpha", "1", "--eps", "0.1,0.5"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("eps, window, fault", [
        ("0.5", "0.0015", "of 0.001, the reference flow's step"),
        ("0.5,0.3", "1", "of 0.00015, the control period eps/2000 of --eps 0.3"),
    ], ids=["reference-grid", "control-period"])
    def test_window_off_a_grid_names_window_exit_2(self, capsys, eps, window, fault):
        # refine has no --h or --control-period: the message names its own flags
        code = main(["refine", "--v-alpha", "1", "--eps", eps, "--window", window])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"--window {float(window)} must be a positive multiple {fault}" in captured.err


class TestGradientFlowCommand:
    def test_exports_csv(self, capsys, tmp_path):
        out = tmp_path / "flow.csv"
        code, summary = run(capsys, "gradient-flow", "--v-alpha", "1",
                            "--x0", "-0.5", "-0.5", "0", "--t-max", "1",
                            "--h", "0.001", "--out", str(out))
        assert code == 0
        assert summary["final_state"][0] == pytest.approx(-0.5 * math.exp(-2.0), abs=1e-15)
        data = np.asarray(load_trajectory_csv(out))
        assert np.all(data[:, 4:9] == 0.0)
        assert summary["kernel"] == "c"

    # 2**47 rows, or refine's 4e12 closed-loop rows of 88 bytes, need more than
    # the 128 TiB user address space of x86_64 for one array, so the allocation
    # fails at once whatever the overcommit policy
    @pytest.mark.parametrize("argv", [
        pytest.param(None, id="monkeypatched"),
        pytest.param(["gradient-flow", "--v-alpha", "1", "--t-max", "137438953472",
                      "--h", "0.0009765625"], id="gradient-flow-2e47-rows"),
        pytest.param(["refine", "--v-alpha", "1", "--eps", "0.5,0.1",
                      "--window", "137438953472"], id="refine-2e47-rows"),
        pytest.param(["refine", "--v-alpha", "1", "--eps", "1e-9", "--window", "2"],
                     id="refine-4e12-updates"),
    ])
    def test_out_of_memory_exit_3(self, capsys, monkeypatch, tmp_path, argv):
        if argv is None:
            def no_memory(*args, **kwargs):
                raise MemoryError("cannot allocate the rows")

            monkeypatch.setattr(cli, "integrate_gradient_flow", no_memory)
            code = main(["gradient-flow", "--v-alpha", "1", "--t-max", "1e9"])
            out, err = capsys.readouterr()
            assert "gradflow: out of memory: cannot allocate the rows" in err
        else:
            # in a child with a timeout: a run that never fails to allocate ends
            # this test, not the CI job
            package_root = os.path.dirname(os.path.dirname(gradflow.__file__))
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from gradflow.cli import main; "
                                       "sys.exit(main(sys.argv[1:]))", *argv],
                cwd=tmp_path, env=dict(os.environ, PYTHONPATH=package_root),
                capture_output=True, text=True, timeout=30,
            )
            code, out, err = proc.returncode, proc.stdout, proc.stderr
            assert "gradflow: out of memory:" in err
        assert code == 3
        assert out == ""


class TestPlotCommand:
    """plot with the compiled parser; a subclass runs it without the library."""

    PARSER = "c"

    def make_csv(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, summary = run(capsys, "simulate", "--preset", "P1", "--t-max", "1",
                            "--control-period", "0.001",
                            "--out", str(out))
        assert code == 0
        return out, summary

    def test_three_panels_and_units(self, capsys, tmp_path):
        csv_path, summary = self.make_csv(capsys, tmp_path)
        svg = tmp_path / "traj.svg"
        code, plot_summary = run(capsys, "plot", str(csv_path), "--out", str(svg))
        assert code == 0
        assert plot_summary["rows"] == summary["rows"]  # parsed without loss
        assert plot_summary["parser"] == self.PARSER
        text = svg.read_text()
        assert text.count('class="panel"') == 3
        for label in ("x1 (m)", "x2 (m)", "x3 (rad)", "u1 (m/s)", "u2 (rad/s)", "t (s)"):
            assert label in text

    def test_deterministic_bytes(self, capsys, tmp_path):
        csv_path, _ = self.make_csv(capsys, tmp_path)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run(capsys, "plot", str(csv_path), "--out", str(a))[0] == 0
        assert run(capsys, "plot", str(csv_path), "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_decimated_bytes_are_pinned(self, capsys, tmp_path):
        # 20,001 rows, more than MAX_POLYLINE_POINTS: every 6th row is drawn,
        # and the last; the hash holds the decimation, the operation order of
        # the mapping and the number format
        csv_path = tmp_path / "p1.csv"
        assert run(capsys, "simulate", "--preset", "P1", "--t-max", "10",
                   "--out", str(csv_path))[1]["rows"] == 20001
        svg = tmp_path / "p1.svg"
        code, summary = run(capsys, "plot", str(csv_path))
        assert code == 0 and summary["out"] == str(svg)
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
            "19cf5ed6f1f07234af3b4c6b386ce440b5fb15ebb2a4ae7916aa12819e9988ac")
        # an ndarray renders the bytes the memoryview does
        array_svg = tmp_path / "array.svg"
        render_trajectory_svg(np.asarray(load_trajectory_csv(csv_path)), array_svg)
        assert array_svg.read_bytes() == svg.read_bytes()

    def test_reads_a_pipe(self, capsys, tmp_path):
        # a pipe has no size to map by, nor a seek: _parse_python reads it in either build
        csv_path, _ = self.make_csv(capsys, tmp_path)
        assert run(capsys, "plot", str(csv_path), "--out", str(tmp_path / "file.svg"))[0] == 0
        program = (
            "import json, sys\n"
            "from gradflow import _kernels\n"
            "from gradflow.cli import main\n"
            + ("_kernels.compiled_loop = lambda: None\n" if self.PARSER == "python" else
               "assert _kernels.compiled_loop()\n")
            + "code = main(['plot', '/dev/stdin', '--out', 'pipe.svg'])\n"
            "print(json.dumps(code))\n"
        )
        summary, code = child(program, tmp_path, stdin=csv_path.read_text())
        assert code == 0 and summary["parser"] == "python"
        assert (tmp_path / "pipe.svg").read_bytes() == (tmp_path / "file.svg").read_bytes()

    def test_failed_write_leaves_the_old_svg(self, capsys, tmp_path, monkeypatch):
        # the disk fills during the write: the partial SVG is removed, and the
        # earlier one keeps its bytes
        csv_path, _ = self.make_csv(capsys, tmp_path)
        svg = tmp_path / "traj.svg"
        svg.write_bytes(b"an earlier plot\n")
        fill_the_disk(monkeypatch)
        code = main(["plot", str(csv_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "No space left on device" in captured.err
        assert svg.read_bytes() == b"an earlier plot\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["traj.csv", "traj.svg"]

    def test_one_row_past_2_53_has_panels_of_nonzero_width(self, capsys, tmp_path):
        # one row: every axis is flat, and 1e17 +- 1 rounds back to 1e17
        path = tmp_path / "one.csv"
        path.write_text(f"{CSV_HEADER}\n0,1e+17,-1e+17,3,1e+17,0,0,0,0,0,0\n")
        code, summary = run(capsys, "plot", str(path))
        assert code == 0 and summary["rows"] == 1
        text = (tmp_path / "one.svg").read_text()
        assert "nan" not in text and "inf" not in text

    def test_missing_column_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x1,x2,x3,u1,a1,a2,a12,V,saturated\n0,0,0,0,0,0,0,0,0,0\n")
        code = main(["plot", str(bad)])
        capsys.readouterr()
        assert code == 2

    def test_empty_body_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text(CSV_HEADER + "\n")
        code = main(["plot", str(bad)])
        capsys.readouterr()
        assert code == 2

    def test_malformed_numbers_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "zero.csv"
        bad.write_text(CSV_HEADER + "\n0,zero,0,0,0,0,0,0,0,0,0\n")
        code = main(["plot", str(bad)])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_named_exit_2(self, capsys, tmp_path, value):
        # the writer logs no non-finite value, so plot must not draw one
        bad = tmp_path / "bad.csv"
        row = ",".join(["0"] * 11)
        bad.write_text(f"{CSV_HEADER}\n{row}\n0.1,0,{value},0,0,0,0,0,0,0,0\n{row}\n")
        code = main(["plot", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "malformed trajectory CSV: non-finite value on line 3" in captured.err
        assert not (tmp_path / "bad.svg").exists()

    def test_non_finite_value_after_blank_lines_names_its_file_line(self, capsys, tmp_path):
        # the blank line 3 comes first, and is refused
        bad = tmp_path / "blank.csv"
        row = ",".join(["0"] * 11)
        bad.write_text(f"{CSV_HEADER}\n{row}\n\n\n0.1,nan,0,0,0,0,0,0,0,0,0\n{row}\n")
        code = main(["plot", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.strip().endswith(
            "malformed trajectory CSV: expected 11 fields, got 1 on line 3")

    def test_crlf_copy_exit_2(self, capsys, tmp_path):
        # CRLF is outside the writer's grammar: the header, line 1, is refused
        csv_path, _ = self.make_csv(capsys, tmp_path)
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(csv_path.read_bytes().replace(b"\n", b"\r\n"))
        code = main(["plot", str(crlf)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "unexpected trajectory header" in captured.err
        assert not (tmp_path / "crlf.svg").exists()


class TestPlotCommandWithoutLibrary(TestPlotCommand):
    """The same commands where the library cannot be built: _parse_python parses."""

    PARSER = "python"

    @pytest.fixture(autouse=True)
    def _no_library(self, monkeypatch):
        monkeypatch.setattr(_kernels, "compiled_loop", lambda: None)


class TestExitCodeContract:
    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "--preset", "P1", "--t-max", "inf"], id="simulate-t_max"),
        pytest.param(["gradient-flow", "--v-alpha", "1", "--t-max", "inf"], id="flow-t_max"),
        pytest.param(["refine", "--v-alpha", "1", "--eps", "0.5,0.1", "--window", "inf"],
                     id="refine-window"),
    ])
    def test_infinite_horizon_exit_2(self, capsys, tmp_path, argv):
        # exit 1 means a failed property check, never a crash
        code = main([*argv, "--out", str(tmp_path / "x.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "inf is not a finite multiple" in captured.err

    def test_infinite_epsilon_in_config_exit_2(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"epsilon": Infinity}')
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert "inf is not a finite multiple" in captured.err

    def test_infinite_coefficient_exit_2(self, capsys):
        # an infinite c would print "J": NaN, which is not JSON
        code = main(["admissibility", "--quadratic", "inf,1,1", "--grid-n", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "quadratic coefficients must be positive and finite" in captured.err

    def test_infinite_coefficient_in_config_exit_2(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"potential": {"kind": "quadratic", "c": [Infinity, 1, 1]}}')
        out = tmp_path / "x.csv"
        code = main(["simulate", "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "quadratic coefficients must be positive and finite" in captured.err
        assert not out.exists()

    def test_controls_overflowing_at_the_start_exit_2(self, capsys, tmp_path):
        # V is finite at x0; sqrt(omega*|a12|) overflows, and u2 = 8*inf*sin(0) is nan
        path = tmp_path / "cfg.json"
        path.write_text('{"gamma": 1e308}')
        out = tmp_path / "x.csv"
        code = main(["simulate", "--preset", "P1", "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "V, the amplitudes or the controls are non-finite at the initial state" \
            in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["continuous", "sampling"])
    @pytest.mark.parametrize("x0", [[1e152, 0, 0], [0, 0, 1e152]], ids=["a1", "a2"])
    def test_clamped_amplitude_overflow_at_the_start_exit_2(self, capsys, tmp_path, x0, mode):
        # a1 or a2 is -inf at x0, and the clamp would log it with a finite control
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "potential": {"kind": "quadratic", "c": [1, 1, 1]}, "gamma": 1e157, "x0": x0,
            "t_max": 0.002, "goal_tol": 0}))
        out = tmp_path / "x.csv"
        code = main(["simulate", "--config", str(path), "--mode", mode, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "V, the amplitudes or the controls are non-finite at the initial state" \
            in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["continuous", "sampling"])
    def test_finite_state_with_infinite_v_exit_3(self, capsys, tmp_path, mode):
        # the first hold leaves x1 = -5e304, finite, but V = x1*x1 overflows:
        # the message names what the row rule tests, not the state
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "potential": {"kind": "quadratic", "c": [1, 1, 1]}, "gamma": 1e157,
            "x0": [5e150, 0, 0], "bounds_mode": "ideal", "t_max": 0.002, "goal_tol": 0}))
        out = tmp_path / "x.csv"
        code = main(["simulate", "--config", str(path), "--mode", mode, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "integration failure: V, a control or an amplitude became non-finite " \
            "after t=0" in captured.err
        assert not out.exists()

    def test_infinite_gamma_exit_2(self, capsys):
        code = main(["refine", "--v-alpha", "1", "--eps", "0.5,0.1", "--gamma", "inf"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "gamma must be positive and finite" in captured.err

    @pytest.mark.parametrize("argv", [
        pytest.param(["refine", "--v-alpha", "1", "--eps", "0.5", "--k2", "8"], id="refine-k2"),
        pytest.param(["gradient-flow", "--v-alpha", "1", "--log-every", "2"],
                     id="gradient-flow-log-every"),
    ])
    def test_removed_flags_exit_2(self, capsys, argv):
        # k2 = 4/k1 follows from --k1, and --h alone spaces the flow's logged grid
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_no_command_exit_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()
