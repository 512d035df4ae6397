"""Shorthands that only the tests use."""

import errno
import io

import pytest

from gradflow import PRESETS, _kernels, sim_config, simulator
from gradflow.simulator import SimConfig


def preset_sim_config(name: str, **settings) -> SimConfig:
    """The SimConfig of a named preset, with `settings` layered on top of it."""
    return sim_config({**PRESETS[name], **settings})


def in_build(build, fn, *args):
    """fn(*args) with the compiled library ("c") or with it forced to None ("python")."""
    with pytest.MonkeyPatch.context() as mp:
        if build == "python":
            mp.setattr(_kernels, "compiled_loop", lambda: None)
        else:
            assert _kernels.compiled_loop() is not None
        return fn(*args)


class FullDisk(io.FileIO):
    """A file whose disk fills on the first write of a new file ("xb", the
    mode of `simulator.replacing`): 100 bytes land, then ENOSPC. Other
    files write as usual."""

    def write(self, b):
        if self.mode == "xb":
            super().write(bytes(b)[:100])
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(b)


def fill_the_disk(monkeypatch) -> None:
    """Make every file that `simulator.replacing` opens a FullDisk."""
    monkeypatch.setattr(simulator, "open", FullDisk, raising=False)
