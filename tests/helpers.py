"""Shorthands that only the tests use."""

from gradflow import PRESETS, sim_config
from gradflow.simulator import SimConfig


def preset_sim_config(name: str, **settings) -> SimConfig:
    """The SimConfig of a named preset, with `settings` layered on top of it."""
    return sim_config({**PRESETS[name], **settings})
