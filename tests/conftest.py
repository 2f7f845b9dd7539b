"""Shared fixtures: reference configurations used across the suite."""

import os
from dataclasses import replace
from pathlib import Path

import pytest

import musalink
from musalink.config import SystemConfig, default_config


def reference_config(n_active=10, lam=4.0, n_slots=20) -> SystemConfig:
    """Default parameter set with the experiment axes overridden."""
    cfg = default_config()
    return replace(
        cfg,
        traffic=replace(cfg.traffic, n_active=n_active, lam=lam),
        frame=replace(cfg.frame, n_slots=n_slots),
    )


def fresh_interpreter_env() -> dict[str, str]:
    """Environment for a new interpreter that imports this musalink."""
    src_dir = str(Path(musalink.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_dir] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))


@pytest.fixture
def default_cfg() -> SystemConfig:
    return default_config()
