import os
from pathlib import Path

import pytest
from hypothesis import settings

import kernel_lab

# Property tests draw the same examples on every run, and a slow host
# cannot fail them on time: one mollified_green build takes ~0.3 s at
# a = 0.25, over hypothesis' default 200 ms deadline.
settings.register_profile("kernel-lab", deadline=None, derandomize=True)
settings.load_profile("kernel-lab")


@pytest.fixture
def cli_env():
    """Environment for a ``python -m kernel_lab.cli`` subprocess.

    Puts the absolute directory holding the ``kernel_lab`` this suite
    imported first on ``PYTHONPATH``, so the child runs the same code
    from any working directory, whatever else is installed.
    """
    src = str(Path(kernel_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env
