import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def source_env():
    """Environment for a child interpreter that imports leadersync from this
    checkout's ``src``, whatever the child's working directory; any
    ``PYTHONPATH`` already set follows it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env
