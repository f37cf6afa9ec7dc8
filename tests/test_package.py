import tomllib
from pathlib import Path

import pitcorr


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert pitcorr.__version__ == tomllib.load(fh)["project"]["version"]
