"""The README's library example runs against the current public API, and its config shows the defaults."""

import re
from pathlib import Path

import yaml

from dkpc.cli import ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})


def _keys(mapping, prefix=""):
    """Dotted paths of every leaf of a nested mapping."""
    out = set()
    for key, value in mapping.items():
        path = f"{prefix}{key}"
        out |= _keys(value, path + ".") if isinstance(value, dict) else {path}
    return out


def test_readme_config_block_shows_the_defaults():
    block = re.search(r"```yaml\n# exp\.yaml\n(.*?)```", README.read_text(), flags=re.DOTALL)
    shown = yaml.safe_load(block.group(1))
    assert ExperimentConfig.from_dict(shown) == ExperimentConfig()
    # every key, save the weight that only the deepc controller takes
    assert _keys(shown) == _keys(ExperimentConfig().to_dict()) - {"controller.lambda_sigma"}
