"""The library example and the config block in README.md work as documented."""

import re
from pathlib import Path

from agss.cli import _experiment_config, build_parser
from agss.experiments import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["True", "7"]
    assert 0 < float(lines[-1]) < 1


def test_readme_config_block_loads(tmp_path):
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.ini"
    path.write_text(blocks[0], encoding="utf-8")
    config = _experiment_config(build_parser().parse_args(["experiment", "--config", str(path)]))
    assert config == ExperimentConfig(
        seed=42, q_values=(101, 211, 401), genus=1, delta=0.5, offsets=(0, 1),
        mode="exact", oracle="kernel", samples=20000,
    )
