"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    k = ns["k"]
    assert ns["obs"].G.shape == (k, k) and ns["obs"].z.shape == (1, 2 * k)
    assert ns["state"].p.shape == ns["x"].shape == ns["s_mmse"].shape == (1, 2 * k)
    # the loop prints one line per step of its three
    assert len(capsys.readouterr().out.split()) == 3
