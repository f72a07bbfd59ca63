"""The README's two examples, run as written: the ``sh`` block's config
through ``cli.main``, and the library block with ``exec``."""

import re
import shlex
from pathlib import Path

import numpy as np

from schwartzcalc.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading, language):
    """The first fenced ``language`` block after the ``heading`` line."""
    after = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", after, re.DOTALL).group(1)


def test_readme_command_line_example_solves_to_minus_cosine(tmp_path, monkeypatch):
    block = _block("### Example", "sh")
    config, rest = re.search(r"cat > run\.json <<'EOF'\n(.*?)\nEOF\n(.*)", block, re.DOTALL).groups()
    monkeypatch.chdir(tmp_path)
    Path("run.json").write_text(config, encoding="utf-8")
    argv = shlex.split(rest, comments=True)
    assert argv[0] == "schwartzcalc"
    assert main(argv[1:]) == 0
    rows = Path("out/solution.csv").read_text(encoding="utf-8").splitlines()[1:]
    x, re_part, im_part = np.array([[float(v) for v in row.split(",")] for row in rows]).T
    assert len(rows) == 64
    np.testing.assert_allclose(re_part + 1j * im_part, -np.cos(x), rtol=0, atol=1e-10)


def test_readme_library_example_solves_with_a_small_residual(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(_block("## Library example", "python"), "README.md", "exec"), namespace)
    assert namespace["result"].residual < 1e-10
