"""README's "Library use" example runs as written against the package's
top-level names."""

import re
from pathlib import Path

import pipesgd

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_snippet_runs_verbatim():
    section = README.read_text().split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, "README.md", "exec"), {})


def test_top_level_exports_what_the_snippet_uses():
    assert sorted(pipesgd.__all__) == [
        "TrainConfig", "make_synthetic_dataset", "net", "run_inproc", "sequential_sgd",
    ]
    assert pipesgd.__version__ == "0.1.0"
