import importlib
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize(
    "module", ["cli", "contact_kernel", "exactlin", "spectrum_search", "torus_builder"]
)
def test_all_names_resolve(module):
    # A deletion that leaves its name in __all__ breaks `from ... import *`.
    mod = importlib.import_module(f"liouville_forge.{module}")
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_readme_array_contract_example():
    section = README.read_text().split("## Array contract", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns: dict = {}
    exec(code, ns)
    # The results the example's comments claim: a half pullback and a
    # contact form of coefficient 1.
    np.testing.assert_allclose(ns["pb"], 0.5 * ns["alpha"](ns["pts"]), rtol=0, atol=1e-9)
    np.testing.assert_allclose(ns["top"], 1.0, rtol=0, atol=1e-7)
