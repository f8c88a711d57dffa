"""API index generator: the same tree always yields the same file."""

import importlib.util
from pathlib import Path

from repro.sim.sweeps import compare_over_seeds

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "gen_api_docs.py"
_spec = importlib.util.spec_from_file_location("gen_api_docs", _TOOL)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def test_callable_defaults_render_without_an_address():
    sig = gen.signature_of(compare_over_seeds)
    assert "0x" not in sig
    assert "= <lambda>" in sig


def test_builtin_and_plain_defaults_render_by_name_and_value():
    def f(announce=print, n: int = 3, *, name="x"):
        pass

    assert gen.signature_of(f) == "(announce=print, n: int = 3, *, name='x')"
