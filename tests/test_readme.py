"""The README states the current value of every size cap the package defines."""

import importlib
import pkgutil
import re
from pathlib import Path

import randquad

README = Path(__file__).resolve().parents[1] / "README.md"


def _caps():
    """Every public integer constant named ``*MAX*`` in a module of the package."""
    caps = {}
    for info in pkgutil.iter_modules(randquad.__path__):
        for name, value in vars(importlib.import_module(f"randquad.{info.name}")).items():
            if "MAX" in name and not name.startswith("_") and isinstance(value, int):
                caps[name] = value
    return caps


def test_size_caps_section_states_every_cap():
    text = README.read_text()
    section = text[text.index("Size caps") : text.index("Cost of example 2")]
    stated = {name: int(value) for name, value in re.findall(r"`(\w+)` = (\d+)", section)}
    caps = _caps()
    assert set(caps) == {"MAX_LADDER_EXP", "MAX_REFERENCE_EXP", "MAX_REPLICATIONS", "SOBOLEV_MAX_CELLS"}
    assert stated == caps
