"""README's examples run as written against the current API."""

import json
import re
from pathlib import Path

from ticketsim.config import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _first_block(section: str, language: str) -> str:
    text = README.read_text().split(section, 1)[1]
    block = re.search(rf"```{language}\n(.*?)```", text, re.DOTALL)
    assert block is not None, f"README's {section} section has no {language} block"
    return block.group(1)


def test_readme_library_example_runs():
    code = _first_block("## Library use", "python")
    exec(compile(code, f"{README}:Library use", "exec"), {})


def test_readme_configuration_example_parses():
    parse_config(json.loads(_first_block("### Configuration", "json")))
