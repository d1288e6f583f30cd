"""README's config section and the config parser name the same keys.

Every `config._SCHEMA` key and every preset is named in README.md, in
backticks or in its ini block; every `key = value` line of that block is a
key of its section, and the block parses.
"""

import re
from pathlib import Path

from dampedwaves import config as cf

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def ini_block() -> str:
    blocks = re.findall(r"^```ini\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def named_words() -> set[str]:
    quoted = " ".join(re.findall(r"`([^`\n]+)`", README))
    return set(re.findall(r"\w+", quoted + " " + ini_block()))


def test_every_key_and_preset_is_named():
    named = named_words()
    keys = {key for section in cf._SCHEMA.values() for key in section}
    assert sorted(keys - named) == []
    assert sorted(set(cf.PRESETS) - named) == []


def test_every_ini_line_is_a_schema_key():
    section, unknown = None, []
    for line in ini_block().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif line:
            key = line.split("=", 1)[0].strip()
            if key not in cf._SCHEMA.get(section, {}):
                unknown.append(f"[{section}] {key}")
    assert unknown == []
    cf.parse_config(ini_block())
