"""README promises that hold for the code as it is."""

import re
from pathlib import Path

import hpnc

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_api_list_is_all():
    # the exported surface should not grow or shrink unseen
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"`([^`]+)`", section[section.index("\n- "):])
    assert len(listed) == len(set(listed))
    assert set(listed) == set(hpnc.__all__)
