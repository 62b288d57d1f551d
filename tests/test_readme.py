"""The README documents every public name of the package."""

import os
import re

import smoothdiff

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def test_every_public_name_is_documented():
    # each name in __all__ appears in an inline code span outside the code
    # blocks; backend_name is left out, as it goes with the benchmark field
    # that reads it
    with open(README, encoding="utf-8") as fh:
        text = re.sub(r"```.*?```", "", fh.read(), flags=re.S)
    documented = set()
    for span in re.findall(r"`([^`]+)`", text):
        documented.update(re.findall(r"\w+", span))
    missing = [n for n in smoothdiff.__all__ if n != "backend_name" and n not in documented]
    assert not missing, missing
