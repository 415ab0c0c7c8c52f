"""The README's library example runs, and each ``# value`` comment in it
is the repr of what its line evaluates to."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> list[str]:
    """The lines of the python block under the README's ``## Library``."""
    text = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", text, re.S).group(1).splitlines()


def test_library_example_values():
    namespace, checked = {}, []
    for line in library_block():
        code, _, value = line.partition("#")
        if value:
            got = eval(code, namespace)
            assert repr(got) == value.strip(), line
            checked.append(value.strip())
        elif code.strip():
            exec(code, namespace)
    assert checked == ["'OneSingular'", "2", "frozenset({(1, 1)})", "2",
                       "8", "True"]
