"""The README's Library examples run as written.

The first three ```python blocks share one namespace, as a reader would
run them in one session.  The fourth reads the cert.json that the
`artinflats prove` example writes, so it is not run here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippets_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) >= 4
    namespace: dict = {}
    for i, block in enumerate(blocks[:3]):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
