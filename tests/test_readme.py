"""The README's Library examples run as written, and every public name
of the library has a reader.

The first three ```python blocks share one namespace, as a reader would
run them in one session.  The fourth reads the cert.json that the
`artinflats prove` example writes, so it is not run here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_library_snippets_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) >= 4
    namespace: dict = {}
    for i, block in enumerate(blocks[:3]):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def _public_names(tree: ast.Module):
    """(qualified name, name) of each public top-level function and
    class, and of each public method of a public class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs[:2]) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def test_every_public_name_has_a_reader():
    # a name only its own def spells is code that only the tests call:
    # it belongs in tests/, or in README as documented API
    src_files = sorted((ROOT / "src" / "artinflats").glob("*.py"))
    src = "\n".join(f.read_text() for f in src_files)
    readers = README.read_text() + "".join(
        f.read_text() for pattern in ("*.py", "*.md") for f in sorted((ROOT / "bench").glob(pattern))
    )
    read = set(re.findall(r"\w+", readers)) | set(re.findall(r"(?<!def )(?<!class )\b\w+", src))
    unread = [
        f"{f.stem}.{qualname}"
        for f in src_files
        for qualname, name in _public_names(ast.parse(f.read_text()))
        if name not in read
    ]
    assert not unread, unread
