"""Count code-only lines of a Python source tree, per package.

A line counts when it holds at least one token that is not a comment
and not part of a docstring; blank lines never count.  A docstring is
a string literal that stands alone as the first statement of a module,
class or function body.  Standard library only.

Usage::

    python tools/code_lines.py            # src/repro, per package + total
    python tools/code_lines.py PATH ...   # any package roots
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path
from typing import Iterable, Set

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` that carry code."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        for line in range(token.start[0], token.end[0] + 1):
            if line not in docstrings:
                lines.add(line)
    return len(lines)


def count_tree(root: Path) -> Counter:
    """Code-only lines per package under ``root`` (a package directory):
    modules directly in ``root`` count under its own name, everything
    below a subpackage under ``root.subpackage``."""
    counts: Counter = Counter()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        package = root.name if len(rel.parts) == 1 else f"{root.name}.{rel.parts[0]}"
        counts[package] += code_lines(path.read_text(encoding="utf-8"))
    return counts


def main(argv: Iterable[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path(__file__).resolve().parent.parent / "src" / "repro"]
    counts: Counter = Counter()
    for root in roots:
        counts.update(count_tree(root))
    width = max(len(name) for name in counts) if counts else 5
    for name in sorted(counts):
        print(f"{name:<{width}}  {counts[name]:>6}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
