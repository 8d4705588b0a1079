"""The README's "Library in one minute" block runs and prints what its
comments say."""

import ast
import io
import os
import re
import tokenize

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def library_block() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    match = re.search(r"## Library in one minute\s+```python\n(.*?)```", text, re.S)
    assert match, "README has no 'Library in one minute' python block"
    return match.group(1)


def test_readme_library_block_values():
    # every expression statement with a comment is evaluated, and its value
    # compared with the literal that opens the comment (up to a colon)
    source = library_block()
    comments = {
        tok.start[0]: tok.string.lstrip("# ")
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
            expected = ast.literal_eval(comments[stmt.end_lineno].split(":")[0])
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert value == expected, ast.unparse(stmt)
            checked.append(expected)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert checked == [(0, 0), (2, 0), False, True, True]
