#!/usr/bin/env python3
"""Count the lines of each module of a package: all, code and docstring lines.

Docstring lines are the lines of the module, class and function docstrings,
found with ``ast``.  Code lines are the other lines that hold a token other
than a comment or a line break, found with ``tokenize``; a token that spans
lines, such as a string, counts on each of them.  What is left is comments
and blank lines.

    python scripts/line_count.py src/illposed
    python scripts/line_count.py ../parent/src/illposed src/illposed

With one directory it prints the counts of each of its ``*.py`` files and
their total.  With two it prints the difference, second minus first, of
each module whose counts differ (a module in one directory only counts as
empty in the other), then both totals and their difference.
"""

import argparse
import ast
import io
import os
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
KINDS = ("lines", "code", "docstring")


def docstring_lines(tree):
    """The line numbers spanned by the docstrings of a module's tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source):
    """{"lines", "code", "docstring"} counts of one module's source text."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return {"lines": len(source.splitlines()), "code": len(code - docs),
            "docstring": len(docs)}


def count_dir(path):
    """{module file name: its counts} for the ``*.py`` files of ``path``."""
    counts = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".py"):
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                counts[name] = count(fh.read())
    return counts


def total(counts):
    return {kind: sum(c[kind] for c in counts.values()) for kind in KINDS}


def row(name, values, spec=">11"):
    return f"{name:<24}" + "".join(f"{values[kind]:{spec}}" for kind in KINDS)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("dirs", nargs="+", metavar="DIR",
                        help="one package directory, or two to compare")
    args = parser.parse_args(argv)
    if len(args.dirs) > 2:
        parser.error("give one directory or two")
    header = f"{'module':<24}" + "".join(f"{kind:>11}" for kind in KINDS)
    if len(args.dirs) == 1:
        counts = count_dir(args.dirs[0])
        print(header)
        for name, values in counts.items():
            print(row(name, values))
        print(row("total", total(counts)))
        return 0
    first, second = (count_dir(path) for path in args.dirs)
    empty = dict.fromkeys(KINDS, 0)
    print(header)
    for name in sorted(set(first) | set(second)):
        a, b = first.get(name, empty), second.get(name, empty)
        if a != b:
            print(row(name, {kind: b[kind] - a[kind] for kind in KINDS}, ">+11"))
    a, b = total(first), total(second)
    print(row(f"total {args.dirs[0]}", a))
    print(row(f"total {args.dirs[1]}", b))
    print(row("difference", {kind: b[kind] - a[kind] for kind in KINDS}, ">+11"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
