"""Source lines and code lines of each module of the package.

    python3 tests/code_lines.py [PACKAGE_DIR]

``PACKAGE_DIR`` defaults to this repository's ``src/mlmc_boed``.  Prints one
row per module, in name order, then the totals: its lines as ``wc -l``
counts them (newline characters) and its code lines, the lines on which
the tokenizer finds a token other than a comment, a docstring or layout (a
token spanning several lines counts on each).  A docstring is a string
that is a statement of its own.  A last line gives the number of exported
names, the length of ``__all__`` in ``__init__.py``, which is parsed, not
imported, so that any tree can be counted.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mlmc_boed"
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
LAYOUT = STATEMENT_START | {tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    lines, last = set(), tokenize.NEWLINE          # the last token but comments and NL
    for tok, after in zip(tokens, tokens[1:] + tokens[-1:]):
        if tok.type in (tokenize.COMMENT, tokenize.NL):
            continue
        docstring = (tok.type == tokenize.STRING and last in STATEMENT_START
                     and after.type == tokenize.NEWLINE)
        if tok.type not in LAYOUT and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        last = tok.type
    return len(lines)


def exported_names(package: Path) -> int:
    for node in ast.parse((package / "__init__.py").read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["__all__"]:
            return len(ast.literal_eval(node.value))
    return 0


def main(argv) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    rows = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        rows.append((source.count("\n"), code_lines(source), path.name))
    rows.append((sum(r[0] for r in rows), sum(r[1] for r in rows), "total"))
    print(f"{'lines':>6} {'code':>6}  module")
    for lines, code, name in rows:
        print(f"{lines:>6} {code:>6}  {name}")
    print(f"{exported_names(package):>6} exported names")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
