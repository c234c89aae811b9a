"""Count the code lines of each module of src/riordanlab.

A code line holds at least one token that is not a comment; blank lines,
comment lines and docstrings (a string literal standing alone as a
statement) are not counted.  Prints one line per module and the total:

    python scripts/code_lines.py
"""

import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "riordanlab"
LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
          tokenize.COMMENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in LAYOUT - {tokenize.NEWLINE}]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        alone = (i == 0 or tokens[i - 1].type == tokenize.NEWLINE) and (
            i + 1 == len(tokens) or tokens[i + 1].type == tokenize.NEWLINE)
        if tok.type == tokenize.STRING and alone:  # a docstring or a bare string
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:16} {n:5}")
    print(f"{'total':16} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
