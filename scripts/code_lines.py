"""Count the code lines of each module of src/riordanlab.

A code line holds at least one token that is not a comment; blank lines,
comment lines and docstrings (a string literal standing alone as a
statement) are not counted.  Prints one line per module and the total:

    python scripts/code_lines.py

With --against REF, also counts each module as it is at the git revision
REF (read through `git show`; 0 for a module missing on one side) and
prints `module before -> after` per module and for the total:

    python scripts/code_lines.py --against HEAD
"""

import argparse
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "riordanlab"
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


def git(*args) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout


def counts_at(ref: str) -> dict:
    """Code lines of each module of the package at the git revision ref."""
    package = "./" + PACKAGE.relative_to(ROOT).as_posix()  # relative to ROOT, the cwd of git
    names = git("ls-tree", "--name-only", f"{ref}:{package}").split()
    return {name: code_lines(git("show", f"{ref}:{package}/{name}"))
            for name in names if name.endswith(".py")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of src/riordanlab.")
    parser.add_argument("--against", metavar="REF",
                        help="also count each module at this git revision: before -> after")
    args = parser.parse_args(argv)
    now = {path.name: code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    if args.against is None:
        for name, n in now.items():
            print(f"{name:16} {n:5}")
        print(f"{'total':16} {sum(now.values()):5}")
        return 0
    before = counts_at(args.against)
    for name in sorted(now.keys() | before.keys()):
        print(f"{name:16} {before.get(name, 0):5} -> {now.get(name, 0):5}")
    print(f"{'total':16} {sum(before.values()):5} -> {sum(now.values()):5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
